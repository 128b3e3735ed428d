"""The two caches: class-text rows with an instance-wise additive bias, and
support-image rows with learnable offsets (or a free linear layer).

Renormalization after bias addition defaults ON for both caches. Without it
the textual branch is degenerate: adding the same bias vector to every text
row shifts every class logit by one identical scalar, so the probabilities,
the argmax, and the gradient into the bias are all unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import EmbeddingSet
from .errors import ValidationError

VISUAL_MODES = ("fixed", "linear", "biases")


@dataclass
class TextualCache:
    class_texts: np.ndarray         # (c, dim) unit-norm rows, class order
    renormalize: bool = True

    @property
    def num_classes(self) -> int:
        return self.class_texts.shape[0]

    @property
    def dim(self) -> int:
        return self.class_texts.shape[1]


def build_textual_cache(text_set: EmbeddingSet,
                        renormalize: bool = True) -> TextualCache:
    if text_set.role != "text":
        raise ValidationError(f"expected a text set, got role {text_set.role!r}")
    text_set.validate()
    return TextualCache(np.array(text_set.features), renormalize)


@dataclass
class VisualCache:
    support: np.ndarray              # (n*k, dim) unit-norm rows, frozen
    labels: np.ndarray               # (n*k,) int class of each row, frozen
    mode: str = "biases"             # fixed | linear | biases
    renormalize: bool = True
    biases: np.ndarray | None = None       # (n*k, dim), zero at init (mode=biases)
    linear: np.ndarray | None = None       # (n*k, dim), copy of support (mode=linear)

    @property
    def rows(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]


def build_visual_cache(support_set: EmbeddingSet, num_classes: int,
                       mode: str = "biases",
                       renormalize: bool = True) -> VisualCache:
    if mode not in VISUAL_MODES:
        raise ValidationError(f"unknown visual cache mode {mode!r}")
    support_set.validate()
    present = np.unique(support_set.labels)
    if not np.array_equal(present, np.arange(num_classes)):
        missing = sorted(set(range(num_classes)) - set(present.tolist()))
        raise ValidationError(
            f"support set missing classes {missing}" if missing else
            f"support set has {present.size} classes, text set has "
            f"{num_classes}")
    support = np.array(support_set.features)
    cache = VisualCache(support, np.array(support_set.labels, dtype=np.int64),
                        mode, renormalize)
    if mode == "biases":
        cache.biases = np.zeros_like(support)
    elif mode == "linear":
        # free weight rows initialized from the support
        # rows, no additive decomposition and no renormalization afterwards.
        cache.linear = np.array(support)
    return cache

