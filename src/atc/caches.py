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


def build_textual_cache(text_set: EmbeddingSet,
                        renormalize: bool = True) -> TextualCache:
    if text_set.role != "text":
        raise ValidationError(f"expected a text set, got role {text_set.role!r}")
    text_set.validate()
    return TextualCache(np.array(text_set.features), renormalize)


@dataclass
class VisualCache:
    support: np.ndarray              # (>= n*k, dim) unit-norm rows, frozen
    labels: np.ndarray               # (n*k,) int class of each row, frozen
    mode: str = "biases"             # fixed | linear | biases
    renormalize: bool = True
    biases: np.ndarray | None = None       # (n*k, dim), zero at init (mode=biases)
    linear: np.ndarray | None = None       # (n*k, dim), copy of support (mode=linear)
    # (n*k,) or None: cache row i is support[index[i]], not support[i]
    index: np.ndarray | None = None

    def __post_init__(self):
        # class-major labels 0,..,0,1,..,c-1: starts[c] is class c's first row
        self.starts = np.flatnonzero(np.diff(self.labels, prepend=-1))
        if not self.starts.size or not np.array_equal(
                self.labels[self.starts], np.arange(self.starts.size)):
            raise ValidationError("visual cache labels are not class-major")

    @property
    def rows(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]


def build_visual_cache(support_set: EmbeddingSet, num_classes: int,
                       mode: str = "biases", renormalize: bool = True,
                       index=None) -> VisualCache:
    """The cache over support_set's rows, or over its rows `index` (in that
    order, e.g. a sample_episode draw) without copying them."""
    if mode not in VISUAL_MODES:
        raise ValidationError(f"unknown visual cache mode {mode!r}")
    support_set.validate()
    labels = support_set.labels if index is None else support_set.labels[index]
    present = np.unique(labels)
    if not np.array_equal(present, np.arange(num_classes)):
        missing = sorted(set(range(num_classes)) - set(present.tolist()))
        raise ValidationError(
            f"support set missing classes {missing}" if missing else
            f"support set has {present.size} classes, text set has "
            f"{num_classes}")
    # the caller's rows, not a copy; np.zeros pages cost no memory until
    # written, so biases that a checkpoint replaces never become resident
    support = np.asarray(support_set.features, dtype=np.float64)
    cache = VisualCache(support, np.array(labels, dtype=np.int64), mode,
                        renormalize, index=index)
    if mode == "biases":
        cache.biases = np.zeros((cache.rows, cache.dim))
    elif mode == "linear":
        # free weight rows initialized from the support
        # rows, no additive decomposition and no renormalization afterwards.
        cache.linear = np.array(support) if index is None else support[index]
    return cache

