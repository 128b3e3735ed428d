"""Reference implementations the tests compare `atc.model.branches` against.

Each scores one query at a time with plain loops and shares no code with the
batched model. `shift_model` builds a model whose condition network emits the
same bias `s` for every query, so a chosen shift goes through the real path.
"""

import math

import numpy as np

from atc.caches import TextualCache, VisualCache
from atc.conditionnet import init_condition_net
from atc.model import AtcModel
from atc.numerics import Rng

_EPS = 1e-12


def _unit(row: np.ndarray) -> np.ndarray:
    norm = math.sqrt(sum(float(x) * float(x) for x in row))
    return row / norm if norm > _EPS else row


def visual_scores(f, rows, labels, num_classes, activation="linear",
                  gamma=1.0, renormalize=True) -> np.ndarray:
    """Per-class sum of the (activated) affinities between query f and each
    support row, by a double loop over classes and rows."""
    out = np.zeros(num_classes)
    for c in range(num_classes):
        for j in range(rows.shape[0]):
            if labels[j] != c:
                continue
            row = _unit(rows[j]) if renormalize else rows[j]
            a = float(f @ row)
            if activation == "tip":
                a = math.exp(-gamma * (1.0 - a))
            out[c] += a
    return out


def shifted_text_scores(f, class_texts, s, renormalize=True) -> np.ndarray:
    """Scores of query f against the text rows after adding the bias s to
    every row, renormalizing each shifted row if asked."""
    out = np.zeros(class_texts.shape[0])
    for c in range(class_texts.shape[0]):
        row = class_texts[c] + s
        out[c] = float(f @ (_unit(row) if renormalize else row))
    return out


def shift_model(class_texts, s, renormalize=True) -> AtcModel:
    """A model whose condition network outputs exactly s for every query:
    zero output weights, output bias s. The visual cache is the text rows."""
    class_texts = np.array(class_texts, dtype=np.float64)
    c, dim = class_texts.shape
    net = init_condition_net(dim, 1, 2, Rng(0))
    net.b_out[:] = s
    visual = VisualCache(class_texts.copy(), np.eye(c), mode="fixed")
    return AtcModel(TextualCache(class_texts, renormalize), visual, net)
