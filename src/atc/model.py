"""Fused two-branch classification head: visual cache affinities plus an
instance-adapted textual cache, combined into logits, with exact
reverse-mode gradients for all trainable tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caches import TextualCache, VisualCache
from .conditionnet import ConditionNetParams, condition_backward, condition_forward
from .errors import EvaluationError, ShapeError, ValidationError
from .numerics import _BLOCK_VALUES, ZERO_NORM, l2_normalize_rows


@dataclass
class AtcModel:
    textual: TextualCache
    visual: VisualCache
    net: ConditionNetParams
    alpha: float = 1.0
    beta: float = 1.0
    logit_scale: float = 100.0
    activation: str = "linear"      # linear | tip
    tip_gamma: float = 1.0
    adaptive_text: bool = True      # False freezes the bias network (s = 0)

    @property
    def dim(self) -> int:
        return self.textual.class_texts.shape[1]


def tensors(model: AtcModel) -> dict[str, np.ndarray]:
    """Live references to every tensor a checkpoint stores: the bias network
    (even when frozen) and the visual cache's learnable rows, if any."""
    out = {f"net.{k}": v for k, v in model.net.tensors().items()}
    if model.visual.mode == "biases":
        out["visual.biases"] = model.visual.biases
    elif model.visual.mode == "linear":
        out["visual.linear"] = model.visual.linear
    return out


def trainables(model: AtcModel) -> dict[str, np.ndarray]:
    """Live references to every trainable tensor, keyed by group name."""
    return {k: v for k, v in tensors(model).items()
            if model.adaptive_text or not k.startswith("net.")}


def set_tensors(model: AtcModel, values: dict[str, np.ndarray]) -> None:
    """Bind the given float64 arrays as the named model tensors, without
    copying them: the model then reads and trains those arrays. Every name
    must be one of tensors(model), with its shape; nothing is bound
    otherwise."""
    live = tensors(model)
    bound = {}
    for k, v in values.items():
        if k not in live:
            raise ValidationError(f"unknown tensor {k!r}")
        v = np.asarray(v, dtype=np.float64)
        if v.shape != live[k].shape:
            raise ValidationError(f"tensor {k} has shape {v.shape}, "
                                  f"model expects {live[k].shape}")
        bound[k] = v
    for k, v in bound.items():
        group, _, name = k.partition(".")
        if name in model.net.gates:
            model.net.gates[name] = v
        else:
            setattr(getattr(model, group), name, v)


def _normalize_rows_bwd(d_unit, unit, safe, zero):
    """(d_unit - <unit, d_unit> unit) / safe, in one new array, with the
    rows that passed through the renormalization (zero) passing d_unit
    back unchanged."""
    d_raw = np.multiply(unit, d_unit)
    inner = np.add.reduce(d_raw, axis=-1, keepdims=True)
    np.multiply(inner, unit, out=d_raw)
    np.subtract(d_unit, d_raw, out=d_raw)
    d_raw /= safe
    rows = np.flatnonzero(zero)
    d_raw[rows] = d_unit[rows]
    return d_raw


def _effective_rows(cache: VisualCache, lo: int, hi: int):
    """Cache rows lo:hi as scored, and their (safe, zero) norms or None."""
    if cache.mode == "linear":
        return cache.linear[lo:hi], None
    if cache.index is None:
        rows, fresh = cache.support[lo:hi], None
    else:   # a fresh gather, which the biases and the renorm write into
        rows = fresh = cache.support[cache.index[lo:hi]]
    if cache.mode == "biases":  # a fresh sum is renormalized in place
        rows = fresh = np.add(rows, cache.biases[lo:hi], out=fresh)
    if not cache.renormalize:
        return rows, None
    rows, safe, zero = l2_normalize_rows(rows, out=fresh)
    # an overflowed norm would quietly turn its row into zeros
    if not np.isfinite(safe).all():
        raise EvaluationError("a visual cache row norm is not finite")
    return rows, (safe, zero)


def visual_rows(model: AtcModel, *, record: bool = False):
    """The effective cache rows the visual branch scores against, what the
    backward pass needs to undo their renormalization (or None), and, under
    linear activation, their per-class sums (or None). One result serves
    many query batches. A linear call without record=True forms the rows a
    block of whole classes at a time and keeps only the sums."""
    cache = model.visual
    if model.activation != "linear":
        return *_effective_rows(cache, 0, cache.rows), None
    # a block: the whole classes starting in one window of `step` rows
    step = cache.rows if record else max(1, _BLOCK_VALUES // max(cache.dim, 1))
    firsts = np.flatnonzero(np.diff(cache.starts // step, prepend=-1))
    edges = [*cache.starts, cache.rows]
    # linear affinities sum per class to one dot product with the class's
    # summed row, one class-major run each
    proto = np.zeros((cache.starts.size, cache.dim))
    for first, end in zip(firsts, [*firsts[1:], cache.starts.size]):
        lo = edges[first]
        rows, vnorm = _effective_rows(cache, lo, edges[end])
        for c in range(first, end):
            proto[c] += np.add.reduce(rows[edges[c] - lo:edges[c + 1] - lo], 0)
    return (rows, vnorm, proto) if record else (None, None, proto)


# A pair whose squared shifted norm is at most this fraction of
# |t_c|^2 + |S_b|^2 has lost most of its digits to cancellation in the
# expanded form; its row t_c + S_b is formed and scored directly.
_CANCEL = 1e-2


def _text_scores(F, T, S, renormalize: bool):
    """Textual scores f2[b, c] = F_b . (t_c + S_b), divided by
    |t_c + S_b| when renormalizing, without forming the (B, c, dim) shifted
    rows: |t_c + S_b|^2 = |t_c|^2 + 2 S_b . t_c + |S_b|^2. A row whose norm
    is at most ZERO_NORM passes through unnormalized. A frozen net's S = 0
    adds exact zeros, so its scores are F . t_c, over |t_c| when
    renormalizing.

    Returns f2 and what _text_shift_grad needs: None without renorm, else
    (safe norms, zero mask, the cancellation-prone pairs (b, c) and rows)."""
    f2 = F @ T.T
    f2 += np.einsum("bd,bd->b", F, S)[:, None]
    if not renormalize:
        return f2, None
    tt = np.einsum("cd,cd->c", T, T)
    ss = np.einsum("bd,bd->b", S, S)[:, None]
    n2 = tt + 2.0 * (S @ T.T) + ss
    norm = np.sqrt(np.maximum(n2, 0.0))
    if not np.isfinite(norm).all():
        raise EvaluationError("a shifted text row norm is not finite")
    close = None
    b, c = np.nonzero(n2 <= _CANCEL * (tt + ss))
    if b.size:
        V = T[c] + S[b]
        norm[b, c] = np.linalg.norm(V, axis=1)
        f2[b, c] = np.einsum("kd,kd->k", F[b], V)
        close = (b, c, V)
    zero = norm <= ZERO_NORM
    safe = np.where(zero, 1.0, norm)
    f2 /= safe
    return f2, (safe, zero, close)


def _text_shift_grad(F, T, S, df2, f2, saved):
    """Gradient of sum(df2 * f2) with respect to the shift S (B, dim):
    dS = F * sum_c(a) - w @ T - S * sum_c(w), a = df2 / n, w = df2 f2 / n^2,
    with a = df2 and w = 0 where the row passed through (or no renorm).
    Cancellation-prone pairs take their w term against their own row."""
    if saved is None:
        return F * df2.sum(axis=1, keepdims=True)
    safe, zero, close = saved
    a = df2 / safe
    w = np.where(zero, 0.0, a * f2 / safe)
    if close is not None:
        b, c, V = close
        w_close = w[b, c]
        w[b, c] = 0.0
    dS = (F * a.sum(axis=1, keepdims=True) - w @ T
          - S * w.sum(axis=1, keepdims=True))
    if close is not None:
        np.add.at(dS, b, -w_close[:, None] * V)
    return dS


def branches(model: AtcModel, F: np.ndarray, self_indices=None, rows=None,
             *, record: bool = False):
    """Both branch scores for queries F (B, dim), before fusion.

    Returns (f1, f2, ctx): the visual and textual scores, each (B, c), and
    the intermediates the backward pass needs. The condition net's tape is
    recorded only with record=True; without it ctx["tape"] is None and
    _backward raises ContractError. With self_indices, query i's
    affinity to support row self_indices[i] is masked out. `rows` is a
    visual_rows(model) result to reuse instead of recomputing it.
    """
    if F.ndim != 2 or F.shape[1] != model.dim:
        raise ShapeError(f"queries shape {F.shape} incompatible with dim {model.dim}")
    B = F.shape[0]

    # visual branch: tip affinities cannot be summed before activating, so
    # they form (B, rows); linear ones are scored against the class sums
    if rows is None:    # masking a self term reads the rows
        rows = visual_rows(model, record=record or self_indices is not None)
    rows, vnorm, proto = rows
    labels, a_act = model.visual.labels, None
    if proto is None:
        with np.errstate(over="ignore"):   # inf reaches the loss check
            a_act = np.exp(-model.tip_gamma * (1.0 - F @ rows.T))
        if self_indices is not None:
            a_act[np.arange(B), self_indices] = 0.0
        f1 = np.add.reduceat(a_act, model.visual.starts, axis=1)
    else:
        f1 = F @ proto.T
        if self_indices is not None:
            f1[np.arange(B), labels[self_indices]] -= np.einsum(
                "bd,bd->b", F, rows[self_indices])

    # textual branch: a frozen net's shift is s = 0
    if model.adaptive_text:
        S, tape = condition_forward(model.net, F, record=record)
    else:
        S, tape = np.zeros_like(F), None
    f2, tsaved = _text_scores(F, model.textual.class_texts, S,
                              model.textual.renormalize)

    ctx = dict(F=F, rows=rows, vnorm=vnorm, a_act=a_act,
               self_indices=self_indices, S=S, tape=tape,
               f2=f2, tsaved=tsaved)
    return f1, f2, ctx


def fuse(f1: np.ndarray, f2: np.ndarray, alpha: float, beta: float,
         logit_scale: float) -> np.ndarray:
    """Fused logits logit_scale * (alpha f1 + beta f2); inf/nan on overflow."""
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    if f1.shape != f2.shape:
        raise ShapeError(f"branch shapes differ: {f1.shape} vs {f2.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return logit_scale * (alpha * f1 + beta * f2)


def _backward(model: AtcModel, ctx, d_logits: np.ndarray) -> dict[str, np.ndarray]:
    F = ctx["F"]
    B = F.shape[0]
    grads: dict[str, np.ndarray] = {}
    df1 = model.logit_scale * model.alpha * d_logits
    df2 = model.logit_scale * model.beta * d_logits

    if model.visual.mode in ("biases", "linear"):
        labels = model.visual.labels
        s = ctx["self_indices"]
        if ctx["a_act"] is None:
            d_rows = (df1.T @ F)[labels]
            if s is not None:
                np.subtract.at(d_rows, s,
                               df1[np.arange(B), labels[s]][:, None] * F)
        else:
            da_act = df1[:, labels]
            if s is not None:
                da_act[np.arange(B), s] = 0.0
            da_raw = da_act * model.tip_gamma * ctx["a_act"]
            d_rows = da_raw.T @ F
        if model.visual.mode == "linear":
            grads["visual.linear"] = d_rows
        else:
            if ctx["vnorm"] is not None:
                safe, zero = ctx["vnorm"]
                d_rows = _normalize_rows_bwd(d_rows, ctx["rows"], safe, zero)
            grads["visual.biases"] = d_rows

    if model.adaptive_text:
        dS = _text_shift_grad(F, model.textual.class_texts, ctx["S"], df2,
                              ctx["f2"], ctx["tsaved"])
        for k, v in condition_backward(model.net, ctx["tape"], dS).items():
            grads[f"net.{k}"] = v
    return grads


def _loss_from_logits(logits: np.ndarray, targets: np.ndarray):
    c = logits.shape[1]
    # a negative target would index from the end instead of failing
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise IndexError(f"label out of range for {c} classes")
    # overflowed logits give a NaN loss, which train reports
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = logits - logits.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1))
        losses = logz - shifted[np.arange(logits.shape[0]), targets]
        probs = np.exp(shifted - logz[:, None])
    return float(losses.mean()), probs


def loss_and_grads(model: AtcModel, queries: np.ndarray, targets,
                   self_indices=None):
    """Mean cross-entropy, exact gradients for every trainable group
    (averaged over the batch), and the logits both were taken at."""
    F = np.asarray(queries, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    f1, f2, ctx = branches(model, F, self_indices, record=True)
    logits = fuse(f1, f2, model.alpha, model.beta, model.logit_scale)
    loss, probs = _loss_from_logits(logits, targets)
    # the gradient with respect to the logits: softmax minus the one-hot
    # targets, over the batch size
    probs[np.arange(F.shape[0]), targets] -= 1.0
    probs /= F.shape[0]
    return loss, _backward(model, ctx, probs), logits


def predict_batch(model: AtcModel, queries: np.ndarray) -> np.ndarray:
    """Predicted class per query row."""
    f1, f2, _ = branches(model, np.asarray(queries, dtype=np.float64))
    return np.argmax(fuse(f1, f2, model.alpha, model.beta, model.logit_scale),
                     axis=1)


def zero_shot_logits(class_texts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Plain cosine scores against the frozen text rows (the no-training
    baseline the fused head reduces to at alpha=0 with zero-init trainables)."""
    return np.asarray(queries, dtype=np.float64) @ np.asarray(class_texts).T
