"""Fused two-branch classification head: visual cache affinities plus an
instance-adapted textual cache, combined into logits, with exact
reverse-mode gradients for all trainable tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    mode = model.visual.mode
    if mode != "fixed":
        out[f"visual.{mode}"] = getattr(model.visual, mode)
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
    """(d_unit - <unit, d_unit> unit) / safe, written over unit (whose rows
    are then spent), with the rows that passed through the renormalization
    (zero) passing d_unit back unchanged."""
    t = np.multiply(unit, d_unit)
    np.multiply(np.add.reduce(t, axis=-1, keepdims=True), unit, out=t)
    np.subtract(d_unit, t, out=unit)
    unit /= safe
    np.copyto(unit, d_unit, where=zero)
    return unit


def _effective_rows(cache: VisualCache, lo: int, hi: int, out=None):
    """Cache rows lo:hi as scored, and their (safe, zero) norms or None; a
    fresh array of rows is written into out (hi - lo rows) when given."""
    if cache.mode == "linear":
        return cache.linear[lo:hi], None
    if cache.index is None:
        rows, fresh = cache.support[lo:hi], out
    else:   # a fresh gather, unbuffered ("wrap"; VisualCache checked it)
        rows = fresh = np.take(cache.support, cache.index[lo:hi], axis=0,
                               out=out, mode="wrap")
    if cache.mode == "biases":  # a fresh sum is renormalized in place
        rows = fresh = np.add(rows, cache.biases[lo:hi], out=fresh)
    if not cache.renormalize:
        return rows, None
    rows, safe, zero = l2_normalize_rows(rows, out=fresh)
    # an overflowed norm would quietly turn its row into zeros
    if not np.isfinite(safe).all():
        raise EvaluationError("a visual cache row norm is not finite")
    return rows, (safe, zero)


def _visual_scores(model: AtcModel, F: np.ndarray, self_indices, keep: bool,
                   out=None, sums=None):
    """f1 (B, c) for checked queries F from one walk over the effective cache
    rows, a block of whole classes at a time, and the rows, norms and tip
    affinities for _visual_grad: None unless kept, and then one block (in out).
    Linear also returns the class sums the walk adds; given sums skip it."""
    if sums is not None:
        return F @ sums.T, (None, None, None), sums
    cache, B, n = model.visual, F.shape[0], model.visual.starts.size
    step = cache.rows if keep else max(1, _BLOCK_VALUES // max(cache.dim, 1))
    # a block: the whole classes starting in one window of `step` rows
    firsts = np.flatnonzero(np.diff(cache.starts // step, prepend=-1))
    edges = [*cache.starts, cache.rows]
    # linear affinities sum per class to one dot product with the class's
    # summed row; tip ones are activated, then summed per class, in cache
    tip, a_act = model.activation != "linear", None
    f1 = np.empty((B, n)) if tip else None
    sums = None if tip else np.zeros((n, cache.dim))
    for first, end in zip(firsts, [*firsts[1:], n]):
        lo = edges[first]
        rows, vnorm = _effective_rows(cache, lo, edges[end], out)
        if tip:
            with np.errstate(over="ignore"):   # inf reaches the loss check
                a_act = np.exp(-model.tip_gamma * (1.0 - F @ rows.T))
            if self_indices is not None:
                a_act[np.arange(B), self_indices] = 0.0
            np.add.reduceat(a_act, cache.starts[first:end] - lo, axis=1,
                            out=f1[:, first:end])
            continue
        for c in range(first, end):
            sums[c] += np.add.reduce(rows[edges[c] - lo:edges[c + 1] - lo], 0)
    if not tip:
        f1 = F @ sums.T
        if self_indices is not None:
            f1[np.arange(B), cache.labels[self_indices]] -= np.einsum(
                "bd,bd->b", F, rows[self_indices])
    return f1, (rows, vnorm, a_act) if keep else (None, None, None), sums


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


def _text_branch(model: AtcModel, F: np.ndarray, record: bool):
    """f2 (B, c) and what _text_shift_grad needs, then the shift S (a frozen
    net's is 0) and the condition net's tape (None unless recorded)."""
    S, tape = (condition_forward(model.net, F, record=record)
               if model.adaptive_text else (np.zeros_like(F), None))
    return (*_text_scores(F, model.textual.class_texts, S,
                          model.textual.renormalize), S, tape)


def fuse(f1: np.ndarray, f2: np.ndarray, alpha: float, beta: float,
         logit_scale: float) -> np.ndarray:
    """Fused logits logit_scale * (alpha f1 + beta f2); inf/nan on overflow."""
    if f1.shape != f2.shape:
        raise ShapeError(f"branch shapes differ: {f1.shape} vs {f2.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return logit_scale * (alpha * f1 + beta * f2)


def _visual_grad(model: AtcModel, F, s, kept, df1) -> np.ndarray:
    """Gradient of sum(df1 * f1) with respect to the visual cache's trainable
    rows, from what the walk over queries F (self mask s) kept, a block of
    rows at a time; in biases mode it is written over the kept effective
    rows, a fresh array of the forward's."""
    (rows, vnorm, a_act), cache = kept, model.visual
    labels, linear = cache.labels, model.activation == "linear"
    if linear:  # a row's gradient is its class's, less its masked self terms
        G = df1.T @ F
    else:
        da_act = df1[:, labels]
        if s is not None:
            da_act[np.arange(F.shape[0]), s] = 0.0
        G = (da_act * model.tip_gamma * a_act).T @ F
    out = (rows if cache.mode == "biases" else
           np.empty((cache.rows, cache.dim)) if linear else G)
    step = max(1, _BLOCK_VALUES // max(cache.dim, 1))
    for lo in range(0, cache.rows, step):
        hi = lo + step
        d_rows = G[labels[lo:hi]] if linear else G[lo:hi]
        if linear and s is not None:   # in np.subtract.at's order per row
            i = np.flatnonzero((s >= lo) & (s < hi))
            np.subtract.at(d_rows, s[i] - lo,
                           df1[i, labels[s[i]]][:, None] * F[i])
        if vnorm is None:
            out[lo:hi] = d_rows
        else:
            _normalize_rows_bwd(d_rows, out[lo:hi],
                                *(v[lo:hi] for v in vnorm))
    return out


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
                   self_indices=None, rows_out=None):
    """The recorded pass: mean cross-entropy, exact gradients for every
    trainable group (averaged over the batch) and the fused logits both were
    taken at. Query i's affinity to support row self_indices[i] is masked
    out; rows_out, a spent (rows, dim) float64 array (the last step's
    visual.biases gradient), receives the kept visual rows if they are fresh."""
    F = np.asarray(queries, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != model.dim:
        raise ShapeError(f"queries shape {F.shape} incompatible with dim {model.dim}")
    targets = np.asarray(targets, dtype=np.int64)
    for name, a in (("targets", targets), ("self_indices", self_indices)):
        if a is not None and np.shape(a) != (F.shape[0],):
            raise ShapeError(f"{name} shape {np.shape(a)} does not match "
                             f"{F.shape[0]} queries")
    if self_indices is not None:
        self_indices, rows = np.asarray(self_indices), model.visual.rows
        # a negative index would mask a row counted from the end
        if self_indices.size and (self_indices.min() < 0
                                  or self_indices.max() >= rows):
            raise IndexError(f"self index out of range for {rows} cache rows")
    f1, kept, _ = _visual_scores(model, F, self_indices, True, rows_out)
    f2, tsaved, S, tape = _text_branch(model, F, True)
    logits = fuse(f1, f2, model.alpha, model.beta, model.logit_scale)
    loss, d_logits = _loss_from_logits(logits, targets)
    # the gradient with respect to the logits: softmax minus the one-hot
    # targets, over the batch size
    d_logits[np.arange(F.shape[0]), targets] -= 1.0
    d_logits /= F.shape[0]
    grads, mode = {}, model.visual.mode
    if mode != "fixed":     # in biases mode, written over the kept rows
        grads[f"visual.{mode}"] = _visual_grad(
            model, F, self_indices, kept,
            model.logit_scale * model.alpha * d_logits)
    if model.adaptive_text:
        dS = _text_shift_grad(F, model.textual.class_texts, S,
                              model.logit_scale * model.beta * d_logits, f2,
                              tsaved)
        for k, v in condition_backward(model.net, tape, dS).items():
            grads[f"net.{k}"] = v
    return loss, grads, logits


def predictions(model: AtcModel, queries: np.ndarray, fusions) -> np.ndarray:
    """Predicted class per query row under each (alpha, beta) of fusions,
    (len(fusions), rows), or -1 where a row's fused logits are not finite.
    Equal chunks of at most 256 rows, none a lone row of several (NumPy
    rounds those apart), are scored and reduced one at a time."""
    F = np.asarray(queries, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != model.dim:
        raise ShapeError(f"queries shape {F.shape} incompatible with dim {model.dim}")
    n = max(1, -(-F.shape[0] // 256))
    edges = F.shape[0] * np.arange(n + 1) // n
    preds = np.empty((len(fusions), F.shape[0]), dtype=np.int64)
    if model.activation != "linear" and n > 1:
        # tip: the chunks share one gather and renormalization of the rows
        rows = _effective_rows(model.visual, 0, model.visual.rows)[0]
        model = replace(model, visual=VisualCache(rows, model.visual.labels,
                                                  "fixed", False))
    sums = None     # linear: the first chunk's walk sums the classes
    for lo, hi in zip(edges[:-1], edges[1:]):
        f1, _, sums = _visual_scores(model, F[lo:hi], None, False, sums=sums)
        f2 = _text_branch(model, F[lo:hi], False)[0]
        for (alpha, beta), out in zip(fusions, preds):
            logits = fuse(f1, f2, alpha, beta, model.logit_scale)
            out[lo:hi] = np.where(np.isfinite(logits).all(axis=1),
                                  np.argmax(logits, axis=1), -1)
    return preds


def predict_batch(model: AtcModel, queries: np.ndarray) -> np.ndarray:
    """Predicted class per query row (see predictions)."""
    return predictions(model, queries, [(model.alpha, model.beta)])[0]


def zero_shot_logits(class_texts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Plain cosine scores against the frozen text rows (the no-training
    baseline the fused head reduces to at alpha=0 with zero-init trainables)."""
    return np.asarray(queries, dtype=np.float64) @ np.asarray(class_texts).T
