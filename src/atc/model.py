"""Fused two-branch classification head: visual cache affinities plus an
instance-adapted textual cache, combined into logits, with exact
reverse-mode gradients for all trainable tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caches import TextualCache, VisualCache
from .conditionnet import ConditionNetParams, condition_backward, condition_forward
from .errors import ShapeError, ValidationError
from .numerics import l2_normalize_rows, one_hot


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
    def num_classes(self) -> int:
        return self.textual.num_classes

    @property
    def dim(self) -> int:
        return self.textual.dim


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
    """Copy values into the named model tensors. Every name must be one of
    tensors(model), with its shape; nothing is copied otherwise."""
    live = tensors(model)
    for k, v in values.items():
        if k not in live:
            raise ValidationError(f"unknown tensor {k!r}")
        if np.shape(v) != live[k].shape:
            raise ValidationError(f"tensor {k} has shape {np.shape(v)}, "
                                  f"model expects {live[k].shape}")
    for k, v in values.items():
        np.copyto(live[k], v)


def _normalize_rows_bwd(d_unit, unit, safe, zero):
    inner = np.sum(unit * d_unit, axis=-1, keepdims=True)
    d_raw = (d_unit - inner * unit) / safe
    return np.where(zero, d_unit, d_raw)


def visual_rows(cache: VisualCache):
    """The effective cache rows the visual branch scores against, plus what
    the backward pass needs to undo their renormalization (or None). They
    depend only on the cache, so one result can serve many query batches."""
    if cache.mode == "linear":
        return cache.linear, None
    raw = cache.support if cache.mode == "fixed" else cache.support + cache.biases
    if cache.renormalize:
        unit, safe, zero = l2_normalize_rows(raw)
        return unit, (safe, zero)
    return raw, None


def _activate(a_raw: np.ndarray, activation: str, gamma: float) -> np.ndarray:
    if activation == "tip":
        return np.exp(-gamma * (1.0 - a_raw))
    return a_raw


def _class_sums(a: np.ndarray, labels: np.ndarray,
                num_classes: int) -> np.ndarray:
    """Sum the columns of a (B, rows) that share a label: (B, num_classes).
    Columns are summed in class-major order, gathered through a stable
    argsort when the labels are not already sorted."""
    if labels.size > 1 and np.any(labels[1:] < labels[:-1]):
        order = np.argsort(labels, kind="stable")
        a, labels = a[:, order], labels[order]
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    present = labels[starts]
    if present.size == num_classes:
        return np.add.reduceat(a, starts, axis=1)
    out = np.zeros((a.shape[0], num_classes))
    if present.size:
        out[:, present] = np.add.reduceat(a, starts, axis=1)
    return out


# A pair whose squared shifted norm is at most this fraction of
# |t_c|^2 + |S_b|^2 has lost most of its digits to cancellation in the
# expanded form; its row t_c + S_b is formed and scored directly.
_CANCEL = 1e-2
_ZERO_NORM = 1e-12      # l2_normalize_rows' pass-through threshold


def _text_scores(F, T, S, renormalize: bool):
    """Textual scores f2[b, c] = F_b . (t_c + S_b), divided by
    |t_c + S_b| when renormalizing, without forming the (B, c, dim) shifted
    rows: |t_c + S_b|^2 = |t_c|^2 + 2 S_b . t_c + |S_b|^2. A row whose norm
    is at most 1e-12 passes through unnormalized.

    Returns f2 and what _text_shift_grad needs: None without renorm, else
    (safe norms, zero mask, the cancellation-prone pairs (b, c) and rows)."""
    shifted = bool(np.any(S))      # S == 0 (a frozen or fresh net) is common
    f2 = F @ T.T
    if shifted:
        f2 += np.einsum("bd,bd->b", F, S)[:, None]
    if not renormalize:
        return f2, None
    tt = np.einsum("cd,cd->c", T, T)
    close = None
    if shifted:
        ss = np.einsum("bd,bd->b", S, S)[:, None]
        n2 = tt + 2.0 * (S @ T.T) + ss
        norm = np.sqrt(np.maximum(n2, 0.0))
        b, c = np.nonzero(n2 <= _CANCEL * (tt + ss))
        if b.size:
            V = T[c] + S[b]
            norm[b, c] = np.linalg.norm(V, axis=1)
            f2[b, c] = np.einsum("kd,kd->k", F[b], V)
            close = (b, c, V)
    else:
        norm = np.broadcast_to(np.sqrt(tt), f2.shape)
    zero = norm <= _ZERO_NORM
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


def branches(model: AtcModel, F: np.ndarray, self_indices=None, rows=None):
    """Both branch scores for queries F (B, dim), before fusion.

    Returns (f1, f2, ctx): the visual and textual scores, each (B, c), and
    the intermediates the backward pass needs. With self_indices, query i's
    affinity to support row self_indices[i] is masked out. `rows` is a
    visual_rows(model.visual) result to reuse instead of recomputing it.
    """
    if F.ndim != 2 or F.shape[1] != model.dim:
        raise ShapeError(f"queries shape {F.shape} incompatible with dim {model.dim}")
    B = F.shape[0]

    # visual branch
    rows, vnorm = visual_rows(model.visual) if rows is None else rows
    a_raw = F @ rows.T
    a_act = _activate(a_raw, model.activation, model.tip_gamma)
    if self_indices is not None:
        a_act = a_act.copy()
        a_act[np.arange(B), self_indices] = 0.0
    f1 = _class_sums(a_act, model.visual.labels, model.num_classes)

    # textual branch
    if model.adaptive_text:
        S, tape = condition_forward(model.net, F)
    else:
        S, tape = np.zeros((B, model.dim)), None
    f2, tsaved = _text_scores(F, model.textual.class_texts, S,
                              model.textual.renormalize)

    ctx = dict(F=F, rows=rows, vnorm=vnorm, a_act=a_act,
               self_indices=self_indices, S=S, tape=tape,
               f2=f2, tsaved=tsaved)
    return f1, f2, ctx


def fuse(f1: np.ndarray, f2: np.ndarray, alpha: float, beta: float,
         logit_scale: float) -> np.ndarray:
    """Fused logits: logit_scale * (alpha * f1 + beta * f2)."""
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    if f1.shape != f2.shape:
        raise ShapeError(f"branch shapes differ: {f1.shape} vs {f2.shape}")
    return logit_scale * (alpha * f1 + beta * f2)


def _logits(model: AtcModel, F: np.ndarray, self_indices=None):
    f1, f2, ctx = branches(model, F, self_indices)
    return fuse(f1, f2, model.alpha, model.beta, model.logit_scale), ctx


def _backward(model: AtcModel, ctx, d_logits: np.ndarray) -> dict[str, np.ndarray]:
    F = ctx["F"]
    B = F.shape[0]
    grads: dict[str, np.ndarray] = {}
    df1 = model.logit_scale * model.alpha * d_logits
    df2 = model.logit_scale * model.beta * d_logits

    if model.visual.mode in ("biases", "linear"):
        da_act = df1[:, model.visual.labels]
        if ctx["self_indices"] is not None:
            da_act[np.arange(B), ctx["self_indices"]] = 0.0
        if model.activation == "tip":
            da_raw = da_act * model.tip_gamma * ctx["a_act"]
        else:
            da_raw = da_act
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
        net_grads, _ = condition_backward(model.net, ctx["tape"], dS)
        for k, v in net_grads.items():
            grads[f"net.{k}"] = v
    return grads


def _loss_from_logits(logits: np.ndarray, targets: np.ndarray):
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    idx = np.arange(logits.shape[0])
    losses = logz - shifted[idx, targets]
    probs = np.exp(shifted - logz[:, None])
    return float(losses.mean()), probs


def batch_loss(model: AtcModel, queries: np.ndarray, targets,
               self_indices=None) -> float:
    """Mean cross-entropy of the fused logits over a query batch."""
    targets = np.asarray(targets, dtype=np.int64)
    logits, _ = _logits(model, np.asarray(queries, dtype=np.float64),
                        self_indices)
    loss, _ = _loss_from_logits(logits, targets)
    return loss


def loss_and_grads(model: AtcModel, queries: np.ndarray, targets,
                   self_indices=None):
    """Mean cross-entropy plus exact gradients for every trainable group,
    averaged over the batch."""
    F = np.asarray(queries, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    logits, ctx = _logits(model, F, self_indices)
    loss, probs = _loss_from_logits(logits, targets)
    d_logits = (probs - one_hot(targets, logits.shape[1])) / F.shape[0]
    return loss, _backward(model, ctx, d_logits)


def predict_batch(model: AtcModel, queries: np.ndarray) -> np.ndarray:
    """Predicted class per query row."""
    logits, _ = _logits(model, np.asarray(queries, dtype=np.float64))
    return np.argmax(logits, axis=1)


def zero_shot_logits(class_texts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Plain cosine scores against the frozen text rows (the no-training
    baseline the fused head reduces to at alpha=0 with zero-init trainables)."""
    return np.asarray(queries, dtype=np.float64) @ np.asarray(class_texts).T
