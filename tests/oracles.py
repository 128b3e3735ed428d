"""Reference implementations the tests compare `atc` against.

Each shares no code with the batched model: the row normalizer takes
NumPy's own norm, the scorers work one query at a time with plain loops,
the dense textual branch forms every shifted text row where the model uses
a closed form, and the dense visual branch forms every (B, rows) affinity
where the linear activation scores against per-class row sums. The Adam
step is the textbook formula, one temporary per operation. The episode
sampler scans the labels once per class, and `gathered_model` rebuilds a
checkpoint's model around a copy of that episode's rows. `shift_model`
builds a model whose condition network emits the same bias `s` for every
query, so a chosen shift goes through the real path. The encoders write the two documented
file layouts one field at a time with `struct.pack`.

The gradient audit is the exception: `grad_check` differentiates any scalar
function by central finite differences, and `check_gradients` points it at
`batch_loss`, the model's own forward loss, to audit `loss_and_grads`.
"""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from atc.caches import TextualCache, VisualCache
from atc.conditionnet import init_condition_net
from atc.errors import EvaluationError, InsufficientDataError, ShapeError
from atc.model import (AtcModel, _loss_from_logits, branches, fuse,
                       loss_and_grads, set_tensors, trainables)
from atc.numerics import Rng

_EPS = 1e-12


def _unit(row: np.ndarray) -> np.ndarray:
    norm = math.sqrt(sum(float(x) * float(x) for x in row))
    return row / norm if norm > _EPS else row


def linalg_normalize_rows(m):
    """Rows divided by np.linalg.norm(m, axis=-1), with the model's
    pass-through rule for norms at most 1e-12: (unit, safe norms, zero
    mask), the norms and mask keeping a trailing axis of length 1."""
    m = np.asarray(m, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(m, axis=-1, keepdims=True)
        zero = norms <= _EPS
        safe = np.where(zero, 1.0, norms)
        return m / safe, safe, zero


def normalize_rows_bwd(d_unit, unit, safe, zero):
    """Gradient through row renormalization over the whole array: the
    projection (d_unit - <unit, d_unit> unit) / safe, or d_unit itself on
    the rows that passed through."""
    inner = np.sum(unit * d_unit, axis=-1, keepdims=True)
    return np.where(zero, d_unit, (d_unit - inner * unit) / safe)


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


def dense_text_scores(F, class_texts, S, renormalize=True):
    """The textual branch through the full (B, c, dim) tensor of shifted
    rows V[b, c] = t_c + S_b, each divided by its norm unless that is at most
    1e-12. Returns f2 and what dense_text_shift_grad needs."""
    V = class_texts[None, :, :] + S[:, None, :]
    if renormalize:
        norms = np.linalg.norm(V, axis=-1, keepdims=True)
        zero = norms <= _EPS
        safe = np.where(zero, 1.0, norms)
    else:     # every row passes through, as a zero-norm row does
        zero, safe = np.ones(V.shape[:2] + (1,), dtype=bool), 1.0
    U = V / safe
    return np.einsum("bd,bcd->bc", F, U), (U, safe, zero)


def dense_text_shift_grad(F, df2, saved):
    """Gradient of sum(df2 * f2) with respect to S, back through the
    (B, c, dim) normalization of dense_text_scores."""
    U, safe, zero = saved
    dU = df2[:, :, None] * F[:, None, :]
    inner = np.sum(U * dU, axis=-1, keepdims=True)
    dV = np.where(zero, dU, (dU - inner * U) / safe)
    return dV.sum(axis=1)


def effective_visual_rows(cache: VisualCache):
    """The rows the visual branch scores against: the free rows (`linear`
    mode), or the support rows plus any biases, renormalized through NumPy's
    norm when the cache renormalizes. Returns the rows and (safe norms, zero
    mask), or None without renormalization."""
    if cache.mode == "linear":
        return cache.linear, None
    raw = cache.support if cache.mode == "fixed" else (cache.support
                                                        + cache.biases)
    if not cache.renormalize:
        return raw, None
    unit, safe, zero = linalg_normalize_rows(raw)
    return unit, (safe, zero)


def _sum_columns_per_class(a, labels, num_classes):
    """Columns of a (B, rows) summed per label in class-major order (a
    stable argsort first, then np.add.reduceat over each class's run), with
    0 for a class that has no column."""
    order = np.argsort(labels, kind="stable")
    a, labels = a[:, order], labels[order]
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    out = np.zeros((a.shape[0], num_classes))
    if starts.size:
        out[:, labels[starts]] = np.add.reduceat(a, starts, axis=1)
    return out


def dense_visual_scores(model: AtcModel, F, self_indices=None):
    """The visual branch through the full (B, rows) affinity matrix: each
    affinity activated (identity, or exp(-gamma (1 - a)) for tip), query b's
    affinity to row self_indices[b] set to 0, then summed per class. Returns
    f1 and the masked activated affinities."""
    rows, _ = effective_visual_rows(model.visual)
    a = F @ rows.T
    if model.activation == "tip":
        a = np.exp(-model.tip_gamma * (1.0 - a))
    if self_indices is not None:
        a[np.arange(F.shape[0]), self_indices] = 0.0
    return _sum_columns_per_class(a, model.visual.labels,
                                  model.textual.class_texts.shape[0]), a


def dense_visual_grads(model: AtcModel, F, df1, self_indices=None):
    """Gradient of sum(df1 * f1) with respect to the cache's trainable rows
    (`visual.biases` or `visual.linear`), through the (B, rows) affinities
    of dense_visual_scores and the whole-array renormalization backward."""
    rows, vnorm = effective_visual_rows(model.visual)
    _, a = dense_visual_scores(model, F, self_indices)
    da = df1[:, model.visual.labels]
    if self_indices is not None:
        da[np.arange(F.shape[0]), self_indices] = 0.0
    if model.activation == "tip":
        da = da * model.tip_gamma * a
    d_rows = da.T @ F
    if model.visual.mode == "linear":
        return {"visual.linear": d_rows}
    if vnorm is not None:
        d_rows = normalize_rows_bwd(d_rows, rows, *vnorm)
    return {"visual.biases": d_rows}


def adam_step(params, grads, state, cfg) -> None:
    """The bias-corrected Adam update by its textbook formula, one
    full-size temporary per operation; decoupled weight decay on visual
    tensors only."""
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        if cfg.weight_decay and name.startswith("visual."):
            p -= cfg.learning_rate * cfg.weight_decay * p


def sample_episode(labels, shots_per_class: int, seed: int) -> np.ndarray:
    """Episode indices by scanning the labels once per class: each class's
    rows in ascending order, shots_per_class of them drawn by the class's
    child of Rng(seed), classes in ascending order."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = Rng(seed)
    picked = []
    for cls in np.unique(labels):
        rows = np.flatnonzero(labels == cls)
        if rows.size < shots_per_class:
            raise InsufficientDataError(f"class {cls} has {rows.size} rows, "
                                        f"episode needs {shots_per_class}")
        sel = rng.child(int(cls)).sample_without_replacement(rows.size,
                                                             shots_per_class)
        picked.append(rows[sel])
    return np.concatenate(picked) if picked else np.zeros(0, dtype=np.int64)


def gathered_model(ckpt, text, support) -> AtcModel:
    """The checkpoint's model around a copy of its episode's support rows,
    drawn by the per-class scan above and gathered into a cache of their
    own: the model `eval` and `sweep` score, built without an index."""
    h, config = ckpt.hyper, ckpt.config
    idx = sample_episode(support.labels, config["episode_shots"],
                         config["episode_seed"])
    visual = VisualCache(support.features[idx], support.labels[idx],
                         h["visual_mode"], h["renorm_visual"])
    # placeholders of the right shape, replaced by the checkpoint's arrays
    visual.biases = visual.linear = np.zeros(visual.support.shape)
    net = init_condition_net(text.dim, h["chunk_count"], h["hidden_size"],
                             Rng(0))
    m = AtcModel(TextualCache(text.features, h["renorm_text"]), visual, net,
                 h["alpha"], h["beta"], h["logit_scale"], h["activation"],
                 h["tip_gamma"], h["adaptive_text"])
    set_tensors(m, ckpt.tensors)
    return m


def shift_model(class_texts, s, renormalize=True) -> AtcModel:
    """A model whose condition network outputs exactly s for every query:
    zero output weights, output bias s. The visual cache is the text rows."""
    class_texts = np.array(class_texts, dtype=np.float64)
    c, dim = class_texts.shape
    net = init_condition_net(dim, 1, 2, Rng(0))
    net.b_out[:] = s
    visual = VisualCache(class_texts.copy(), np.arange(c), mode="fixed")
    return AtcModel(TextualCache(class_texts, renormalize), visual, net)


def encode_embeddings(role_code, dim, labels, features, class_names) -> bytes:
    """An .ate file: header, u32 labels, float32 rows, length-prefixed
    UTF-8 class names."""
    out = b"ATCE" + struct.pack("<IBIQI", 1, role_code, dim, len(labels),
                                len(class_names))
    out += b"".join(struct.pack("<I", int(label)) for label in labels)
    out += b"".join(struct.pack("<f", float(x)) for row in features
                    for x in row)
    for name in class_names:
        raw = name.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw
    return out


def encode_checkpoint(tensors, trailer: dict) -> bytes:
    """An .atck file: tensors sorted by name, each with its name, dtype byte
    1, rank, u64 dims and float64 values in row-major order, then the
    sorted-key JSON trailer with its u32 length."""
    out = b"ATCK" + struct.pack("<II", 1, len(tensors))
    for name in sorted(tensors):
        t = np.asarray(tensors[name])
        raw = name.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw
        out += struct.pack("<BB", 1, t.ndim)
        out += b"".join(struct.pack("<Q", d) for d in t.shape)
        out += b"".join(struct.pack("<d", float(x)) for x in t.reshape(-1))
    raw = json.dumps(trailer, sort_keys=True).encode("utf-8")
    return out + struct.pack("<I", len(raw)) + raw


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


@dataclass
class GroupCheck:
    name: str
    max_rel_err: float
    worst_index: tuple
    passed: bool


@dataclass
class GradReport:
    groups: dict[str, GroupCheck]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups.values())

    def summary(self) -> str:
        lines = []
        for g in self.groups.values():
            status = "pass" if g.passed else "FAIL"
            lines.append(
                f"{status}  {g.name}: max rel err {g.max_rel_err:.3e} "
                f"at {g.worst_index} (tol {self.tolerance:g})"
            )
        return "\n".join(lines)


def grad_check(fn, params: dict[str, np.ndarray], analytic: dict[str, np.ndarray],
               eps: float = 1e-4, tol: float = 1e-4) -> GradReport:
    """Compare analytic gradients against central finite differences.

    fn maps the params dict to a scalar. Every coordinate of every group is
    perturbed by +/- eps; rel err uses max(1, |a|, |b|) in the denominator.
    """
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    groups: dict[str, GroupCheck] = {}
    for name, tensor in work.items():
        grad = np.asarray(analytic[name], dtype=np.float64)
        if grad.shape != tensor.shape:
            raise ShapeError(
                f"analytic grad for {name} has shape {grad.shape}, "
                f"expected {tensor.shape}"
            )
        worst = 0.0
        worst_idx: tuple = ()
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + eps
            f_plus = float(fn(work))
            tensor[idx] = orig - eps
            f_minus = float(fn(work))
            tensor[idx] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise EvaluationError(f"non-finite value at {name}{idx}")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = relative_error(float(grad[idx]), numeric)
            if err > worst:
                worst = err
                worst_idx = idx
            it.iternext()
        groups[name] = GroupCheck(name, worst, worst_idx, worst <= tol)
    return GradReport(groups, tol)


def batch_loss(model: AtcModel, queries, targets) -> float:
    """Mean cross-entropy of the fused logits over a query batch, forward
    only."""
    f1, f2, _ = branches(model, np.asarray(queries, dtype=np.float64))
    logits = fuse(f1, f2, model.alpha, model.beta, model.logit_scale)
    return _loss_from_logits(logits, np.asarray(targets, dtype=np.int64))[0]


def check_gradients(model: AtcModel, queries, targets, eps: float = 1e-4,
                    tol: float = 1e-4) -> GradReport:
    """Check every trainable tensor's loss_and_grads gradient against finite
    differences of batch_loss. The model's tensors are restored after."""
    params = {k: v.copy() for k, v in trainables(model).items()}
    _, analytic, _ = loss_and_grads(model, queries, targets)

    def fn(p):
        set_tensors(model, p)
        return batch_loss(model, queries, targets)

    try:
        return grad_check(fn, params, analytic, eps=eps, tol=tol)
    finally:
        set_tensors(model, params)
