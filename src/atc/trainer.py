"""Adam training loop over the trainable tensors, plus the checkpoint codec.

Checkpoint file layout (little-endian):
  magic "ATCK" | version u32=1 | tensor count u32 |
  per tensor: name (u16 length + UTF-8) | dtype u8 (1 = float64) |
              rank u8 | dims u64 each | raw data |
  JSON trailer (u32 byte length + UTF-8) echoing config and metrics.
Tensors are stored as 64-bit floats so determinism assertions stay bitwise;
a NaN or inf value is an error at the offset of its tensor's data, and a
repeated tensor name at the offset of the repeat.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .caches import VISUAL_MODES
from .dataio import _Cursor
from .errors import (CodecError, EvaluationError, ValidationError,
                     check_index, check_types)
from .model import (AtcModel, loss_and_grads, predict_batch, set_tensors,
                    tensors, trainables)
from .numerics import _BLOCK_VALUES, Rng

CKPT_MAGIC = b"ATCK"
CKPT_VERSION = 1
_DTYPE_F64 = 1
_HUGE = math.sqrt(sys.float_info.max)  # larger entries square to inf
# Adam's fixed decay rates and epsilon, saved with the training config
ADAM = {"adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8}

# each TrainConfig field's type and range (see errors.check_types)
TRAIN = {"epochs": (int, ">= 1"), "batch_size": (int, ">= 0"),
         "learning_rate": (float, ">= 0"), "weight_decay": (float, ">= 0"),
         "seed": int, "shuffle": bool, "leave_self_out": bool}


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 0             # 0 => min(256, episode size)
    learning_rate: float = 1e-3
    weight_decay: float = 0.0       # decoupled, visual biases only
    seed: int = 0
    shuffle: bool = True
    leave_self_out: bool = False


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(0, {k: np.zeros_like(p) for k, p in params.items()},
                     {k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, cfg: TrainConfig) -> None:
    """Bias-corrected Adam update in place; decoupled weight decay applies to
    visual tensors only. Each tensor is updated a block of rows at a time
    while it is in cache. An overflow leaves inf or NaN without a warning:
    train's loss and trained-tensor checks report it."""
    state.step += 1
    t = state.step
    (b1, b2, eps), lr = ADAM.values(), cfg.learning_rate
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params.items():
            g, m, v = grads[name], state.m[name], state.v[name]
            if g.shape != p.shape:
                raise ValidationError(f"grad shape {g.shape} != param shape "
                                      f"{p.shape} for {name}")
            decay = cfg.weight_decay and name.startswith("visual.")
            rows = max(1, _BLOCK_VALUES * len(p) // max(p.size, 1))
            # two block-sized scratch buffers, the textbook order (same bits)
            step = np.empty((min(rows, len(p)), *p.shape[1:]))
            denom = np.empty_like(step)
            for lo in range(0, len(p), rows):
                b = slice(lo, lo + rows)
                gb, mb, vb, pb = g[b], m[b], v[b], p[b]
                s, d = step[:len(pb)], denom[:len(pb)]
                mb *= b1
                mb += np.multiply(gb, 1 - b1, out=s)
                vb *= b2
                vb += np.multiply(np.multiply(gb, 1 - b2, out=s), gb, out=s)
                np.divide(vb, 1 - b2 ** t, out=d)
                np.sqrt(d, out=d)
                d += eps
                np.divide(mb, 1 - b1 ** t, out=s)
                s *= lr
                pb -= np.divide(s, d, out=s)
                if decay:
                    pb -= np.multiply(pb, lr * cfg.weight_decay, out=s)


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    hyper: dict
    config: dict
    metrics: list[dict] = field(default_factory=list)


# every model_hyper key, in its order, with its type and range: a negative
# weight flips its branch, a scale or gamma <= 0 flattens or inverts ranking
HYPER = {"alpha": (float, ">= 0"), "beta": (float, ">= 0"),
         "logit_scale": (float, "> 0"), "activation": ("linear", "tip"),
         "tip_gamma": (float, "> 0"), "adaptive_text": bool,
         "renorm_text": bool, "renorm_visual": bool, "visual_mode": VISUAL_MODES,
         "dim": int, "chunk_count": int, "hidden_size": int}
# the config keys the CLI adds to rebuild the support episode
EPISODE = {"episode_seed": int, "episode_shots": int,
           "episode_views": (int, "== 1")}


def model_hyper(model: AtcModel) -> dict:
    """The model's HYPER values: its caches' and net's settings, else its own
    attribute of the same name."""
    parts = {"renorm_text": model.textual.renormalize,
             "renorm_visual": model.visual.renormalize,
             "visual_mode": model.visual.mode,
             "chunk_count": model.net.chunk_count,
             "hidden_size": model.net.hidden_size}
    return {k: parts[k] if k in parts else getattr(model, k) for k in HYPER}


def checkpoint_tensors(model: AtcModel) -> dict[str, np.ndarray]:
    """Copies of everything eval needs beyond the embedding files
    (model.tensors)."""
    return {k: v.copy() for k, v in tensors(model).items()}


def train(model: AtcModel, queries: np.ndarray, labels,
          cfg: TrainConfig) -> Checkpoint:
    """Minimize the cross-entropy over the episode's labeled queries.

    Queries default to the support embeddings themselves at the call site;
    with leave_self_out each query's own support row is masked out of its
    visual affinities. The caches' frozen arrays are read-only views.
    Each epoch's step_accuracy is the argmax hit rate of its (masked) step
    logits, each batch scored before its update; the last epoch's accuracy
    is predict_batch's after its update.
    """
    check_types(model_hyper(model), HYPER, "hyper")
    check_types(vars(cfg), TRAIN, "config")
    queries = np.asarray(queries, dtype=np.float64)
    n = queries.shape[0]
    if n == 0:
        raise ValidationError("empty training episode")
    labels = check_index(labels, len(model.textual.class_texts), "labels", n)
    batch = cfg.batch_size or min(256, n)

    params = trainables(model)
    state = init_adam(params)
    rng = Rng(cfg.seed)
    metrics, grads = [], {}
    for epoch in range(cfg.epochs):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        total, hits = 0.0, 0
        for start in range(0, n, batch):
            sel = order[start:start + batch]
            sub_self = sel if cfg.leave_self_out else None
            # its rows go over the spent visual gradient (freeing it re-faults)
            loss, grads, logits = loss_and_grads(
                model, queries[sel], labels[sel], sub_self,
                grads.get("visual.biases"))
            if not math.isfinite(loss):
                raise EvaluationError(f"training loss is {loss} in epoch "
                                      f"{epoch}")
            hits += int((np.argmax(logits, axis=1) == labels[sel]).sum())
            del logits  # not held through the next batch's forward
            if cfg.learning_rate != 0.0:
                adam_step(params, grads, state, cfg)
            total += loss * sel.size
        metrics.append({"epoch": epoch, "loss": total / n,
                        "step_accuracy": hits / n})
        if epoch == cfg.epochs - 1:
            preds = predict_batch(model, queries)
            metrics[-1]["accuracy"] = float(np.mean(preds == labels))
    # load_checkpoint refuses a non-finite value, so none is saved
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise EvaluationError(f"trained tensor {name} is not finite")
        if (np.abs(value) > _HUGE).any():
            raise EvaluationError(f"trained tensor {name} exceeds {_HUGE:.3g}")
    return Checkpoint(checkpoint_tensors(model), model_hyper(model),
                      {**asdict(cfg), **ADAM}, metrics)


def apply_checkpoint(model: AtcModel, ckpt: Checkpoint) -> None:
    """Bind the checkpoint's arrays as the model's tensors (set_tensors: no
    copy, so training the model afterwards changes ckpt.tensors). The names
    must be exactly tensors(model) and every shape must match."""
    missing = sorted(set(tensors(model)) - set(ckpt.tensors))
    if missing:
        raise ValidationError(f"checkpoint lacks tensors {missing}")
    set_tensors(model, ckpt.tensors)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    # everything is encoded before the file is opened, so a failure cannot
    # leave a partial file; each tensor is then written from its own memory
    tensors = []
    for name in sorted(ckpt.tensors):
        tensor = np.ascontiguousarray(ckpt.tensors[name], dtype="<f8")
        nb = name.encode("utf-8")
        head = struct.pack(f"<H{len(nb)}sBB{tensor.ndim}Q", len(nb), nb,
                           _DTYPE_F64, tensor.ndim, *tensor.shape)
        tensors.append((head, tensor))
    trailer = json.dumps(
        {"hyper": ckpt.hyper, "config": ckpt.config, "metrics": ckpt.metrics},
        sort_keys=True, allow_nan=False).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(tensors)))
        for head, tensor in tensors:
            f.write(head)
            f.write(tensor)
        f.write(struct.pack("<I", len(trailer)) + trailer)


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at `path`, its trailer's hyper checked against HYPER."""
    with open(path, "rb") as f:
        cur = _Cursor(f)
        if cur.take(4, "magic") != CKPT_MAGIC:
            raise CodecError("bad magic, expected 'ATCK'", 0)
        version, count = cur.unpack("<II", "header")
        if version != CKPT_VERSION:
            raise CodecError(f"unsupported checkpoint version {version}", 4)
        arrays = {}
        for _ in range(count):
            (nlen,) = cur.unpack("<H", "tensor name length")
            at = cur.pos
            name = cur.text(nlen, "tensor name")
            if name in arrays:
                raise CodecError(f"duplicate tensor name {name!r}", at)
            dtype, rank = cur.unpack("<BB", "tensor header")
            if dtype != _DTYPE_F64:
                raise CodecError(f"unknown dtype byte {dtype}", cur.pos - 2)
            dims = cur.unpack(f"<{rank}Q", "tensor dims")
            arrays[name] = cur.array(dims, "<f8", "<f8",
                                     f"tensor data for {name}",
                                     f"tensor {name} is not finite")
        (tlen,) = cur.unpack("<I", "trailer length")
        at = cur.pos
        raw = cur.take(tlen, "trailer")
        cur.check_end("trailer")
    sections = {"hyper": dict, "config": dict, "metrics": list}
    try:
        trailer = json.loads(raw.decode("utf-8"))
        values = [trailer[k] for k in sections]
    except (ValueError, KeyError, TypeError):
        values = []
    if [type(v) for v in values] != list(sections.values()):
        raise CodecError("trailer is not UTF-8 JSON with hyper, config and "
                         "metrics", at)
    ckpt = Checkpoint(arrays, *values)
    check_types(ckpt.hyper, HYPER, "hyper")
    # a model is built at hidden_size before the checkpoint is bound to it,
    # so the size must first match the stored (h, h) recurrent weights
    h = ckpt.hyper["hidden_size"]
    stored = getattr(arrays.get("net.U_i"), "shape", None)
    if stored != (h, h):
        raise ValidationError(f"hidden_size {h} does not match the "
                              f"checkpoint's net.U_i shape {stored}")
    return ckpt
