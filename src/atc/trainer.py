"""Adam training loop over the trainable tensors, plus the checkpoint codec.

Checkpoint file layout (little-endian):
  magic "ATCK" | version u32=1 | tensor count u32 |
  per tensor: name (u16 length + UTF-8) | dtype u8 (1 = float64) |
              rank u8 | dims u64 each | raw data |
  JSON trailer (u32 byte length + UTF-8) echoing config and metrics.
Tensors are stored as 64-bit floats so determinism assertions stay bitwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataio import _Cursor
from .errors import CodecError, ContractError, ValidationError
from .model import (AtcModel, loss_and_grads, predict_batch, set_tensors,
                    tensors, trainables)
from .numerics import Rng

CKPT_MAGIC = b"ATCK"
CKPT_VERSION = 1
_DTYPE_F64 = 1


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 0             # 0 => min(256, episode size)
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0       # decoupled, visual biases only
    seed: int = 0
    shuffle: bool = True
    leave_self_out: bool = False

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.batch_size < 0:
            raise ValidationError("batch_size must be >= 0")
        for key in ("learning_rate", "weight_decay"):
            if not math.isfinite(value := getattr(self, key)):
                raise ValidationError(f"{key} must be finite, got {value}")


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
    visual tensors only."""
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValidationError(
                f"grad shape {g.shape} != param shape {p.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        if cfg.weight_decay and name.startswith("visual."):
            p -= cfg.learning_rate * cfg.weight_decay * p


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    hyper: dict
    config: dict
    metrics: list[dict] = field(default_factory=list)


def _frozen_digest(model: AtcModel) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(model.textual.class_texts).tobytes())
    h.update(np.ascontiguousarray(model.visual.support).tobytes())
    h.update(np.ascontiguousarray(model.visual.labels, dtype="<i8").tobytes())
    h.update(struct.pack("<ddd", model.alpha, model.beta, model.logit_scale))
    return h.hexdigest()


def model_hyper(model: AtcModel) -> dict:
    return {
        "alpha": model.alpha,
        "beta": model.beta,
        "logit_scale": model.logit_scale,
        "activation": model.activation,
        "tip_gamma": model.tip_gamma,
        "adaptive_text": model.adaptive_text,
        "renorm_text": model.textual.renormalize,
        "renorm_visual": model.visual.renormalize,
        "visual_mode": model.visual.mode,
        "dim": model.dim,
        "chunk_count": model.net.chunk_count,
        "hidden_size": model.net.hidden_size,
    }


def checkpoint_tensors(model: AtcModel) -> dict[str, np.ndarray]:
    """Copies of everything eval needs beyond the embedding files
    (model.tensors)."""
    return {k: v.copy() for k, v in tensors(model).items()}


def train(model: AtcModel, queries: np.ndarray, labels,
          cfg: TrainConfig) -> Checkpoint:
    """Minimize the cross-entropy over the episode's labeled queries.

    Queries default to the support embeddings themselves at the call site;
    with leave_self_out each query's own support row is masked out of its
    visual affinities. Frozen tensors are checksummed before and after.
    """
    cfg.validate()
    queries = np.asarray(queries, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = queries.shape[0]
    if n == 0:
        raise ValidationError("empty training episode")
    self_indices = np.arange(n) if cfg.leave_self_out else None
    batch = cfg.batch_size or min(256, n)

    before = _frozen_digest(model)
    params = trainables(model)
    state = init_adam(params)
    rng = Rng(cfg.seed)
    metrics = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        total = 0.0
        for start in range(0, n, batch):
            sel = order[start:start + batch]
            sub_self = self_indices[sel] if self_indices is not None else None
            loss, grads = loss_and_grads(model, queries[sel], labels[sel],
                                         sub_self)
            if cfg.learning_rate != 0.0:
                adam_step(params, grads, state, cfg)
            total += loss * sel.size
        preds = predict_batch(model, queries)
        metrics.append({
            "epoch": epoch,
            "loss": total / n,
            "accuracy": float(np.mean(preds == labels)),
        })
    if _frozen_digest(model) != before:
        raise ContractError("frozen tensors changed during training")
    return Checkpoint(checkpoint_tensors(model), model_hyper(model),
                      asdict(cfg), metrics)


def apply_checkpoint(model: AtcModel, ckpt: Checkpoint) -> None:
    """Load the checkpoint's tensors into the model. The names must be
    exactly tensors(model) and every shape must match."""
    missing = sorted(set(tensors(model)) - set(ckpt.tensors))
    if missing:
        raise ValidationError(f"checkpoint lacks tensors {missing}")
    set_tensors(model, ckpt.tensors)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    buf = bytearray()
    buf += CKPT_MAGIC
    buf += struct.pack("<II", CKPT_VERSION, len(ckpt.tensors))
    for name in sorted(ckpt.tensors):
        tensor = np.ascontiguousarray(ckpt.tensors[name], dtype="<f8")
        nb = name.encode("utf-8")
        buf += struct.pack("<H", len(nb)) + nb
        buf += struct.pack("<BB", _DTYPE_F64, tensor.ndim)
        for d in tensor.shape:
            buf += struct.pack("<Q", d)
        buf += tensor.tobytes()
    trailer = json.dumps(
        {"hyper": ckpt.hyper, "config": ckpt.config, "metrics": ckpt.metrics},
        sort_keys=True).encode("utf-8")
    buf += struct.pack("<I", len(trailer)) + trailer
    with open(path, "wb") as f:
        f.write(buf)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        data = f.read()
    cur = _Cursor(data)
    if cur.take(4, "magic") != CKPT_MAGIC:
        raise CodecError("bad magic, expected 'ATCK'", 0)
    version, count = cur.unpack("<II", "header")
    if version != CKPT_VERSION:
        raise CodecError(f"unsupported checkpoint version {version}", 4)
    arrays = {}
    for _ in range(count):
        (nlen,) = cur.unpack("<H", "tensor name length")
        name = cur.text(nlen, "tensor name")
        dtype, rank = cur.unpack("<BB", "tensor header")
        if dtype != _DTYPE_F64:
            raise CodecError(f"unknown dtype byte {dtype}", cur.pos - 2)
        dims = cur.unpack(f"<{rank}Q", "tensor dims")
        size = int(np.prod(dims)) if rank else 1
        raw = cur.take(8 * size, f"tensor data for {name}")
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
    (tlen,) = cur.unpack("<I", "trailer length")
    at = cur.pos
    raw = cur.take(tlen, "trailer")
    if cur.pos != len(data):
        raise CodecError("trailing bytes after trailer", cur.pos)
    try:
        trailer = json.loads(raw.decode("utf-8"))
        return Checkpoint(arrays, trailer["hyper"], trailer["config"],
                          trailer["metrics"])
    except (ValueError, KeyError, TypeError):
        raise CodecError("trailer is not UTF-8 JSON with hyper, config and "
                         "metrics", at) from None
