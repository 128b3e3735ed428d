"""Embedding file codec, synthetic embedding generator, and episode sampler.

Embedding file layout (little-endian):
  magic "ATCE" | version u32=1 | role u8 (0=text,1=support,2=query) |
  dim u32 | rows u64 | num_classes u32 |
  rows x u32 labels | rows x dim float32 row-major |
  num_classes class names (u16 byte length + UTF-8 bytes).
Trailing bytes are an error. Storage is 32-bit; everything after load is
64-bit and rows are L2-normalized at the boundary.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CodecError, ConfigError, InsufficientDataError, ValidationError
from .numerics import Rng, l2_normalize_rows

MAGIC = b"ATCE"
VERSION = 1

ROLE_CODES = {"text": 0, "support": 1, "query": 2}
ROLE_NAMES = {v: k for k, v in ROLE_CODES.items()}


@dataclass
class EmbeddingSet:
    features: np.ndarray          # (rows, dim) float64, unit rows after load
    labels: np.ndarray            # (rows,) int64, each < num_classes
    class_names: list[str]
    role: str                     # text | support | query
    norm_warnings: int = 0        # rows off unit norm by > 1e-3 before load-time renorm

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def validate(self) -> None:
        if self.role not in ROLE_CODES:
            raise ValidationError(f"unknown role {self.role!r}")
        if self.features.ndim != 2:
            raise ValidationError("features must be a 2-D matrix")
        if self.labels.shape[0] != self.features.shape[0]:
            raise ValidationError("labels length must equal feature rows")
        c = self.num_classes
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= c):
            raise ValidationError(f"label out of range for {c} classes")
        if self.role == "text":
            if self.features.shape[0] != c:
                raise ValidationError("text set must have one row per class")
            if not np.array_equal(self.labels, np.arange(c)):
                raise ValidationError("text set labels must be 0..c-1 in order")


def write_embeddings(es: EmbeddingSet, path) -> None:
    es.validate()
    rows, dim = es.features.shape
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<IBIQI", VERSION, ROLE_CODES[es.role], dim, rows,
                       es.num_classes)
    buf += np.ascontiguousarray(es.labels, dtype="<u4").tobytes()
    buf += np.ascontiguousarray(es.features, dtype="<f4").tobytes()
    for name in es.class_names:
        nb = name.encode("utf-8")
        buf += struct.pack("<H", len(nb)) + nb
    with open(path, "wb") as f:
        f.write(buf)


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise CodecError(f"truncated file while reading {what}", self.pos)
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        at = self.pos
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError:
            raise CodecError(f"{what} is not UTF-8", at) from None


def read_embeddings(path) -> EmbeddingSet:
    with open(path, "rb") as f:
        data = f.read()
    cur = _Cursor(data)
    if cur.take(4, "magic") != MAGIC:
        raise CodecError("bad magic, expected 'ATCE'", 0)
    (version,) = cur.unpack("<I", "version")
    if version != VERSION:
        raise CodecError(f"unsupported version {version}", 4)
    (role_code,) = cur.unpack("<B", "role")
    if role_code not in ROLE_NAMES:
        raise CodecError(f"unknown role code {role_code}", 8)
    dim, rows, num_classes = cur.unpack("<IQI", "header")
    labels = np.frombuffer(cur.take(4 * rows, "labels"), dtype="<u4").astype(np.int64)
    feats32 = np.frombuffer(cur.take(4 * rows * dim, "features"), dtype="<f4")
    names = []
    for _ in range(num_classes):
        (nlen,) = cur.unpack("<H", "class name length")
        names.append(cur.text(nlen, "class name"))
    if cur.pos != len(data):
        raise CodecError("trailing bytes after class names", cur.pos)

    features = feats32.astype(np.float64).reshape(rows, dim)
    norms = np.linalg.norm(features, axis=1)
    warnings = int(np.count_nonzero(np.abs(norms - 1.0) > 1e-3))
    features = l2_normalize_rows(features)[0]
    es = EmbeddingSet(features, labels, names, ROLE_NAMES[role_code],
                      norm_warnings=warnings)
    es.validate()
    return es


@dataclass
class SynthConfig:
    """Synthetic stand-in for encoder outputs: class prototypes on the unit
    sphere, noisy text/support/query rows around them."""
    num_classes: int = 10
    dim: int = 64
    shots: int = 16
    queries_per_class: int = 50
    sigma: float = 0.35
    text_noise: float = 0.15
    seed: int = 7

    def validate(self) -> None:
        if self.dim < 2:
            raise ConfigError("dim must be >= 2")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.shots < 1 or self.queries_per_class < 1:
            raise ConfigError("shots and queries_per_class must be >= 1")
        if self.sigma < 0 or self.text_noise < 0:
            raise ConfigError("noise scales must be nonnegative")


def _noisy_rows(protos: np.ndarray, per_class: int, scale: float, rng: Rng):
    n, dim = protos.shape
    rows = np.repeat(protos, per_class, axis=0)
    if scale > 0:
        rows = rows + scale * rng.normal((n * per_class, dim))
    rows = l2_normalize_rows(rows)[0]
    labels = np.repeat(np.arange(n), per_class)
    return rows, labels


def synth_dataset(cfg: SynthConfig) -> dict[str, EmbeddingSet]:
    """Deterministic synthetic text/support/query embedding sets."""
    cfg.validate()
    rng = Rng(cfg.seed)
    protos = rng.child(0).normal((cfg.num_classes, cfg.dim))
    protos = l2_normalize_rows(protos)[0]
    names = [f"class_{i:03d}" for i in range(cfg.num_classes)]

    text, text_labels = _noisy_rows(protos, 1, cfg.text_noise, rng.child(1))
    support, sup_labels = _noisy_rows(protos, cfg.shots, cfg.sigma, rng.child(2))
    query, q_labels = _noisy_rows(protos, cfg.queries_per_class, cfg.sigma,
                                  rng.child(3))
    return {
        "text": EmbeddingSet(text, text_labels, names, "text"),
        "support": EmbeddingSet(support, sup_labels, names, "support"),
        "query": EmbeddingSet(query, q_labels, names, "query"),
    }


@dataclass
class EpisodeSpec:
    shots_per_class: int
    seed: int

    def validate(self) -> None:
        if self.shots_per_class < 1:
            raise ConfigError("shots_per_class must be >= 1")


def sample_episode(labels, spec: EpisodeSpec) -> np.ndarray:
    """Pick support row indices: shots per class, without replacement,
    deterministic in the seed, ordered class-major then sample-index."""
    spec.validate()
    labels = np.asarray(labels, dtype=np.int64)
    need = spec.shots_per_class
    rng = Rng(spec.seed)
    picked = []
    for cls in np.unique(labels):
        rows = np.flatnonzero(labels == cls)
        if rows.size < need:
            raise InsufficientDataError(
                f"class {cls} has {rows.size} rows, episode needs {need}")
        sel = rng.child(int(cls)).sample_without_replacement(rows.size, need)
        picked.append(rows[sel])
    return np.concatenate(picked) if picked else np.zeros(0, dtype=np.int64)
