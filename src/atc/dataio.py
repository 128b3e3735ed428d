"""Embedding file codec, synthetic embedding generator, and episode sampler.

Embedding file layout (little-endian):
  magic "ATCE" | version u32=1 | role u8 (0=text,1=support,2=query) |
  dim u32 | rows u64 | num_classes u32 |
  rows x u32 labels | rows x dim float32 row-major |
  num_classes class names (u16 byte length + UTF-8 bytes).
Trailing bytes and a feature row with a NaN or inf entry or a zero norm are
errors. Storage is 32-bit; everything after load is 64-bit and rows are
L2-normalized at the boundary.
"""

from __future__ import annotations

import io
import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (CodecError, ConfigError, EvaluationError,
                     InsufficientDataError, ValidationError)
from .numerics import _BLOCK_VALUES, Rng, l2_normalize_rows, seed_child

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
        if not self.features.shape[1]:
            raise ValidationError("features must have at least one column")
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
    labels = np.ascontiguousarray(es.labels, dtype="<u4")
    features = np.ascontiguousarray(es.features, dtype="<f4")
    encoded = [name.encode("utf-8") for name in es.class_names]
    if any(len(nb) > 0xFFFF for nb in encoded):    # a u16 length field
        raise ValidationError("a class name is over 65535 UTF-8 bytes")
    names = b"".join(struct.pack("<H", len(nb)) + nb for nb in encoded)
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<IBIQI", VERSION, ROLE_CODES[es.role],
                                    dim, rows, es.num_classes))
        f.write(labels)
        f.write(features)
        f.write(names)


class _Cursor:
    """Reads an open binary file front to back. Every read first checks that
    the file holds its bytes, so a length field cannot make it allocate more
    than the file, and a fault reports the offset where its item starts."""

    def __init__(self, f):
        info = os.fstat(f.fileno())
        if stat.S_ISREG(info.st_mode):
            self.size = info.st_size
        else:   # a pipe has no size to check against: read it whole
            data = f.read()
            f, self.size = io.BytesIO(data), len(data)
        self.f = f
        self.pos = 0

    def _check(self, n: int, what: str) -> None:
        if self.pos + n > self.size:
            raise CodecError(f"truncated file while reading {what}", self.pos)

    def take(self, n: int, what: str) -> bytes:
        self._check(n, what)
        out = self.f.read(n)
        if len(out) != n:
            raise CodecError(f"truncated file while reading {what}", self.pos)
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

    def array(self, shape, stored: str, dtype, what: str,
              nonfinite: str | None = None) -> np.ndarray:
        """A new `dtype` array of `shape` filled from the file's `stored`
        values one block at a time, so a conversion never holds the stored
        values as a full-size copy. With `nonfinite`, a block holding a NaN
        or inf raises CodecError(nonfinite) at the array's offset, checked
        while the block is in cache."""
        count = math.prod(shape)
        at = self.pos
        self._check(np.dtype(stored).itemsize * count, what)
        try:
            out = np.empty(shape, dtype)
        except ValueError:
            raise CodecError(f"unsupported shape for {what}", at) from None
        flat = out.reshape(-1)
        same = out.dtype == np.dtype(stored)
        block = None if same else np.empty(min(count, _BLOCK_VALUES), stored)
        for start in range(0, count, _BLOCK_VALUES):
            part = flat[start:start + _BLOCK_VALUES]
            if same:
                self._fill(part, what)
            else:
                self._fill(block[:part.size], what)
                part[...] = block[:part.size]
            if nonfinite and not np.isfinite(part).all():
                raise CodecError(nonfinite, at)
        return out

    def _fill(self, a: np.ndarray, what: str) -> None:
        if self.f.readinto(a) != a.nbytes:
            raise CodecError(f"truncated file while reading {what}", self.pos)
        self.pos += a.nbytes

    def check_end(self, after: str) -> None:
        if self.pos != self.size:
            raise CodecError(f"trailing bytes after {after}", self.pos)


def read_embeddings(path) -> EmbeddingSet:
    with open(path, "rb") as f:
        cur = _Cursor(f)
        if cur.take(4, "magic") != MAGIC:
            raise CodecError("bad magic, expected 'ATCE'", 0)
        (version,) = cur.unpack("<I", "version")
        if version != VERSION:
            raise CodecError(f"unsupported version {version}", 4)
        (role_code,) = cur.unpack("<B", "role")
        if role_code not in ROLE_NAMES:
            raise CodecError(f"unknown role code {role_code}", 8)
        dim, rows, num_classes = cur.unpack("<IQI", "header")
        labels = cur.array((rows,), "<u4", np.int64, "labels")
        feats_at = cur.pos
        features = cur.array((rows, dim), "<f4", np.float64, "features")
        names = []
        for _ in range(num_classes):
            (nlen,) = cur.unpack("<H", "class name length")
            names.append(cur.text(nlen, "class name"))
        cur.check_end("class names")

    es = EmbeddingSet(features, labels, names, ROLE_NAMES[role_code])
    es.validate()
    with np.errstate(invalid="ignore"):     # inf / inf; rejected below
        _, safe, zero = l2_normalize_rows(features, out=features)
    # the first row with a NaN or inf entry (a non-finite norm) or a zero norm
    bad = np.flatnonzero(zero | ~np.isfinite(safe))
    if bad.size:
        row = int(bad[0])
        what = "has zero norm" if zero[row, 0] else "is not finite"
        raise CodecError(f"feature row {row} {what}", feats_at + 4 * dim * row)
    es.norm_warnings = int(np.count_nonzero(np.abs(safe - 1.0) > 1e-3))
    return es


def check_fits_memory(nbytes: int, what: str) -> None:
    """ConfigError if `what`, nbytes yet to allocate, exceeds physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise ConfigError(f"{what} needs {nbytes} bytes, more than the "
                          f"{memory} bytes of physical memory")


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
        if not all(0 <= x < math.inf for x in (self.sigma, self.text_noise)):
            raise ConfigError("noise scales must be finite and nonnegative")
        # the float64 prototype, text, support and query rows
        check_fits_memory(8 * self.num_classes * self.dim * (
            2 + self.shots + self.queries_per_class), "a synthetic dataset")


def _noisy_rows(protos: np.ndarray, per_class: int, scale: float, rng: Rng):
    n, dim = protos.shape
    rows = np.repeat(protos, per_class, axis=0)
    # a noisy row past ~1e154 overflows its norm (past ~1e308, its entries)
    with np.errstate(over="ignore", invalid="ignore"):
        if scale > 0:
            rows = rows + scale * rng.normal((n * per_class, dim))
        rows, safe, _ = l2_normalize_rows(rows)
    if not np.isfinite(safe).all():
        raise EvaluationError("a synthetic row norm is not finite")
    return rows, np.repeat(np.arange(n), per_class)


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


def sample_episode(labels, shots_per_class: int, seed: int) -> np.ndarray:
    """Pick support row indices: shots per class, without replacement,
    deterministic in the seed, ordered class-major then sample-index."""
    if shots_per_class < 1:
        raise ConfigError("shots_per_class must be >= 1")
    labels = np.asarray(labels, dtype=np.int64)
    # class c draws Rng(seed).child(c)'s stream from one re-keyed generator
    rng, seed = Rng(0), int(seed)
    # one stable sort groups each class's rows in ascending row order
    order = np.argsort(labels, kind="stable")
    classes, starts = np.unique(labels[order], return_index=True)
    picked = []
    for cls, rows in zip(classes, np.split(order, starts[1:])):
        if rows.size < shots_per_class:
            raise InsufficientDataError(f"class {cls} has {rows.size} rows, "
                                        f"episode needs {shots_per_class}")
        sel = rng.rekey(seed_child(seed, int(cls))).sample_without_replacement(
            rows.size, shots_per_class)
        picked.append(rows[sel])
    return np.concatenate(picked) if picked else np.zeros(0, dtype=np.int64)
