"""Row normalization, one-hot encoding, seeded RNG, and a finite-difference
gradient checker.

Matrices are plain 2-D float64 numpy arrays. All public operations keep
entries finite; 32-bit floats appear only inside the file codecs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ShapeError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def seed_child(seed: int, i: int) -> int:
    """Derive an independent child seed: mix(seed, i) via splitmix64."""
    return _splitmix64((seed + i * _GOLDEN) & _MASK64)


class Rng:
    """Counter-based seeded generator (Philox 4x64).

    Identical seed => identical stream within one build. Single-owner:
    never share an instance across threads; use child() for parallel work.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def child(self, i: int) -> "Rng":
        return Rng(seed_child(self.seed, i))

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def normal(self, size) -> np.ndarray:
        return self._gen.standard_normal(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=False)


# a row with at most this Euclidean norm has no direction and passes through
# every renormalization unchanged
ZERO_NORM = 1e-12


# l2_normalize_rows squares this many values at a time (256 KB, which stays
# in cache) instead of allocating two temporaries the size of its input
_BLOCK_VALUES = 1 << 15


def l2_normalize_rows(m: np.ndarray, out=None):
    """Divide each row (the last axis) by its Euclidean norm, into `out` if
    given (which may be `m` itself, a float64 array the caller owns).

    Returns (unit, safe_norms, zero_mask): rows with norm <= ZERO_NORM pass
    through unchanged (their safe norm is 1 and the mask marks them), and the
    norms and mask keep a trailing axis of length 1 for the backward pass.
    Each row's squares are summed by one np.add.reduce, a block of rows at a
    time, so the norms do not depend on m's memory layout; for a C-ordered m
    they are bitwise those of np.linalg.norm(m, axis=-1).
    """
    m = np.asarray(m, dtype=np.float64)
    dim = m.shape[-1]
    rows = m.reshape(math.prod(m.shape[:-1]), dim)
    step = max(1, _BLOCK_VALUES // max(dim, 1))
    norms = np.empty((rows.shape[0], 1))
    buf = np.empty((min(step, rows.shape[0]), dim))
    # a row past ~1e154 overflows to an inf norm, which callers check for
    with np.errstate(over="ignore"):
        for i in range(0, rows.shape[0], step):
            block = rows[i:i + step]
            squares = np.multiply(block, block, out=buf[:block.shape[0]])
            np.add.reduce(squares, axis=-1, keepdims=True,
                          out=norms[i:i + step])
    norms = np.sqrt(norms, out=norms).reshape(m.shape[:-1] + (1,))
    zero = norms <= ZERO_NORM
    safe = np.where(zero, 1.0, norms)
    return np.divide(m, safe, out=out), safe, zero


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise IndexError(f"label out of range for {num_classes} classes")
    out = np.zeros((labels.size, num_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


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
