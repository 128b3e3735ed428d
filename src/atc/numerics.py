"""Row normalization and a seeded RNG.

Matrices are plain 2-D float64 numpy arrays. All public operations keep
entries finite; 32-bit floats appear only inside the file codecs.
"""

from __future__ import annotations

import math

import numpy as np

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

    def rekey(self, seed: int) -> "Rng":
        """Restart as Rng(seed) starts, without constructing a generator."""
        self.seed = int(seed) & _MASK64
        self._gen.bit_generator.state = dict(
            bit_generator="Philox", buffer=[0] * 4, buffer_pos=4,
            has_uint32=0, uinteger=0,
            state=dict(counter=[0] * 4, key=[self.seed, 0]))
        return self

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
    # a row past ~1e154 overflows to an inf norm, which callers check for
    with np.errstate(over="ignore"):
        for i in range(0, rows.shape[0], step):
            block = rows[i:i + step]
            np.add.reduce(block * block, axis=-1, keepdims=True,
                          out=norms[i:i + step])
    norms = np.sqrt(norms, out=norms).reshape(m.shape[:-1] + (1,))
    zero = norms <= ZERO_NORM
    safe = np.where(zero, 1.0, norms)
    return np.divide(m, safe, out=out), safe, zero
