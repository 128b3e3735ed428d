import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from atc.model import _loss_from_logits
from atc.numerics import Rng, l2_normalize_rows, seed_child
from oracles import linalg_normalize_rows, relative_error


def test_l2_normalize_345():
    out, safe, zero = l2_normalize_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]])
    assert np.array_equal(safe, [[5.0]])
    assert not zero.any()


def test_l2_normalize_zero_row_passthrough():
    out, safe, zero = l2_normalize_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert np.array_equal(out[0], [0.0, 0.0])
    assert np.array_equal(zero, [[True], [False]])
    assert np.array_equal(safe, [[1.0], [1.0]])


def test_l2_normalize_idempotent_on_unit_rows():
    rng = Rng(3)
    m = l2_normalize_rows(rng.normal((4, 6)))[0]
    again = l2_normalize_rows(m)[0]
    assert np.max(np.abs(again - m)) < 1e-15


# l2_normalize_rows squares 2**15 values at a time: 64 rows at dim 512
_BLOCK_ROWS = 64


def _rows(shape, special=None):
    """Seeded normal rows; `special` overwrites every third row (0, 3, ...)
    with that value."""
    m = Rng(17).normal(shape)
    if special is not None:
        m.reshape(-1, shape[-1])[::3] = special
    return m


@pytest.mark.parametrize("shape,special", [
    ((_BLOCK_ROWS - 1, 512), None), ((_BLOCK_ROWS, 512), None),
    ((_BLOCK_ROWS + 1, 512), None), ((0, 512), None), ((5, 0), None),
    ((512,), None), ((2, 3, 17), None), ((_BLOCK_ROWS + 1, 512), 0.0),
    ((9, 16), 1e-13), ((_BLOCK_ROWS + 1, 512), 1e200),
    ((9, 16), np.nan), ((9, 16), np.inf), ((9, 16), -np.inf)])
@pytest.mark.parametrize("in_place", [False, True])
def test_l2_normalize_matches_linalg_norm_bitwise(shape, special, in_place):
    m = _rows(shape, special)
    want = linalg_normalize_rows(m)
    with np.errstate(invalid="ignore"):
        got = (l2_normalize_rows(m, out=m) if in_place
               else l2_normalize_rows(m))
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    assert (got[0] is m) == in_place


def softmax(logits):
    """Probabilities from the model's loss, for one row of logits."""
    logits = np.asarray(logits, dtype=np.float64)[None, :]
    return _loss_from_logits(logits, np.zeros(1, dtype=np.int64))[1][0]


def cross_entropy(logits, target):
    """The model's loss and its gradient w.r.t. one row of logits, as
    loss_and_grads forms it: the softmax, less 1 at the target."""
    logits = np.asarray(logits, dtype=np.float64)[None, :]
    loss, probs = _loss_from_logits(logits, np.array([target]))
    probs[0, target] -= 1.0
    return loss, probs[0]


def test_softmax_symmetry():
    assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])


def test_softmax_closed_form():
    out = softmax(np.array([math.log(2.0), 0.0]))
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_no_overflow():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert out[0] > 1.0 - 1e-12


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-100, 100))
def test_softmax_shift_invariance(logits, shift):
    logits = np.array(logits)
    a = softmax(logits)
    b = softmax(logits + shift)
    assert abs(a.sum() - 1.0) < 1e-12
    assert np.max(np.abs(a - b)) < 1e-12


def test_cross_entropy_uniform():
    loss, grad = cross_entropy(np.array([0.0, 0.0]), 0)
    assert abs(loss - math.log(2.0)) < 1e-12
    assert np.allclose(grad, [-0.5, 0.5])


def test_cross_entropy_shift_invariance():
    logits = np.array([1.2, -0.3, 0.7])
    base, _ = cross_entropy(logits, 2)
    shifted, _ = cross_entropy(logits + 37.5, 2)
    assert abs(base - shifted) < 1e-12


def test_cross_entropy_gradient_matches_finite_differences():
    rng = Rng(11)
    logits = rng.normal(5)
    _, grad = cross_entropy(logits, 3)
    eps = 1e-6
    for i in range(5):
        bumped = logits.copy()
        bumped[i] += eps
        up, _ = cross_entropy(bumped, 3)
        bumped[i] -= 2 * eps
        down, _ = cross_entropy(bumped, 3)
        numeric = (up - down) / (2 * eps)
        assert relative_error(grad[i], numeric) < 1e-7


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy(np.array([0.0, 0.0]), 2)


def test_rng_equal_seeds_equal_streams():
    a = Rng(123).normal(16)
    b = Rng(123).normal(16)
    assert np.array_equal(a, b)


def test_rng_children_differ_from_parent_and_each_other():
    assert seed_child(7, 0) != seed_child(7, 1)
    a = Rng(7).child(0).normal(8)
    b = Rng(7).child(1).normal(8)
    assert not np.array_equal(a, b)


def test_rekeyed_rng_draws_equal_a_fresh_one():
    # the reused generator carries a counter, a buffer position and a
    # buffered 32-bit half from its last key; a re-key drops all of them
    rng = Rng(99)
    for i in (0, 1, 2, 1000, 2 ** 40):
        key = seed_child(5, i)
        for draw in (lambda r: r.normal((3, 5)),
                     lambda r: r.permutation(37),
                     lambda r: r.sample_without_replacement(1000, 16),
                     lambda r: r.uniform(-1.0, 1.0, 7)):
            rng.sample_without_replacement(9, 3)
            rng.normal(1)
            got = draw(rng.rekey(key))
            assert rng.seed == key
            assert got.tobytes() == draw(Rng(key)).tobytes()
