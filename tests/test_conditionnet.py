import math

import numpy as np
import pytest

from atc import model as model_mod
from atc.conditionnet import (condition_backward, condition_forward,
                              init_condition_net)
from atc.errors import ConfigError, ContractError
from atc.numerics import Rng
from oracles import grad_check, shift_model


def _net(dim=16, T=4, h=6, seed=0, nonzero_head=False):
    net = init_condition_net(dim, T, h, Rng(seed))
    if nonzero_head:
        np.copyto(net.W_out, 0.1 * Rng(seed + 1).normal(net.W_out.shape))
        np.copyto(net.b_out, 0.1 * Rng(seed + 2).normal(net.b_out.shape))
    return net


def test_fresh_net_outputs_zero():
    net = _net()
    s, _ = condition_forward(net, Rng(5).normal((3, 16)))
    assert np.array_equal(s, np.zeros((3, 16)))


def _param_count(net):
    return 4 * net.hidden_size * (net.chunk_size + net.hidden_size + 1) \
        + net.dim * (net.hidden_size + 1)


def test_param_count_formula():
    net = init_condition_net(64, 8, 64, Rng(0))
    assert _param_count(net) == 4 * 64 * (8 + 64 + 1) + 64 * 65 == 22848
    total = sum(t.size for t in net.tensors().values())
    assert total == _param_count(net)


def test_init_deterministic():
    a = init_condition_net(16, 4, 6, Rng(9))
    b = init_condition_net(16, 4, 6, Rng(9))
    for k in a.tensors():
        assert np.array_equal(a.tensors()[k], b.tensors()[k])


def test_forget_bias_is_one():
    net = _net()
    assert np.all(net.gates["b_f"] == 1.0)
    assert np.all(net.gates["b_i"] == 0.0)


def test_indivisible_dim_rejected():
    with pytest.raises(ConfigError):
        init_condition_net(10, 3, 4, Rng(0))


@pytest.mark.parametrize("T,h", [(0, 4), (-2, 4), (4, 0), (4, -1)])
def test_nonpositive_chunk_count_or_hidden_size_rejected(T, h):
    with pytest.raises(ConfigError, match="must be >= 1"):
        init_condition_net(16, T, h, Rng(0))


def _scalar_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def test_forward_matches_scalar_oracle():
    # independent, non-vectorized recurrence over pure-python floats
    net = _net(dim=8, T=2, h=3, seed=2, nonzero_head=True)
    x = Rng(7).normal(8)
    s, _ = condition_forward(net, x[None, :])

    cs = 4
    h_prev = [0.0] * 3
    c_prev = [0.0] * 3
    for t in range(2):
        chunk = [float(x[t * cs + j]) for j in range(cs)]
        h_new, c_new = [], []
        for r in range(3):
            pre = {}
            for g in ("i", "f", "o", "g"):
                acc = float(net.gates[f"b_{g}"][r])
                for j in range(cs):
                    acc += float(net.gates[f"W_{g}"][r, j]) * chunk[j]
                for j in range(3):
                    acc += float(net.gates[f"U_{g}"][r, j]) * h_prev[j]
                pre[g] = acc
            i = _scalar_sigmoid(pre["i"])
            f = _scalar_sigmoid(pre["f"])
            o = _scalar_sigmoid(pre["o"])
            g = math.tanh(pre["g"])
            c = f * c_prev[r] + i * g
            h_new.append(o * math.tanh(c))
            c_new.append(c)
        h_prev, c_prev = h_new, c_new
    expected = [float(net.b_out[d]) + sum(float(net.W_out[d, j]) * h_prev[j]
                                          for j in range(3)) for d in range(8)]
    assert np.max(np.abs(s[0] - np.array(expected))) < 1e-12


def test_single_chunk_degenerates_to_one_cell():
    net = _net(dim=6, T=1, h=4, seed=3, nonzero_head=True)
    s, tape = condition_forward(net, Rng(1).normal((2, 6)), record=True)
    assert len(tape.X) == 1
    assert s.shape == (2, 6)


def test_backward_matches_finite_differences():
    for seed in range(3):
        net = _net(dim=8, T=2, h=4, seed=seed, nonzero_head=True)
        x = Rng(100 + seed).normal((2, 8))
        w = Rng(200 + seed).normal((2, 8))   # fixed projection to a scalar

        params = {k: v.copy() for k, v in net.tensors().items()}
        s, tape = condition_forward(net, x, record=True)
        analytic = condition_backward(net, tape, w)

        def fn(p):
            for k, v in net.gates.items():
                np.copyto(v, p[k])
            np.copyto(net.W_out, p["W_out"])
            np.copyto(net.b_out, p["b_out"])
            out, _ = condition_forward(net, x)
            return float(np.sum(out * w))

        report = grad_check(fn, params, analytic, eps=1e-4, tol=1e-4)
        assert report.passed, report.summary()


def test_zero_upstream_gives_zero_grads():
    net = _net(nonzero_head=True)
    _, tape = condition_forward(net, Rng(1).normal((2, 16)), record=True)
    grads = condition_backward(net, tape, np.zeros((2, 16)))
    assert all(np.all(g == 0.0) for g in grads.values())


def test_zero_head_blocks_gate_grads_but_not_head_grad():
    net = _net(seed=5)  # W_out = 0
    x = Rng(2).normal((2, 16))
    _, tape = condition_forward(net, x, record=True)
    grads = condition_backward(net, tape, np.ones((2, 16)))
    for g in ("i", "f", "o", "g"):
        assert np.all(grads[f"W_{g}"] == 0.0)
    assert np.any(grads["W_out"] != 0.0)


def test_tape_reuse_rejected():
    net = _net()
    _, tape = condition_forward(net, Rng(1).normal((1, 16)), record=True)
    condition_backward(net, tape, np.zeros((1, 16)))
    with pytest.raises(ContractError):
        condition_backward(net, tape, np.zeros((1, 16)))


def test_backward_without_tape_rejected():
    net = _net(nonzero_head=True)
    x = Rng(1).normal((2, 16))
    s, tape = condition_forward(net, x)
    assert tape is None
    assert s.tobytes() == condition_forward(net, x, record=True)[0].tobytes()
    with pytest.raises(ContractError):
        condition_backward(net, tape, np.zeros((2, 16)))
    # a forward-only model pass cannot be backpropagated either
    m = shift_model(np.eye(3), [0.5, -0.5, 0.0])
    _, _, ctx = model_mod.branches(m, np.eye(3))
    with pytest.raises(ContractError):
        model_mod._backward(m, ctx, np.zeros((3, 3)))


def test_batch_forward_matches_per_query():
    net = _net(dim=8, T=2, h=4, seed=6, nonzero_head=True)
    F = Rng(3).normal((5, 8))
    S, _ = condition_forward(net, F)
    for i in range(5):
        s, _ = condition_forward(net, F[i:i + 1])
        assert np.max(np.abs(S[i] - s[0])) < 1e-12
