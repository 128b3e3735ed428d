import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atc import model as model_mod
from atc.caches import (TextualCache, VisualCache, build_textual_cache,
                        build_visual_cache)
from atc.conditionnet import init_condition_net
from atc.dataio import SynthConfig, synth_dataset
from atc.errors import ShapeError
from atc.model import (AtcModel, _loss_from_logits, batch_loss, branches,
                       fuse, loss_and_grads, predict_batch, set_tensors,
                       trainables, zero_shot_logits)
from atc.numerics import Rng, grad_check
from oracles import (dense_text_scores, dense_text_shift_grad, shift_model,
                     visual_scores)


def _make_model(n=3, dim=8, k=2, seed=1, renorm=True, mode="biases",
                activation="linear", gamma=1.0, alpha=1.0, beta=1.0,
                scale=10.0, randomize=False):
    sets = synth_dataset(SynthConfig(num_classes=n, dim=dim, shots=k,
                                     queries_per_class=3, sigma=0.3,
                                     seed=seed))
    textual = build_textual_cache(sets["text"], renormalize=renorm)
    visual = build_visual_cache(sets["support"], n, mode=mode,
                                renormalize=renorm)
    net = init_condition_net(dim, 2, 5, Rng(seed).child(50))
    if randomize:
        rng = Rng(seed).child(51)
        np.copyto(net.W_out, 0.1 * rng.normal(net.W_out.shape))
        if mode == "biases":
            np.copyto(visual.biases, 0.1 * rng.normal(visual.biases.shape))
        elif mode == "linear":
            visual.linear += 0.1 * rng.normal(visual.linear.shape)
    m = AtcModel(textual, visual, net, alpha=alpha, beta=beta,
                 logit_scale=scale, activation=activation, tip_gamma=gamma)
    return m, sets


def _eye_model(activation="linear", gamma=1.0):
    cache = VisualCache(np.eye(2), np.array([0, 1]))
    cache.biases = np.zeros((2, 2))
    net = init_condition_net(2, 1, 2, Rng(0))
    return AtcModel(TextualCache(np.eye(2)), cache, net,
                    activation=activation, tip_gamma=gamma)


def _f1(m, F):
    return branches(m, np.atleast_2d(F))[0]


def _f2(m, F):
    return branches(m, np.atleast_2d(F))[1]


def test_branch_visual_identity_case():
    f1 = _f1(_eye_model(), [1.0, 0.0])
    assert np.allclose(f1, [[1.0, 0.0]])


def test_branch_visual_orthogonal_row_contribution():
    linear = _f1(_eye_model("linear"), [1.0, 0.0])[0]
    tip = _f1(_eye_model("tip", 1.0), [1.0, 0.0])[0]
    assert linear[1] == 0.0
    assert abs(tip[1] - np.exp(-1.0)) < 1e-12
    assert abs(tip[0] - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_branch_visual_matches_double_loop_oracle(seed):
    n, k, dim = 4, 3, 8
    m, sets = _make_model(n=n, dim=dim, k=k, seed=seed, randomize=True)
    F = Rng(seed).normal((5, dim))
    F /= np.linalg.norm(F, axis=1, keepdims=True)
    rows = m.visual.support + m.visual.biases
    labels = m.visual.labels
    for act, gamma in (("linear", 1.0), ("tip", 2.0)):
        m.activation, m.tip_gamma = act, gamma
        f1 = _f1(m, F)
        for i, f in enumerate(F):
            expected = visual_scores(f, rows, labels, n, act, gamma)
            assert np.max(np.abs(f1[i] - expected)) < 1e-12


def test_branch_textual_reduces_to_zero_shot_with_fresh_net():
    m, sets = _make_model()
    F = sets["query"].features
    f2 = _f2(m, F)
    assert np.max(np.abs(f2 - zero_shot_logits(m.textual.class_texts,
                                               F))) < 1e-15


def test_branch_textual_text_row_query():
    m, _ = _make_model()
    f2 = _f2(m, m.textual.class_texts[0])
    assert abs(f2[0, 0] - 1.0) < 1e-12


def test_branch_textual_constant_shift_without_renorm():
    m, sets = _make_model(renorm=False, randomize=True)
    F = sets["query"].features
    deltas = _f2(m, F) - zero_shot_logits(m.textual.class_texts, F)
    spread = np.max(deltas, axis=1) - np.min(deltas, axis=1)
    assert np.max(spread) < 1e-12
    assert np.max(np.abs(deltas)) > 1e-3


def test_fuse_arithmetic():
    out = fuse(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 1.0, 1.0, 1.0)
    assert np.allclose(out, [1.5, 0.5])


def test_fuse_alpha_zero_is_textual_only():
    f2 = np.array([0.3, -0.2, 0.9])
    out = fuse(np.zeros(3) + 7.0, f2, 0.0, 2.0, 10.0)
    assert np.allclose(out, 20.0 * f2)


def test_fuse_shape_error():
    with pytest.raises(ShapeError):
        fuse(np.zeros(3), np.zeros(2), 1.0, 1.0, 1.0)


def test_logit_scale_preserves_argmax_not_loss():
    m, sets = _make_model(randomize=True)
    q = sets["query"].features
    labels = sets["query"].labels
    m.logit_scale = 1.0
    preds1 = predict_batch(m, q)
    loss1 = batch_loss(m, q, labels)
    m.logit_scale = 250.0
    preds2 = predict_batch(m, q)
    loss2 = batch_loss(m, q, labels)
    assert np.array_equal(preds1, preds2)
    assert loss1 != loss2


def test_reduction_law_alpha_zero_matches_zero_shot_exactly():
    m, sets = _make_model(n=5, dim=16, k=2, alpha=0.0, beta=1.0)
    q = sets["query"].features
    preds = predict_batch(m, q)
    zs = np.argmax(zero_shot_logits(m.textual.class_texts, q), axis=1)
    assert np.array_equal(preds, zs)


def test_predict_noiseless_is_perfect():
    sets = synth_dataset(SynthConfig(num_classes=4, dim=8, shots=2,
                                     queries_per_class=3, sigma=0.0,
                                     text_noise=0.0, seed=2))
    textual = build_textual_cache(sets["text"])
    visual = build_visual_cache(sets["support"], 4)
    net = init_condition_net(8, 2, 4, Rng(0))
    m = AtcModel(textual, visual, net)
    preds = predict_batch(m, sets["query"].features)
    assert np.array_equal(preds, sets["query"].labels)


def test_predict_deterministic_and_exposes_intermediates():
    m, sets = _make_model(randomize=True)
    F = sets["query"].features[:1]
    f1a, f2a, ctx = branches(m, F)
    f1b, f2b, _ = branches(m, F)
    assert np.array_equal(f1a, f1b) and np.array_equal(f2a, f2b)
    logits = fuse(f1a, f2a, m.alpha, m.beta, m.logit_scale)
    _, probs = _loss_from_logits(logits, np.zeros(1, dtype=np.int64))
    assert abs(probs.sum() - 1.0) < 1e-12
    assert f1a.shape == f2a.shape == (1, 3)
    assert ctx["S"].shape == (1, 8)
    assert np.any(ctx["S"] != 0.0)
    assert predict_batch(m, F)[0] == np.argmax(logits[0])


@pytest.mark.parametrize("renorm", [True, False])
@pytest.mark.parametrize("activation,gamma", [("linear", 1.0), ("tip", 2.0)])
def test_full_gradients_match_finite_differences(renorm, activation, gamma):
    m, sets = _make_model(renorm=renorm, activation=activation, gamma=gamma,
                          scale=5.0, randomize=True)
    q = sets["query"].features[:4]
    labels = sets["query"].labels[:4]
    params = {k: v.copy() for k, v in trainables(m).items()}
    _, analytic = loss_and_grads(m, q, labels)

    def fn(p):
        set_tensors(m, p)
        return batch_loss(m, q, labels)

    report = grad_check(fn, params, analytic, eps=1e-4, tol=1e-4)
    set_tensors(m, params)
    assert report.passed, report.summary()


def test_linear_mode_gradients_match_finite_differences():
    m, sets = _make_model(mode="linear", scale=5.0, randomize=True)
    q = sets["query"].features[:4]
    labels = sets["query"].labels[:4]
    params = {k: v.copy() for k, v in trainables(m).items()}
    _, analytic = loss_and_grads(m, q, labels)

    def fn(p):
        set_tensors(m, p)
        return batch_loss(m, q, labels)

    report = grad_check(fn, params, analytic, eps=1e-4, tol=1e-4)
    set_tensors(m, params)
    assert report.passed, report.summary()


def test_renorm_off_kills_condition_net_gradients():
    m, sets = _make_model(renorm=False, randomize=True)
    q = sets["query"].features
    _, grads = loss_and_grads(m, q, sets["query"].labels)
    for name, g in grads.items():
        if name.startswith("net."):
            assert np.max(np.abs(g)) <= 1e-10, name


def test_alpha_zero_gives_exactly_zero_visual_gradient():
    m, sets = _make_model(alpha=0.0, randomize=True)
    _, grads = loss_and_grads(m, sets["query"].features,
                              sets["query"].labels)
    assert np.all(grads["visual.biases"] == 0.0)


def test_linear_mode_initial_f1_matches_fixed_mode():
    mf, sets = _make_model(mode="fixed", seed=3)
    ml, _ = _make_model(mode="linear", seed=3)
    F = sets["query"].features
    assert np.max(np.abs(_f1(mf, F) - _f1(ml, F))) < 1e-12


def test_leave_self_out_removes_self_affinity():
    m, sets = _make_model(randomize=False)
    sup = m.visual.support
    labels = m.visual.labels
    def logits(self_indices):
        f1, f2, _ = branches(m, sup, self_indices)
        return fuse(f1, f2, m.alpha, m.beta, m.logit_scale)

    logits_in = logits(None)
    logits_out = logits(np.arange(sup.shape[0]))
    # removing the self row lowers the own-class visual score by exactly
    # scale * alpha * activated self affinity (= 1 for unit rows, linear)
    idx = np.arange(sup.shape[0])
    diff = logits_in[idx, labels] - logits_out[idx, labels]
    assert np.max(np.abs(diff - m.logit_scale * m.alpha * 1.0)) < 1e-9


def _spy_shift_grad(m, F, labels):
    """The dS that loss_and_grads hands the condition network."""
    seen = []
    real = model_mod.condition_backward
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_mod, "condition_backward",
                   lambda net, tape, dS: (seen.append(dS),
                                          real(net, tape, dS))[1])
        loss_and_grads(m, F, labels)
    (dS,) = seen
    return dS


def _oracle_df2(m, f1, f2, labels):
    logits = fuse(f1, f2, m.alpha, m.beta, m.logit_scale)
    _, probs = _loss_from_logits(logits, labels)
    probs[np.arange(labels.size), labels] -= 1.0
    return m.logit_scale * m.beta * probs / labels.size


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), renorm=st.booleans(),
       tip=st.booleans(), size=st.floats(0.01, 3.0))
def test_closed_form_textual_branch_matches_dense_oracle(seed, renorm, tip,
                                                         size):
    m, sets = _make_model(n=4, dim=8, k=2, seed=seed, renorm=renorm,
                          activation="tip" if tip else "linear", gamma=2.0,
                          randomize=True)
    rng = Rng(seed).child(7)
    np.copyto(m.net.W_out, size * rng.normal(m.net.W_out.shape))
    np.copyto(m.net.b_out, size * rng.normal(m.net.b_out.shape))
    F, labels = sets["query"].features, sets["query"].labels
    f1, f2, ctx = branches(m, F)
    want, saved = dense_text_scores(F, m.textual.class_texts, ctx["S"],
                                    renorm)
    assert np.max(np.abs(f2 - want)) < 1e-12
    want_dS = dense_text_shift_grad(F, _oracle_df2(m, f1, want, labels),
                                    saved)
    assert np.max(np.abs(_spy_shift_grad(m, F, labels) - want_dS)) < 1e-12


@pytest.mark.parametrize("excess", [0.0, 1e-9])
def test_cancelled_text_row_passes_through(excess):
    m, sets = _make_model(n=4, dim=8, k=2)
    texts = m.textual.class_texts
    s = -(1.0 + excess) * texts[2]
    m = shift_model(texts, s)
    F, labels = sets["query"].features, sets["query"].labels
    f1, f2, ctx = branches(m, F)
    want, saved = dense_text_scores(F, texts, ctx["S"])
    if excess == 0.0:
        assert np.all(f2[:, 2] == 0.0)
    assert np.max(np.abs(f2 - want)) < 1e-12
    loss, grads = loss_and_grads(m, F, labels)
    assert np.isfinite(loss)
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    # near cancellation dS grows like 1/|t_c + S_b|^2, so compare relatively
    want_dS = dense_text_shift_grad(F, _oracle_df2(m, f1, want, labels),
                                    saved)
    err = np.max(np.abs(_spy_shift_grad(m, F, labels) - want_dS))
    assert err < 1e-12 * max(1.0, np.max(np.abs(want_dS)))


def test_loss_and_grads_peak_below_one_dense_text_tensor():
    B, c, d = 256, 100, 512
    sets = synth_dataset(SynthConfig(num_classes=c, dim=d, shots=2,
                                     queries_per_class=3, seed=1))
    textual = build_textual_cache(sets["text"])
    visual = build_visual_cache(sets["support"], c)
    net = init_condition_net(d, 8, 64, Rng(1))
    np.copyto(net.W_out, 0.01 * Rng(2).normal(net.W_out.shape))
    m = AtcModel(textual, visual, net)
    F, labels = sets["query"].features[:B], sets["query"].labels[:B]
    tracemalloc.start()
    try:
        loss_and_grads(m, F, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < B * c * d * 8


def test_visual_branch_gathers_unsorted_labels():
    m, sets = _make_model(n=4, dim=8, k=3, seed=2, randomize=True,
                          activation="tip", gamma=2.0)
    F, labels = sets["query"].features, sets["query"].labels
    f1, _, _ = branches(m, F)
    _, grads = loss_and_grads(m, F, labels, np.arange(F.shape[0]) % 12)
    perm = Rng(3).permutation(m.visual.rows)
    m.visual = VisualCache(m.visual.support[perm], m.visual.labels[perm],
                           biases=m.visual.biases[perm])
    assert np.max(np.abs(branches(m, F)[0] - f1)) < 1e-12
    inverse = np.argsort(perm)
    _, pgrads = loss_and_grads(m, F, labels, inverse[np.arange(F.shape[0])
                                                     % 12])
    assert np.max(np.abs(pgrads["visual.biases"][inverse]
                         - grads["visual.biases"])) < 1e-12


def test_visual_class_without_rows_scores_zero():
    cache = VisualCache(np.eye(3)[[2, 0]], np.array([2, 0]), mode="fixed")
    m = AtcModel(TextualCache(np.eye(3)), cache,
                 init_condition_net(3, 1, 2, Rng(0)))
    F = Rng(4).normal((4, 3))
    f1 = _f1(m, F)
    assert np.all(f1[:, 1] == 0.0)
    for i, f in enumerate(F):
        expected = visual_scores(f, cache.support, cache.labels, 3)
        assert np.max(np.abs(f1[i] - expected)) < 1e-12
