import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atc import model as model_mod
from atc.caches import (TextualCache, VisualCache, build_textual_cache,
                        build_visual_cache)
from atc.conditionnet import init_condition_net
from atc.dataio import EmbeddingSet, SynthConfig, sample_episode, synth_dataset
from atc.errors import EvaluationError, ShapeError
from atc.model import (AtcModel, _loss_from_logits, branches, fuse,
                       loss_and_grads, predict_batch, zero_shot_logits)
from atc.numerics import Rng, l2_normalize_rows
from oracles import (batch_loss, check_gradients, dense_text_scores,
                     dense_text_shift_grad, dense_visual_grads,
                     dense_visual_scores, normalize_rows_bwd, shift_model,
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


@pytest.mark.parametrize("adaptive", [True, False])
@pytest.mark.parametrize("renorm", [True, False])
def test_unshifted_textual_branch_is_exact(renorm, adaptive):
    # S == 0 (a fresh or a frozen net) takes the general closed form: the
    # shift terms add exact zeros, so f2 is bitwise the unshifted score
    m, sets = _make_model(n=6, dim=16, renorm=renorm)
    m.adaptive_text = adaptive
    F, T = sets["query"].features, m.textual.class_texts
    want = F @ T.T
    if renorm:
        want = want / np.sqrt(np.einsum("cd,cd->c", T, T))
    f2 = _f2(m, F)
    assert not np.any(branches(m, F)[2]["S"])
    assert np.array_equal(f2, want)


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
    report = check_gradients(m, sets["query"].features[:4],
                             sets["query"].labels[:4])
    assert report.passed, report.summary()


def test_linear_mode_gradients_match_finite_differences():
    m, sets = _make_model(mode="linear", scale=5.0, randomize=True)
    report = check_gradients(m, sets["query"].features[:4],
                             sets["query"].labels[:4])
    assert report.passed, report.summary()


def test_loss_and_grads_rejects_targets_out_of_range():
    # a target of -1 would otherwise index class c - 1
    m, sets = _make_model()
    q = sets["query"].features[:2]
    for bad in (-1, sets["text"].num_classes):
        with pytest.raises(IndexError, match="label out of range for 3"):
            loss_and_grads(m, q, np.array([0, bad]))


@pytest.mark.parametrize("adaptive", [True, False])
@pytest.mark.parametrize("leave_self_out", [False, True])
def test_step_logits_are_the_scored_ones(adaptive, leave_self_out):
    # train reads an epoch's accuracy off the logits its loss was taken at
    m, sets = _make_model(randomize=True)
    m.adaptive_text = adaptive
    F, labels = sets["support"].features, sets["support"].labels
    s = np.arange(len(F)) if leave_self_out else None
    logits = loss_and_grads(m, F, labels, s)[2]
    want = fuse(*branches(m, F, s, record=True)[:2], m.alpha, m.beta,
                m.logit_scale)
    assert logits.tobytes() == want.tobytes()


def test_renorm_off_kills_condition_net_gradients():
    m, sets = _make_model(renorm=False, randomize=True)
    q = sets["query"].features
    _, grads, _ = loss_and_grads(m, q, sets["query"].labels)
    for name, g in grads.items():
        if name.startswith("net."):
            assert np.max(np.abs(g)) <= 1e-10, name


def test_alpha_zero_gives_exactly_zero_visual_gradient():
    m, sets = _make_model(alpha=0.0, randomize=True)
    _, grads, _ = loss_and_grads(m, sets["query"].features,
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
    loss, grads, _ = loss_and_grads(m, F, labels)
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


@pytest.mark.parametrize("adaptive", [True, False])
@pytest.mark.parametrize("activation", ["linear", "tip"])
@pytest.mark.parametrize("renorm", [True, False])
@pytest.mark.parametrize("leave_self_out", [False, True])
def test_branches_without_tape_are_bitwise_the_recorded_ones(
        adaptive, activation, renorm, leave_self_out):
    m, _ = _make_model(renorm=renorm, activation=activation, gamma=2.0,
                       randomize=True)
    m.adaptive_text = adaptive
    F = m.visual.support
    self_indices = np.arange(F.shape[0]) if leave_self_out else None
    f1, f2, ctx = branches(m, F, self_indices, record=True)
    g1, g2, bare = branches(m, F, self_indices)
    assert bare["tape"] is None
    assert (ctx["tape"] is not None) == adaptive
    assert f1.tobytes() == g1.tobytes() and f2.tobytes() == g2.tobytes()
    if adaptive:
        assert np.any(ctx["S"]) and ctx["S"].tobytes() == bare["S"].tobytes()


def test_predict_batch_peak_below_the_condition_net_tape():
    # the 1600-row training episode of a c=100, d=512 run: the tape of the
    # T=8, h=64 net (four gates, c and h per step plus the initial state,
    # and the T input chunks) is what a forward-only call need not hold
    B, c, d, T, h = 1600, 100, 512, 8, 64
    sets = synth_dataset(SynthConfig(num_classes=c, dim=d, shots=16,
                                     queries_per_class=1, seed=1))
    textual = build_textual_cache(sets["text"])
    visual = build_visual_cache(sets["support"], c)
    net = init_condition_net(d, T, h, Rng(1))
    np.copyto(net.W_out, 0.01 * Rng(2).normal(net.W_out.shape))
    m = AtcModel(textual, visual, net)
    F = sets["support"].features
    assert F.shape == (B, d)
    tracemalloc.start()
    try:
        predict_batch(m, F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < B * (h * (4 * T + 2 * (T + 1)) + d) * 8


@pytest.mark.parametrize("rows", [1, 65])
def test_visual_renorm_backward_matches_whole_array_oracle_bitwise(rows):
    raw = Rng(5).normal((rows, 512))
    raw[::4] *= 1e-13          # rows that pass through unnormalized
    unit, safe, zero = l2_normalize_rows(raw)
    d_unit = Rng(6).normal((rows, 512))
    got = model_mod._normalize_rows_bwd(d_unit, unit, safe, zero)
    assert got.tobytes() == normalize_rows_bwd(d_unit, unit, safe,
                                               zero).tobytes()


def _cache_rows(cache, idx):
    """The cache's rows idx (with their labels and trainable rows), in that
    order."""
    out = VisualCache(cache.support[idx], cache.labels[idx], cache.mode,
                      cache.renormalize)
    if cache.biases is not None:
        out.biases = cache.biases[idx]
    if cache.linear is not None:
        out.linear = cache.linear[idx]
    return out


def _visual_case(mode, activation, leave_self_out, shuffled, one_row_class):
    """A randomized model, 7 queries and d_logits for the visual-branch
    oracle comparisons. Under leave-self-out query i masks support row i:
    queries 1, 3 and 5 are those rows themselves, the others query rows.
    shuffled permutes the rows within each class; one_row_class keeps one
    row of class 2 (row 6, which query 6 masks under leave-self-out)."""
    m, sets = _make_model(n=5, dim=16, k=3, seed=9, mode=mode,
                          activation=activation, gamma=2.5, randomize=True)
    m.adaptive_text = False
    if one_row_class:
        keep = np.flatnonzero((m.visual.labels != 2)
                              | (np.arange(m.visual.rows) == 6))
        m.visual = _cache_rows(m.visual, keep)
    if shuffled:
        perm = Rng(10).permutation(m.visual.rows)
        perm = perm[np.argsort(m.visual.labels[perm], kind="stable")]
        m.visual = _cache_rows(m.visual, perm)
    F = m.visual.support[:7].copy()
    F[::2] = sets["query"].features[:4]
    self_indices = np.arange(7) if leave_self_out else None
    d_logits = Rng(11).normal((7, 5))
    return m, F, self_indices, d_logits


def _visual_grads(m, F, self_indices, d_logits):
    f1, _, ctx = branches(m, F, self_indices, record=True)
    grads = model_mod._backward(m, ctx, d_logits)
    return f1, {k: v for k, v in grads.items() if k.startswith("visual.")}


_VISUAL_CASES = [(mode, lso, shuffled, one_row)
                 for mode in ("fixed", "biases", "linear")
                 for lso in (False, True) for shuffled in (False, True)
                 for one_row in (False, True)]


@pytest.mark.parametrize("mode,leave_self_out,shuffled,one_row_class",
                         _VISUAL_CASES)
def test_linear_visual_branch_matches_dense_oracle(mode, leave_self_out,
                                                   shuffled, one_row_class):
    m, F, self_indices, d_logits = _visual_case(
        mode, "linear", leave_self_out, shuffled, one_row_class)
    f1, grads = _visual_grads(m, F, self_indices, d_logits)
    want, _ = dense_visual_scores(m, F, self_indices)
    assert np.max(np.abs(f1 - want)) <= 1e-12 * np.max(np.abs(want))
    df1 = m.logit_scale * m.alpha * d_logits
    want_grads = ({} if mode == "fixed"
                  else dense_visual_grads(m, F, df1, self_indices))
    assert grads.keys() == want_grads.keys()
    for name, g in grads.items():
        ref = want_grads[name]
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("mode,leave_self_out,shuffled,one_row_class",
                         _VISUAL_CASES)
def test_tip_visual_branch_is_the_dense_oracle_bitwise(mode, leave_self_out,
                                                       shuffled, one_row_class):
    m, F, self_indices, d_logits = _visual_case(
        mode, "tip", leave_self_out, shuffled, one_row_class)
    f1, grads = _visual_grads(m, F, self_indices, d_logits)
    assert f1.tobytes() == dense_visual_scores(m, F, self_indices)[0].tobytes()
    if one_row_class and leave_self_out:
        assert f1[6, 2] == 0.0
    if mode != "fixed":
        want = dense_visual_grads(m, F, m.logit_scale * m.alpha * d_logits,
                                  self_indices)
        assert grads.keys() == want.keys()
        for name, g in grads.items():
            assert g.tobytes() == want[name].tobytes(), name


def test_linear_visual_branch_matches_dense_oracle_at_scale():
    m, sets = _make_model(n=100, dim=512, k=16, seed=12, randomize=True)
    m.adaptive_text = False
    F = m.visual.support[:256]
    self_indices = np.arange(256)
    d_logits = Rng(13).normal((256, 100)) / 256
    f1, grads = _visual_grads(m, F, self_indices, d_logits)
    want, _ = dense_visual_scores(m, F, self_indices)
    assert np.max(np.abs(f1 - want)) <= 1e-12 * np.max(np.abs(want))
    ref = dense_visual_grads(m, F, m.logit_scale * d_logits,
                             self_indices)["visual.biases"]
    assert np.max(np.abs(grads["visual.biases"] - ref)) <= (
        1e-12 * np.max(np.abs(ref)))


def _blocked_case(counts, mode, renorm, dim=16, shuffled=False):
    """A linear-activation model whose class c has counts[c] random support
    rows (permuted within each class when shuffled), with random biases and
    free rows, and 5 queries."""
    rng = Rng(20)
    labels = np.repeat(np.arange(len(counts)), counts)
    support = l2_normalize_rows(rng.normal((labels.size, dim)))[0]
    visual = VisualCache(support, labels, mode, renorm)
    visual.biases = 0.3 * rng.normal(support.shape)
    visual.linear = support + 0.3 * rng.normal(support.shape)
    if shuffled:
        perm = rng.permutation(labels.size)
        visual = _cache_rows(visual, perm[np.argsort(labels[perm],
                                                     kind="stable")])
    textual = TextualCache(l2_normalize_rows(rng.normal((len(counts),
                                                         dim)))[0], renorm)
    m = AtcModel(textual, visual, init_condition_net(dim, 2, 4, Rng(21)),
                 logit_scale=10.0)
    return m, rng.normal((5, dim))


# class sizes against 4-row blocks: a class longer than a block; windows
# that close exactly on a class boundary; a one-row class between others
_BLOCK_SHAPES = {"long": ([9, 4, 1, 3, 2], [(0, 9), (9, 13), (13, 17),
                                             (17, 19)]),
                 "exact": ([2, 2, 2, 2, 4], [(0, 4), (4, 8), (8, 12)]),
                 "one_row": ([3, 1, 1, 5, 1], [(0, 4), (4, 10), (10, 11)])}


@pytest.mark.parametrize("shape", sorted(_BLOCK_SHAPES))
@pytest.mark.parametrize("mode", ["fixed", "biases", "linear"])
@pytest.mark.parametrize("renorm", [True, False])
@pytest.mark.parametrize("shuffled", [False, True])
def test_blocked_class_sums_are_the_recorded_ones_bitwise(
        monkeypatch, shape, mode, renorm, shuffled):
    counts, blocks = _BLOCK_SHAPES[shape]
    m, F = _blocked_case(counts, mode, renorm, shuffled=shuffled)
    monkeypatch.setattr(model_mod, "_BLOCK_VALUES", 4 * m.dim)
    spans = []
    original = model_mod._effective_rows

    def spied(cache, lo, hi):
        spans.append((lo, hi))
        return original(cache, lo, hi)

    monkeypatch.setattr(model_mod, "_effective_rows", spied)
    rows, vnorm, proto = model_mod.visual_rows(m)
    assert rows is None and vnorm is None
    assert spans == blocks
    f1 = branches(m, F)[0]
    spans.clear()
    whole = model_mod.visual_rows(m, record=True)
    assert spans == [(0, m.visual.rows)]
    assert whole[0].shape == (m.visual.rows, m.dim)
    assert (whole[1] is not None) == (renorm and mode != "linear")
    assert proto.tobytes() == whole[2].tobytes()
    assert f1.tobytes() == branches(m, F, record=True)[0].tobytes()


def test_forward_only_visual_rows_peak_below_one_rows_array():
    # 4,000 x 512 rows (16.4 MB) in 250 classes: the blocked sums hold a
    # block of rows, never all of them
    c, k, d = 250, 16, 512
    m, _ = _blocked_case([k] * c, "biases", True, dim=d)
    tracemalloc.start()
    try:
        model_mod.visual_rows(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < c * k * d * 8


def test_blocked_visual_rows_reject_a_non_finite_row_norm(monkeypatch):
    m, _ = _blocked_case([9, 4, 1, 3, 2], "biases", True)
    monkeypatch.setattr(model_mod, "_BLOCK_VALUES", 4 * m.dim)
    m.visual.biases[15] = 1e300        # in the third of four blocks
    with pytest.raises(EvaluationError, match="visual cache row norm"):
        model_mod.visual_rows(m)


def _indexed_pair(mode, activation, renorm, shots):
    """Two models that differ only in their visual cache: one over a
    gathered copy of an episode's rows, one over the support set's rows
    plus the episode's row index. The set has 5 rows per class in shuffled
    order; the caches share random biases or free rows."""
    sets = synth_dataset(SynthConfig(num_classes=6, dim=16, shots=5,
                                     queries_per_class=2, seed=4))
    s = sets["support"]
    perm = Rng(5).permutation(s.labels.size)
    support = EmbeddingSet(s.features[perm], s.labels[perm], s.class_names,
                           "support")
    idx = sample_episode(support.labels, shots, 6)
    episode = EmbeddingSet(support.features[idx], support.labels[idx],
                           s.class_names, "support")
    trained = 0.3 * Rng(7).normal((idx.size, 16))
    models = []
    for visual in (build_visual_cache(episode, 6, mode, renorm),
                   build_visual_cache(support, 6, mode, renorm, index=idx)):
        if mode == "biases":
            visual.biases = trained.copy()
        elif mode == "linear":
            visual.linear += trained
        net = init_condition_net(16, 2, 4, Rng(8))
        np.copyto(net.W_out, 0.1 * Rng(9).normal(net.W_out.shape))
        models.append(AtcModel(build_textual_cache(sets["text"], renorm),
                               visual, net, logit_scale=10.0,
                               activation=activation, tip_gamma=2.0))
    return models, sets["query"].features


@pytest.mark.parametrize("mode", ["fixed", "biases", "linear"])
@pytest.mark.parametrize("activation", ["linear", "tip"])
@pytest.mark.parametrize("renorm", [True, False])
@pytest.mark.parametrize("shots", [5, 3])
def test_indexed_cache_scores_its_gathered_episode_bitwise(
        monkeypatch, mode, activation, renorm, shots):
    monkeypatch.setattr(model_mod, "_BLOCK_VALUES", 4 * 16)
    (gathered, indexed), F = _indexed_pair(mode, activation, renorm, shots)
    assert indexed.visual.support.shape[0] == 30
    assert gathered.visual.rows == indexed.visual.rows == 6 * shots
    assert gathered.visual.labels.tobytes() == indexed.visual.labels.tobytes()
    def parts(m, record):   # rows, class sums, safe norms, zero mask
        rows, vnorm, proto = model_mod.visual_rows(m, record=record)
        return [rows, proto, *(vnorm or (None, None))]

    for record in (False, True):
        for a, b in zip(parts(gathered, record), parts(indexed, record)):
            assert (a is None) == (b is None)
            assert a is None or a.tobytes() == b.tobytes()
        for a, b in zip(branches(gathered, F, record=record)[:2],
                        branches(indexed, F, record=record)[:2]):
            assert a.tobytes() == b.tobytes()
