import numpy as np
import pytest

from atc.caches import build_textual_cache, build_visual_cache
from atc.conditionnet import condition_forward, init_condition_net
from atc.dataio import SynthConfig, synth_dataset
from atc.errors import ShapeError, ValidationError
from atc.model import AtcModel, branches, zero_shot_logits
from atc.numerics import Rng, l2_normalize_rows
from oracles import shift_model, shifted_text_scores, visual_scores


def _sets(n=3, dim=8, k=2, seed=1):
    return synth_dataset(SynthConfig(num_classes=n, dim=dim, shots=k,
                                     queries_per_class=2, seed=seed))


def test_build_textual_cache_role_check():
    sets = _sets()
    with pytest.raises(ValidationError):
        build_textual_cache(sets["support"])


def test_build_textual_cache_shape():
    sets = _sets(n=10, dim=64)
    cache = build_textual_cache(sets["text"])
    assert cache.class_texts.shape == (10, 64)


def _f2(m, F):
    return branches(m, np.atleast_2d(F))[1]


def test_adapt_zero_bias_is_identity():
    texts = build_textual_cache(_sets(n=5, dim=8)["text"]).class_texts
    F = _sets(n=5, dim=8, seed=2)["query"].features
    f2 = _f2(shift_model(texts, np.zeros(8)), F)
    zs = zero_shot_logits(texts, F)
    assert np.max(np.abs(f2 - zs)) < 1e-15
    assert np.array_equal(np.argmax(f2, axis=1), np.argmax(zs, axis=1))


def test_adapt_shape_error():
    m = shift_model(build_textual_cache(_sets()["text"]).class_texts,
                    np.zeros(8))
    with pytest.raises(ShapeError):
        branches(m, np.zeros((1, 5)))
    with pytest.raises(ShapeError):
        condition_forward(m.net, np.zeros(8))


def test_uniform_bias_shifts_all_logits_equally_without_renorm():
    texts = build_textual_cache(_sets(n=4, dim=8)["text"]).class_texts
    f = Rng(2).normal(8)
    f /= np.linalg.norm(f)
    s = Rng(3).normal(8)
    deltas = _f2(shift_model(texts, s, renormalize=False), f)[0] - texts @ f
    assert np.max(np.abs(deltas - float(f @ s))) < 1e-12
    assert np.max(deltas) - np.min(deltas) < 1e-12


def test_renorm_hand_computed_instance():
    s = np.array([0.0, 0.5])
    f = np.array([1.0, 0.0])
    f2 = _f2(shift_model(np.eye(2), s), f)[0]
    # rows [1, .5] and [0, 1.5] with norms sqrt(1.25) and 1.5
    assert abs(f2[0] - 1 / np.sqrt(1.25)) < 1e-12
    assert abs(f2[1] - 0.0) < 1e-12
    assert np.max(np.abs(f2 - shifted_text_scores(f, np.eye(2), s))) < 1e-12


def test_renorm_can_flip_argmax():
    f = np.array([0.6, 0.8])
    base = np.argmax(_f2(shift_model(np.eye(2), np.zeros(2)), f)[0])
    flipped = np.argmax(_f2(shift_model(np.eye(2), np.array([-0.4, 0.8])),
                            f)[0])
    assert base == 1 and flipped == 0


@pytest.mark.parametrize("renorm", [True, False])
def test_shifted_text_scores_match_per_query_oracle(renorm):
    texts = build_textual_cache(_sets(n=5, dim=8)["text"]).class_texts
    F = _sets(n=5, dim=8, seed=4)["query"].features
    s = 0.7 * Rng(5).normal(8)
    f2 = _f2(shift_model(texts, s, renormalize=renorm), F)
    for i, f in enumerate(F):
        expected = shifted_text_scores(f, texts, s, renormalize=renorm)
        assert np.max(np.abs(f2[i] - expected)) < 1e-12


def test_build_visual_cache_counts():
    sets = _sets(n=3, dim=8, k=2)
    cache = build_visual_cache(sets["support"], 3)
    assert cache.support.shape == (6, 8)
    assert cache.labels.shape == (6,)
    assert np.array_equal(np.bincount(cache.labels, minlength=3), [2, 2, 2])
    assert np.all(cache.biases == 0.0)


def test_build_visual_cache_missing_class():
    sets = _sets(n=3)
    with pytest.raises(ValidationError, match="missing"):
        build_visual_cache(sets["support"], 4)


def _visual_f1(cache, F):
    texts = build_textual_cache(_sets()["text"])
    net = init_condition_net(cache.dim, 2, 3, Rng(0))
    return branches(AtcModel(texts, cache, net), F)[0]


def test_effective_cache_zero_biases_bitwise():
    sets = _sets()
    F = sets["query"].features
    biased = _visual_f1(build_visual_cache(sets["support"], 3), F)
    fixed = _visual_f1(build_visual_cache(sets["support"], 3, mode="fixed"),
                       F)
    assert np.array_equal(biased, fixed)
    labels = sets["support"].labels
    for i, f in enumerate(F):
        expected = visual_scores(f, sets["support"].features, labels, 3)
        assert np.max(np.abs(biased[i] - expected)) < 1e-12


def test_effective_cache_cancellation_counts_zero_rows():
    sets = _sets()
    cache = build_visual_cache(sets["support"], 3)
    cache.biases = -cache.support
    rows, _, zero = l2_normalize_rows(cache.support + cache.biases)
    assert np.all(rows == 0.0)
    assert int(np.count_nonzero(zero)) == cache.rows
    assert np.all(_visual_f1(cache, sets["query"].features) == 0.0)


def test_linear_mode_rows_skip_renormalization():
    sets = _sets()
    cache = build_visual_cache(sets["support"], 3, mode="linear")
    cache.linear *= 3.0
    F = sets["query"].features
    f1 = _visual_f1(cache, F)
    labels = sets["support"].labels
    for i, f in enumerate(F):
        expected = visual_scores(f, cache.linear, labels, 3,
                                 renormalize=False)
        assert np.max(np.abs(f1[i] - expected)) < 1e-12
    assert np.max(np.abs(f1 - 3.0 * _visual_f1(
        build_visual_cache(sets["support"], 3, mode="fixed"), F))) < 1e-12


def test_fixed_mode_has_no_trainable_tensors():
    cache = build_visual_cache(_sets()["support"], 3, mode="fixed")
    assert cache.biases is None and cache.linear is None


def test_linear_mode_initialized_from_support():
    cache = build_visual_cache(_sets()["support"], 3, mode="linear")
    assert np.array_equal(cache.linear, cache.support)
    assert cache.linear is not cache.support
