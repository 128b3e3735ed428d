import numpy as np
import pytest

from atc.caches import VisualCache, build_textual_cache, build_visual_cache
from atc.conditionnet import condition_forward, init_condition_net
from atc.dataio import EmbeddingSet, SynthConfig, synth_dataset
from atc.errors import ShapeError, ValidationError
from atc.model import (AtcModel, _text_branch, _visual_scores, loss_and_grads,
                       zero_shot_logits)
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


def test_build_textual_cache_keeps_a_view_of_the_rows():
    sets = _sets(n=10, dim=64)
    cache = build_textual_cache(sets["text"])
    assert np.shares_memory(cache.class_texts, sets["text"].features)


def _f2(m, F):
    return _text_branch(m, np.atleast_2d(F), True)[0]


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
        loss_and_grads(m, np.zeros((1, 5)), [0])
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


def test_visual_cache_rejects_unsorted_labels():
    support = _sets(n=3, k=3)["support"]
    perm = Rng(3).permutation(9)
    shuffled = EmbeddingSet(support.features[perm], support.labels[perm],
                            support.class_names, "support")
    with pytest.raises(ValidationError, match="class-major"):
        build_visual_cache(shuffled, 3)
    with pytest.raises(ValidationError, match="class-major"):
        VisualCache(shuffled.features, shuffled.labels)
    # an index must draw the rows class-major too
    with pytest.raises(ValidationError, match="class-major"):
        build_visual_cache(support, 3, index=perm)
    with pytest.raises(ValidationError, match=r"missing classes \[1\]"):
        build_visual_cache(support, 3, index=np.array([0, 1, 6, 7]))


def test_build_visual_cache_rejects_an_index_outside_the_support():
    support = _sets(n=3, k=2)["support"]                  # 6 rows
    # negative entries would otherwise wrap to the rows counted from the end
    for index in (np.arange(-6, 0), np.arange(1, 7), [0, 1, 2, 3, 4, 6]):
        with pytest.raises(ValidationError,
                           match=r"cache index must be integers in \[0, 6\)"):
            build_visual_cache(support, 3, index=index)
    with pytest.raises(ShapeError, match=r"cache index shape \(3, 2\) is not"):
        build_visual_cache(support, 3, index=np.arange(6).reshape(3, 2))
    cache = build_visual_cache(support, 3, index=np.arange(6))
    assert cache.rows == 6


def test_visual_cache_rejects_an_index_outside_its_support():
    support = _sets(n=3, k=2)["support"]                  # 6 rows
    rows, labels = support.features, support.labels
    # a directly built cache would otherwise gather through a wrapping take,
    # a bool index as row 1 for every cache row
    for index in (np.arange(-6, 0), np.arange(10, 16), np.ones(6, bool)):
        with pytest.raises(ValidationError,
                           match=r"cache index must be integers in \[0, 6\)"):
            VisualCache(rows, labels, mode="fixed", index=index)
    with pytest.raises(ShapeError, match=r"cache index shape \(6, 1\) is not"):
        VisualCache(rows, labels, mode="fixed", index=np.zeros((6, 1), int))
    # build_visual_cache would keep labels[mask] but gather rows 1, 0, 1
    with pytest.raises(ValidationError, match="cache index must be integers"):
        build_visual_cache(support, 3, index=np.arange(6) % 2 == 0)
    cache = VisualCache(rows, labels, mode="fixed", index=np.arange(6))
    assert not cache.index.flags.writeable


def test_visual_cache_labels_are_integers_one_per_cache_row():
    support = _sets(n=3, k=2)["support"]                  # 6 rows
    rows, labels = support.features, support.labels
    # 6 labels for 4 cache rows were taken: a fixed cache scored class 2 as 0
    # from an empty slice, a biases one raised NumPy's ValueError
    for kwargs in ({"support": rows[:4]}, {"index": np.arange(4)}):
        with pytest.raises(ShapeError,
                           match=r"cache labels shape \(6,\) is not \(4,\)"):
            VisualCache(**{"support": rows, "labels": labels, **kwargs})
    with pytest.raises(ValidationError,
                       match=r"cache labels must be integers in \[0, 6\)"):
        VisualCache(rows, labels + 0.0)
    assert VisualCache(rows, labels).rows == 6


def test_visual_cache_rejects_class_without_rows():
    with pytest.raises(ValidationError, match="class-major"):
        VisualCache(np.eye(4), np.array([0, 0, 2, 2]), mode="fixed")


def test_visual_cache_rejects_no_rows():
    with pytest.raises(ValidationError, match="class-major"):
        VisualCache(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))


def _visual_f1(cache, F):
    texts = build_textual_cache(_sets()["text"])
    net = init_condition_net(cache.dim, 2, 3, Rng(0))
    return _visual_scores(AtcModel(texts, cache, net), F, None, True)[0]


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
    assert not np.shares_memory(cache.linear, cache.support)
