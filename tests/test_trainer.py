import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
import oracles
from oracles import encode_checkpoint

import atc.trainer
from atc.caches import build_textual_cache, build_visual_cache
from atc.conditionnet import init_condition_net
from atc.dataio import SynthConfig, synth_dataset
from atc.errors import CodecError, ShapeError, ValidationError
from atc.model import (AtcModel, loss_and_grads, predict_batch, set_tensors,
                       tensors, trainables)
from atc.numerics import _BLOCK_VALUES, Rng
from atc.trainer import (AdamState, Checkpoint, TrainConfig, adam_step,
                         apply_checkpoint, init_adam, load_checkpoint,
                         save_checkpoint, train)


def _model(seed=1, n=3, dim=8, k=4, queries=2):
    sets = synth_dataset(SynthConfig(num_classes=n, dim=dim, shots=k,
                                     queries_per_class=queries, sigma=0.3,
                                     seed=seed))
    textual = build_textual_cache(sets["text"])
    visual = build_visual_cache(sets["support"], n)
    net = init_condition_net(dim, 2, 4, Rng(seed).child(10))
    return AtcModel(textual, visual, net, logit_scale=10.0), sets


def test_adam_zero_gradient_is_noop():
    params = {"w": np.array([1.0, -2.0])}
    state = init_adam(params)
    adam_step(params, {"w": np.zeros(2)}, state, TrainConfig())
    assert np.array_equal(params["w"], [1.0, -2.0])


def test_adam_first_step_magnitude_is_learning_rate():
    cfg = TrainConfig(learning_rate=0.05)
    params = {"w": np.zeros(3)}
    state = init_adam(params)
    adam_step(params, {"w": np.full(3, 0.7)}, state, cfg)
    # m_hat = g, v_hat = g^2 => update = lr * g/(|g| + eps) ~ lr
    assert np.allclose(np.abs(params["w"]), 0.05, atol=1e-6)


def test_adam_shape_mismatch():
    params = {"w": np.zeros(3)}
    state = init_adam(params)
    with pytest.raises(ValidationError):
        adam_step(params, {"w": np.zeros(4)}, state, TrainConfig())


def test_adam_state_shapes_mirror_params():
    params = {"a": np.zeros((2, 3)), "b": np.zeros(5)}
    state = init_adam(params)
    for k in params:
        assert state.m[k].shape == params[k].shape
        assert state.v[k].shape == params[k].shape


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_step_is_the_textbook_formula_bitwise(weight_decay):
    cfg = TrainConfig(learning_rate=3e-3, weight_decay=weight_decay)
    rng = Rng(7)
    # (300, 512) spans four 64-row blocks and ends in a partial one
    start = {"visual.biases": rng.child(0).normal((40, 16)),
             "net.W_i": rng.child(1).normal((6, 4)),
             "visual.linear": rng.child(2).normal((300, 512))}
    runs = []
    for step in (adam_step, oracles.adam_step):
        params = {k: v.copy() for k, v in start.items()}
        state = init_adam(params)
        for t in range(60):
            grads = {k: Rng(100 + t).child(i).normal(v.shape)
                     for i, (k, v) in enumerate(params.items())}
            grads["net.W_i"][0] = 0.0        # a coordinate with v = 0
            step(params, grads, state, cfg)
        runs.append((params, state))
    (got, got_state), (want, want_state) = runs
    assert got_state.step == want_state.step == 60
    for k in start:
        assert got[k].tobytes() == want[k].tobytes(), k
        assert got_state.m[k].tobytes() == want_state.m[k].tobytes(), k
        assert got_state.v[k].tobytes() == want_state.v[k].tobytes(), k


def test_training_is_deterministic():
    outs = []
    for _ in range(2):
        m, sets = _model()
        cfg = TrainConfig(epochs=5, learning_rate=1e-3, seed=3)
        train(m, sets["support"].features, sets["support"].labels, cfg)
        outs.append({k: v.copy() for k, v in trainables(m).items()})
    for k in outs[0]:
        assert np.array_equal(outs[0][k], outs[1][k]), k


def test_lr_zero_is_identity():
    m, sets = _model()
    before = {k: v.copy() for k, v in trainables(m).items()}
    cfg = TrainConfig(epochs=3, learning_rate=0.0, seed=1)
    train(m, sets["support"].features, sets["support"].labels, cfg)
    for k, v in trainables(m).items():
        assert np.array_equal(v, before[k]), k


def test_frozen_tensors_untouched():
    m, sets = _model()
    frozen = (m.textual.class_texts.copy(), m.visual.support.copy(),
              m.visual.labels.copy())
    cfg = TrainConfig(epochs=3, learning_rate=1e-2, seed=2)
    train(m, sets["support"].features, sets["support"].labels, cfg)
    assert np.array_equal(m.textual.class_texts, frozen[0])
    assert np.array_equal(m.visual.support, frozen[1])
    assert np.array_equal(m.visual.labels, frozen[2])


def test_empty_episode_rejected():
    m, _ = _model()
    with pytest.raises(ValidationError):
        train(m, np.zeros((0, 8)), np.zeros(0, dtype=int), TrainConfig())


@pytest.mark.parametrize("shape", [(13,), (11,), (12, 1), ()])
def test_labels_that_are_not_one_per_query_rejected_before_a_step(
        monkeypatch, shape):
    # 13 labels for 12 rows used to train every epoch, then fail at the
    # last accuracy; 11 failed on an index
    m, sets = _model()
    steps = []
    monkeypatch.setattr(atc.trainer, "loss_and_grads",
                        lambda *args: steps.append(args))
    labels = np.zeros(shape, dtype=np.int64)
    with pytest.raises(ShapeError, match=re.escape(
            f"labels shape {shape} does not match 12 queries")):
        train(m, sets["support"].features, labels, TrainConfig(epochs=2))
    assert steps == []


def test_metrics_recorded_per_epoch():
    m, sets = _model()
    cfg = TrainConfig(epochs=4, learning_rate=1e-3, seed=5)
    ckpt = train(m, sets["support"].features, sets["support"].labels, cfg)
    # one key set for every run; only the last epoch calls predict_batch
    step = {"epoch", "loss", "step_accuracy"}
    assert [set(e) for e in ckpt.metrics] == [step] * 3 + [step | {"accuracy"}]


def test_saved_config_is_the_settings_plus_adams_fixed_ones():
    m, sets = _model()
    cfg = TrainConfig(epochs=2, batch_size=5, weight_decay=0.01, seed=5)
    ckpt = train(m, sets["support"].features, sets["support"].labels, cfg)
    # the keys and values checkpoints have always carried
    assert ckpt.config == {
        "epochs": 2, "batch_size": 5, "learning_rate": 1e-3,
        "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8,
        "weight_decay": 0.01, "seed": 5, "shuffle": True,
        "leave_self_out": False}


def _trained_accuracy(m, q, y, cfg):
    """Epoch e's accuracy after its update as train records it: epoch e+1's
    step_accuracy, and the last epoch's accuracy."""
    metrics = train(m, q, y, cfg).metrics
    return [e["step_accuracy"] for e in metrics[1:]] + [metrics[-1]["accuracy"]]


def _replayed_accuracy(m, q, y, cfg):
    """train's one-batch epochs (same permutations and Adam steps), each
    scored by predict_batch after its update."""
    params = trainables(m)
    state, rng = init_adam(params), Rng(cfg.seed)
    accuracy = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y)) if cfg.shuffle else np.arange(len(y))
        _, grads, _ = loss_and_grads(m, q[order], y[order])
        adam_step(params, grads, state, cfg)
        accuracy.append(float(np.mean(predict_batch(m, q) == y)))
    return accuracy


@pytest.mark.parametrize("n", [65, 70, 97, 160])
@pytest.mark.parametrize("shuffle", [True, False])
@pytest.mark.parametrize("epochs", [1, 6])
def test_one_batch_accuracy_is_predict_batch_after_the_update(n, shuffle,
                                                              epochs):
    # one batch without leave-self-out: the next epoch's step logits, over
    # permuted rows, score each epoch's final parameters
    runs = []
    for scorer in (_trained_accuracy, _replayed_accuracy):
        # at d=64 and the CLI's scale, permuting the rows moves the logits
        # of about a third of these epochs, by up to 1.4e-14
        m, sets = _model(seed=4, n=10, dim=64, queries=16)
        m.logit_scale = 100.0
        pick = Rng(9).permutation(160)[:n]
        cfg = TrainConfig(epochs=epochs, learning_rate=1e-2, seed=n,
                          shuffle=shuffle)
        accuracy = scorer(m, sets["query"].features[pick],
                          sets["query"].labels[pick], cfg)
        runs.append((accuracy, {k: v.copy() for k, v in trainables(m).items()}))
    (got, got_params), (want, want_params) = runs
    assert got == want
    for k in want_params:
        assert got_params[k].tobytes() == want_params[k].tobytes(), k


@pytest.mark.parametrize("config", [{}, {"leave_self_out": True},
                                    {"batch_size": 7}])
def test_train_calls_predict_batch_once(monkeypatch, config):
    seen = []
    original = atc.trainer.predict_batch

    def counted(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(atc.trainer, "predict_batch", counted)
    m, sets = _model()   # 12 support rows
    ckpt = train(m, sets["support"].features, sets["support"].labels,
                 TrainConfig(epochs=5, learning_rate=1e-2, **config))
    # only after the last update; every epoch scores its step logits
    assert len(seen) == 1
    assert [e["epoch"] for e in ckpt.metrics] == list(range(5))
    step = {"epoch", "loss", "step_accuracy"}
    assert [set(e) for e in ckpt.metrics] == [step] * 4 + [step | {"accuracy"}]


@pytest.mark.parametrize("batch_size,leave_self_out,shuffle", [
    (0, True, True), (7, True, True), (0, False, True), (0, False, False)],
    ids=["0", "7", "one-batch", "one-batch-in-order"])
def test_step_accuracy_is_the_masked_step_logits_before_each_update(
        batch_size, leave_self_out, shuffle):
    cfg = TrainConfig(epochs=4, batch_size=batch_size, learning_rate=1e-2,
                      seed=3, shuffle=shuffle, leave_self_out=leave_self_out)
    m, sets = _model(seed=3, n=5, k=4, queries=4)
    # 20 rows: the cache's own rows under leave-self-out, else rows outside
    # it (the cache's own rows all score 1.0 unmasked)
    rows = sets["support" if leave_self_out else "query"]
    q, y = rows.features, rows.labels
    metrics = train(m, q, y, cfg).metrics
    # a replay of train's steps on a fresh model: each step's (masked) logits
    # are scored before its update, beside predict_batch's unmasked argmax
    # before each step and after each epoch
    m, _ = _model(seed=3, n=5, k=4, queries=4)
    params = trainables(m)
    state, rng = init_adam(params), Rng(cfg.seed)
    masked, unmasked, after = [], [], []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y)) if shuffle else np.arange(len(y))
        hits, seen = 0, 0
        for lo in range(0, len(y), batch_size or len(y)):
            sel = order[lo:lo + (batch_size or len(y))]
            seen += int(np.sum(predict_batch(m, q[sel]) == y[sel]))
            _, grads, logits = loss_and_grads(
                m, q[sel], y[sel], sel if leave_self_out else None)
            hits += int(np.sum(np.argmax(logits, axis=1) == y[sel]))
            adam_step(params, grads, state, cfg)
        masked.append(hits / len(y))
        unmasked.append(seen / len(y))
        after.append(float(np.mean(predict_batch(m, q) == y)))
    assert [e["step_accuracy"] for e in metrics] == masked
    assert metrics[-1]["accuracy"] == after[-1]
    if leave_self_out:
        # each query sees its own cache row unmasked, so it scores higher
        assert masked != unmasked
        assert all(a <= b for a, b in zip(masked, unmasked))
    else:
        # one batch: each step runs at the previous epoch's final parameters
        assert masked[1:] == after[:-1]


def test_checkpoint_round_trip_bitwise(tmp_path):
    m, sets = _model()
    cfg = TrainConfig(epochs=2, learning_rate=1e-3, seed=7)
    ckpt = train(m, sets["support"].features, sets["support"].labels, cfg)
    path = tmp_path / "m.atck"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert set(back.tensors) == set(ckpt.tensors)
    for k in ckpt.tensors:
        assert np.array_equal(back.tensors[k], ckpt.tensors[k]), k
    assert back.hyper == ckpt.hyper
    assert back.metrics == ckpt.metrics
    # double round trip is byte-stable
    path2 = tmp_path / "m2.atck"
    save_checkpoint(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_truncation_rejected(tmp_path):
    m, sets = _model()
    ckpt = train(m, sets["support"].features, sets["support"].labels,
                 TrainConfig(epochs=1, seed=1))
    path = tmp_path / "m.atck"
    save_checkpoint(ckpt, path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(CodecError):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "m.atck"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(CodecError) as exc:
        load_checkpoint(path)
    assert exc.value.offset == 0


def test_checkpoints_differ_across_seeds(tmp_path):
    blobs = []
    for seed in (1, 2):
        m, sets = _model()
        cfg = TrainConfig(epochs=2, learning_rate=1e-2, seed=seed)
        ckpt = train(m, sets["support"].features, sets["support"].labels, cfg)
        path = tmp_path / f"{seed}.atck"
        save_checkpoint(ckpt, path)
        blobs.append(path.read_bytes())
    assert blobs[0] != blobs[1]


def test_apply_checkpoint_restores_trainables():
    m, sets = _model()
    cfg = TrainConfig(epochs=3, learning_rate=1e-2, seed=9)
    ckpt = train(m, sets["support"].features, sets["support"].labels, cfg)
    trained = {k: v.copy() for k, v in trainables(m).items()}
    m2, _ = _model()
    apply_checkpoint(m2, ckpt)
    for k, v in trainables(m2).items():
        assert np.array_equal(v, trained[k]), k


def test_apply_checkpoint_rejects_other_tensor_names():
    m, sets = _model()
    ckpt = train(m, sets["support"].features, sets["support"].labels,
                 TrainConfig(epochs=1, seed=9))
    m2, _ = _model()
    m2.visual.mode, m2.visual.linear = "linear", m2.visual.support.copy()
    before = {k: v.copy() for k, v in tensors(m2).items()}
    with pytest.raises(ValidationError, match="visual.linear"):
        apply_checkpoint(m2, ckpt)
    for k, v in tensors(m2).items():
        assert np.array_equal(v, before[k]), k


def test_set_tensors_rejects_unknown_name_and_wrong_shape():
    m, _ = _model()
    before = {k: v.copy() for k, v in tensors(m).items()}
    with pytest.raises(ValidationError, match="unknown tensor"):
        set_tensors(m, {"net.W_out": np.ones_like(before["net.W_out"]),
                        "visual.linear": before["visual.biases"]})
    with pytest.raises(ValidationError, match="shape"):
        set_tensors(m, {"net.W_out": np.ones_like(before["net.W_out"]),
                        "visual.biases": before["visual.biases"][1:]})
    for k, v in tensors(m).items():
        assert np.array_equal(v, before[k]), k


def test_failed_set_tensors_binds_nothing():
    m, _ = _model()
    before = tensors(m)
    good = {k: np.ones_like(v) for k, v in before.items()}
    for bad in ({"visual.linear": good["visual.biases"]},
                {"visual.biases": good["visual.biases"][1:]}):
        with pytest.raises(ValidationError):
            set_tensors(m, {**good, **bad})
        for k, v in tensors(m).items():
            assert v is before[k], k


def _saved_checkpoint(tmp_path):
    """Path and bytes of a saved checkpoint, and its trailer's offset (the
    sorted-key JSON trailer starts with its "config" key)."""
    m, sets = _model()
    ckpt = train(m, sets["support"].features, sets["support"].labels,
                 TrainConfig(epochs=1, seed=9))
    path = tmp_path / "m.atck"
    save_checkpoint(ckpt, path)
    blob = path.read_bytes()
    return path, blob, blob.index(b'{"config"')


def test_checkpoint_trailer_bad_byte_rejected_at_offset(tmp_path):
    path, blob, at = _saved_checkpoint(tmp_path)
    bad = bytearray(blob)
    bad[at] = 0xFF
    path.write_bytes(bytes(bad))
    with pytest.raises(CodecError, match="trailer") as err:
        load_checkpoint(path)
    assert err.value.offset == at


@pytest.mark.parametrize("key", ["hyper", "config", "metrics"])
def test_checkpoint_trailer_missing_key_rejected_at_offset(tmp_path, key):
    path, blob, at = _saved_checkpoint(tmp_path)
    trailer = json.loads(blob[at:])
    del trailer[key]
    raw = json.dumps(trailer).encode()
    path.write_bytes(blob[:at - 4] + struct.pack("<I", len(raw)) + raw)
    with pytest.raises(CodecError, match="trailer") as err:
        load_checkpoint(path)
    assert err.value.offset == at


@pytest.mark.parametrize("key,value", [("hyper", 5), ("config", 5),
                                       ("metrics", {"epoch": 0})])
def test_checkpoint_trailer_section_of_wrong_type_rejected_at_offset(
        tmp_path, key, value):
    path, blob, at = _saved_checkpoint(tmp_path)
    trailer = json.loads(blob[at:])
    trailer[key] = value
    raw = json.dumps(trailer).encode()
    path.write_bytes(blob[:at - 4] + struct.pack("<I", len(raw)) + raw)
    with pytest.raises(CodecError, match="trailer") as err:
        load_checkpoint(path)
    assert err.value.offset == at


@pytest.mark.parametrize("edit,message", [
    (lambda h: h.pop("tip_gamma"), "checkpoint hyper lacks 'tip_gamma'"),
    (lambda h: h.update(renorm_text="on"),
     "renorm_text must be true or false, got 'on'"),
    (lambda h: h.update(hidden_size=5),
     r"hidden_size 5 does not match the checkpoint's net.U_i shape \(4, 4\)"),
], ids=["missing-key", "wrong-type", "hidden-size"])
def test_load_checkpoint_checks_the_hyper(tmp_path, edit, message):
    m, sets = _model()
    ckpt = train(m, sets["support"].features, sets["support"].labels,
                 TrainConfig(epochs=1, seed=9))
    edit(ckpt.hyper)
    path = tmp_path / "m.atck"
    path.write_bytes(encode_checkpoint(ckpt.tensors, {
        "hyper": ckpt.hyper, "config": ckpt.config,
        "metrics": ckpt.metrics}))
    with pytest.raises(ValidationError, match=message):
        load_checkpoint(path)


def test_train_config_rejects_non_finite_rates():
    m, sets = _model()
    for cfg in (TrainConfig(learning_rate=float("nan")),
                TrainConfig(weight_decay=float("inf"))):
        with pytest.raises(ValidationError, match="finite"):
            train(m, sets["support"].features, sets["support"].labels, cfg)


def test_train_table_covers_every_train_config_field():
    from dataclasses import fields
    assert list(atc.trainer.TRAIN) == [f.name for f in fields(TrainConfig)]


@pytest.mark.parametrize("key,value", [
    ("shuffle", "no"), ("leave_self_out", 1), ("seed", 1.5),
    ("epochs", 2.5), ("batch_size", 2.0), ("learning_rate", "1e-3")])
def test_train_config_of_wrong_type_is_refused_before_the_first_step(
        key, value):
    m, sets = _model()
    before = {k: v.copy() for k, v in trainables(m).items()}
    with pytest.raises(ValidationError, match=f"^{key} must be "):
        train(m, sets["support"].features, sets["support"].labels,
              TrainConfig(**{key: value}))
    for k, v in trainables(m).items():
        assert np.array_equal(v, before[k]), k


def test_save_matches_layout_oracle(tmp_path):
    tensors = {"b.vec": np.array([1.5, -0.0, 3e-300]),
               "a.mat": Rng(4).normal((2, 3)),
               "c.empty": np.zeros((0, 4))}
    trailer = {"hyper": {"alpha": 0.5}, "config": {"seed": 1},
               "metrics": [{"epoch": 0, "loss": 1.25}]}
    path = tmp_path / "m.atck"
    save_checkpoint(Checkpoint(tensors, **trailer), path)
    assert path.read_bytes() == encode_checkpoint(tensors, trailer)


def test_save_of_trained_model_matches_layout_oracle(tmp_path):
    m, sets = _model()
    ckpt = train(m, sets["support"].features, sets["support"].labels,
                 TrainConfig(epochs=1, seed=2))
    path = tmp_path / "m.atck"
    save_checkpoint(ckpt, path)
    assert {t.ndim for t in ckpt.tensors.values()} == {1, 2}
    assert path.read_bytes() == encode_checkpoint(
        ckpt.tensors, {"hyper": ckpt.hyper, "config": ckpt.config,
                       "metrics": ckpt.metrics})


def _one_tensor_file(dims: bytes, rank: int) -> bytes:
    """A checkpoint holding tensor "x" with the given raw dims and one
    float64 value; its data starts at byte 17 + len(dims)."""
    trailer = b'{"config": {}, "hyper": {}, "metrics": []}'
    return (b"ATCK" + struct.pack("<IIH", 1, 1, 1) + b"x"
            + struct.pack("<BB", 1, rank) + dims + bytes(8)
            + struct.pack("<I", len(trailer)) + trailer)


def test_tensor_dims_beyond_file_are_truncation_not_allocation(tmp_path):
    path = tmp_path / "m.atck"
    path.write_bytes(_one_tensor_file(struct.pack("<Q", 2 ** 40), 1))
    with pytest.raises(CodecError, match="truncated file while reading "
                                         "tensor data for x") as err:
        load_checkpoint(path)
    assert err.value.offset == 25


@pytest.mark.parametrize("dims", [(1,) * 70, (2 ** 64 - 1, 0)],
                         ids=["rank-70", "dim-2**64-1"])
def test_tensor_shape_numpy_cannot_hold_rejected(tmp_path, dims):
    path = tmp_path / "m.atck"
    path.write_bytes(_one_tensor_file(struct.pack(f"<{len(dims)}Q", *dims),
                                      len(dims)))
    with pytest.raises(CodecError, match="unsupported shape for tensor "
                                         "data for x") as err:
        load_checkpoint(path)
    assert err.value.offset == 17 + 8 * len(dims)


def test_trailer_length_beyond_file_is_truncation(tmp_path):
    path, blob, at = _saved_checkpoint(tmp_path)
    path.write_bytes(blob[:at - 4] + struct.pack("<I", 2 ** 32 - 1)
                     + blob[at:])
    with pytest.raises(CodecError, match="truncated file while reading "
                                         "trailer") as err:
        load_checkpoint(path)
    assert err.value.offset == at


def test_cut_inside_tensor_data_reports_its_start(tmp_path):
    path, blob, _ = _saved_checkpoint(tmp_path)
    name = b"visual.biases"
    rows, dim = load_checkpoint(path).tensors["visual.biases"].shape
    data_at = blob.index(name) + len(name) + 2 + 8 * 2
    path.write_bytes(blob[:data_at + 8 * dim + 3])
    with pytest.raises(CodecError, match="truncated file while reading "
                                         "tensor data for visual.biases"
                       ) as err:
        load_checkpoint(path)
    assert err.value.offset == data_at


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_rejected_at_its_data(tmp_path, value):
    path, _, _ = _saved_checkpoint(tmp_path)
    ckpt = load_checkpoint(path)
    ckpt.tensors["net.W_out"][1, 2] = value
    save_checkpoint(ckpt, path)
    blob = path.read_bytes()
    data_at = blob.index(b"net.W_out") + len(b"net.W_out") + 2 + 8 * 2
    with pytest.raises(CodecError, match="tensor net.W_out is not "
                                         "finite") as err:
        load_checkpoint(path)
    assert err.value.offset == data_at


def _wide_checkpoint(tmp_path, shape):
    """A saved checkpoint whose visual.biases has `shape`, and its path and
    the offset of that tensor's data."""
    m, _ = _model()
    tensors = atc.trainer.checkpoint_tensors(m)
    tensors["visual.biases"] = Rng(4).normal(shape)
    ckpt = Checkpoint(tensors, atc.trainer.model_hyper(m), {}, [])
    path = tmp_path / "wide.atck"
    save_checkpoint(ckpt, path)
    blob = path.read_bytes()
    at = blob.index(b"visual.biases") + len(b"visual.biases") + 2 + 8 * 2
    return ckpt, path, at


def test_load_checkpoint_peak_is_the_tensors_plus_one_block(tmp_path):
    # each tensor's finiteness is checked a block at a time as it is read,
    # not by a second full-size pass with a bool temporary
    ckpt, path, _ = _wide_checkpoint(tmp_path, (1024, 1024))
    nbytes = sum(v.nbytes for v in ckpt.tensors.values())
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < nbytes + 8 * _BLOCK_VALUES
    for name, value in ckpt.tensors.items():
        assert loaded.tensors[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("flat", [3, 2 * _BLOCK_VALUES - 1, 2 * _BLOCK_VALUES,
                                  300 * 512 - 1])
def test_non_finite_value_in_any_block_rejected_at_the_tensor(tmp_path, flat):
    # (300, 512) values: four full blocks and a partial one; a bad value in
    # the first block, on either side of a boundary or in the partial block
    ckpt, path, at = _wide_checkpoint(tmp_path, (300, 512))
    ckpt.tensors["visual.biases"].reshape(-1)[flat] = np.nan
    save_checkpoint(ckpt, path)
    with pytest.raises(CodecError, match="tensor visual.biases is not "
                                         "finite") as err:
        load_checkpoint(path)
    assert err.value.offset == at


@pytest.mark.parametrize("indexed", [False, True])
def test_frozen_arrays_refuse_writes(indexed):
    m, sets = _model(k=4)
    features, index = sets["support"].features, np.arange(12)
    m.visual = build_visual_cache(sets["support"], 3,
                                  index=index if indexed else None)
    frozen = [m.textual.class_texts, m.visual.support, m.visual.labels]
    for a in frozen + ([m.visual.index] if indexed else []):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    # the caller's arrays stay writable, and the cache views them
    features[0] = features[0]
    index[0] = index[0]
    assert np.shares_memory(m.visual.support, features)


@pytest.mark.parametrize("indexed", [False, True])
@pytest.mark.parametrize("leave_self_out", [False, True])
@pytest.mark.parametrize("activation", ["linear", "tip"])
@pytest.mark.parametrize("mode", ["fixed", "biases", "linear"])
def test_train_leaves_frozen_arrays_unchanged(mode, activation,
                                              leave_self_out, indexed):
    # the training queries are the support rows themselves, in the cache's
    # order: a write through them would reach the cache's rows
    m, sets = _model(k=4)
    support = sets["support"]
    m.visual = build_visual_cache(support, 3, mode,
                                  index=np.arange(12) if indexed else None)
    m.activation = activation

    def frozen():
        arrays = (m.textual.class_texts, m.visual.support, m.visual.labels,
                  m.visual.index)
        return ([None if a is None else a.tobytes() for a in arrays],
                (m.alpha, m.beta, m.logit_scale))

    before = frozen()
    train(m, support.features, support.labels,
          TrainConfig(epochs=3, learning_rate=1e-2, seed=2,
                      leave_self_out=leave_self_out))
    assert frozen() == before


@pytest.mark.parametrize("activation", ["linear", "tip"])
def test_each_step_writes_its_rows_over_the_spent_gradient(monkeypatch,
                                                           activation):
    # train hands each step the last step's visual.biases gradient, which
    # Adam has spent, and the step's gradient is that same array again
    m, sets = _model(k=6)
    m.activation = activation
    calls = []

    def spied(model, queries, targets, self_indices, rows_out):
        out = loss_and_grads(model, queries, targets, self_indices, rows_out)
        calls.append((rows_out, out[1]["visual.biases"]))
        return out

    monkeypatch.setattr(atc.trainer, "loss_and_grads", spied)
    train(m, sets["support"].features, sets["support"].labels,
          TrainConfig(epochs=2, batch_size=5, leave_self_out=True))
    assert len(calls) == 2 * 4 and calls[0][0] is None
    assert all(rows_out is calls[0][1] and grad is rows_out
               for rows_out, grad in calls[1:])
