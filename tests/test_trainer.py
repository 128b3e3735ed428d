import json
import struct

import numpy as np
import pytest

from atc.caches import build_textual_cache, build_visual_cache
from atc.conditionnet import init_condition_net
from atc.dataio import SynthConfig, synth_dataset
from atc.errors import CodecError, ValidationError
from atc.model import AtcModel, set_tensors, tensors, trainables
from atc.numerics import Rng
from atc.trainer import (AdamState, Checkpoint, TrainConfig, adam_step,
                         apply_checkpoint, init_adam, load_checkpoint,
                         save_checkpoint, train)


def _model(seed=1, n=3, dim=8, k=4):
    sets = synth_dataset(SynthConfig(num_classes=n, dim=dim, shots=k,
                                     queries_per_class=2, sigma=0.3,
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


def test_metrics_recorded_per_epoch():
    m, sets = _model()
    cfg = TrainConfig(epochs=4, learning_rate=1e-3, seed=5)
    ckpt = train(m, sets["support"].features, sets["support"].labels, cfg)
    assert len(ckpt.metrics) == 4
    assert all({"epoch", "loss", "accuracy"} <= set(e) for e in ckpt.metrics)


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


def test_train_config_rejects_non_finite_rates():
    m, sets = _model()
    for cfg in (TrainConfig(learning_rate=float("nan")),
                TrainConfig(weight_decay=float("inf"))):
        with pytest.raises(ValidationError, match="finite"):
            train(m, sets["support"].features, sets["support"].labels, cfg)
