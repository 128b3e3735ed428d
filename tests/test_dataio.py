import os
import struct

import numpy as np
import pytest
import oracles
from hypothesis import given, settings, strategies as st
from oracles import encode_embeddings

from atc.dataio import (EmbeddingSet, SynthConfig,
                        read_embeddings, sample_episode, synth_dataset,
                        write_embeddings)
from atc.errors import (CodecError, ConfigError, EvaluationError,
                        InsufficientDataError, ValidationError)
from atc.numerics import _BLOCK_VALUES, Rng, l2_normalize_rows


def _small_set(role="support", rows=3, dim=4, c=2, seed=1):
    feats = l2_normalize_rows(Rng(seed).normal((rows, dim)))[0]
    labels = np.arange(rows) % c
    if role == "text":
        rows, labels = c, np.arange(c)
        feats = feats[:c]
    return EmbeddingSet(feats, labels, [f"c{i}" for i in range(c)], role)


def test_round_trip_bit_identical(tmp_path):
    es = _small_set()
    p1 = tmp_path / "a.ate"
    p2 = tmp_path / "b.ate"
    write_embeddings(es, p1)
    back = read_embeddings(p1)
    write_embeddings(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.class_names == es.class_names
    assert np.array_equal(back.labels, es.labels)
    assert back.role == es.role


def test_round_trip_preserves_f32_storage(tmp_path):
    es = _small_set()
    path = tmp_path / "a.ate"
    write_embeddings(es, path)
    back = read_embeddings(path)
    # rows re-normalized in f64 after f32 storage
    assert np.max(np.abs(np.linalg.norm(back.features, axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(back.features - es.features)) < 1e-6


def test_bad_magic_offset_zero(tmp_path):
    path = tmp_path / "bad.ate"
    path.write_bytes(b"XXXX" + bytes(64))
    with pytest.raises(CodecError) as exc:
        read_embeddings(path)
    assert exc.value.offset == 0


def test_truncated_file(tmp_path):
    es = _small_set()
    path = tmp_path / "a.ate"
    write_embeddings(es, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 5])
    with pytest.raises(CodecError):
        read_embeddings(path)


def test_trailing_bytes_rejected(tmp_path):
    es = _small_set()
    path = tmp_path / "a.ate"
    write_embeddings(es, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CodecError, match="trailing"):
        read_embeddings(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_row_rejected_at_its_offset(tmp_path, bad):
    es = _small_set(rows=5, dim=4)
    es.features = np.array(es.features)
    es.features[3, 2] = bad
    path = tmp_path / "a.ate"
    write_embeddings(es, path)
    with pytest.raises(CodecError, match="feature row 3 is not finite") as exc:
        read_embeddings(path)
    # 25 header bytes, 5 u32 labels, then rows of 4 float32
    assert exc.value.offset == 25 + 4 * 5 + 4 * 4 * 3


def _block_spanning_file(tmp_path, edit):
    """A support file of 4-dim rows that spans two read blocks (_BLOCK_VALUES
    values each), its rows changed by edit(features) before writing."""
    rows = _BLOCK_VALUES // 4 + 8
    es = _small_set(rows=rows, dim=4)
    es.features = np.array(es.features)
    edit(es.features)
    path = tmp_path / "big.ate"
    write_embeddings(es, path)
    return path, rows


def test_non_finite_rows_in_two_blocks_report_the_first(tmp_path):
    def edit(f):
        f[_BLOCK_VALUES // 4 + 3, 1] = np.inf
        f[5, 0] = np.nan

    path, rows = _block_spanning_file(tmp_path, edit)
    with pytest.raises(CodecError, match="feature row 5 is not finite") as exc:
        read_embeddings(path)
    assert exc.value.offset == 25 + 4 * rows + 4 * 4 * 5


def test_truncated_class_names_win_over_a_non_finite_row(tmp_path):
    es = _small_set(rows=5, dim=4)
    es.features = np.array(es.features)
    es.features[1, 1] = np.nan
    path = tmp_path / "a.ate"
    write_embeddings(es, path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CodecError,
                       match="truncated file while reading class name"):
        read_embeddings(path)


def test_norm_warnings_count_across_a_block_boundary(tmp_path):
    edge = _BLOCK_VALUES // 4

    def edit(f):
        f[edge - 1] *= 2.0              # off unit norm
        f[edge] *= 3.0                  # off unit norm
        f[edge + 1] *= 1.0 + 1e-4       # within 1e-3: no warning
        f[edge + 2] *= 0.5              # off unit norm
        f[3] *= 0.1                     # off unit norm, in the first block

    path, _ = _block_spanning_file(tmp_path, edit)
    assert read_embeddings(path).norm_warnings == 4

    def zero(f):
        f[edge + 2] = 0.0               # zero, past the block boundary
        f[edge - 1] *= 1e-13            # below 1e-12: zero too, and first

    path, rows = _block_spanning_file(tmp_path, zero)
    with pytest.raises(CodecError, match=f"feature row {edge - 1} has zero "
                                         "norm") as exc:
        read_embeddings(path)
    assert exc.value.offset == 25 + 4 * rows + 4 * 4 * (edge - 1)


def test_norm_warnings_count_off_unit_and_zero_rows(tmp_path):
    # off-unit rows are counted; a zero row has no direction and is refused
    es = _small_set(rows=5, dim=4)
    es.features = np.array(es.features)
    es.features[1] *= 2.0
    es.features[2] *= 1.0 + 1e-4
    es.features[4] *= 0.5
    path = tmp_path / "a.ate"
    write_embeddings(es, path)
    assert read_embeddings(path).norm_warnings == 2
    es.features[4] = 0.0
    write_embeddings(es, path)
    with pytest.raises(CodecError, match="feature row 4 has zero norm") as exc:
        read_embeddings(path)
    assert exc.value.offset == 25 + 4 * 5 + 4 * 4 * 4


@pytest.mark.parametrize("rows", [0, 1, 7])
def test_write_matches_layout_oracle(tmp_path, rows):
    feats = Rng(rows).normal((rows, 5))
    labels = np.arange(rows) % 3
    names = ["a", "bé", "class_002"]
    path = tmp_path / "q.ate"
    write_embeddings(EmbeddingSet(feats, labels, names, "query"), path)
    assert path.read_bytes() == encode_embeddings(2, 5, labels, feats, names)


def test_zero_row_query_set_round_trips(tmp_path):
    es = EmbeddingSet(np.zeros((0, 6)), np.zeros(0, dtype=np.int64),
                      ["a", "b"], "query")
    p1, p2 = tmp_path / "a.ate", tmp_path / "b.ate"
    write_embeddings(es, p1)
    back = read_embeddings(p1)
    assert back.features.shape == (0, 6) and back.labels.shape == (0,)
    assert back.class_names == ["a", "b"] and back.role == "query"
    write_embeddings(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_row_count_beyond_file_is_truncation_not_allocation(tmp_path):
    # 25 header bytes claim 2**40 rows; the whole file is 100 bytes
    path = tmp_path / "big.ate"
    path.write_bytes((b"ATCE" + struct.pack("<IBIQI", 1, 2, 4, 2 ** 40, 2))
                     .ljust(100, b"\0"))
    with pytest.raises(CodecError, match="truncated file while reading "
                                         "labels") as exc:
        read_embeddings(path)
    assert exc.value.offset == 25


def test_cut_inside_features_reports_their_start(tmp_path):
    path = tmp_path / "a.ate"
    write_embeddings(_small_set(rows=5, dim=4), path)
    path.write_bytes(path.read_bytes()[:25 + 4 * 5 + 30])
    with pytest.raises(CodecError, match="truncated file while reading "
                                         "features") as exc:
        read_embeddings(path)
    assert exc.value.offset == 25 + 4 * 5


def test_label_out_of_range_rejected(tmp_path):
    es = _small_set()
    es.labels = np.array([0, 1, 5])
    with pytest.raises(ValidationError):
        write_embeddings(es, tmp_path / "a.ate")
    # float labels were written truncated, as 0, 1, 2
    es = _small_set(c=3)
    es.labels = np.array([0.6, 1.6, 2.6])
    with pytest.raises(ValidationError, match=r"labels must be integers in "
                                              r"\[0, 3\)"):
        write_embeddings(es, tmp_path / "a.ate")
    assert not (tmp_path / "a.ate").exists()


def test_class_name_over_the_length_field_rejected_before_writing(tmp_path):
    # a name's length is a u16 field: 65,535 UTF-8 bytes fit, one more not
    path = tmp_path / "a.ate"
    es = _small_set()
    es.class_names = ["a", "é" * 32767 + "b"]
    write_embeddings(es, path)
    assert read_embeddings(path).class_names == es.class_names
    path.unlink()
    es.class_names = ["a", "é" * 32768]
    with pytest.raises(ValidationError, match="65535 UTF-8 bytes"):
        write_embeddings(es, path)
    assert not path.exists()


def test_text_role_label_order_enforced():
    es = _small_set(role="text")
    es.labels = np.array([1, 0])
    with pytest.raises(ValidationError):
        es.validate()


def test_synth_table_covers_every_synth_config_field():
    from dataclasses import fields
    from atc.dataio import SYNTH
    assert list(SYNTH) == [f.name for f in fields(SynthConfig)]


def test_synth_counts():
    sets = synth_dataset(SynthConfig(num_classes=10, dim=32, shots=16,
                                     queries_per_class=5, seed=3))
    assert sets["support"].features.shape == (160, 32)
    assert len(sets["support"].class_names) == 10
    assert sets["text"].features.shape == (10, 32)
    assert sets["query"].features.shape == (50, 32)


def test_synth_noiseless_is_separable():
    sets = synth_dataset(SynthConfig(num_classes=5, dim=16, shots=2,
                                     queries_per_class=4, sigma=0.0,
                                     text_noise=0.0, seed=9))
    logits = sets["query"].features @ sets["text"].features.T
    assert np.all(np.argmax(logits, axis=1) == sets["query"].labels)


_NOISE = st.floats(0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(sigma=_NOISE, text_noise=_NOISE)
def test_synth_rows_are_finite_and_unit_or_refused(sigma, text_noise):
    cfg = SynthConfig(num_classes=3, dim=4, shots=2, queries_per_class=2,
                      sigma=sigma, text_noise=text_noise, seed=5)
    try:
        sets = synth_dataset(cfg)
    except EvaluationError:
        return
    for es in sets.values():
        assert np.isfinite(es.features).all()
        np.testing.assert_allclose(np.linalg.norm(es.features, axis=1), 1.0,
                                   rtol=1e-12)


def test_synth_deterministic(tmp_path):
    cfg = SynthConfig(seed=21)
    a = synth_dataset(cfg)
    b = synth_dataset(cfg)
    for role in ("text", "support", "query"):
        p1 = tmp_path / f"{role}_a.ate"
        p2 = tmp_path / f"{role}_b.ate"
        write_embeddings(a[role], p1)
        write_embeddings(b[role], p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_sample_episode_counts_and_order():
    labels = np.repeat(np.arange(3), 10)
    idx = sample_episode(labels, 2, seed=5)
    assert idx.shape == (6,)
    assert np.array_equal(labels[idx], [0, 0, 1, 1, 2, 2])
    assert len(set(idx.tolist())) == 6


def test_sample_episode_deterministic():
    labels = np.repeat(np.arange(4), 8)
    a = sample_episode(labels, 3, seed=11)
    b = sample_episode(labels, 3, seed=11)
    assert np.array_equal(a, b)
    c = sample_episode(labels, 3, seed=12)
    assert not np.array_equal(a, c)


def test_sample_episode_exhaustive_class():
    labels = np.array([0, 0, 1, 1, 1])
    idx = sample_episode(labels, 2, seed=1)
    assert set(idx[:2].tolist()) == {0, 1}


def test_sample_episode_insufficient_rows():
    labels = np.array([0, 0, 1])
    with pytest.raises(InsufficientDataError, match="class 1"):
        sample_episode(labels, 2, seed=1)


@pytest.mark.parametrize("seed", range(4))
def test_sample_episode_matches_per_class_scan(seed):
    rng = Rng(seed)
    counts = 3 + rng.child(0).permutation(9)     # uneven: 3 to 11 rows
    labels = np.repeat(np.arange(9), counts)
    labels = labels[rng.child(1).permutation(labels.size)]
    labels[labels == 4] = 12                     # a gap in the class ids
    for shots in (1, 3):
        got = sample_episode(labels, shots, seed)
        want = oracles.sample_episode(labels, shots, seed)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    errors = []
    for sample in (sample_episode, oracles.sample_episode):
        with pytest.raises(InsufficientDataError) as info:
            sample(labels, 4, seed)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("uneven", [False, True])
def test_sample_episode_matches_per_class_scan_at_c1000(uneven):
    # k = 16 of exactly 16 rows picks every row; uneven classes have 16-40
    rng = Rng(3)
    counts = 16 + (rng.permutation(1000) % 25 if uneven else 0)
    labels = np.repeat(np.arange(1000), counts)
    labels = labels[rng.child(1).permutation(labels.size)]
    got = sample_episode(labels, 16, 7)
    assert got.tobytes() == oracles.sample_episode(labels, 16, 7).tobytes()
    if not uneven:
        assert np.array_equal(np.sort(got), np.arange(labels.size))


def test_sample_episode_of_no_labels_is_empty():
    idx = sample_episode(np.zeros(0, dtype=np.int64), 2, seed=1)
    assert idx.dtype == np.int64 and idx.size == 0


def test_sample_episode_rejects_float_and_negative_labels():
    # once truncated to classes 0, 0, 1, 1, and drawn with -1 as a class
    for labels in ([0.6, 0.2, 1.7, 1.2], [-1, -1, 0, 0]):
        with pytest.raises(ValidationError, match="labels must be integers"):
            sample_episode(np.array(labels), 1, seed=1)


def test_sample_episode_rejects_zero_shots():
    with pytest.raises(ConfigError, match="shots_per_class"):
        sample_episode(np.array([0, 0, 1, 1]), 0, seed=1)


def test_read_from_a_pipe(tmp_path):
    es = _small_set(rows=5, dim=4)
    path = tmp_path / "a.ate"
    write_embeddings(es, path)
    read_fd, write_fd = os.pipe()
    with os.fdopen(write_fd, "wb") as w:
        w.write(path.read_bytes())     # well under a pipe's buffer
    try:
        back = read_embeddings(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)
    assert np.array_equal(back.features, read_embeddings(path).features)


def _read_via(path, via):
    """read_embeddings of `path`'s bytes as a file, or through a pipe."""
    if via == "file":
        return read_embeddings(path)
    read_fd, write_fd = os.pipe()
    with os.fdopen(write_fd, "wb") as w:
        w.write(path.read_bytes())     # well under a pipe's buffer
    try:
        return read_embeddings(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)


@pytest.mark.parametrize("via", ["file", "pipe"])
def test_class_name_block_faults_at_their_offsets(tmp_path, via):
    es = _small_set(rows=3, dim=4, c=3)
    es.class_names = ["a", "bé", "cat"]
    path = tmp_path / "a.ate"
    write_embeddings(es, path)
    data = path.read_bytes()
    # 25 header bytes, 3 u32 labels, 3 rows of 4 float32, then per name a
    # u16 length and its UTF-8 bytes
    start = 25 + 4 * 3 + 4 * 4 * 3
    cases, at = [], start
    for name in es.class_names:
        nb = name.encode("utf-8")
        cases += [(data[:cut], "truncated file while reading class name "
                   "length", at) for cut in range(at, at + 2)]
        cases += [(data[:cut], "truncated file while reading class name",
                   at + 2) for cut in range(at + 2, at + 2 + len(nb))]
        at += 2 + len(nb)
    assert at == len(data)
    bad = bytearray(data)
    bad[start + 5:start + 8] = b"\xff\xfe\xfd"    # "bé" is not UTF-8
    cases += [(bytes(bad), "class name is not UTF-8", start + 5),
              (data + b"\x00", "trailing bytes after class names", len(data))]
    for raw, message, offset in cases:
        path.write_bytes(raw)
        with pytest.raises(CodecError) as exc:
            _read_via(path, via)
        assert (str(exc.value), exc.value.offset) == (
            f"{message} (at byte offset {offset})", offset), len(raw)
