import json

import numpy as np
import pytest

from atc.cli import main


def run(*argv):
    return main(list(argv))


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    assert run("synth", "--out", str(d), "--classes", "5", "--dim", "16",
               "--shots", "4", "--queries", "10", "--sigma", "0.3",
               "--seed", "11") == 0
    return d


@pytest.fixture(scope="module")
def trained(data_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("ckpt")
    ckpt = d / "m.atck"
    report = d / "train.jsonl"
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--ckpt", str(ckpt), "--shots", "4", "--seed", "3",
               "--epochs", "3", "--report", str(report)) == 0
    return ckpt, report


def test_synth_files_reread(data_dir):
    from atc.dataio import read_embeddings
    for role in ("text", "support", "query"):
        es = read_embeddings(data_dir / f"{role}.ate")
        assert es.role == role


def test_synth_deterministic_bytes(tmp_path):
    for sub in ("a", "b"):
        assert run("synth", "--out", str(tmp_path / sub), "--seed", "5",
                   "--classes", "3", "--dim", "8", "--shots", "2",
                   "--queries", "2") == 0
    for role in ("text", "support", "query"):
        assert (tmp_path / "a" / f"{role}.ate").read_bytes() == \
               (tmp_path / "b" / f"{role}.ate").read_bytes()


def test_zeroshot_noiseless_is_one(tmp_path):
    assert run("synth", "--out", str(tmp_path), "--sigma", "0",
               "--text-noise", "0", "--classes", "4", "--dim", "8",
               "--shots", "2", "--queries", "3", "--seed", "2") == 0
    report = tmp_path / "r.jsonl"
    assert run("zeroshot", "--text", str(tmp_path / "text.ate"),
               "--query", str(tmp_path / "query.ate"),
               "--report", str(report)) == 0
    rec = read_records(report)[0]
    assert rec["accuracy"] == 1.0


def test_zeroshot_dim_mismatch_exit_3(data_dir, tmp_path):
    assert run("synth", "--out", str(tmp_path), "--dim", "8",
               "--classes", "3", "--shots", "2", "--queries", "2") == 0
    assert run("zeroshot", "--text", str(data_dir / "text.ate"),
               "--query", str(tmp_path / "query.ate")) == 3


def test_corrupt_file_exit_3(tmp_path):
    bad = tmp_path / "bad.ate"
    bad.write_bytes(b"XXXX" + bytes(100))
    assert run("zeroshot", "--text", str(bad), "--query", str(bad)) == 3


def test_train_deterministic_checkpoint_bytes(data_dir, tmp_path):
    blobs = []
    for sub in ("a", "b"):
        ckpt = tmp_path / f"{sub}.atck"
        assert run("train", "--text", str(data_dir / "text.ate"),
                   "--support", str(data_dir / "support.ate"),
                   "--ckpt", str(ckpt), "--shots", "4", "--seed", "3",
                   "--epochs", "2") == 0
        blobs.append(ckpt.read_bytes())
    assert blobs[0] == blobs[1]


def test_train_lr_zero_matches_untrained_eval(data_dir, tmp_path):
    report = tmp_path / "r.jsonl"
    ckpt = tmp_path / "m.atck"
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--ckpt", str(ckpt), "--shots", "4", "--seed", "3",
               "--epochs", "2", "--lr", "0",
               "--query", str(data_dir / "query.ate"),
               "--report", str(report)) == 0
    trained_rec = read_records(report)[0]

    # untrained reference: alpha=0 textual-only equals zeroshot; full fused
    # is evaluated via eval on the untouched checkpoint
    report2 = tmp_path / "r2.jsonl"
    assert run("eval", "--ckpt", str(ckpt),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate"),
               "--report", str(report2)) == 0
    eval_rec = read_records(report2)[0]
    assert eval_rec["accuracy"] == trained_rec["eval"]["accuracy"]


def test_eval_alpha_zero_equals_zeroshot(data_dir, trained, tmp_path):
    ckpt, _ = trained
    report = tmp_path / "r.jsonl"
    assert run("eval", "--ckpt", str(ckpt),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate"),
               "--alpha", "0", "--report", str(report)) == 0
    rec = read_records(report)[0]
    assert rec["alpha"] == 0.0

    # textual-only accuracy computed directly
    from atc.cli import _rebuild_from_checkpoint, evaluate_queries
    from atc.dataio import read_embeddings
    from atc.trainer import load_checkpoint
    m = _rebuild_from_checkpoint(load_checkpoint(ckpt),
                                 data_dir / "text.ate",
                                 data_dir / "support.ate", alpha=0.0)
    q = read_embeddings(data_dir / "query.ate")
    direct = evaluate_queries(m, q.features, q.labels)
    assert rec["accuracy"] == direct["accuracy"]


def test_eval_idempotent(data_dir, trained, tmp_path):
    ckpt, _ = trained
    report = tmp_path / "r.jsonl"
    for _ in range(2):
        assert run("eval", "--ckpt", str(ckpt),
                   "--text", str(data_dir / "text.ate"),
                   "--support", str(data_dir / "support.ate"),
                   "--query", str(data_dir / "query.ate"),
                   "--report", str(report)) == 0
    recs = read_records(report)
    a, b = recs[0], recs[1]
    a.pop("wall_clock"), b.pop("wall_clock")
    assert a == b


def test_sweep_matches_eval_at_default(data_dir, trained, tmp_path):
    ckpt, _ = trained
    sweep_report = tmp_path / "s.jsonl"
    assert run("sweep", "--ckpt", str(ckpt),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate"),
               "--param", "alpha", "--values", "0,0.5,1,1.5,2",
               "--report", str(sweep_report)) == 0
    recs = read_records(sweep_report)
    assert len(recs) == 5
    assert all(r["beta"] == 1.0 for r in recs)

    eval_report = tmp_path / "e.jsonl"
    assert run("eval", "--ckpt", str(ckpt),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate"),
               "--report", str(eval_report)) == 0
    default_acc = read_records(eval_report)[0]["accuracy"]
    at_one = [r for r in recs if r["value"] == 1.0][0]
    assert at_one["accuracy"] == default_acc


def test_ablate_full_reduction_equals_zeroshot(data_dir, tmp_path):
    report = tmp_path / "r.jsonl"
    assert run("ablate", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate"),
               "--mode", "fixed-text", "--mode", "fixed-visual",
               "--alpha", "0", "--shots", "4", "--seed", "1",
               "--epochs", "2", "--report", str(report)) == 0
    rec = read_records(report)[0]

    zs_report = tmp_path / "z.jsonl"
    assert run("zeroshot", "--text", str(data_dir / "text.ate"),
               "--query", str(data_dir / "query.ate"),
               "--report", str(zs_report)) == 0
    assert rec["eval"]["accuracy"] == read_records(zs_report)[0]["accuracy"]


def test_ablate_unknown_mode_exit_2(data_dir):
    assert run("ablate", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--mode", "bogus", "--shots", "4") == 2


def test_gradcheck_passes():
    assert run("gradcheck", "--seed", "0") == 0


def test_gradcheck_renorm_off_passes():
    assert run("gradcheck", "--seed", "1", "--renorm", "off") == 0


def test_sweep_empty_values_exit_2(data_dir, trained):
    ckpt, _ = trained
    assert run("sweep", "--ckpt", str(ckpt),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate"),
               "--param", "alpha", "--values", "") == 2


def test_config_file_fills_flags_and_flags_win(data_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shots = 4\nepochs = 2\nseed = 9\n")
    ckpt_a = tmp_path / "a.atck"
    ckpt_b = tmp_path / "b.atck"
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--ckpt", str(ckpt_a), "--config", str(cfg)) == 0
    # explicit flag overrides the config value
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--ckpt", str(ckpt_b), "--config", str(cfg),
               "--seed", "10") == 0
    from atc.trainer import load_checkpoint
    assert load_checkpoint(ckpt_a).config["seed"] == 9
    assert load_checkpoint(ckpt_b).config["seed"] == 10


def test_missing_subcommand_exit_2(capsys):
    assert run() == 2
    capsys.readouterr()


@pytest.mark.parametrize("param", ["alpha", "beta"])
def test_sweep_matches_eval_at_every_value(data_dir, trained, tmp_path, param):
    ckpt, _ = trained
    pair = ("--text", str(data_dir / "text.ate"),
            "--support", str(data_dir / "support.ate"),
            "--query", str(data_dir / "query.ate"))
    values = ["0", "0.05", "0.2", "0.5", "1", "2", "8"]
    sweep_report = tmp_path / "s.jsonl"
    assert run("sweep", "--ckpt", str(ckpt), *pair, "--param", param,
               "--values", ",".join(values),
               "--report", str(sweep_report)) == 0
    recs = read_records(sweep_report)
    assert [r["value"] for r in recs] == [float(v) for v in values]
    for value, rec in zip(values, recs):
        eval_report = tmp_path / f"e{value}.jsonl"
        assert run("eval", "--ckpt", str(ckpt), *pair, f"--{param}", value,
                   "--report", str(eval_report)) == 0
        ev = read_records(eval_report)[0]
        assert (rec["correct"], rec["accuracy"]) == \
            (ev["correct"], ev["accuracy"]), value
    assert len({r["correct"] for r in recs}) > 1


def test_bad_activation_number_exit_2(data_dir, tmp_path, capsys):
    assert run("gradcheck", "--activation", "tip:abc") == 2
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--ckpt", str(tmp_path / "m.atck"), "--shots", "4",
               "--epochs", "1", "--activation", "tip:abc") == 2
    assert "tip:abc" in capsys.readouterr().err


def test_config_file_bad_number_exit_2(data_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shots = 4\nepochs = abc\n")
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--ckpt", str(tmp_path / "m.atck"), "--config", str(cfg)) == 2
    assert "epochs" in capsys.readouterr().err


@pytest.fixture
def empty_query(data_dir, tmp_path):
    from atc.dataio import EmbeddingSet, read_embeddings, write_embeddings
    q = read_embeddings(data_dir / "query.ate")
    path = tmp_path / "empty.ate"
    write_embeddings(EmbeddingSet(q.features[:0], q.labels[:0],
                                  q.class_names, "query"), path)
    return path


def test_zeroshot_empty_query_exit_3(data_dir, empty_query, capsys):
    assert run("zeroshot", "--text", str(data_dir / "text.ate"),
               "--query", str(empty_query)) == 3
    assert "no rows" in capsys.readouterr().err


def test_eval_empty_query_exit_3(data_dir, trained, empty_query, capsys):
    ckpt, _ = trained
    assert run("eval", "--ckpt", str(ckpt),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(empty_query)) == 3
    assert "no rows" in capsys.readouterr().err
