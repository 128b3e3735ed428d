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


def _write_config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return str(cfg)


_REQUIRED = {
    "synth": ["--out", "o"],
    "train": ["--text", "t.ate", "--support", "s.ate", "--ckpt", "m.atck"],
    "eval": ["--ckpt", "m.atck", "--text", "t.ate", "--support", "s.ate",
             "--query", "q.ate"],
    "gradcheck": [],
}

# (command, config key, config value, parsed value): every optional flag
_CONFIG_CASES = [
    ("synth", "classes", "3", 3), ("synth", "dim", "8", 8),
    ("synth", "shots", "2", 2), ("synth", "queries", "4", 4),
    ("synth", "sigma", "0.25", 0.25), ("synth", "text-noise", "0.05", 0.05),
    ("synth", "seed", "5", 5), ("synth", "report", "r.jsonl", "r.jsonl"),
    ("train", "shots", "3", 3), ("train", "seed", "4", 4),
    ("train", "epochs", "2", 2), ("train", "lr", "5e-2", 0.05),
    ("train", "batch-size", "7", 7), ("train", "weight-decay", "0.25", 0.25),
    ("train", "alpha", "0.5", 0.5), ("train", "beta", "2.5", 2.5),
    ("train", "scale", "30", 30.0), ("train", "renorm", "off", "off"),
    ("train", "activation", "tip:2", "tip:2"),
    ("train", "visual-mode", "linear", "linear"),
    ("train", "shuffle", "off", "off"),
    ("train", "leave-self-out", "on", "on"),
    ("train", "chunk-count", "4", 4), ("train", "hidden-size", "6", 6),
    ("train", "query", "q.ate", "q.ate"),
    ("train", "report", "r.jsonl", "r.jsonl"),
    ("eval", "alpha", "0.5", 0.5), ("eval", "beta", "2", 2.0),
    ("eval", "report", "r.jsonl", "r.jsonl"),
    ("gradcheck", "seed", "3", 3), ("gradcheck", "renorm", "off", "off"),
    ("gradcheck", "activation", "tip:2.0", "tip:2.0"),
    ("gradcheck", "report", "r.jsonl", "r.jsonl"),
]


@pytest.mark.parametrize("command,key,raw,expected", _CONFIG_CASES)
def test_config_sets_optional_flag_with_its_type(tmp_path, command, key, raw,
                                                 expected):
    from atc.cli import _parse, build_parser
    cfg = _write_config(tmp_path, f"{key} = {raw}\n")
    args = _parse(build_parser(),
                  [command, *_REQUIRED[command], "--config", cfg])
    value = getattr(args, key.replace("-", "_"))
    assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize("command", sorted(_REQUIRED))
def test_config_cases_cover_every_optional_flag(command):
    from atc.cli import build_parser
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    sub = commands.choices[command]
    optional = {a.dest for a in sub._actions
                if a.option_strings and not a.required} - {"help", "config"}
    covered = {k.replace("-", "_") for c, k, _, _ in _CONFIG_CASES
               if c == command}
    assert optional == covered


def test_config_ignores_keys_that_name_no_optional_flag(tmp_path):
    from atc.cli import _parse, build_parser, cmd_train
    cfg = _write_config(tmp_path, "ckpt = other.atck\nfunc = x\nbogus = 1\n")
    args = _parse(build_parser(),
                  ["train", *_REQUIRED["train"], "--config", cfg])
    assert args.ckpt == "m.atck" and args.func is cmd_train
    assert not hasattr(args, "bogus")


def test_eval_config_alpha_is_a_float(data_dir, trained, tmp_path):
    ckpt, _ = trained
    report = tmp_path / "r.jsonl"
    cfg = _write_config(tmp_path, "alpha = 0.5\n")
    assert run("eval", "--ckpt", str(ckpt),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate"),
               "--config", cfg, "--report", str(report)) == 0
    assert read_records(report)[0]["alpha"] == 0.5


@pytest.mark.parametrize("visual_mode", ["fixed", "linear", "biases"])
@pytest.mark.parametrize("renorm_text", [True, False])
@pytest.mark.parametrize("renorm_visual", [True, False])
@pytest.mark.parametrize("activation,gamma", [("linear", 1.0), ("tip", 2.5)])
def test_build_model_round_trips_hyper(visual_mode, renorm_text,
                                       renorm_visual, activation, gamma):
    from atc.cli import _build_model
    from atc.dataio import SynthConfig, synth_dataset
    from atc.trainer import model_hyper
    sets = synth_dataset(SynthConfig(num_classes=3, dim=8, shots=2,
                                     queries_per_class=1))
    hyper = {"alpha": 0.5, "beta": 1.5, "logit_scale": 20.0,
             "activation": activation, "tip_gamma": gamma,
             "adaptive_text": renorm_text != renorm_visual,
             "renorm_text": renorm_text, "renorm_visual": renorm_visual,
             "visual_mode": visual_mode, "dim": 8, "chunk_count": 2,
             "hidden_size": 3}
    m = _build_model(hyper, sets["text"], sets["support"], seed=1)
    assert model_hyper(m) == hyper


@pytest.fixture(scope="module")
def six_class_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("six")
    assert run("synth", "--out", str(d), "--classes", "6", "--dim", "16",
               "--shots", "4", "--queries", "2", "--seed", "12") == 0
    return d


def test_eval_checkpoint_on_other_class_count_exit_3(trained, six_class_dir,
                                                     capsys):
    ckpt, _ = trained
    assert run("eval", "--ckpt", str(ckpt),
               "--text", str(six_class_dir / "text.ate"),
               "--support", str(six_class_dir / "support.ate"),
               "--query", str(six_class_dir / "query.ate")) == 3
    assert "visual.biases" in capsys.readouterr().err


def test_train_support_with_extra_classes_exit_3(data_dir, six_class_dir,
                                                 tmp_path, capsys):
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(six_class_dir / "support.ate"),
               "--ckpt", str(tmp_path / "m.atck"), "--shots", "4",
               "--epochs", "1") == 3
    err = capsys.readouterr().err
    assert "6 classes" in err and "5" in err and "[]" not in err


@pytest.mark.parametrize("flags", [
    ["--lr", "nan"], ["--weight-decay", "inf"], ["--alpha", "nan"],
    ["--beta=-inf"], ["--scale", "nan"], ["--activation", "tip:nan"]])
def test_train_non_finite_hyper_exit_3(data_dir, tmp_path, flags, capsys):
    ckpt = tmp_path / "m.atck"
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--ckpt", str(ckpt), "--shots", "4", "--epochs", "1",
               *flags) == 3
    assert "finite" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("flags,config", [
    (["--alpha", "nan"], ""), (["--beta", "inf"], ""), ([], "beta = nan\n")])
def test_eval_non_finite_hyper_exit_3(data_dir, trained, tmp_path, flags,
                                      config, capsys):
    ckpt, _ = trained
    cfg = _write_config(tmp_path, config)
    assert run("eval", "--ckpt", str(ckpt),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate"),
               "--config", cfg, *flags) == 3
    assert "finite" in capsys.readouterr().err


def test_eval_corrupt_trailer_exit_3(data_dir, trained, tmp_path, capsys):
    ckpt, _ = trained
    blob = bytearray(ckpt.read_bytes())
    blob[blob.index(b'{"config"')] = 0xFF
    bad = tmp_path / "bad.atck"
    bad.write_bytes(bytes(blob))
    assert run("eval", "--ckpt", str(bad),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate")) == 3
    assert "trailer" in capsys.readouterr().err


@pytest.mark.parametrize("raw,cpus,expected", [
    (None, 4, 1), ("3", 4, 3), ("16", 4, 4), ("0", 4, 1), ("-2", 4, 1),
    ("2", None, 1)])
def test_eval_threads_clamped_to_cpu_count(monkeypatch, raw, cpus, expected):
    from atc import cli
    if raw is None:
        monkeypatch.delenv("ATC_THREADS", raising=False)
    else:
        monkeypatch.setenv("ATC_THREADS", raw)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert cli._eval_threads() == expected


def test_eval_threads_not_integer_exit_2(data_dir, trained, monkeypatch,
                                         capsys):
    ckpt, _ = trained
    monkeypatch.setenv("ATC_THREADS", "two")
    assert run("eval", "--ckpt", str(ckpt),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate")) == 2
    assert "ATC_THREADS" in capsys.readouterr().err


def test_eval_reads_episode_views_of_older_checkpoints(data_dir, trained,
                                                       tmp_path):
    from atc.trainer import load_checkpoint, save_checkpoint
    ckpt, _ = trained
    old = load_checkpoint(ckpt)
    assert (old.config["episode_shots"], old.config["episode_views"]) == (4, 1)
    old.config.update(episode_shots=2, episode_views=2)
    save_checkpoint(old, tmp_path / "old.atck")
    records = []
    for path in (ckpt, tmp_path / "old.atck"):
        report = tmp_path / f"{path.stem}.jsonl"
        assert run("eval", "--ckpt", str(path),
                   "--text", str(data_dir / "text.ate"),
                   "--support", str(data_dir / "support.ate"),
                   "--query", str(data_dir / "query.ate"),
                   "--report", str(report)) == 0
        records.append(read_records(report)[0])
    assert records[0]["correct"] == records[1]["correct"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_eval_query_dim_mismatch_exit_3(data_dir, trained, tmp_path,
                                        monkeypatch, threads):
    ckpt, _ = trained
    monkeypatch.setenv("ATC_THREADS", threads)
    assert run("synth", "--out", str(tmp_path), "--dim", "8",
               "--classes", "5", "--shots", "2", "--queries", "2") == 0
    assert run("eval", "--ckpt", str(ckpt),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(tmp_path / "query.ate")) == 3


@pytest.mark.parametrize("section,key", [("hyper", "alpha"),
                                         ("config", "episode_seed")])
def test_eval_checkpoint_missing_key_exit_3(data_dir, trained, tmp_path,
                                            section, key, capsys):
    from atc.trainer import load_checkpoint, save_checkpoint
    ckpt, _ = trained
    old = load_checkpoint(ckpt)
    del getattr(old, section)[key]
    save_checkpoint(old, tmp_path / "old.atck")
    assert run("eval", "--ckpt", str(tmp_path / "old.atck"),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate")) == 3
    assert f"checkpoint {section} lacks '{key}'" in capsys.readouterr().err


def test_eval_tensor_name_not_utf8_exit_3(data_dir, trained, tmp_path,
                                          capsys):
    ckpt, _ = trained
    blob = bytearray(ckpt.read_bytes())
    at = blob.index(b"net.")
    blob[at] = 0xFF
    bad = tmp_path / "bad.atck"
    bad.write_bytes(bytes(blob))
    assert run("eval", "--ckpt", str(bad),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate")) == 3
    assert (f"tensor name is not UTF-8 (at byte offset {at})"
            in capsys.readouterr().err)


def test_zeroshot_class_name_not_utf8_exit_3(data_dir, tmp_path, capsys):
    blob = bytearray((data_dir / "text.ate").read_bytes())
    at = blob.index(b"class_000")
    blob[at] = 0xFF
    bad = tmp_path / "text.ate"
    bad.write_bytes(bytes(blob))
    assert run("zeroshot", "--text", str(bad),
               "--query", str(data_dir / "query.ate")) == 3
    assert (f"class name is not UTF-8 (at byte offset {at})"
            in capsys.readouterr().err)


_CHOICE_REQUIRED = {
    "train": _REQUIRED["train"],
    "ablate": ["--text", "t.ate", "--support", "s.ate", "--mode",
               "fixed-text"],
}
_CHOICE_FLAGS = ["renorm", "visual-mode", "shuffle", "leave-self-out"]


@pytest.mark.parametrize("command", sorted(_CHOICE_REQUIRED))
@pytest.mark.parametrize("key", _CHOICE_FLAGS)
def test_config_value_outside_choices_exit_2(tmp_path, command, key, capsys):
    cfg = _write_config(tmp_path, f"{key} = bogus\n")
    assert run(command, *_CHOICE_REQUIRED[command], "--config", cfg) == 2
    assert (f"argument --{key}: invalid choice: 'bogus'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", sorted(_CHOICE_REQUIRED))
def test_choice_cases_cover_every_choice_flag(command):
    from atc.cli import build_parser
    (commands,) = [a for a in build_parser()._actions
                   if a.dest == "command"]
    flags = sorted(a.option_strings[0][2:]
                   for a in commands.choices[command]._actions
                   if a.choices is not None and not a.required)
    assert flags == sorted(_CHOICE_FLAGS)
