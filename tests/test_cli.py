import json
import warnings

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
    m, _ = _rebuild_from_checkpoint(load_checkpoint(ckpt),
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
    # the ablation with both caches fixed and the visual branch off
    report = tmp_path / "r.jsonl"
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate"),
               "--adaptive-text", "off", "--visual-mode", "fixed",
               "--alpha", "0", "--shots", "4", "--seed", "1",
               "--epochs", "2", "--report", str(report)) == 0
    rec = read_records(report)[0]

    zs_report = tmp_path / "z.jsonl"
    assert run("zeroshot", "--text", str(data_dir / "text.ate"),
               "--query", str(data_dir / "query.ate"),
               "--report", str(zs_report)) == 0
    assert rec["eval"]["accuracy"] == read_records(zs_report)[0]["accuracy"]


@pytest.mark.parametrize("ckpt", [False, True])
@pytest.mark.parametrize("query", [False, True])
def test_training_record_keys(data_dir, tmp_path, ckpt, query):
    report = tmp_path / "r.jsonl"
    argv = ["train", "--text", str(data_dir / "text.ate"),
            "--support", str(data_dir / "support.ate"), "--shots", "4",
            "--epochs", "1", "--report", str(report)]
    if ckpt:
        argv += ["--ckpt", str(tmp_path / "m.atck")]
    if query:
        argv += ["--query", str(data_dir / "query.ate")]
    assert run(*argv) == 0
    (rec,) = read_records(report)
    assert set(rec) == ({"command", "ckpt", "config", "seed", "epochs",
                         "wall_clock"} | ({"eval"} if query else set()))
    assert rec["command"] == "train"
    assert rec["config"]["episode_shots"] == 4
    # without --ckpt nothing but the report is written
    assert rec["ckpt"] == (str(tmp_path / "m.atck") if ckpt else None)
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        (["m.atck"] if ckpt else []) + ["r.jsonl"]


def test_train_empty_ckpt_path_exit_5(data_dir, capsys):
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"), "--ckpt", "",
               "--shots", "4", "--epochs", "1") == 5
    out = capsys.readouterr()
    assert out.err.startswith("io error: ") and out.out == ""


def test_adaptive_text_flag_sets_the_setting(data_dir, tmp_path):
    from atc.trainer import load_checkpoint
    ckpts = {}
    for name, flags in (("default", []), ("on", ["--adaptive-text", "on"]),
                        ("off", ["--adaptive-text", "off"])):
        ckpts[name] = tmp_path / f"{name}.atck"
        assert run("train", "--text", str(data_dir / "text.ate"),
                   "--support", str(data_dir / "support.ate"),
                   "--ckpt", str(ckpts[name]), "--shots", "4",
                   "--epochs", "2", *flags) == 0
    assert ckpts["default"].read_bytes() == ckpts["on"].read_bytes()
    assert [load_checkpoint(ckpts[name]).hyper["adaptive_text"]
            for name in ("on", "off")] == [True, False]


def test_ablate_command_removed_exit_2(data_dir, capsys):
    # its modes are train flags: --adaptive-text and --visual-mode
    assert run("ablate", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--mode", "fixed-text", "--shots", "4") == 2
    assert "invalid choice: 'ablate'" in capsys.readouterr().err


def test_gradcheck_command_removed_exit_2(capsys):
    # the finite-difference audit is acceptance test A2, not a command
    assert run("gradcheck", "--seed", "0") == 2
    assert "invalid choice: 'gradcheck'" in capsys.readouterr().err


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


@pytest.mark.parametrize("activation", ["linear", "tip:2"])
def test_sweep_matches_eval_over_several_chunks(data_dir, tmp_path,
                                                activation):
    # 305 query rows (the data set's classes, text and support rows), which
    # the scorer takes in two chunks of 152 and 153
    assert run("synth", "--out", str(tmp_path), "--classes", "5", "--dim",
               "16", "--shots", "4", "--queries", "61", "--sigma", "0.3",
               "--seed", "11") == 0
    ckpt, report = tmp_path / "m.atck", tmp_path / "r.jsonl"
    pair = ("--ckpt", str(ckpt), "--text", str(data_dir / "text.ate"),
            "--support", str(data_dir / "support.ate"))
    assert run("train", *pair, "--shots", "4", "--epochs", "3", "--lr",
               "1e-2", "--activation", activation) == 0
    query = ("--query", str(tmp_path / "query.ate"), "--report", str(report))
    values = ["0", "0.5", "2"]
    for param in ("alpha", "beta"):
        assert run("sweep", *pair, *query, "--param", param,
                   "--values", ",".join(values)) == 0
        for value in values:
            assert run("eval", *pair, *query, f"--{param}", value) == 0
    recs = read_records(report)
    keys = ("alpha", "beta", "accuracy", "correct", "total")
    sweeps = [{k: r[k] for k in keys} for r in recs if r["command"] == "sweep"]
    evals = [{k: r[k] for k in keys} for r in recs if r["command"] == "eval"]
    assert sweeps == evals and {r["total"] for r in evals} == {305}
    assert len({r["correct"] for r in evals}) > 1


def test_bad_activation_number_exit_2(data_dir, tmp_path, capsys):
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--ckpt", str(tmp_path / "m.atck"), "--shots", "4",
               "--epochs", "1", "--activation", "tip:abc") == 2
    assert "tip:abc" in capsys.readouterr().err


@pytest.mark.parametrize("activation", ["tipsy", "tipsy:2.0", "tip2"])
def test_unknown_activation_exit_2(data_dir, tmp_path, activation, capsys):
    ckpt = tmp_path / "m.atck"
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--ckpt", str(ckpt), "--shots", "4", "--epochs", "1",
               "--activation", activation) == 2
    assert f"unknown activation {activation!r}" in capsys.readouterr().err
    assert not ckpt.exists()


def test_bad_activation_exit_2_before_any_file_is_read(tmp_path, capsys):
    missing = tmp_path / "missing.ate"
    assert run("train", "--text", str(missing), "--support", str(missing),
               "--ckpt", str(tmp_path / "m.atck"),
               "--activation", "tipsy") == 2
    err = capsys.readouterr().err
    assert "usage error: unknown activation 'tipsy'" in err
    assert "io error" not in err


def test_config_file_not_utf8_exit_2(data_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"shots = 4\n\xff\xfe = 2\n")
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--ckpt", str(tmp_path / "m.atck"), "--config", str(cfg)) == 2
    assert f"usage error: {cfg}: not UTF-8 text (byte 10)" in \
        capsys.readouterr().err


def test_config_file_with_utf8_bom_applies_its_first_key(tmp_path):
    # editors that save "UTF-8 with BOM" put U+FEFF before the first key
    from atc.cli import _parse, build_parser
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfepochs = 2\nlr = 5e-2\n")
    args = _parse(build_parser(),
                  ["train", *_REQUIRED["train"], "--config", str(cfg)])
    assert (args.epochs, args.lr) == (2, 0.05)


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


@pytest.mark.parametrize("command", [["train"],
                                     ["train", "--adaptive-text", "off",
                                      "--visual-mode", "fixed"]])
def test_train_empty_query_exit_3_before_training(data_dir, empty_query,
                                                  tmp_path, command, capsys):
    ckpt = tmp_path / "m.atck"
    assert run(*command, "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--ckpt", str(ckpt), "--shots", "4", "--epochs", "2",
               "--query", str(empty_query)) == 3
    assert "no rows" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("command", ["train", "zeroshot"])
def test_zero_dim_files_exit_3(tmp_path, command, capsys):
    from oracles import encode_embeddings
    files = {}
    for code, role, labels in ((0, "text", [0, 1]),
                               (1, "support", [0, 0, 1, 1]),
                               (2, "query", [0, 1])):
        files[role] = tmp_path / f"{role}.ate"
        files[role].write_bytes(encode_embeddings(
            code, 0, labels, [[] for _ in labels], ["a", "b"]))
    ckpt = tmp_path / "m.atck"
    argv = (["train", "--support", str(files["support"]), "--ckpt", str(ckpt),
             "--shots", "2", "--epochs", "2"] if command == "train"
            else ["zeroshot"])
    assert run(*argv, "--text", str(files["text"]),
               "--query", str(files["query"])) == 3
    assert "features must have at least one column" in capsys.readouterr().err
    assert not ckpt.exists()


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
    "train": ["--text", "t.ate", "--support", "s.ate"],
    "eval": ["--ckpt", "m.atck", "--text", "t.ate", "--support", "s.ate",
             "--query", "q.ate"],
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
    ("train", "weight-decay", "-1e-3", -0.001),
    ("train", "alpha", "0.5", 0.5), ("train", "beta", "2.5", 2.5),
    ("train", "scale", "30", 30.0), ("train", "renorm", "off", "off"),
    ("train", "activation", "tip:2", ("tip", 2.0)),
    ("train", "adaptive-text", "off", "off"),
    ("train", "visual-mode", "linear", "linear"),
    ("train", "shuffle", "off", "off"),
    ("train", "leave-self-out", "on", "on"),
    ("train", "chunk-count", "4", 4), ("train", "hidden-size", "6", 6),
    ("train", "ckpt", "m.atck", "m.atck"),
    ("train", "query", "q.ate", "q.ate"),
    ("train", "report", "r.jsonl", "r.jsonl"),
    ("eval", "alpha", "0.5", 0.5), ("eval", "beta", "2", 2.0),
    ("eval", "report", "r.jsonl", "r.jsonl"),
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


def test_parse_leaves_the_parser_unchanged(tmp_path):
    from atc.cli import _parse, build_parser
    parser = build_parser()
    cfg = _write_config(tmp_path, "epochs = 2\nrenorm = off\n")
    args = _parse(parser, ["train", *_REQUIRED["train"], "--config", cfg])
    assert (args.epochs, args.renorm) == (2, "off")
    args = _parse(parser, ["train", *_REQUIRED["train"]])
    assert (args.epochs, args.renorm) == (20, "on")


def test_config_ignores_keys_that_name_no_optional_flag(tmp_path):
    from atc.cli import _parse, build_parser, cmd_train
    cfg = _write_config(tmp_path, "text = other.ate\nfunc = x\nbogus = 1\n")
    args = _parse(build_parser(),
                  ["train", *_REQUIRED["train"], "--config", cfg])
    assert args.text == "t.ate" and args.func is cmd_train
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
    from atc.trainer import HYPER, model_hyper
    sets = synth_dataset(SynthConfig(num_classes=3, dim=8, shots=2,
                                     queries_per_class=1))
    hyper = {"alpha": 0.5, "beta": 1.5, "logit_scale": 20.0,
             "activation": activation, "tip_gamma": gamma,
             "adaptive_text": renorm_text != renorm_visual,
             "renorm_text": renorm_text, "renorm_visual": renorm_visual,
             "visual_mode": visual_mode, "dim": 8, "chunk_count": 2,
             "hidden_size": 3}
    assert list(hyper) == list(HYPER)
    m = _build_model(hyper, sets["text"], sets["support"], seed=1)
    assert model_hyper(m) == hyper


@pytest.fixture(scope="module")
def six_class_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("six")
    assert run("synth", "--out", str(d), "--classes", "6", "--dim", "16",
               "--shots", "4", "--queries", "2", "--seed", "12") == 0
    return d


@pytest.fixture(scope="module")
def renamed_dir(data_dir, tmp_path_factory):
    """data_dir's support and query files with the same number of classes
    under other names."""
    from atc.dataio import read_embeddings, write_embeddings
    d = tmp_path_factory.mktemp("renamed")
    for role in ("support", "query"):
        es = read_embeddings(data_dir / f"{role}.ate")
        es.class_names = [f"other_{i}" for i in range(es.num_classes)]
        write_embeddings(es, d / f"{role}.ate")
    return d


def _class_set_commands(data_dir, ckpt, support, query, out, text=None):
    text = str(text or data_dir / "text.ate")
    pair = ["--text", text, "--support", str(support)]
    train = ["--ckpt", str(out / "new.atck"), "--shots", "4",
             "--epochs", "1"]
    return {
        "eval": ["eval", "--ckpt", str(ckpt), *pair, "--query", str(query)],
        "sweep": ["sweep", "--ckpt", str(ckpt), *pair, "--query", str(query),
                  "--param", "alpha", "--values", "0,1"],
        "zeroshot": ["zeroshot", "--text", text, "--query", str(query)],
        "train": ["train", *pair, *train, "--query", str(query)],
    }


@pytest.mark.parametrize("other", ["six", "renamed"])
@pytest.mark.parametrize("command",
                         ["eval", "sweep", "zeroshot", "train"])
def test_query_of_other_class_set_exit_3(data_dir, trained, six_class_dir,
                                         renamed_dir, tmp_path, other,
                                         command, capsys):
    ckpt, _ = trained
    query = {"six": six_class_dir, "renamed": renamed_dir}[other] / "query.ate"
    argv = _class_set_commands(data_dir, ckpt, data_dir / "support.ate",
                               query, tmp_path)[command]
    assert run(*argv) == 3
    out = capsys.readouterr()
    assert f"error: {query}: class names differ from the text file's" \
        in out.err
    assert out.out == ""
    # the query file is checked before any training
    assert not (tmp_path / "new.atck").exists()


@pytest.mark.parametrize("command", ["eval", "sweep", "train"])
def test_support_of_other_class_names_exit_3(data_dir, trained, renamed_dir,
                                             tmp_path, command, capsys):
    ckpt, _ = trained
    support = renamed_dir / "support.ate"
    argv = _class_set_commands(data_dir, ckpt, support,
                               data_dir / "query.ate", tmp_path)[command]
    assert run(*argv) == 3
    assert (f"error: {support}: class names differ from the text file's "
            "(5 classes vs 5)") in capsys.readouterr().err


@pytest.mark.parametrize("command,slot,given", [
    *[(c, "query", g) for c in ("eval", "sweep", "zeroshot", "train")
      for g in ("support", "text")],
    *[(c, "support", "query") for c in ("eval", "sweep", "train")],
    *[(c, "text", g) for c in ("eval", "sweep", "zeroshot", "train")
      for g in ("support", "query")]])
def test_file_with_another_role_tag_exit_3(data_dir, trained, tmp_path,
                                           command, slot, given, capsys):
    ckpt, _ = trained
    files = {"support": data_dir / "support.ate",
             "query": data_dir / "query.ate", "text": data_dir / "text.ate",
             slot: data_dir / f"{given}.ate"}
    argv = _class_set_commands(data_dir, ckpt, files["support"],
                               files["query"], tmp_path,
                               files["text"])[command]
    assert run(*argv) == 3
    out = capsys.readouterr()
    assert (f"error: {files[slot]}: role tag is '{given}', expected "
            f"'{slot}'") in out.err
    assert out.out == ""
    assert not (tmp_path / "new.atck").exists()


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


@pytest.mark.parametrize("views", [0, 2])
def test_eval_rejects_episode_views_other_than_1_exit_3(data_dir, trained,
                                                        tmp_path, views,
                                                        capsys):
    from atc.trainer import load_checkpoint, save_checkpoint
    ckpt, _ = trained
    old = load_checkpoint(ckpt)
    assert (old.config["episode_shots"], old.config["episode_views"]) == (4, 1)
    old.config.update(episode_shots=2, episode_views=views)
    save_checkpoint(old, tmp_path / "old.atck")
    assert run("eval", "--ckpt", str(tmp_path / "old.atck"),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate")) == 3
    assert (f"error: episode_views must be == 1, got {views}"
            in capsys.readouterr().err)


def test_negative_seed_round_trips_through_the_checkpoint(data_dir,
                                                         tmp_path):
    # seeds are reduced mod 2**64, so -1 is a seed like any other: the
    # trailer keeps it, and eval rebuilds the episode train drew from it
    from atc.trainer import load_checkpoint
    ckpt, report = tmp_path / "m.atck", tmp_path / "runs.jsonl"
    assert run(*_train(data_dir, ckpt, "--seed=-1", "--epochs", "2",
                       "--query", str(data_dir / "query.ate"),
                       "--report", str(report))) == 0
    assert load_checkpoint(ckpt).config["episode_seed"] == -1
    assert run(*_eval(data_dir, ckpt), "--report", str(report)) == 0
    trained, evaluated = read_records(report)
    assert evaluated["correct"] == trained["eval"]["correct"]
    assert evaluated["total"] == trained["eval"]["total"]


@pytest.mark.parametrize("query_files", [1, 2])
def test_eval_query_dim_mismatch_exit_3(data_dir, trained, tmp_path,
                                        query_files, capsys):
    # with two query files the bad one follows a good one
    ckpt, _ = trained
    assert run("synth", "--out", str(tmp_path), "--dim", "8",
               "--classes", "5", "--shots", "2", "--queries", "2") == 0
    queries = [data_dir / "query.ate"] * (query_files - 1)
    queries.append(tmp_path / "query.ate")
    assert run("eval", "--ckpt", str(ckpt),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               *[a for q in queries for a in ("--query", str(q))]) == 3
    assert "error: dim mismatch: text 16 vs query 8" in capsys.readouterr().err


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
}
_CHOICE_FLAGS = ["renorm", "adaptive-text", "visual-mode", "shuffle",
                 "leave-self-out"]


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


@pytest.mark.parametrize("section,key,value", [
    ("hyper", "alpha", "x"), ("hyper", "beta", True),
    ("hyper", "logit_scale", None), ("hyper", "tip_gamma", float("inf")),
    pytest.param("hyper", "alpha", 10 ** 400, id="hyper-alpha-10**400"),
    ("hyper", "adaptive_text", 1), ("hyper", "renorm_text", "on"),
    ("hyper", "renorm_visual", None), ("hyper", "dim", "16"),
    ("hyper", "chunk_count", "8"), ("hyper", "hidden_size", 64.0),
    ("hyper", "activation", "bogus"), ("hyper", "visual_mode", "bogus"),
    ("config", "episode_seed", "x"), ("config", "episode_shots", True),
    ("config", "episode_views", 1.5)])
def test_eval_checkpoint_value_of_wrong_type_exit_3(data_dir, trained,
                                                    tmp_path, section, key,
                                                    value, capsys):
    from atc.trainer import load_checkpoint
    from oracles import encode_checkpoint
    ckpt, _ = trained
    old = load_checkpoint(ckpt)
    getattr(old, section)[key] = value
    # written by the layout encoder: save_checkpoint refuses an inf value
    (tmp_path / "old.atck").write_bytes(encode_checkpoint(old.tensors, {
        "hyper": old.hyper, "config": old.config, "metrics": old.metrics}))
    # the text file does not exist: the trailer is checked before any read
    assert run("eval", "--ckpt", str(tmp_path / "old.atck"),
               "--text", str(tmp_path / "absent.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate")) == 3
    assert f"error: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("hidden", [10 ** 11, 63])
def test_eval_hidden_size_other_than_the_net_tensors_exit_3(
        data_dir, trained, tmp_path, hidden, capsys):
    from atc.trainer import load_checkpoint, save_checkpoint
    ckpt, _ = trained
    old = load_checkpoint(ckpt)
    old.hyper["hidden_size"] = hidden
    save_checkpoint(old, tmp_path / "old.atck")
    assert run("eval", "--ckpt", str(tmp_path / "old.atck"),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate")) == 3
    assert (f"error: hidden_size {hidden} does not match the checkpoint's "
            "net.U_i shape (64, 64)") in capsys.readouterr().err


def test_eval_trailer_section_of_wrong_type_exit_3(data_dir, trained,
                                                   tmp_path, capsys):
    from atc.trainer import load_checkpoint
    from oracles import encode_checkpoint
    ckpt, _ = trained
    old = load_checkpoint(ckpt)
    (tmp_path / "old.atck").write_bytes(encode_checkpoint(old.tensors, {
        "hyper": 5, "config": old.config, "metrics": old.metrics}))
    assert run("eval", "--ckpt", str(tmp_path / "old.atck"),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate")) == 3
    assert ("error: trailer is not UTF-8 JSON with hyper, config and "
            "metrics") in capsys.readouterr().err


def test_eval_duplicate_tensor_name_exit_3(data_dir, trained, tmp_path,
                                           capsys):
    from atc.trainer import load_checkpoint
    from oracles import encode_checkpoint
    ckpt, _ = trained
    old = load_checkpoint(ckpt)
    # net.U_F sorts just before net.U_f; renamed, it is a first net.U_f
    tensors = {**old.tensors, "net.U_F": old.tensors["net.U_f"] + 1.0}
    blob = encode_checkpoint(tensors, {
        "hyper": old.hyper, "config": old.config, "metrics": old.metrics})
    blob = blob.replace(b"net.U_F", b"net.U_f")
    (tmp_path / "dup.atck").write_bytes(blob)
    assert run("eval", "--ckpt", str(tmp_path / "dup.atck"),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate")) == 3
    repeat = blob.index(b"net.U_f", blob.index(b"net.U_f") + 1)
    assert (f"error: duplicate tensor name 'net.U_f' (at byte offset "
            f"{repeat})") in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--chunk-count", "0"],
                                   ["--chunk-count=-2"],
                                   ["--hidden-size", "0"]])
def test_train_nonpositive_net_size_exit_3(data_dir, tmp_path, flags,
                                           capsys):
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--ckpt", str(tmp_path / "m.atck"), "--shots", "4",
               "--epochs", "1", *flags) == 3
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train"])
def test_net_larger_than_memory_exit_3(data_dir, tmp_path, command, capsys):
    # 10**11 needs ~3e23 bytes: refused before anything is allocated
    argv = _class_set_commands(data_dir, None, data_dir / "support.ate",
                               data_dir / "query.ate", tmp_path)[command]
    assert run(*argv, "--hidden-size", str(10 ** 11)) == 3
    out = capsys.readouterr()
    assert "error: hidden_size 100000000000 needs" in out.err
    assert out.out == ""
    assert not (tmp_path / "new.atck").exists()


def test_eval_absent_text_file_exit_5(data_dir, trained, tmp_path):
    ckpt, _ = trained
    assert run("eval", "--ckpt", str(ckpt),
               "--text", str(tmp_path / "absent.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate")) == 5


def _poison_row(src, dst, row, value):
    """Copy an .ate file with one entry of `row` set to `value`; returns the
    byte offset of that row."""
    from atc.dataio import read_embeddings
    es = read_embeddings(src)
    rows, dim = es.features.shape
    at = 25 + 4 * rows + 4 * dim * row
    blob = bytearray(src.read_bytes())
    blob[at + 4:at + 8] = np.float32(value).tobytes()
    dst.write_bytes(bytes(blob))
    return at


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("command", ["zeroshot", "eval"])
def test_non_finite_query_row_exit_3(data_dir, trained, tmp_path, command,
                                     value, capsys):
    ckpt, _ = trained
    bad = tmp_path / "query.ate"
    at = _poison_row(data_dir / "query.ate", bad, 3, value)
    files = (["--text", str(data_dir / "text.ate")] if command == "zeroshot"
             else ["--ckpt", str(ckpt), "--text", str(data_dir / "text.ate"),
                   "--support", str(data_dir / "support.ate")])
    assert run(command, *files, "--query", str(bad)) == 3
    err = capsys.readouterr().err
    assert f"feature row 3 is not finite (at byte offset {at})" in err
    assert "Warning" not in err


@pytest.mark.parametrize("role", ["text", "support", "query"])
def test_zero_norm_row_exit_3(data_dir, tmp_path, role, capsys):
    files = {r: data_dir / f"{r}.ate" for r in ("text", "support", "query")}
    src, files[role] = files[role], tmp_path / f"{role}.ate"
    at = _poison_row(src, files[role], 2, 0.0)
    blob = bytearray(files[role].read_bytes())
    blob[at:at + 4 * 16] = bytes(4 * 16)      # the whole row: 16 zeros
    files[role].write_bytes(bytes(blob))
    assert run("train", *[a for r, path in files.items()
                          for a in (f"--{r}", str(path))],
               "--ckpt", str(tmp_path / "m.atck"), "--epochs", "1") == 3
    err = capsys.readouterr().err
    assert f"feature row 2 has zero norm (at byte offset {at})" in err
    assert not (tmp_path / "m.atck").exists()


def test_readme_cli_block_shows_every_command():
    from pathlib import Path
    from atc.cli import build_parser
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    shown = {line.split()[1] for line in block.splitlines()
             if line.startswith("atc ")}
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert shown == set(commands.choices)


def test_every_on_off_flag_declares_its_choices():
    # the commands read an on/off flag as `value == "on"`, so any other
    # spelling must be a usage error, from the command line or a config
    from atc.cli import build_parser
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    seen = set()
    for name, sub in commands.choices.items():
        for a in sub._actions:
            if a.option_strings and not a.required \
                    and a.default in ("on", "off"):
                assert a.choices == ["on", "off"], (name, a.dest)
                seen.add((name, a.dest))
    assert {("train", "renorm"), ("train", "adaptive_text"),
            ("train", "shuffle"), ("train", "leave_self_out")} <= seen


@pytest.mark.parametrize("name,value", [("net.W_out", np.nan),
                                        ("visual.biases", np.inf)])
def test_eval_non_finite_checkpoint_tensor_exit_3(data_dir, trained, tmp_path,
                                                  name, value, capsys):
    from atc.trainer import load_checkpoint, save_checkpoint
    ckpt, _ = trained
    bad = load_checkpoint(ckpt)
    bad.tensors[name][0, 0] = value
    save_checkpoint(bad, tmp_path / "bad.atck")
    blob = (tmp_path / "bad.atck").read_bytes()
    # name, dtype byte, rank byte, two u64 dims, then the data
    at = blob.index(name.encode()) + len(name) + 2 + 8 * 2
    assert run("eval", "--ckpt", str(tmp_path / "bad.atck"),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate")) == 3
    assert (f"error: tensor {name} is not finite (at byte offset {at})"
            in capsys.readouterr().err)


@pytest.mark.parametrize("field", ["dims", "trailer"])
def test_eval_length_field_beyond_file_exit_3(data_dir, trained, tmp_path,
                                              field, capsys):
    import struct
    ckpt, _ = trained
    blob = ckpt.read_bytes()
    if field == "dims":     # the first tensor's first dim
        (nlen,) = struct.unpack_from("<H", blob, 12)
        at = 14 + nlen + 2
        blob = blob[:at] + struct.pack("<Q", 2 ** 40) + blob[at + 8:]
    else:
        at = blob.index(b'{"config"') - 4
        blob = blob[:at] + struct.pack("<I", 2 ** 32 - 1) + blob[at + 4:]
    (tmp_path / "bad.atck").write_bytes(blob)
    assert run("eval", "--ckpt", str(tmp_path / "bad.atck"),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate")) == 3
    assert "error: truncated file while reading" in capsys.readouterr().err


@pytest.mark.parametrize("extra_queries", [1, 2])
def test_eval_renormalizes_visual_rows_once(data_dir, trained, tmp_path,
                                            monkeypatch, extra_queries):
    import atc.model
    ckpt, _ = trained
    queries = [data_dir / "query.ate"]
    for seed in (12, 13)[:extra_queries]:
        out = tmp_path / f"q{seed}"
        assert run("synth", "--out", str(out), "--classes", "5", "--dim",
                   "16", "--shots", "4", "--queries", "10", "--sigma", "0.3",
                   "--seed", str(seed)) == 0
        queries.append(out / "query.ate")
    files = ["--ckpt", str(ckpt), "--text", str(data_dir / "text.ate"),
             "--support", str(data_dir / "support.ate")]
    singles = []
    for i, q in enumerate(queries):
        report = tmp_path / f"single{i}.jsonl"
        assert run("eval", *files, "--query", str(q),
                   "--report", str(report)) == 0
        singles += read_records(report)

    calls = []
    original = atc.model._visual_scores

    def counted(m, F, *args, **kwargs):
        calls.append(F.shape[0])
        return original(m, F, *args, **kwargs)

    monkeypatch.setattr(atc.model, "_visual_scores", counted)
    report = tmp_path / "all.jsonl"
    assert run("eval", *files,
               *[a for q in queries for a in ("--query", str(q))],
               "--report", str(report)) == 0
    # one walk over the cache rows scores every file's rows
    assert calls == [sum(rec["total"] for rec in singles)]
    together = read_records(report)
    for rec in singles + together:
        rec.pop("wall_clock")
    assert together == singles


def test_eval_bad_second_query_file_exit_3_before_any_record(
        data_dir, trained, tmp_path, capsys):
    ckpt, _ = trained
    bad = tmp_path / "query.ate"
    _poison_row(data_dir / "query.ate", bad, 3, np.nan)
    report = tmp_path / "r.jsonl"
    assert run("eval", "--ckpt", str(ckpt),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate"), "--query", str(bad),
               "--report", str(report)) == 3
    out, err = capsys.readouterr()
    assert out == "" and not report.exists()
    assert "feature row 3 is not finite" in err


def test_eval_non_finite_logit_in_second_file_exit_4_after_first_record(
        data_dir, trained, tmp_path, capsys):
    import atc.cli
    from atc import model as model_mod, trainer
    from atc.dataio import EmbeddingSet, read_embeddings, write_embeddings
    ckpt, _ = trained
    text, support = data_dir / "text.ate", data_dir / "support.ate"
    m, _ = atc.cli._rebuild_from_checkpoint(trainer.load_checkpoint(ckpt),
                                            text, support)
    # the first file's rows are orthogonal to every class's summed cache
    # row, so their visual scores are ~0; the second file's are the support
    # rows, which score high against their own cache
    sums = model_mod._visual_scores(m, np.eye(16), None, True)[0].T
    rows = read_embeddings(support)
    queries = [tmp_path / "far.ate", tmp_path / "near.ate"]
    far = np.linalg.svd(sums)[2][sums.shape[0]:]
    for q, F, labels in ((queries[0], far, np.arange(far.shape[0]) % 5),
                         (queries[1], rows.features, rows.labels)):
        write_embeddings(EmbeddingSet(F, labels, rows.class_names, "query"), q)
    top = [np.abs(model_mod._visual_scores(m, read_embeddings(q).features,
                                           None, True)[0]).max()
           for q in queries]
    assert top[1] > 2 * top[0]
    # an alpha whose fused logits overflow in the second file only
    alpha = np.finfo(float).max / m.logit_scale / ((top[0] + top[1]) / 2)
    report = tmp_path / "r.jsonl"
    assert run("eval", "--ckpt", str(ckpt), "--text", str(text),
               "--support", str(support), "--alpha", repr(float(alpha)),
               *[a for q in queries for a in ("--query", str(q))],
               "--report", str(report)) == 4
    out, err = capsys.readouterr()
    (record,) = read_records(report)
    assert record["query"] == str(queries[0]) and json.loads(out) == record
    assert "numeric error: a fused logit is not finite" in err


@pytest.mark.parametrize("flags,message", [
    (["--lr", "1e300"], "a visual cache row norm is not finite"),
    (["--lr", "1e300", "--visual-mode", "fixed"],
     "a shifted text row norm is not finite"),
    (["--lr", "1e306", "--renorm", "off", "--epochs", "3"],
     "training loss is nan in epoch 2"),
    (["--lr", "1e306", "--renorm", "off"],
     "trained tensor net.W_i is not finite"),
    # overflowed logits: a NaN loss, without the softmax's own warnings
    (["--scale", "1e308"], "training loss is nan in epoch 0"),
    (["--alpha", "1e308", "--beta", "1e308"],
     "training loss is nan in epoch 0"),
    (["--activation", "tip:1e308"], "training loss is nan in epoch 0")])
def test_train_divergence_exit_4(data_dir, tmp_path, flags, message, capsys):
    # the overflowing Adam update warns of nothing: the loss and
    # trained-tensor checks report the divergence (pytest would catch a
    # warning before stderr does, so warnings are errors here)
    ckpt = tmp_path / "m.atck"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("train", "--text", str(data_dir / "text.ate"),
                   "--support", str(data_dir / "support.ate"),
                   "--ckpt", str(ckpt), "--shots", "4", "--epochs", "2",
                   *flags) == 4
    assert capsys.readouterr().err == f"numeric error: {message}\n"
    assert not ckpt.exists()


@pytest.mark.parametrize("mode", ["fixed", "biases", "linear"])
def test_train_renorm_off_divergence_exit_4(tmp_path, mode, capsys):
    # without renorm no norm overflows: the diverged run stays finite, with
    # entries near 1e292..1e301, and only the trained-tensor bound sees it
    data = tmp_path / "d"
    assert run("synth", "--out", str(data), "--classes", "4", "--dim", "16",
               "--seed", "1") == 0
    ckpt = tmp_path / "m.atck"
    argv = ["train", "--text", str(data / "text.ate"),
            "--support", str(data / "support.ate"), "--ckpt", str(ckpt),
            "--renorm", "off", "--visual-mode", mode]
    capsys.readouterr()
    assert run(*argv, "--lr", "1e300") == 4
    captured = capsys.readouterr()
    assert "numeric error: trained tensor " in captured.err
    assert "exceeds 1.34e+154" in captured.err
    assert captured.out == ""
    assert not ckpt.exists()
    # a large step that stays far below the bound is kept, and its gates'
    # saturated sigmoids warn of nothing (pytest would catch a warning
    # before stderr does, so warnings are errors here)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--lr", "1e10") == 0
    assert capsys.readouterr().err == ""
    assert ckpt.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_sweep_non_finite_value_exit_2(data_dir, trained, value, capsys):
    ckpt, _ = trained
    assert run("sweep", "--ckpt", str(ckpt),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate"),
               "--param", "alpha", "--values", f"1,{value}") == 2
    captured = capsys.readouterr()
    assert "sweep values must be finite" in captured.err
    assert captured.out == ""


def test_sweep_negative_value_exit_2(data_dir, trained, capsys):
    # 0 scores one branch alone; below 0 the branch's ranking flips
    ckpt, _ = trained
    assert run("sweep", "--ckpt", str(ckpt),
               "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--query", str(data_dir / "query.ate"),
               "--param", "beta", "--values=-1,1") == 2
    captured = capsys.readouterr()
    assert "usage error: sweep values must be finite and >= 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags", [["--sigma", "nan"],
                                   ["--text-noise", "inf"]])
def test_synth_non_finite_noise_exit_3(tmp_path, flags, capsys):
    assert run("synth", "--out", str(tmp_path / "d"), "--classes", "3",
               "--dim", "8", *flags) == 3
    key = flags[0][2:].replace("-", "_")
    assert (f"error: {key} must be finite, got {flags[1]}"
            in capsys.readouterr().err)
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("flags", [["--sigma", "1e200"],
                                   ["--text-noise", "1e200"],
                                   ["--sigma", "1e308"]])
def test_synth_overflowing_noise_exit_4(tmp_path, flags, capsys):
    # finite noise scales whose rows' norms overflow: nothing is written
    assert run("synth", "--out", str(tmp_path / "d"), "--classes", "3",
               "--dim", "8", *flags) == 4
    out = capsys.readouterr()
    assert "numeric error: a synthetic row norm is not finite" in out.err
    assert out.out == ""
    assert not (tmp_path / "d").exists()


def test_synth_larger_than_memory_exit_3(tmp_path, capsys):
    # ~5.4e21 bytes of rows, above 2**63: refused before anything is
    # allocated
    assert run("synth", "--out", str(tmp_path / "d"),
               "--classes", str(10 ** 9), "--dim", str(10 ** 10)) == 3
    out = capsys.readouterr()
    assert "error: a synthetic dataset needs 5440000000000000000000 bytes" \
        in out.err
    assert out.out == ""
    assert not (tmp_path / "d").exists()


def test_eval_non_finite_fused_logit_exit_4(data_dir, trained, capsys):
    # alpha 1e308 overflows the fused logits: an argmax over them is no
    # prediction. The overflow itself warns of nothing (pytest would catch a
    # warning before stderr does, so warnings are errors here)
    ckpt, _ = trained
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("eval", "--ckpt", str(ckpt),
                   "--text", str(data_dir / "text.ate"),
                   "--support", str(data_dir / "support.ate"),
                   "--query", str(data_dir / "query.ate"),
                   "--alpha", "1e308") == 4
    captured = capsys.readouterr()
    assert captured.err == "numeric error: a fused logit is not finite\n"
    assert captured.out == ""


def test_sweep_non_finite_fused_logit_exit_4(data_dir, trained, capsys):
    ckpt, _ = trained
    for param in ("alpha", "beta"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("sweep", "--ckpt", str(ckpt),
                       "--text", str(data_dir / "text.ate"),
                       "--support", str(data_dir / "support.ate"),
                       "--query", str(data_dir / "query.ate"),
                       "--param", param, "--values", "1e308,1") == 4
        captured = capsys.readouterr()
        assert captured.err == "numeric error: a fused logit is not finite\n"
        assert captured.out == ""


@pytest.mark.parametrize("activation", ["linear", "tip:2"])
def test_permuted_support_file_trains_and_evals(data_dir, tmp_path,
                                                activation):
    # the episode is drawn class-major, so the visual cache never sees the
    # file's row order
    from atc.dataio import EmbeddingSet, read_embeddings, write_embeddings
    s = read_embeddings(data_dir / "support.ate")
    perm = np.random.default_rng(0).permutation(s.labels.size)
    assert np.any(np.diff(s.labels[perm]) < 0)
    support = tmp_path / "permuted.ate"
    write_embeddings(EmbeddingSet(s.features[perm], s.labels[perm],
                                  s.class_names, "support"), support)
    ckpt, report = tmp_path / "m.atck", tmp_path / "r.jsonl"
    files = ["--text", str(data_dir / "text.ate"), "--support", str(support),
             "--query", str(data_dir / "query.ate"), "--report", str(report)]
    assert run("train", *files, "--ckpt", str(ckpt), "--shots", "4",
               "--epochs", "2", "--activation", activation,
               "--leave-self-out", "on") == 0
    assert run("eval", *files, "--ckpt", str(ckpt)) == 0
    train, evaluated = read_records(report)
    assert evaluated["accuracy"] == train["eval"]["accuracy"]


def test_rebuild_binds_checkpoint_arrays_and_episode_rows(data_dir, trained,
                                                          monkeypatch):
    # the cache binds the support file's own rows and the episode's row
    # index: no episode copy exists
    import atc.cli
    from atc.dataio import sample_episode
    from atc.model import tensors
    from atc.trainer import load_checkpoint
    supports = []
    original = atc.cli._read_input

    def kept(path, role, text=None):
        es = original(path, role, text)
        if role == "support":
            supports.append(es)
        return es

    monkeypatch.setattr(atc.cli, "_read_input", kept)
    ckpt = load_checkpoint(trained[0])
    m, _ = atc.cli._rebuild_from_checkpoint(ckpt, data_dir / "text.ate",
                                            data_dir / "support.ate")
    live = tensors(m)
    assert sorted(live) == sorted(ckpt.tensors)
    for name, value in live.items():
        assert np.shares_memory(value, ckpt.tensors[name]), name
    (support,) = supports
    assert np.shares_memory(m.visual.support, support.features)
    want = sample_episode(support.labels, ckpt.config["episode_shots"],
                          ckpt.config["episode_seed"])
    assert m.visual.index.tobytes() == want.tobytes()
    assert m.visual.labels.tobytes() == support.labels[want].tobytes()


def _shuffled_support(data_dir, path):
    """The support file in shuffled row order, written to `path`."""
    from atc.dataio import EmbeddingSet, read_embeddings, write_embeddings
    from atc.numerics import Rng
    s = read_embeddings(data_dir / "support.ate")
    perm = Rng(8).permutation(s.labels.size)
    write_embeddings(EmbeddingSet(s.features[perm], s.labels[perm],
                                  s.class_names, "support"), path)
    return read_embeddings(path)


def _counts(logits, labels):
    correct = int(np.sum(np.argmax(logits, axis=1) == labels))
    return {"accuracy": correct / labels.size, "correct": correct,
            "total": int(labels.size)}


@pytest.mark.parametrize("flags", [
    ["--visual-mode", "biases"],
    ["--visual-mode", "fixed", "--renorm", "off"],
    ["--visual-mode", "linear", "--activation", "tip:2",
     "--leave-self-out", "on"]])
def test_eval_and_sweep_score_the_gathered_episode(data_dir, tmp_path, flags):
    # a shuffled support file with 4 rows per class, 3 of them per episode:
    # the cache over the file's rows and the episode index scores what a
    # gathered copy of the episode scores
    import oracles
    from atc.dataio import read_embeddings
    from atc.model import _text_branch, _visual_scores, fuse
    from atc.trainer import load_checkpoint
    support = _shuffled_support(data_dir, tmp_path / "shuffled.ate")
    ckpt, report = tmp_path / "m.atck", tmp_path / "r.jsonl"
    query = str(data_dir / "query.ate")
    files = ["--text", str(data_dir / "text.ate"),
             "--support", str(tmp_path / "shuffled.ate"),
             "--ckpt", str(ckpt), "--report", str(report)]
    assert run("train", *files, "--shots", "3", "--epochs", "2", "--lr",
               "1e-2", "--seed", "5", *flags) == 0
    assert run("eval", *files, "--query", query, "--query", query,
               "--alpha", "0.5") == 0
    for param in ("alpha", "beta"):
        assert run("sweep", *files, "--query", query, "--param", param,
                   "--values", "0,0.5,2") == 0
    got = read_records(report)[1:]
    for rec in got[:2]:
        rec.pop("wall_clock")

    m = oracles.gathered_model(load_checkpoint(ckpt),
                               read_embeddings(data_dir / "text.ate"),
                               support)
    q = read_embeddings(query)
    f1 = _visual_scores(m, q.features, None, True)[0]
    f2 = _text_branch(m, q.features, True)[0]
    want = [{"command": "eval", "ckpt": str(ckpt), "query": query,
             "alpha": 0.5, "beta": m.beta,
             **_counts(fuse(f1, f2, 0.5, m.beta, m.logit_scale), q.labels)}
            ] * 2
    for param in ("alpha", "beta"):
        sweep = []
        for value in (0.0, 0.5, 2.0):
            alpha, beta = (value, 1.0) if param == "alpha" else (1.0, value)
            sweep.append({"command": "sweep", "param": param,
                          "value": value, "alpha": alpha, "beta": beta,
                          **_counts(fuse(f1, f2, alpha, beta, m.logit_scale),
                                    q.labels)})
        best = max(sweep, key=lambda r: r["accuracy"])["value"]
        want += [{**r, "best": r["value"] == best} for r in sweep]
    assert got == want


def test_rebuild_peak_holds_no_second_copy_of_the_support_rows(tmp_path):
    # 4,000 x 512 support rows (16.4 MB) in 250 classes. The rebuild holds
    # the file's rows and the zero biases the checkpoint replaces, but no
    # gathered copy of the episode; the blocked class sums hold a block
    import tracemalloc
    import atc.cli
    from atc import model as model_mod, trainer
    from atc.caches import build_textual_cache, build_visual_cache
    from atc.conditionnet import init_condition_net
    from atc.dataio import SynthConfig, synth_dataset, write_embeddings
    from atc.numerics import Rng
    c, k, d = 250, 16, 512
    sets = synth_dataset(SynthConfig(num_classes=c, dim=d, shots=k,
                                     queries_per_class=1, seed=3))
    for role in ("text", "support"):
        write_embeddings(sets[role], tmp_path / f"{role}.ate")
    m = model_mod.AtcModel(build_textual_cache(sets["text"]),
                           build_visual_cache(sets["support"], c),
                           init_condition_net(d, 8, 64, Rng(1)))
    m.visual.biases += 0.01
    ckpt = trainer.Checkpoint(trainer.checkpoint_tensors(m),
                              trainer.model_hyper(m),
                              {"episode_shots": k, "episode_seed": 2}, [])
    del m, sets
    tracemalloc.start()
    try:
        m, _ = atc.cli._rebuild_from_checkpoint(
            ckpt, tmp_path / "text.ate", tmp_path / "support.ate")
        model_mod._visual_scores(m, m.visual.support[:4], None, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured: 2.17 rows arrays; a gathered episode copy makes it 3.17
    assert peak < 2.5 * c * k * d * 8


def test_train_holds_the_episode_not_the_support_file_rows(data_dir,
                                                          tmp_path,
                                                          monkeypatch):
    import weakref
    import atc.cli
    import atc.trainer
    rows, trained = [], []
    load, train = atc.cli._read_input, atc.trainer.train

    def loaded(path, role, text=None):
        es = load(path, role, text)
        if role == "support":
            rows.append(weakref.ref(es.features))
        return es

    def training(*args):
        trained.append(rows[0]() is None)
        return train(*args)

    monkeypatch.setattr(atc.cli, "_read_input", loaded)
    monkeypatch.setattr(atc.trainer, "train", training)
    assert run("train", "--text", str(data_dir / "text.ate"),
               "--support", str(data_dir / "support.ate"),
               "--ckpt", str(tmp_path / "m.atck"), "--shots", "3",
               "--epochs", "1") == 0
    assert trained == [True]


def _overwritten(src, dst, at, raw):
    """A copy of src at dst with the bytes from offset `at` replaced by raw."""
    blob = bytearray(src.read_bytes())
    blob[at:at + len(raw)] = raw
    dst.write_bytes(bytes(blob))
    return str(dst)


def _zeroshot(data_dir, text=None, query=None):
    return ["zeroshot", "--text", str(text or data_dir / "text.ate"),
            "--query", str(query or data_dir / "query.ate")]


def _eval(data_dir, ckpt):
    return ["eval", "--ckpt", str(ckpt), "--text", str(data_dir / "text.ate"),
            "--support", str(data_dir / "support.ate"),
            "--query", str(data_dir / "query.ate")]


def _train(data_dir, ckpt, *flags):
    return ["train", "--text", str(data_dir / "text.ate"),
            "--support", str(data_dir / "support.ate"), "--ckpt", str(ckpt),
            "--shots", "4", *flags]


def _d8_checkpoint_on_d16_files(data_dir, ckpt, tmp):
    d8 = tmp / "d8"
    assert run("synth", "--out", str(d8), "--dim", "8", "--classes", "5",
               "--shots", "2", "--queries", "2") == 0
    assert run(*_train(d8, tmp / "d8.atck", "--shots", "2",
                       "--epochs", "1")) == 0
    return _eval(data_dir, tmp / "d8.atck"), "checkpoint dim 8 != embedding dim 16"


def _text_set_with_an_extra_row(data_dir, ckpt, tmp):
    from oracles import encode_embeddings
    # write_embeddings refuses this set, so its bytes are written directly
    names = [f"class{c}" for c in range(5)]
    bad = tmp / "text.ate"
    bad.write_bytes(encode_embeddings(0, 16, [0, 1, 2, 3, 4, 0],
                                      np.eye(6, 16), names))
    return _zeroshot(data_dir, text=bad), "text set must have one row per class"


def _dtype_byte_9(data_dir, ckpt, tmp):
    # the first tensor's dtype byte follows the 12-byte header and its name
    at = 14 + int.from_bytes(ckpt.read_bytes()[12:14], "little")
    bad = _overwritten(ckpt, tmp / "bad.atck", at, b"\x09")
    return _eval(data_dir, bad), f"unknown dtype byte 9 (at byte offset {at})"


def _trailer_hyper(key, value, rule="> 0"):
    def build(data_dir, ckpt, tmp):
        from atc.trainer import load_checkpoint
        from oracles import encode_checkpoint
        old = load_checkpoint(ckpt)
        old.hyper[key] = value
        bad = tmp / "bad.atck"
        bad.write_bytes(encode_checkpoint(old.tensors, {
            "hyper": old.hyper, "config": old.config, "metrics": old.metrics}))
        return _eval(data_dir, bad), f"error: {key} must be {rule}, got {value}\n"
    return build


def _config_line_without_equals(data_dir, ckpt, tmp):
    cfg = _write_config(tmp, "epochs 3\n")
    return (_train(data_dir, tmp / "m.atck", "--config", cfg),
            f"{cfg}:1: expected key = value")


# (id, exit code, builder): each builder returns the argv and the message
# the command must print on stderr
_REJECTIONS = [
    ("synth-dim-1", 3, lambda d, c, t: (
        ["synth", "--out", str(t / "s"), "--dim", "1"], "dim must be >= 2")),
    ("synth-classes-1", 3, lambda d, c, t: (
        ["synth", "--out", str(t / "s"), "--classes", "1"],
        "num_classes must be >= 2")),
    ("synth-shots-0", 3, lambda d, c, t: (
        ["synth", "--out", str(t / "s"), "--shots", "0"],
        "shots must be >= 1, got 0")),
    ("train-epochs-0", 3, lambda d, c, t: (
        _train(d, t / "m.atck", "--epochs", "0"), "epochs must be >= 1")),
    ("train-batch-size-negative", 3, lambda d, c, t: (
        _train(d, t / "m.atck", "--batch-size", "-1"), "batch_size must be >= 0")),
    # with "=": argparse reads a lone "-1e-3" as a flag (exit 2)
    ("train-lr-negative", 3, lambda d, c, t: (
        _train(d, t / "m.atck", "--lr=-1e-3"),
        "error: learning_rate must be >= 0, got -0.001\n")),
    ("train-weight-decay-negative", 3, lambda d, c, t: (
        _train(d, t / "m.atck", "--weight-decay=-1"),
        "error: weight_decay must be >= 0, got -1.0\n")),
    ("train-scale-negative", 3, lambda d, c, t: (
        _train(d, t / "m.atck", "--scale", "-1"),
        "error: logit_scale must be > 0, got -1.0\n")),
    ("train-scale-0", 3, lambda d, c, t: (
        _train(d, t / "m.atck", "--scale", "0"),
        "error: logit_scale must be > 0, got 0.0\n")),
    ("train-tip-gamma-negative", 3, lambda d, c, t: (
        _train(d, t / "m.atck", "--activation", "tip:-5"),
        "error: tip_gamma must be > 0, got -5.0\n")),
    ("train-tip-gamma-0", 3, lambda d, c, t: (
        _train(d, t / "m.atck", "--activation", "tip:0"),
        "error: tip_gamma must be > 0, got 0.0\n")),
    ("atck-logit-scale-0", 3, _trailer_hyper("logit_scale", 0)),
    ("atck-logit-scale-negative", 3, _trailer_hyper("logit_scale", -1.0)),
    ("atck-tip-gamma-negative", 3, _trailer_hyper("tip_gamma", -5.0)),
    ("atck-tip-gamma-0", 3, _trailer_hyper("tip_gamma", 0.0)),
    # a negative branch weight flips that branch's ranking
    ("train-alpha-negative", 3, lambda d, c, t: (
        _train(d, t / "m.atck", "--alpha=-1"),
        "error: alpha must be >= 0, got -1.0\n")),
    ("train-beta-negative", 3, lambda d, c, t: (
        ["train", "--text", str(d / "text.ate"),
         "--support", str(d / "support.ate"), "--adaptive-text", "off",
         "--shots", "4", "--beta=-1"],
        "error: beta must be >= 0, got -1.0\n")),
    ("eval-alpha-negative", 3, lambda d, c, t: (
        [*_eval(d, c), "--alpha=-1"], "error: alpha must be >= 0, got -1.0\n")),
    ("atck-alpha-negative", 3, _trailer_hyper("alpha", -1.0, ">= 0")),
    ("eval-checkpoint-dim", 3, _d8_checkpoint_on_d16_files),
    ("ate-version-2", 3, lambda d, c, t: (
        _zeroshot(d, query=_overwritten(d / "query.ate", t / "q.ate", 4,
                                        (2).to_bytes(4, "little"))),
        "unsupported version 2 (at byte offset 4)")),
    ("ate-role-7", 3, lambda d, c, t: (
        _zeroshot(d, query=_overwritten(d / "query.ate", t / "q.ate", 8,
                                        b"\x07")),
        "unknown role code 7 (at byte offset 8)")),
    ("ate-text-extra-row", 3, _text_set_with_an_extra_row),
    ("atck-version-2", 3, lambda d, c, t: (
        _eval(d, _overwritten(c, t / "bad.atck", 4, (2).to_bytes(4, "little"))),
        "unsupported checkpoint version 2 (at byte offset 4)")),
    ("atck-dtype-9", 3, _dtype_byte_9),
    ("config-without-equals", 2, _config_line_without_equals),
]


@pytest.mark.parametrize("code,build", [r[1:] for r in _REJECTIONS],
                         ids=[r[0] for r in _REJECTIONS])
def test_documented_rejection_exit_code_and_message(data_dir, trained,
                                                    tmp_path, code, build,
                                                    capsys):
    argv, message = build(data_dir, trained[0], tmp_path)
    capsys.readouterr()
    assert run(*argv) == code
    assert message in capsys.readouterr().err


def _mutated(blob, rng, header):
    """blob with one seeded fault: a bit flip, a truncation, a one-byte
    insertion, or an overwritten byte among its first `header` bytes."""
    kind, raw = int(rng.integers(4)), bytearray(blob)
    if kind == 0:
        raw[int(rng.integers(len(raw)))] ^= 1 << int(rng.integers(8))
    elif kind == 1:
        del raw[int(rng.integers(len(raw))):]
    elif kind == 2:
        raw.insert(int(rng.integers(len(raw) + 1)), int(rng.integers(256)))
    else:
        raw[int(rng.integers(header))] = int(rng.integers(256))
    return bytes(raw)


def test_eval_of_mutated_inputs_never_exits_1(tmp_path):
    # every fault in eval's four inputs ends in a documented exit code
    src = tmp_path / "src"
    assert run("synth", "--out", str(src), "--classes", "4", "--dim", "16",
               "--shots", "4", "--queries", "5", "--seed", "3") == 0
    assert run(*_train(src, src / "m.atck", "--shots", "4", "--epochs",
                       "2")) == 0
    # the .ate header is 25 bytes; the .atck header runs into its first
    # tensor's name and dims
    inputs = {"--text": ("text.ate", 25), "--support": ("support.ate", 25),
              "--query": ("query.ate", 25), "--ckpt": ("m.atck", 40)}
    rng = np.random.default_rng(33)
    for case in range(400):
        flag = list(inputs)[case % 4]
        argv = ["eval"]
        for other, (name, header) in inputs.items():
            path = src / name
            if other == flag:
                path = tmp_path / name
                path.write_bytes(_mutated((src / name).read_bytes(), rng,
                                          header))
            argv += [other, str(path)]
        assert run(*argv) in (0, 3, 4), (case, flag)
