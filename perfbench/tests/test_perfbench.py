"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OP_RATES = {"paper-train": ("train_rows_per_s", "eval_queries_per_s"),
            "mid-train": ("train_rows_per_s",),
            "wide-eval": ("eval_queries_per_s", "sweep_values_per_s")}


def _bench(*args, timeout=120):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    return proc


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    human = {ln.split()[1] for ln in lines if ln.startswith("metric ")}
    assert {m["name"] for m in listed} <= human
    if not trace:
        assert {"ops_failed_ratio", *OP_RATES[workload]} <= human
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {n: w.why for n, w in workloads.WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == spans.PER_LAYER


def _span(sid, name, parent, start, end, thread=1, **attrs):
    return spans.Span(sid, name, parent, thread, start, end, attrs)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0, thread=2),
        _span(2, "b", 0, 3.0, 6.0, thread=3),    # overlaps a
        _span(3, "c", 1, 2.0, 3.0, thread=2),
        _span(4, "d", 0, 9.0, 12.0),             # runs past its parent
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 10 - 5 - 1, 1: 3 - 1, 2: 3, 3: 1,
                                   4: 3})


def test_layer_totals_split_predict_and_measure_parallel_efficiency():
    tree = [
        _span(0, "trainer.train", None, 0.0, 4.0),
        _span(1, "model.predict_batch", 0, 1.0, 2.0, rows=5),
        _span(2, "cli.evaluate_queries", None, 10.0, 14.0, thread=1),
        _span(3, "model.predict_batch", 2, 10.0, 13.0, thread=7, rows=3),
        _span(4, "model.predict_batch", 2, 10.0, 12.0, thread=8, rows=3),
    ]
    t = spans.layer_totals(tree, threads=2)
    assert t["model.predict_batch.train_self_s"] == pytest.approx(1.0)
    assert t["model.predict_batch.eval_self_s"] == pytest.approx(5.0)
    assert t["model.predict_batch.rows"] == 6
    assert t["trainer.train.self_s"] == pytest.approx(3.0)
    m = spans.layer_metrics({}, [t], overhead_ratio=1.0, missing=0)
    assert m["cli.evaluate_queries.parallel_eff"] == pytest.approx(5 / 8)


def _hooked():
    return {(mod, attr): getattr(importlib.import_module(mod), attr)
            for mod, attr, *_ in spans.HOOKS}


def test_wrappers_are_removed_after_a_traced_run(monkeypatch):
    monkeypatch.setenv("ATC_THREADS", "1")
    before = _hooked()
    import atc.cli
    pool = atc.cli.ThreadPoolExecutor
    with spans.instrument(spans.Tracer()):
        assert all(getattr(importlib.import_module(mod), attr) is not fn
                   for (mod, attr), fn in before.items())
    result, _, _ = run.run_workload("wide-eval", 3, 0.0, trace=True,
                                    tiny=True)
    assert result["correct"]
    assert _hooked() == before
    assert all(_hooked()[k] is fn for k, fn in before.items())
    assert atc.cli.ThreadPoolExecutor is pool


def test_a_missing_name_is_reported_not_fatal():
    before = _hooked()
    hooks = [("atc.model", "no_such_layer", "model.no_such_layer", None,
              False), *spans.HOOKS]
    with spans.instrument(spans.Tracer(), hooks) as missing:
        assert missing == ["atc.model.no_such_layer"]
    assert _hooked() == before


def test_pool_tasks_nest_under_the_submitting_span():
    tracer = spans.Tracer()
    pool_cls = tracer.pool_class()
    inner = tracer.wrap(lambda: threading.get_ident(), "inner")
    with tracer.span("outer") as outer:
        with pool_cls(max_workers=2) as pool:
            futures = [pool.submit(inner) for _ in range(4)]
            threads = {f.result(timeout=30) for f in futures}
        assert tracer.current() == outer.id
    kids = [s for s in tracer.spans if s.name == "inner"]
    assert len(kids) == 4 and all(s.parent == outer.id for s in kids)
    assert threading.get_ident() not in threads
    assert tracer.current() is None


def _input_bytes(tmp_path, name, seed, tag):
    w = workloads.WORKLOADS[name]
    work = tmp_path / f"{name}-{tag}"
    workloads.make_inputs(w, w.tiny, seed, str(work))
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_the_seed_determines_the_inputs(tmp_path, workload):
    first = _input_bytes(tmp_path, workload, 1, "a")
    assert first == _input_bytes(tmp_path, workload, 1, "b")
    other = _input_bytes(tmp_path, workload, 2, "c")
    assert first.keys() == other.keys()
    assert all(first[k] != other[k] for k in first)


def test_gate_fails_an_op_whose_output_differs_from_its_pin(monkeypatch):
    monkeypatch.setenv("ATC_THREADS", "1")
    wrong = [{"counts": [[0, 20]], "losses": [1.0] * 20,
              "train_accuracy": 0.0},
             {"counts": [[0, 20]]}]
    monkeypatch.setattr(run, "load_pins", lambda name, seed, tiny: wrong)
    result, lines, _ = run.run_workload("paper-train", 3, 0.0, trace=False,
                                        tiny=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert any(ln.startswith("failed-op train") for ln in lines)


def test_matches_is_exact_on_counts_and_tight_on_loss():
    want = {"counts": [[3, 20]], "losses": [0.7, 0.5], "train_accuracy": 0.9}
    assert workloads.matches(dict(want, losses=[0.7, 0.5 * (1 + 1e-9)]), want)
    assert not workloads.matches(dict(want, losses=[0.7, 0.5 * (1 + 1e-5)]),
                                 want)
    assert not workloads.matches(dict(want, losses=[0.7]), want)
    tiny = dict(want, losses=[0.7, 1.46e-16])
    assert workloads.matches(dict(want, losses=[0.7, 1.48e-16]), tiny)
    assert not workloads.matches(dict(want, counts=[[4, 20]]), want)


def test_a_checkout_without_the_program_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "spans.py", "workloads.py"):
        (bench / f).write_bytes((BENCH / f).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
