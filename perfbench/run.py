"""atc benchmark: drives `atc.cli.main` on seeded synthetic inputs.

    python3 perfbench/run.py --workload paper-train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the program is imported from `src/`.
Each run is one closed-loop client in one process: it sets up the inputs
(`setup_reps` times, keeping the median), runs the workload's op mix (one
"round") untimed for WARMUP_S, then repeats it until `--seconds` have passed. BLAS is pinned to one thread
before NumPy is imported; ATC_THREADS is set per workload.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced rounds and reports the per-layer metrics from the traced ones.
Human-readable lines come first; the last line of stdout is the JSON result.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tomllib
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("paper-train", "mid-train", "wide-eval")
WARMUP_S = 2.0


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def pin_environment() -> None:
    if "numpy" in sys.modules:
        raise SetupError("numpy was imported before BLAS threads were pinned")
    for var in BLAS_VARS:
        os.environ[var] = "1"


def import_program():
    """Import atc from this checkout's src/ and the benchmark modules."""
    if not (ROOT / "src" / "atc" / "__init__.py").is_file():
        raise SetupError(f"no src/atc package under {ROOT}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import atc
    import atc.cli
    if not Path(atc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"atc imported from {atc.__file__}, not {ROOT}/src")
    import spans
    import workloads
    return atc, spans, workloads


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload, seed: int, trace: int, pinned: bool) -> dict:
    import numpy as np
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "atc").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    try:
        with open(ROOT / "pyproject.toml", "rb") as f:
            version = tomllib.load(f)["project"]["version"]
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        version = "unknown"
    return {
        "workload": workload.name, "seed": seed, "trace": trace,
        "why": workload.why, "pinned": pinned,
        "atc_version": version, "atc_src_sha256": digest.hexdigest(),
        "numpy": np.__version__, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "atc_threads": os.environ.get("ATC_THREADS"),
        "git_commit": git_commit(),
    }


@dataclass
class OpResult:
    kind: str
    wall: float
    work: int
    summary: dict | None = None
    error: str = ""


def execute(cli_mod, workloads, op, report: Path) -> OpResult:
    """Run one op through `atc.cli.main`; a nonzero exit, an exception or a
    report that does not parse or check out is an error."""
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_mod.main([*op.argv, "--report", str(report)])
    except Exception:  # an op's crash is counted, not fatal
        rc, err = None, io.StringIO(traceback.format_exc())
    wall = time.perf_counter() - start
    result = OpResult(op.kind, wall, op.work)
    if rc != 0:
        result.error = f"exit {rc}: {err.getvalue().strip()[-500:]}"
        return result
    try:
        with open(report) as f:
            records = [json.loads(line) for line in f]
        result.summary = workloads.summarize(op, records)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        result.error = f"bad report: {exc!r}"
    return result


def time_imports(reps: int) -> list[float]:
    """Wall time of fresh interpreters that import NumPy and atc from this
    checkout: the part of set-up a run cannot repeat in its own process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        try:
            # no timeout: with one, the wait polls in steps of up to 50 ms
            subprocess.run([sys.executable, "-c", "import numpy, atc.cli"],
                           env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
        except (OSError, subprocess.SubprocessError) as exc:
            raise SetupError(f"importing atc failed: {exc}") from exc
        times.append(time.perf_counter() - start)
    return times


def load_pins(workload: str, seed: int, tiny: bool):
    """The outputs pinned for this seed at full scale, or None."""
    path = HERE / "pins.json"
    if tiny:
        return None
    pins = json.loads(path.read_text()) if path.is_file() else {}
    return pins.get(workload, {}).get(str(seed))


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _tail(walls: list[float]) -> str:
    """The sample count, and the highest percentile with ten samples above
    it when there are enough rounds for one."""
    n = len(walls)
    text = f"median of {n} rounds"
    if n > 10:
        text += (f", p{100 * (n - 10) // n} "
                 f"{sorted(walls)[n - 11]:.6g} s")
    return text


@dataclass
class Round:
    traced: bool
    wall: float
    totals: dict | None = None    # per-layer sums of a traced round


def _round(cli_mod, workloads, spans, op_mix, report, tracer=None):
    """Run the op mix once, instrumented when given a tracer. Returns the op
    results and the hooked names that were missing."""
    ctx = (spans.instrument(tracer) if tracer
           else contextlib.nullcontext([]))
    with ctx as missing:
        return [execute(cli_mod, workloads, op, report)
                for op in op_mix], missing


def _gate(workloads, results: list[OpResult], n: int, pins) -> None:
    """Fail each op whose summary differs from its pin or, for a seed without
    pins, from the first good op at the same place in the round."""
    expected = pins or [next((r.summary for r in results[i::n] if r.summary),
                             None) for i in range(n)]
    for i, res in enumerate(results):
        if not res.error and not workloads.matches(res.summary,
                                                   expected[i % n]):
            res.error = (f"output {res.summary} differs from expected "
                         f"{expected[i % n]}")


def _end_to_end(rounds, results, imports, setups):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [r.wall for r in rounds]
    metrics = {"setup_s": _median(imports) + _median(setups),
               "wall_s": _median(walls),
               "peak_rss_mb": rss_mb}
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    lines = [f"metric setup_s {metrics['setup_s']:.6g} s (medians of "
             f"{len(imports)} imports, {_median(imports):.4g} s, and of "
             f"{len(setups)} input set-ups)",
             f"metric wall_s {metrics['wall_s']:.6g} s ({_tail(walls)})"]
    ok = [r for r in results if not r.error]
    for kind, metric, unit in (("train", "train_rows_per_s", "rows/s"),
                               ("eval", "eval_queries_per_s", "queries/s"),
                               ("sweep", "sweep_values_per_s", "values/s")):
        done = [r for r in ok if r.kind == kind]
        if done:
            rate = _median(r.work / r.wall for r in done)
            lines.append(f"metric {metric} {rate:.6g} {unit} "
                         f"(median of {len(done)} {kind} ops)")
    failed = len(results) - len(ok)
    lines += [f"metric peak_rss_mb {rss_mb:.6g} MB",
              f"metric ops_failed_ratio {failed / len(results):.6g} "
              f"({failed} of {len(results)} ops)"]
    return metrics, units, lines


def _per_layer(spans, rounds, setup_totals, missing):
    plain = [r.wall for r in rounds if not r.traced]
    traced = [r.wall for r in rounds if r.traced]
    metrics = spans.layer_metrics(
        setup_totals, [r.totals for r in rounds if r.traced],
        _median(traced) / _median(plain, 1.0), len(missing))
    units = {m: u for m, u, _ in spans.PER_LAYER}
    lines = [f"missing-name {m}" for m in missing]
    lines += [f"metric {m} {v:.6g} {units[m]}" for m, v in metrics.items()]
    return metrics, units, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False):
    """Returns (result dict, human-readable lines, spans document)."""
    atc_mod, spans, workloads = import_program()
    cli_mod = atc_mod.cli
    w = workloads.WORKLOADS[name]
    scale = w.tiny if tiny else w.full
    os.environ["ATC_THREADS"] = str(w.atc_threads)
    pins = load_pins(name, seed, tiny)
    prov = provenance(w, seed, int(trace), pins is not None)
    work = ROOT / ".perfbench_work" / f"{name}-s{seed}-p{os.getpid()}"
    report = work / "report.jsonl"

    setups, imports, setup_totals, missing = [], [], {}, []
    results: list[OpResult] = []
    rounds: list[Round] = []
    doc = {"provenance": prov, "setup": [], "rounds": []}
    try:
        if trace:
            tracer = spans.Tracer()
            with spans.instrument(tracer) as missing:
                workloads.make_inputs(w, scale, seed, str(work))
            setup_totals = spans.layer_totals(tracer.spans, w.atc_threads)
            doc["setup"] = tracer.to_json()
        else:
            reps = 2 if tiny else w.setup_reps
            imports = time_imports(reps)
            for _ in range(reps):
                start = time.perf_counter()
                workloads.make_inputs(w, scale, seed, str(work))
                setups.append(time.perf_counter() - start)
        op_mix = workloads.ops(w, scale, str(work))

        # untimed warm-up: a process's first rounds run measurably slower
        start = time.perf_counter()
        while True:
            results += _round(cli_mod, workloads, spans, op_mix, report)[0]
            if time.perf_counter() - start >= min(WARMUP_S, seconds):
                break

        start = time.perf_counter()
        while True:
            tracer = spans.Tracer() if trace and len(rounds) % 2 else None
            done, gone = _round(cli_mod, workloads, spans, op_mix, report,
                                tracer)
            results += done
            rounds.append(Round(tracer is not None,
                                sum(r.wall for r in done)))
            if tracer:
                missing = gone
                rounds[-1].totals = spans.layer_totals(tracer.spans,
                                                       w.atc_threads)
                doc["rounds"].append(tracer.to_json())
            if (time.perf_counter() - start >= seconds
                    and (not trace or len(rounds) >= 2)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()         # only when no other run uses it

    _gate(workloads, results, len(op_mix), pins)
    failed = [r for r in results if r.error]
    if trace:
        metrics, units, body = _per_layer(spans, rounds, setup_totals,
                                          missing)
    else:
        metrics, units, body = _end_to_end(rounds, results, imports, setups)
    lines = [f"perfbench {name} seed={seed} trace={int(trace)} "
             f"rounds={len(rounds)} ops={len(results)}",
             "provenance " + json.dumps(prov, sort_keys=True),
             *(f"failed-op {r.kind}: {r.error}" for r in failed), *body]
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }
    return result, lines, doc


def run_all(args) -> int:
    """Each workload in a fresh process of its own, output passed through."""
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *(["--tiny"] if args.tiny else [])]
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               *rest], cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny input sizes, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        pin_environment()
        result, lines, doc = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.tiny)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-s{args.seed}.json"
        path.write_text(json.dumps(doc))
        lines.append(f"spans written to {path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
