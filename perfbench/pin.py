"""Regenerate pins.json: what every op of one round reports (correct/total
counts, epoch losses), per workload and seed, at the commit being pinned.

    python3 perfbench/pin.py --workload wide-eval --seeds 0-31

The benchmark fails an op whose output differs from its pin. Re-pin only at
a commit whose outputs are known to be right, and say so in the change.
"""

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    p.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = p.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    run.pin_environment()
    atc_mod, _, workloads = run.import_program()
    w = workloads.WORKLOADS[args.workload]
    os.environ["ATC_THREADS"] = str(w.atc_threads)
    path = run.HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.is_file() else {}
    for seed in range(first, last + 1):
        work = run.ROOT / ".perfbench_work" / f"pin-{w.name}-s{seed}"
        try:
            workloads.make_inputs(w, w.full, seed, str(work))
            results = [run.execute(atc_mod.cli, workloads, op,
                                   work / "report.jsonl")
                       for op in workloads.ops(w, w.full, str(work))]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        errors = [r.error for r in results if r.error]
        if errors:
            print(f"seed {seed}: {errors}", file=sys.stderr)
            return 1
        pins.setdefault(w.name, {})[str(seed)] = [r.summary for r in results]
        print(f"{w.name} seed {seed}: {[r.summary for r in results]}")
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
