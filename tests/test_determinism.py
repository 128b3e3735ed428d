"""Checkpoint bytes are identical only for the same inputs, NumPy build and
BLAS thread count. Across thread counts, training agrees to rounding."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from atc.cli import main

# train, then eval of its checkpoint, in one process: the thread count is
# read from the environment when NumPy loads its BLAS
_SCRIPT = """
import sys
from atc.cli import main
argv = sys.argv[1:]
cut = argv.index("eval")
sys.exit(main(argv[:cut]) or main(argv[cut:]))
"""


def _train_and_eval(data, ckpt, threads):
    files = ["--text", str(data / "text.ate"),
             "--support", str(data / "support.ate"),
             "--query", str(data / "query.ate")]
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT,
         "train", *files, "--ckpt", str(ckpt), "--shots", "16",
         "--epochs", "2", "--leave-self-out", "on",
         "eval", *files, "--ckpt", str(ckpt)],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_training_agrees_across_blas_thread_counts(tmp_path):
    # at c=100, d=512 with 1,600 episode rows, OpenBLAS's 2-thread products
    # round differently, so the checkpoint bytes differ where 2 cores exist
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--classes", "100",
                 "--dim", "512", "--shots", "16", "--queries", "2",
                 "--seed", "3"]) == 0
    (train1, eval1), (train2, eval2) = (
        _train_and_eval(data, tmp_path / f"m{n}.atck", n) for n in (1, 2))
    np.testing.assert_allclose([e["loss"] for e in train2["epochs"]],
                               [e["loss"] for e in train1["epochs"]],
                               rtol=1e-12, atol=0)
    assert train2["eval"]["correct"] == train1["eval"]["correct"]
    assert (eval2["correct"], eval2["total"]) == \
        (eval1["correct"], eval1["total"])
