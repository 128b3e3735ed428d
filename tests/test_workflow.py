"""The CI workflow's console-script steps run here as they run in CI, so an
edit to a step is exercised by the same change."""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).parents[1]

# the steps left to CI, each named by a text that one step's `run:` holds:
# the install, this suite, and the benchmark at full scale
_SKIPPED = ["pip install", "python -m pytest", "perfbench/run.py"]


def _run_steps():
    workflow = yaml.safe_load(
        (ROOT / ".github" / "workflows" / "tests.yml").read_text("utf-8"))
    return [step["run"] for job in workflow["jobs"].values()
            for step in job["steps"] if "run" in step]


def test_skipped_steps_name_existing_steps():
    runs = _run_steps()
    for text in _SKIPPED:
        assert sum(text in run for run in runs) == 1, text


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_workflow_steps_pass(tmp_path):
    # `atc` is the console script CI installs; here it is the same module
    atc = f'atc() {{ {shlex.quote(sys.executable)} -m atc.cli "$@"; }}\n'
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "RUNNER_TEMP": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for run in _run_steps():
        if any(text in run for text in _SKIPPED):
            continue
        proc = subprocess.run(["bash", "-e", "-c", atc + run], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, (run, proc.stdout, proc.stderr)
