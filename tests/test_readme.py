"""The README's library and CLI examples run as written."""

import json
from pathlib import Path


def test_readme_library_block_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = readme.split("\n## Library use\n", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    # SynthConfig's defaults: 10 classes, 50 queries each
    assert scope["preds"].shape == (500,)
    assert set(scope["preds"].tolist()) <= set(range(10))


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    import shlex
    from atc.cli import main
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    lines = [shlex.split(line) for line in block.splitlines()
             if line.startswith("atc ")]
    monkeypatch.chdir(tmp_path)
    report, written = tmp_path / "runs.jsonl", 0
    for argv in lines:
        assert main(argv[1:]) == 0, argv
        if "--report" not in argv:
            continue
        assert argv[argv.index("--report") + 1] == "runs.jsonl"
        records = report.read_text().splitlines()[written:]
        # sweep writes one record per value
        want = (len(argv[argv.index("--values") + 1].split(","))
                if argv[1] == "sweep" else 1)
        assert len(records) == want, argv
        assert {json.loads(r)["command"] for r in records} == {argv[1]}
        written += want
