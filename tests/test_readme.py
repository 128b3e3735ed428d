"""The README's library and CLI examples run as written, and its Settings
table says what the code checks."""

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


def _settings_rows(readme):
    """The Settings table's rows, each a list of its cells without
    backticks."""
    section = readme.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
    lines = [ln for ln in section.splitlines() if ln.startswith("| ")]
    return [[c.strip().replace("`", "") for c in ln.strip("|").split("|")]
            for ln in lines[1:]]


def test_readme_settings_table_matches_the_tables_in_code():
    from atc import dataio, trainer
    from atc.cli import build_parser
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    tables = {"trainer.HYPER": trainer.HYPER, "trainer.TRAIN": trainer.TRAIN,
              "trainer.EPISODE": trainer.EPISODE, "dataio.SYNTH": dataio.SYNTH}
    names = {float: "float", int: "int", bool: "bool"}
    want = []
    for table, types in tables.items():
        for key, kind in types.items():
            kind, rule = (kind if isinstance(kind, tuple) and kind[0] in names
                          else (kind, ""))
            shown = names.get(kind) or ", ".join(kind)
            want.append((table, key, shown, rule))
    rows = _settings_rows(readme)
    assert [(r[0], r[1], r[3], r[4]) for r in rows] == want
    # every flag the table names is a flag of some subcommand
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    flags = {f for p in commands.choices.values() for a in p._actions
             for f in a.option_strings}
    named = {w for r in rows for w in r[2].split() if w.startswith("--")}
    assert named and named <= flags

