"""The README's library example runs as written."""

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
