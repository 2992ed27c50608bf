"""The README's library quick start runs as written, so removing a public
name it uses breaks the suite, not only the docs."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from pagepark import" in block
    exec(compile(block, f"{README.name} quick start", "exec"), {})
