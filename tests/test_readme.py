"""The README's library quick start runs as written, every name in
pagepark.__all__ resolves, every script and subcommand the README names
exists, and every command line it prints parses, so removing a public name,
an entry point or a flag it uses breaks the suite, not only the docs."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from pagepark import" in block
    exec(compile(block, f"{README.name} quick start", "exec"), {})


def test_star_import_resolves_every_export():
    import pagepark

    names: dict = {}
    exec("from pagepark import *", names)  # raises AttributeError on a stale __all__ entry
    assert sorted(set(pagepark.__all__) - set(names)) == []
    assert len(pagepark.__all__) == len(set(pagepark.__all__))


def test_named_entry_points_exist():
    import argparse

    from pagepark.cli import build_parser

    text = README.read_text(encoding="utf-8")
    root = README.parent
    assert [path for path in re.findall(r"scripts/[\w./-]*\w", text) if not (root / path).exists()] == []
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    named = set(re.findall(r"(?:^|`)pagepark ([a-z][\w-]*)", text, re.M))
    assert named and named <= set(sub.choices), named - set(sub.choices)


def test_command_lines_parse():
    # every pagepark command the README prints, in the command-line block or
    # inline, parses, so the docs cannot advertise a flag a subcommand dropped
    import shlex

    from pagepark.cli import build_parser

    text = README.read_text(encoding="utf-8")
    block = re.search(r"```\n(.*?)```", text.split("## Command line", 1)[1], re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("pagepark ")]
    lines += re.findall(r"`(pagepark [a-z][^`]*)`", text)
    assert len(lines) >= 6
    refused = []
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            refused.append(line)
    assert refused == []
