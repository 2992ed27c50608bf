"""Static scan of the package source: no module imports a name that it never
uses and does not re-export through __all__. No linter is a dependency, so
the scan reads each module's syntax tree with ast."""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "pagepark"


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind but its code never reads, less those
    listed in its __all__. `import a.b` binds a; __future__ imports bind
    nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read and name not in exported]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_scan_finds_a_leftover_import():
    source = "from .stats import SampleStats, within_stderr\n__all__ = ['main']\n\ndef main():\n    return SampleStats\n"
    assert unused_imports(source) == ["within_stderr"]
    assert unused_imports("import os.path\nimport numpy as np\n\nnp.zeros(os.sep)\n") == []
    assert unused_imports("from __future__ import annotations\nimport json\n__all__ = ['json']\n") == []
