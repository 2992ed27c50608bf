"""Static scans of the package source: no module imports a name that it never
uses and does not re-export through __all__, and no module defines a private
name that the package never reads. No linter is a dependency, so the scans
read each module's syntax tree with ast."""
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


def unread_private_names(sources: list[str]) -> list[str]:
    """The private names (a leading underscore, not a dunder) that a module's
    top level defines, by def, class or assignment, and that no module of
    sources reads, as a loaded name or as an attribute (finite._BAND)."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in defined if name.startswith("_") and not name.startswith("__") and name not in read]


def test_no_unread_private_names():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


def test_scan_finds_a_leftover_helper():
    used = "_CAP = 3\n\ndef _walk(x):\n    return x\n\ndef run():\n    return _walk(_CAP)\n"
    assert unread_private_names([used]) == []
    assert unread_private_names([used + "\ndef _scan(x):\n    return x\n"]) == ["_scan"]
    assert unread_private_names(["_A, (_B, c) = 1, (2, 3)\n_C: int = 4\nclass _D:\n    pass\n"]) == ["_A", "_B", "_C", "_D"]
    # read in another module, by attribute or after an import; a dunder is not private
    assert unread_private_names(["_BAND = 2\n__all__ = []\n", "from . import finite\n\nfinite._BAND\n"]) == []
    assert unread_private_names(["class _Field(dict):\n    pass\n", "from .finite import _Field\n\n_Field()\n"]) == []
