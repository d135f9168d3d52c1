"""No unused imports in the library, checked with ast (no linter is needed).

A name imported in src/mdslab/*.py counts as used when its module refers to
it, when the module's __all__ lists it, or when it is imported on a
statement marked `# noqa: F401`, which keeps a name in a module for a caller
that looks it up there.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mdslab"


def unused_imports(path: Path) -> list[str]:
    """The names path imports and never uses, in import order."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        imported += [alias.asname or alias.name.split(".")[0]
                     for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used | exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_imports_are_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os\nimport sys  # noqa: F401\n"
                    "from json import dumps, loads\n"
                    "from re import compile\n__all__ = ['compile']\n"
                    "print(loads)\n")
    assert unused_imports(path) == ["os", "dumps"]
