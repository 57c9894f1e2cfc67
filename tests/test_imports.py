"""Every module-level import in liewalk is read somewhere in its module.

The package ships with no linter, so this test parses each module under
src/liewalk with ast and fails on a module-level import whose bound name the
module never reads.  __init__.py imports to re-export, and a name listed in
a module's __all__ is exported, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "liewalk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """'name (line n)' for each module-level import the module never reads."""
    tree = ast.parse(source)
    bound, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in read and name not in exported]


def test_checker_finds_unused_imports():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "from f import g\n__all__ = ['g']\nnp.zeros(c)\n")
    assert unused_imports(source) == ["os (line 1)", "e (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
