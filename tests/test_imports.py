"""Every module-level import in liewalk is read somewhere in its module, and
every module-level function and constant somewhere in the package; and the
CLI loads scipy only in the commands that compute with it.

The package ships with no linter, so this test parses each module under
src/liewalk with ast and fails on a module-level import whose bound name the
module never reads.  __init__.py imports to re-export, and a name listed in
a module's __all__ is exported, so both are exempt.  It also fails on a
module-level function, public or _private, or ALL-CAPS constant that no
other statement of the package reads, as a loaded name, an attribute or an
import: dead code, such as a helper whose last caller has gone.  A public
function that __init__.py imports is exported and so counts as read.
"""

import ast
import json
import math
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "liewalk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}


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


def dead_code(sources: dict[str, str]) -> list[str]:
    """'module: name (line n)' for each module-level function and ALL-CAPS
    constant that no other top-level statement of any module reads."""
    defined, reads = {}, {}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            where = (module, stmt.lineno)
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.endswith("__"):
                defined[stmt.name, where] = f"{module}: {stmt.name} (line {stmt.lineno})"
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    defined[target.id, where] = f"{module}: {target.id} (line {stmt.lineno})"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                reads.setdefault(name, set()).add(where)
    return [label for (name, where), label in defined.items()
            if not reads.get(name, set()) - {where}]


def test_checker_finds_dead_private_code():
    sources = {
        "__init__.py": "from .a import public\n",
        "a.py": ("LIMIT = 3\nUNUSED = 4\n\n"
                 "def _helper(x):\n    return _helper(x - 1) if x else LIMIT\n\n"
                 "def _used():\n    return 1\n\n"
                 "def _by_attribute():\n    return 2\n\n"
                 "def public():\n    return _used()\n\n"
                 "def orphan():\n    return public()\n"),
        "b.py": "from .a import _by_attribute\nimport a\nTOTAL = a._by_attribute() + 1\n",
    }
    assert dead_code(sources) == ["a.py: UNUSED (line 2)",
                                  "a.py: _helper (line 4)",
                                  "a.py: orphan (line 16)",
                                  "b.py: TOTAL (line 3)"]


def test_private_code_is_read():
    assert dead_code(PACKAGE) == []


SCIPY_AT_CALL_SITES = ("scipy.optimize", "scipy.spatial", "scipy.special")


def loaded_after(fresh_python, argv: list[str]) -> list[str]:
    """The scipy modules of SCIPY_AT_CALL_SITES in a fresh interpreter's
    sys.modules after import liewalk.cli, build_parser() and main(argv)."""
    code = ("import json, sys\n"
            "from liewalk.cli import build_parser, main\n"
            "build_parser()\n"
            f"assert main({argv!r}) == 0\n"
            f"print(json.dumps([m for m in {SCIPY_AT_CALL_SITES!r} if m in sys.modules]))\n")
    done = fresh_python(code)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_loads_scipy_only_where_it_computes(tmp_path, fresh_python):
    out = str(tmp_path / "out.json")
    assert loaded_after(fresh_python, ["simulate", "--alpha", "1", "--beta", "1",
                                       "--n", "100", "--m", "5", "--out-json", out]) == []
    s = 1.0 - math.exp(-1.0)   # exp([[-0.8, 0.8], [0.2, -0.2]]), a reachable endpoint
    endpoint = tmp_path / "g.json"
    endpoint.write_text(json.dumps([[1.0 - 0.8 * s, 0.8 * s], [0.2 * s, 1.0 - 0.2 * s]]))
    assert "scipy.optimize" in loaded_after(
        fresh_python, ["rate", "--alpha", "1", "--endpoint", str(endpoint), "--m", "2",
                       "--out-json", out])
