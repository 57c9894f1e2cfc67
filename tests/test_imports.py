"""Every module-level import in liewalk is read somewhere in its module, and
every module-level function, class and constant somewhere in the package;
and the CLI loads scipy only in the commands that compute with it.

The package ships with no linter, so this test parses each module under
src/liewalk with ast and fails on a module-level import whose bound name the
module never reads.  __init__.py imports to re-export, and a name listed in
a module's __all__ is exported, so both are exempt.  It also fails on a
module-level function or class, public or _private, or ALL-CAPS constant
that no other statement of the package reads, as a loaded name, an
attribute or an import: dead code, such as a helper whose last caller has
gone.  A public function or class that __init__.py imports is exported and
so counts as read.  A
method or property of a package class without a base class is dead when
neither the package nor the tests read its name as an attribute outside its
own body; a class with a base may override its base's methods (an argparse
parser's error), which their callers reach by that base's name, so it is
exempt.  The checks match names, not types: a member that shares its name
with an attribute read elsewhere passes.
"""

import ast
import json
import math
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "liewalk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
TESTS = {p.name: p.read_text() for p in sorted(Path(__file__).parent.glob("*.py"))}


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
    """'module: name (line n)' for each module-level function, class and
    ALL-CAPS constant that no other top-level statement of any module reads."""
    defined, reads = {}, {}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            where = (module, stmt.lineno)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.endswith("__"):
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
                 "def orphan():\n    return public()\n\n"
                 "class Report:\n    pass\n\n"
                 "class Wrapper:\n    def get(self):\n        return Wrapper()\n"),
        "b.py": ("from .a import _by_attribute\nimport a\nTOTAL = a._by_attribute() + 1\n"
                 "a.Report()\n"),
    }
    assert dead_code(sources) == ["a.py: UNUSED (line 2)",
                                  "a.py: _helper (line 4)",
                                  "a.py: orphan (line 16)",
                                  "a.py: Wrapper (line 22)",
                                  "b.py: TOTAL (line 3)"]


def test_private_code_is_read():
    assert dead_code(PACKAGE) == []


def dead_members(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """'module: Class.name (line n)' for each method and property of a package
    class without a base class whose name no attribute read of the package or
    of readers, outside the member's own body, takes."""
    reads = {}
    for source in [*package.values(), *readers.values()]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                reads[node.attr] = reads.get(node.attr, 0) + 1
    dead = []
    for module, source in package.items():
        for cls in ast.parse(source).body:
            if not isinstance(cls, ast.ClassDef) or cls.bases or cls.keywords:
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.endswith("__"):
                    own = sum(isinstance(n, ast.Attribute) and n.attr == fn.name
                              for n in ast.walk(fn))
                    if reads.get(fn.name, 0) == own:
                        dead.append(f"{module}: {cls.name}.{fn.name} (line {fn.lineno})")
    return dead


def test_checker_finds_dead_members():
    package = {"a.py": ("class Point:\n"
                        "    def __init__(self):\n        self.x = 1\n"
                        "    def moved(self):\n        return self.moved()\n"
                        "    @property\n    def norm(self):\n        return self.x\n"
                        "    def used(self):\n        return 2\n"
                        "class Parser(Base):\n    def error(self):\n        pass\n")}
    readers = {"test_a.py": "from a import Point\nPoint().used()\n"}
    assert dead_members(package, readers) == ["a.py: Point.moved (line 4)",
                                              "a.py: Point.norm (line 7)"]


def test_package_class_members_are_read():
    assert dead_members(PACKAGE, TESTS) == []


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
