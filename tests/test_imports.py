"""Every module of the package uses each name it imports or defines privately.

No linter is required to run the tests, so this is the unused-import check:
a name an import binds must be read somewhere in its module, or be listed
in the module's ``__all__``.  An import statement with ``# noqa: F401`` on
one of its lines is exempt, as are ``__future__`` imports.  It is also the
dead-code check: a module-level ``def _x`` or ``class _X`` must be named
somewhere in its own module, or nothing in the package calls it.  And it
is the dependency check: every absolute import names a module of the
standard library, so the package runs with no third-party package.  And
every name in the package's ``__all__`` must be bound by the package, so
``from treesynth import *`` cannot fail on a name that was deleted.
"""

import ast
import sys
import types
from pathlib import Path

import treesynth

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "treesynth"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(
        imported.items(), key=lambda item: item[1]) if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from math import inf, pi  # noqa: F401\n"
              "from json import dumps\n"
              "__all__ = ['dumps']\n"
              "print(sys.argv)\n")
    assert unused_imports(source) == ["line 2: os"]


def test_package_has_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {path.name: unused_imports(path.read_text())
             for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def dead_private_definitions(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {node.lineno}: {node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in used]


def test_dead_private_definitions_are_found():
    source = ("def _used():\n    return 1\n"
              "def _helper():\n    return 2\n"
              "class _Unused:\n    pass\n"
              "def __getattr__(name):\n    return _used()\n")
    assert dead_private_definitions(source) == ["line 3: _helper",
                                                "line 5: _Unused"]


def test_package_has_no_dead_private_definitions():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {path.name: dead_private_definitions(path.read_text())
             for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def third_party_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_third_party_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "import numpy as np\n"
              "from .aig import Aig\n"
              "from scipy.sparse import csr_matrix\n")
    assert third_party_imports(source) == ["line 3: numpy",
                                           "line 5: scipy.sparse"]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {path.name: third_party_imports(path.read_text())
             for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def unbound_exports(module) -> list[str]:
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_unbound_exports_are_found():
    module = types.ModuleType("fake")
    module.present = 1
    module.__all__ = ["present", "gone"]
    assert unbound_exports(module) == ["gone"]


def test_package_exports_only_bound_names():
    assert treesynth.__all__
    assert unbound_exports(treesynth) == []
