"""Each module imports what it uses at its top, and no import cycle
decides whether the package loads."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest
from test_enumerator import SHARED_NAMES

import rmfchi

PACKAGE = Path(rmfchi.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = sorted(path.stem for path in SOURCES
                 if path.stem not in ("__init__", "__main__"))


def _tree(name: str) -> ast.Module:
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(), str(path))


@pytest.mark.parametrize("name", MODULES)
def test_every_module_imports_first_in_a_fresh_interpreter(name):
    # The package is a bare namespace here, so its __init__ does not
    # load the modules in an order that hides a cycle.  The oracle once
    # imported the work meter from the fast path, which imported the
    # oracle back at its bottom, so importing the oracle first failed.
    code = f"""
import importlib, sys, types
package = types.ModuleType("rmfchi")
package.__path__ = [{str(PACKAGE)!r}]
sys.modules["rmfchi"] = package
importlib.import_module("rmfchi.{name}")
"""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_module_level_imports_come_before_every_definition():
    # An import below a definition is one the module order depends on.
    # Imports inside a function, such as the pool's multiprocessing,
    # are not at module level and stay allowed.
    late = []
    for path in SOURCES:
        defined = False
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and defined:
                late.append(f"{path.name}:{node.lineno}")
            defined = defined or isinstance(node, (
                ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign))
    assert SOURCES
    assert late == []


def test_the_oracle_imports_only_the_definitions():
    # Its graphs are evidence for the fast census only if it runs none
    # of its code, so nothing of rmfchi.enumerator is in reach.
    imported = set()
    for node in ast.walk(_tree("oracle")):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {name for name in imported if name.startswith(".")} \
        == {".decograph", ".topotype"}
    assert not any(name.split(".")[0] == "rmfchi" for name in imported)


def test_the_fast_path_defines_nothing_the_oracle_shares():
    # What both censuses use lives below both, in rmfchi.decograph.
    defined = {node.name for node in _tree("enumerator").body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined
    assert defined & SHARED_NAMES == set()
