"""Explicit checks, not ``assert``, enforce the package's invariants."""

from __future__ import annotations

import ast
from pathlib import Path

import rmfchi

SOURCES = sorted(Path(rmfchi.__file__).parent.glob("*.py"))


def test_the_package_has_no_assert_and_reads_no_debug_flag():
    # python -O strips assert statements and sets __debug__ to False, so
    # neither may carry a check.  The -O run of the suite catches only
    # an assert that some test happens to rely on; this reads them all.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Assert)
                    or isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES
    assert found == []
