"""Rules that the package source itself must keep."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import abelmap


def test_no_assert_statements():
    # python -O strips assert statements, so a self-check must raise instead
    found = []
    for path in sorted(Path(abelmap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [n for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        found += [f"{path.name}:{n.lineno}" for n in asserts]
    assert found == []


def test_imports_only_the_standard_library():
    # the package has no runtime dependencies, though the tests install some
    found = []
    for path in sorted(Path(abelmap.__file__).parent.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Import):
                names = [alias.name for alias in n.names]
            elif isinstance(n, ast.ImportFrom) and n.level == 0:
                names = [n.module]
            else:
                continue
            found += [
                f"{path.name}:{n.lineno} {name}" for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_every_export_has_a_library_caller():
    # an export that only tests use belongs in tests/helpers.py: every name
    # in __all__ must be read by library code outside __init__.py and
    # outside the name's own top-level definition.  Code that only such an
    # export runs does not count, so a chain of test-only names fails whole.
    reads = []  # (top-level name the statement defines or None, names read)
    for path in sorted(Path(abelmap.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            defined = getattr(stmt, "name", None)
            names.discard(defined)
            reads.append((defined, names))
    unused: set = set()
    while True:  # grows until no read comes from an unused export
        used = set().union(*(names for defined, names in reads if defined not in unused))
        if set(abelmap.__all__) - used == unused:
            break
        unused = set(abelmap.__all__) - used
    assert sorted(unused) == []
