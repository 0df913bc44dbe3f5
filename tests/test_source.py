"""Rules that the package source itself must keep."""

from __future__ import annotations

import ast
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
