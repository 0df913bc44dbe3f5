"""The package export list: every name resolves and none is missing."""

from __future__ import annotations

import ast
from pathlib import Path

import abelmap


def _public_names_bound_in_init() -> set:
    tree = ast.parse(Path(abelmap.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return {n for n in names if not n.startswith("_")}


def test_all_matches_public_bindings():
    exported = abelmap.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(abelmap, n)] == []
    assert set(exported) == _public_names_bound_in_init()
