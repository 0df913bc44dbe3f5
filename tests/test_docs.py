"""The examples that the docstrings and the README show are what the code returns."""

from __future__ import annotations

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import abelmap
from abelmap import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_module_doctests():
    attempted = 0
    for info in pkgutil.iter_modules(abelmap.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        result = doctest.testmod(importlib.import_module(f"abelmap.{info.name}"))
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted > 0


def test_readme_library_block():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library\n\n```python\n(.*?)```", text, re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.tries > 0 and runner.failures == 0


def test_readme_command_table_lists_every_command():
    text = README.read_text(encoding="utf-8")
    (table,) = re.findall(r"\| command \| what it does \|\n\| --- \| --- \|\n((?:\|.*\n)+)", text)
    listed = re.findall(r"^\| `([a-z-]+)", table, re.M)
    assert listed == [c.name for c in cli.COMMANDS]
