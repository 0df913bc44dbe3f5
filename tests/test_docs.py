"""The examples that the docstrings and the README show are what the code returns."""

from __future__ import annotations

import doctest
import importlib
import json
import pkgutil
import re
import shlex
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


def test_readme_command_line_transcript(tmp_path, monkeypatch, capsys):
    # each "$ abelmap ..." under "Command line" prints what the README shows,
    # on the document of "Graph files" saved as two_delta3.json; "; echo $?"
    # shows the exit code, and a command shown without it exits 0
    text = README.read_text(encoding="utf-8")
    (doc,) = re.findall(r"## Graph files\n.*?```json\n(.*?)```", text, re.S)
    (block,) = re.findall(r"```\n(\$ abelmap .*?)```", text, re.S)
    (tmp_path / "two_delta3.json").write_text(doc, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    entries = re.split(r"^\$ ", block, flags=re.M)[1:]
    assert entries
    for entry in entries:
        command, _, shown = entry.partition("\n")
        lines = shown.rstrip("\n").split("\n")
        code = int(lines.pop()) if command.endswith("; echo $?") else 0
        argv = shlex.split(command.removesuffix("; echo $?"))
        assert argv[0] == "abelmap", command
        assert (cli.main(argv[1:]), capsys.readouterr().out) == (code, "\n".join(lines) + "\n"), command


def test_readme_json_layout(tmp_path, capsys):
    # README: the --json layout is json.dumps(indent=2, sort_keys=True), with
    # non-ASCII escaped and an infinite epsilon as the string "infinity"
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert ("two-space indent, sorted keys, every non-ASCII character escaped as `\\uXXXX`, "
            'and ε = ∞ as the string `"infinity"`') in text
    graph = tmp_path / "tree.json"
    graph.write_text(json.dumps({"components": ["Cé", "C2"], "nodes": [["Cé", "C2"]]}))
    assert cli.main(["epsilon", str(graph), "--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert '"C\\u00e9"' in out and "é" not in out
    assert '"epsilon": "infinity"' in out
