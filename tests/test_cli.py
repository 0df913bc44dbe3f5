"""CLI: graph documents, reports, subcommands, exit codes."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import abelmap
from abelmap import choose_representatives, cli, multidegree_class
from abelmap.cli import Report, main, parse_graph, serialize_graph
from abelmap.harness import HarnessResult
from helpers import doubled_cycle, path

TWO_DELTA3 = {
    "components": ["C1", "C2"],
    "nodes": [["C1", "C2"], ["C1", "C2"], ["C1", "C2"]],
}
TWO_DELTA1 = {"components": ["C1", "C2"], "nodes": [["C1", "C2"]]}
PATH3 = {
    "components": ["C1", "C2", "C3"],
    "nodes": [["C1", "C2"], ["C2", "C3"]],
}
LOOP_BRIDGE = {
    "components": ["C1", "C2", "C3"],
    "nodes": [["C1", "C1"], ["C1", "C2"], ["C1", "C2"], ["C2", "C3"]],
}

# Per graph: its document and the option values the golden runs use.
GOLDEN_GRAPHS = {
    "two_delta3": (
        TWO_DELTA3,
        {"degree": "2", "t": "3,-3", "d1": "1,0", "d2": "0,1", "divisor": "0,1"},
    ),
    "path3": (
        PATH3,
        {"degree": "2", "t": "0,1,-1", "d1": "1,0,0", "d2": "0,1,0", "divisor": "0,0,1"},
    ),
    "loop_bridge": (
        LOOP_BRIDGE,
        {"degree": "2", "t": "2,-1,-1", "d1": "1,0,0", "d2": "0,1,0", "divisor": "0,1,1"},
    ),
}


def _golden_cases() -> list:
    cases = []
    for name, (_, a) in GOLDEN_GRAPHS.items():
        for cmd, *rest in (
            ["info"],
            ["epsilon"],
            ["natural-abel", "--degree", a["degree"]],
            ["classes", "--degree", a["degree"]],
            ["equiv", "--d1", a["d1"], "--d2", a["d2"]],
            ["canonical-rep", "--t", a["t"]],
            ["s-set", "--t", a["t"]],
            ["s-set", "--divisor", a["divisor"]],
            ["twister-dim", "--t", a["t"]],
            ["sum-of-tails", "--divisor", a["divisor"]],
            ["choose-reps", "--degree", a["degree"]],
            ["is-natural", "--degree", a["degree"]],
            ["is-natural", "--degree", a["degree"], "--reps", "reps.json"],
            ["verify", "--degree", a["degree"]],
        ):
            for mode in ([], ["--json"]):
                cases.append((name, [cmd, "graph.json", *rest, *mode]))
    harness = ["harness", "--max-gamma", "2", "--max-edges", "3", "--max-degree", "2"]
    cases += [(None, harness + ["--jobs", "1"]), (None, harness + ["--json"])]
    cases += [  # error paths: exit 2, message on stderr
        ("two_delta3", ["canonical-rep", "graph.json", "--t", "1,-1"]),
        ("two_delta3", ["twister-dim", "graph.json", "--t", "1,-1", "--json"]),
        ("two_delta3", ["s-set", "graph.json", "--t", "1,-1"]),
        ("loop_bridge", ["canonical-rep", "graph.json", "--t", "1,-1,0", "--json"]),
        ("path3", ["s-set", "graph.json"]),
        ("path3", ["s-set", "graph.json", "--t", "0,0,0", "--divisor", "0,0,0"]),
    ]
    return cases


GOLDEN_CASES = _golden_cases()
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def golden_id(case) -> str:
    graph, argv = case
    return " ".join([graph or "-", *argv])


@pytest.fixture
def graph_file(tmp_path):
    def write(doc, name="graph.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return write


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=golden_id)
def test_cli_golden(case, tmp_path, monkeypatch, capsys):
    """Full stdout, stderr and exit code of every subcommand, both modes.

    cli_golden.json was recorded before the CLI became table-driven.
    """
    graph, argv = case
    monkeypatch.chdir(tmp_path)
    if graph is not None:
        doc, a = GOLDEN_GRAPHS[graph]
        (tmp_path / "graph.json").write_text(json.dumps(doc))
        degree = int(a["degree"])
        table = choose_representatives(parse_graph(json.dumps(doc)), degree)
        reps = {"degree": degree, "reps": [list(r) for r in table.values()]}
        (tmp_path / "reps.json").write_text(json.dumps(reps))
    code = main(argv)
    out = capsys.readouterr()
    assert [code, out.out, out.err] == GOLDEN[golden_id(case)]


def test_parse_serialize_round_trip():
    g = parse_graph(json.dumps(TWO_DELTA3))
    assert g.gamma == 2
    assert g.edges == ((0, 1), (0, 1), (0, 1))
    assert serialize_graph(g) == TWO_DELTA3
    loop = {"components": ["A"], "nodes": [["A", "A"]]}
    h = parse_graph(json.dumps(loop))
    assert h.edges == ((0, 0),)
    assert serialize_graph(h) == loop


def test_parse_graph_errors(graph_file, capsys):
    with pytest.raises(ValueError):
        parse_graph(json.dumps({"components": ["A", "A"], "nodes": []}))
    with pytest.raises(ValueError):
        parse_graph(json.dumps({"components": ["A"], "nodes": [["A", "B"]]}))
    with pytest.raises(ValueError):
        parse_graph(json.dumps({"components": ["A"], "nodes": [["A"]]}))
    with pytest.raises(ValueError):
        parse_graph(json.dumps([1, 2]))
    for doc, message in [
        ({"components": ["A", "B"]}, '"nodes" must be a list'),
        ({"components": ["A", "B"], "nodes": 5}, '"nodes" must be a list'),
        ({"components": ["A", "B"], "nodes": [[["A"], "B"]]}, "pair of labels"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_graph(json.dumps(doc))
        assert main(["info", graph_file(doc)]) == 2
        assert message in _one_line_error(capsys)


def test_report_json_round_trip():
    rep = Report(
        command="epsilon",
        inputs={"graph": TWO_DELTA1},
        outputs={"epsilon": math.inf, "nested": [[1, 2], (3, 4)]},
    )
    assert json.loads(rep.to_json()) == {
        "command": "epsilon",
        "inputs": {"graph": TWO_DELTA1},
        "outputs": {"epsilon": "infinity", "nested": [[1, 2], [3, 4]]},
    }


def test_info_command(graph_file, capsys):
    code = main(["info", graph_file(TWO_DELTA3), "--json"])
    assert code == 0
    out = _json_out(capsys)
    assert out["outputs"]["gamma"] == 2
    assert out["outputs"]["class_group_order"] == 3
    assert out["outputs"]["separating_nodes"] == []


def test_epsilon_finite_and_infinite(graph_file, capsys):
    assert main(["epsilon", graph_file(TWO_DELTA3), "--json"]) == 0
    assert _json_out(capsys)["outputs"]["epsilon"] == 3
    assert main(["epsilon", graph_file(TWO_DELTA1), "--json"]) == 0
    assert _json_out(capsys)["outputs"]["epsilon"] == "infinity"
    assert main(["epsilon", graph_file(TWO_DELTA1)]) == 0
    assert capsys.readouterr().out.strip() == "epsilon: infinity"


def test_natural_abel_exit_codes(graph_file, capsys):
    f = graph_file(TWO_DELTA3)
    assert main(["natural-abel", f, "--degree", "2"]) == 0
    capsys.readouterr()
    assert main(["natural-abel", f, "--degree", "3"]) == 1
    capsys.readouterr()


def test_classes_command(graph_file, capsys):
    assert main(["classes", graph_file(TWO_DELTA3), "--degree", "1", "--json"]) == 0
    out = _json_out(capsys)
    assert out["outputs"]["count"] == 3
    assert out["outputs"]["classes"] == [[1, 0], [2, -1], [3, -2]]


def test_equiv_command(graph_file, capsys):
    f = graph_file(TWO_DELTA1)
    assert main(["equiv", f, "--d1", "1,0", "--d2", "0,1"]) == 0
    capsys.readouterr()
    f3 = graph_file(TWO_DELTA3, "g3.json")
    assert main(["equiv", f3, "--d1", "1,0", "--d2", "0,1"]) == 1
    capsys.readouterr()
    assert main(["equiv", f3, "--d1", "1,0,0", "--d2", "0,1,0"]) == 2
    assert "length" in capsys.readouterr().err


def test_canonical_rep_command(graph_file, capsys):
    f = graph_file(TWO_DELTA3)
    assert main(["canonical-rep", f, "--t", "3,-3", "--json"]) == 0
    out = _json_out(capsys)
    assert out["outputs"]["divisor"] == [0, 1]
    assert out["outputs"]["levels"] == [[0, ["C1"]], [1, ["C2"]]]
    assert out["outputs"]["degenerate"] is False
    assert main(["canonical-rep", f, "--t", "0,0", "--json"]) == 0
    assert _json_out(capsys)["outputs"]["degenerate"] is True


def test_canonical_rep_negative_first_entry(graph_file, capsys):
    # argparse reads "--t -3,3" as two flags; the "=" form passes the vector
    assert main(["canonical-rep", graph_file(TWO_DELTA3), "--t=-3,3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "t: (-3, 3)"


def test_huge_degree_is_refused(graph_file, capsys):
    f = graph_file({"components": ["C1", "C2", "C3", "C4", "C5"],
                    "nodes": [[f"C{i}", f"C{i % 5 + 1}"] for i in range(1, 6)]})
    for command in ("verify", "choose-reps", "is-natural"):
        assert main([command, f, "--degree", "999"]) == 2
        assert str(math.comb(999 + 4, 4)) in _one_line_error(capsys)


def test_huge_class_count_is_refused(graph_file, tmp_path, capsys):
    # the doubled 24-cycle has 24 * 2**23 degree classes in every degree
    labels = [f"C{i}" for i in range(24)]
    nodes = [[labels[i], labels[(i + 1) % 24]] for i in range(24)] * 2
    f = graph_file({"components": labels, "nodes": nodes})
    reps = tmp_path / "reps.json"
    reps.write_text(json.dumps({"degree": 1, "reps": [[1] + [0] * 23]}))
    for extra in (["classes"], ["choose-reps"], ["is-natural", "--reps", str(reps)]):
        assert main([extra[0], f, "--degree", "1", *extra[1:]]) == 2
        assert str(24 * 2**23) in _one_line_error(capsys)


def test_natural_abel_at_scale_finishes(graph_file):
    # ε by a scan over cuts or bridges by removing each node in turn would
    # run into the timeout here instead of hanging the suite
    src = str(Path(abelmap.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    for g, eps in ((doubled_cycle(200), "4"), (path(2000), "infinity")):
        f = graph_file(serialize_graph(g))
        proc = subprocess.run(
            [sys.executable, "-m", "abelmap", "natural-abel", f, "--degree", "3"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert f"epsilon: {eps}\n" in proc.stdout


def test_canonical_rep_domain_error_shows_basis(graph_file, capsys):
    f = graph_file(TWO_DELTA3)
    assert main(["canonical-rep", f, "--t", "1,-1"]) == 2
    err = capsys.readouterr().err
    assert "not a twister multidegree" in err
    assert "basis" in err


def test_s_set_command(graph_file, capsys):
    f = graph_file(PATH3)
    assert main(["s-set", f, "--t", "0,1,-1", "--json"]) == 0
    out = _json_out(capsys)
    assert out["outputs"]["crossing_nodes"] == [1]
    assert out["outputs"]["nodes"] == [[1, "C2", "C3"]]
    assert main(["s-set", f, "--divisor", "0,0,1", "--json"]) == 0
    assert _json_out(capsys)["outputs"]["crossing_nodes"] == [1]
    assert main(["s-set", f]) == 2
    capsys.readouterr()
    assert main(["s-set", f, "--t", "0,0,0", "--divisor", "0,0,0"]) == 2
    capsys.readouterr()


def test_twister_dim_command(graph_file, capsys):
    f = graph_file(TWO_DELTA3)
    assert main(["twister-dim", f, "--t", "3,-3", "--json"]) == 0
    assert _json_out(capsys)["outputs"]["dim"] == 2
    assert main(["twister-dim", f, "--t", "2,-2"]) == 2
    capsys.readouterr()


def test_sum_of_tails_command(graph_file, capsys):
    f = graph_file(PATH3)
    assert main(["sum-of-tails", f, "--divisor", "0,1,1"]) == 0
    capsys.readouterr()
    f2 = graph_file({"components": ["C1", "C2"], "nodes": [["C1", "C2"]] * 2}, "g2.json")
    assert main(["sum-of-tails", f2, "--divisor", "0,1"]) == 1
    capsys.readouterr()


def test_choose_reps_feeds_is_natural(graph_file, capsys, tmp_path):
    f = graph_file(TWO_DELTA3)
    assert main(["choose-reps", f, "--degree", "1", "--json"]) == 0
    reps_payload = _json_out(capsys)
    reps_file = tmp_path / "reps.json"
    reps_file.write_text(json.dumps(reps_payload))
    assert reps_payload["outputs"]["reps"] == [[1, 0], [2, -1], [0, 1]]
    assert main(["is-natural", f, "--degree", "1", "--reps", str(reps_file)]) == 0
    out = capsys.readouterr().out
    assert "natural: true" in out
    # default chooser path
    assert main(["is-natural", f, "--degree", "1"]) == 0
    capsys.readouterr()


def test_is_natural_keys_each_representative_once(graph_file, capsys, tmp_path, monkeypatch):
    # one class lookup per representative and one per partitional multidegree
    f = graph_file(TWO_DELTA3)
    assert main(["choose-reps", f, "--degree", "1", "--json"]) == 0
    reps_file = tmp_path / "reps.json"
    reps_file.write_text(capsys.readouterr().out)
    calls = []

    def counted(g, d):
        calls.append(d)
        return multidegree_class(g, d)

    monkeypatch.setattr(abelmap.abel, "multidegree_class", counted)
    monkeypatch.setattr(abelmap.lattice, "multidegree_class", counted)
    assert main(["is-natural", f, "--degree", "1", "--reps", str(reps_file)]) == 0
    assert "natural: true" in capsys.readouterr().out
    assert len(calls) == 5, sorted(calls)
    assert sorted(calls) == [(0, 1), (0, 1), (1, 0), (1, 0), (2, -1)]


def test_is_natural_rejects_bad_reps_file(graph_file, capsys, tmp_path):
    f = graph_file(TWO_DELTA3)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"degree": 1, "reps": [[1, 0]]}))  # missing classes
    assert main(["is-natural", f, "--degree", "1", "--reps", str(bad)]) == 2
    assert "classes" in capsys.readouterr().err
    f2 = graph_file({"components": ["C1", "C2"], "nodes": [["C1", "C2"]] * 2}, "g2.json")
    for payload, message in [
        ([1, 2], '"reps" list'),
        ({"degree": 1, "reps": [[1, 0], 5]}, "representative 5 must be a list"),
        ({"degree": 1, "reps": [[True, 0], [0, 1]]}, "must be a list of integers"),
        ({"degree": 1, "reps": [[1, 0], [0, 1], [-1, 2]]}, "(1, 0) and (-1, 2)"),
        ({"degree": 1, "reps": [[1, 0, 0], [0, 1]]}, "has length 3, expected 2"),
        ({"degree": True, "reps": [[1, 0], [0, 1]]}, '"degree" True must be an integer'),
        ({"degree": 1.0, "reps": [[1, 0], [0, 1]]}, '"degree" 1.0 must be an integer'),
    ]:
        bad.write_text(json.dumps(payload))
        assert main(["is-natural", f2, "--degree", "1", "--reps", str(bad)]) == 2
        assert message in _one_line_error(capsys)


def test_verify_command(graph_file, capsys):
    f = graph_file({"components": ["C1", "C2"], "nodes": [["C1", "C2"]] * 2})
    assert main(["verify", f, "--degree", "2", "--json"]) == 0
    out = _json_out(capsys)
    assert out["outputs"]["pairwise_certified"] is False
    assert out["outputs"]["epsilon_criterion"] is False
    assert out["outputs"]["agree"] is True


def test_harness_command(capsys):
    code = main(
        ["harness", "--max-gamma", "2", "--max-edges", "3", "--max-degree", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "graphs verified" in out
    assert main(
        [
            "harness",
            "--max-gamma",
            "2",
            "--max-edges",
            "2",
            "--max-degree",
            "1",
            "--json",
        ]
    ) == 0
    payload = _json_out(capsys)
    assert payload["outputs"]["ok"] is True
    assert payload["outputs"]["failures"] == []
    small = ["harness", "--max-gamma", "1", "--max-edges", "1", "--max-degree", "1"]
    assert main(small + ["--jobs", "0"]) == 2
    assert "jobs must be >= 1" in _one_line_error(capsys)


def test_harness_refuses_gamma_ten(monkeypatch, capsys):
    def guarded(gamma, slots):
        raise AssertionError(f"built the table of gamma = {gamma}")

    monkeypatch.setattr(abelmap.harness, "_perm_getters", guarded)
    argv = ["harness", "--max-gamma", "10", "--max-edges", "9", "--max-degree", "1"]
    assert main(argv) == 2
    assert "3628800 relabelings" in _one_line_error(capsys)


def test_harness_refuses_an_over_limit_degree_before_the_sweep(monkeypatch, capsys):
    # degree 100000 has binomial(100002, 2) partitional multidegrees at gamma 3
    def guarded(g, d):
        raise AssertionError(f"checked {g} at degree {d}")

    monkeypatch.setattr(abelmap.harness, "cross_check_naturality", guarded)
    argv = ["harness", "--max-gamma", "3", "--max-edges", "3", "--max-degree", "100000"]
    assert main(argv) == 2
    err = _one_line_error(capsys)
    assert f"degree 100000 has {math.comb(100002, 2)} partitional" in err


def test_refusals_compute_and_print_no_huge_integer(graph_file, capsys):
    # 1000000! and binomial(102999, 2999) have thousands of digits
    f = graph_file(serialize_graph(path(3000)))
    harness = ["harness", "--max-gamma", "1000000", "--max-edges", "1000000"]
    for argv, named in (
        ([*harness, "--max-degree", "1"], "gamma 1000000 has more than"),
        (["verify", f, "--degree", "100000"], "degree 100000 has more than"),
    ):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        err = _one_line_error(capsys)
        assert named in err and err.endswith(", over 1000000\n"), err


def test_harness_failures_report(monkeypatch, capsys):
    failing = HarnessResult(
        graphs=4, checks=8, failures=((("C1", "C2"), ((0, 1), (0, 1)), 2),)
    )
    monkeypatch.setattr(cli, "run_harness", lambda *args: failing)
    argv = ["harness", "--max-gamma", "2", "--max-edges", "2", "--max-degree", "2"]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "1 failing instances:\n"
        "  components=['C1', 'C2'] edges=[(0, 1), (0, 1)] degree=2\n"
    )
    assert main(argv + ["--json"]) == 1
    assert _json_out(capsys)["outputs"] == {
        "graphs": 4,
        "checks": 8,
        "failures": [{"components": ["C1", "C2"], "edges": [[0, 1], [0, 1]], "degree": 2}],
        "ok": False,
    }


def test_disconnected_graph_is_an_error(graph_file, capsys):
    doc = {"components": ["A", "B"], "nodes": []}
    assert main(["info", graph_file(doc)]) == 2
    assert "not connected" in capsys.readouterr().err


def test_missing_file_is_an_error(capsys):
    assert main(["info", "/nonexistent/graph.json"]) == 2
    capsys.readouterr()


# ----- fuzzing: malformed input never crashes -------------------------------

LABELS = [f"C{i + 1}" for i in range(5)]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([*LABELS, "x", ""]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["components", "nodes", "degree", "reps", "outputs"]),
                      inner, max_size=3),
    max_leaves=12,
)


@st.composite
def graph_documents(draw):
    """(text, gamma): a connected graph document with gamma <= 5, often broken."""
    gamma = draw(st.integers(1, 5))
    labels = LABELS[:gamma]
    label = st.sampled_from(labels)
    nodes = [[draw(st.sampled_from(labels[:i])), labels[i]] for i in range(1, gamma)]
    nodes += draw(st.lists(st.lists(label, min_size=2, max_size=2), max_size=3))
    doc = {"components": labels, "nodes": nodes}
    kind = draw(st.sampled_from(["valid"] * 3 + ["labels", "node", "drop", "json", "text"]))
    if kind == "labels":
        doc["components"] = draw(st.lists(st.sampled_from([*labels, "C9"]), max_size=gamma))
    elif kind == "node":
        nodes.insert(draw(st.integers(0, len(nodes))), draw(JSON_VALUES))
    elif kind == "drop" and nodes:
        nodes.pop(draw(st.integers(0, len(nodes) - 1)))
    elif kind == "json":
        return json.dumps(draw(JSON_VALUES)), gamma
    elif kind == "text":
        return draw(st.text(max_size=12)), gamma
    return json.dumps(doc), gamma


def vectors(gamma):
    return (
        st.lists(st.integers(-3, 3), min_size=gamma, max_size=gamma)
        | st.lists(st.integers(-3, 3), max_size=6)
    ).map(lambda v: ",".join(map(str, v))) | st.text("0123456789-, x", max_size=8)


# |degree| <= 3: the partitional multidegrees grow as degree^(gamma - 1)
INTS = st.integers(-3, 3).map(str) | st.sampled_from(["", "x", "1.5", "2,", "- 1"])
REPS_FILES = st.none() | JSON_VALUES.map(json.dumps) | st.text(max_size=12) | st.builds(
    lambda d, reps: json.dumps({"degree": d, "reps": reps}),
    st.integers(-3, 3),
    st.lists(st.lists(st.integers(-3, 3), max_size=6), max_size=6),
)
GRAPH_COMMANDS = [c for c in cli.COMMANDS if c.needs_graph]
DEEP = "[" * 100000  # json.loads raises RecursionError on it


@st.composite
def cli_calls(draw):
    """(command, graph text, options, --json): a reps option carries the
    file's text, None for a missing file."""
    cmd = draw(st.sampled_from(GRAPH_COMMANDS))
    graph_text, gamma = draw(graph_documents())
    options = []
    for opt in cmd.options:
        if not (opt.required or draw(st.booleans())):
            continue
        strategy = {cli.INT: INTS, cli.VECTOR: vectors(gamma), cli.PATH: REPS_FILES}
        options.append((opt.flag, draw(strategy[opt.kind])))
    return cmd.name, graph_text, options, draw(st.booleans())


@settings(deadline=None, max_examples=300)
@given(cli_calls())
@example(("info", DEEP, [], False))
@example(("is-natural", json.dumps(TWO_DELTA3), [("--degree", "1"), ("--reps", DEEP)], False))
def test_cli_fuzz_exit_codes(call):
    """Exit code 0, 1 or 2 on any input, and no exception escapes main (so
    no traceback); our exit 2 prints one error line."""
    name, graph_text, options, as_json = call
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp, "graph.json")
        graph.write_text(graph_text, encoding="utf-8")
        argv = [name, str(graph), *(["--json"] if as_json else [])]
        for flag, value in options:
            if flag == "--reps":
                path = Path(tmp, "reps.json")
                if value is not None:
                    path.write_text(value, encoding="utf-8")
                value = path
            argv.append(f"{flag}={value}")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                assert exc.code == 2
                return
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()
