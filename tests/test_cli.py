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
from abelmap import CurveGraph, choose_representatives, cli, harness, multidegree_class
from abelmap.cli import Report, main, parse_graph, serialize_graph
from abelmap.harness import HarnessResult, run_harness
from helpers import argparse_cli_parser, cycle, doubled_cycle, json_report_oracle, path

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
    cases += [(None, harness), (None, harness + ["--json"])]
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

    cli_golden.json was recorded before the CLI became table-driven, and
    before reports skipped json.dumps: no case may run json's pure-Python
    encoder, and each --json report is the text json.dumps(indent=2,
    sort_keys=True) writes for it.
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
    with monkeypatch.context() as m:
        m.setattr(json.encoder, "_make_iterencode", _refuse_pure_python_encoder)
        code = main(argv)
    out = capsys.readouterr()
    assert [code, out.out, out.err] == GOLDEN[golden_id(case)]
    if "--json" in argv and out.out:
        assert out.out == json.dumps(json.loads(out.out), indent=2, sort_keys=True) + "\n"


def _refuse_pure_python_encoder(*args):
    raise AssertionError("a report ran json.dumps with an indent")


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


JSON_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ['"', "\\", "\x00\n\x1f\x7f", "\ud800", "\udfff\ud83d", "é", "\u2028", "\U0001f600"]
)
JSON_VALUES = st.recursive(
    JSON_TEXT | st.integers() | st.sampled_from([10**40, -(10**40), -1]) | st.booleans()
    | st.none() | st.floats(),  # floats: finite, ±inf and NaN
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(JSON_TEXT, kids),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(JSON_TEXT, st.dictionaries(JSON_TEXT, JSON_VALUES), st.dictionaries(JSON_TEXT, JSON_VALUES))
@example("epsilon", {"graph": {"components": ["Cé"], "nodes": []}},
         {"epsilon": -math.inf, "t": (), "m": {}, "x": [math.nan, 0.5, None, True, -(2**70)]})
def test_report_json_is_json_dumps_byte_for_byte(command, inputs, outputs):
    report = Report(command, inputs, outputs)
    assert report.to_json() == json_report_oracle(report)


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
    # a separate value may start with "-" only as a negative integer, so
    # "--t -3,3" is two flags; the "=" form passes the vector
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


def test_canonical_rep_domain_error_shows_the_residue(graph_file, capsys):
    f = graph_file(TWO_DELTA3)
    assert main(["canonical-rep", f, "--t", "1,-1"]) == 2
    err = capsys.readouterr().err
    assert "not a twister multidegree" in err
    assert "reduce to (1, -1), not 0" in err


def test_not_a_twister_on_one_component_names_the_zero_lattice(graph_file, capsys):
    # the lattice is zero, so the residue is the total itself
    f = graph_file({"components": ["A"], "nodes": [["A", "A"]]})
    assert main(["canonical-rep", f, "--t", "1"]) == 2
    assert _one_line_error(capsys) == (
        "error: (1,) is not a twister multidegree (piece totals (1,) reduce to (1,), not 0)\n"
    )


def _loaded_by_importing_the_cli(names: tuple) -> str:
    # those of names in sys.modules after `import abelmap.cli` in a fresh interpreter
    src = str(Path(abelmap.__file__).parent.parent)
    script = f"import sys, abelmap.cli; print(sorted(m for m in {names!r} if m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_starts_no_process_pool():
    # the harness is serial, so start-up loads no pool
    assert _loaded_by_importing_the_cli(("concurrent.futures", "multiprocessing")) == "[]\n"


def test_importing_the_cli_loads_no_dataclasses():
    # records are named tuples: dataclasses would load inspect, ast and dis
    # at every start-up, for no answer
    assert _loaded_by_importing_the_cli(("dataclasses", "inspect", "ast", "dis")) == "[]\n"


def test_importing_the_cli_loads_no_argparse():
    # argv is read from the command table: argparse (and the gettext and
    # locale it imports) would cost every start-up more than most answers
    assert _loaded_by_importing_the_cli(("argparse", "gettext", "locale")) == "[]\n"


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
    # one class lookup per representative, and none per partitional multidegree
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
    assert sorted(calls) == [(0, 1), (1, 0), (2, -1)]


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


def test_verify_and_harness_make_no_pair_test(graph_file, capsys, monkeypatch):
    # no pairwise equivalent, and no class lookup: the walk reduces each
    # partitional multidegree as it builds it
    def guarded(g, d1, d2):
        raise AssertionError(f"tested the pair {d1}, {d2}")

    calls = []

    def counted(g, d):
        calls.append(d)
        return multidegree_class(g, d)

    monkeypatch.setattr(abelmap.abel, "equivalent", guarded)
    monkeypatch.setattr(abelmap.abel, "multidegree_class", counted)
    k6 = CurveGraph([f"C{i}" for i in range(6)],
                    [(i, j) for i in range(6) for j in range(i + 1, 6) for _ in range(2)])
    assert main(["verify", graph_file(serialize_graph(k6)), "--degree", "7", "--json"]) == 0
    assert _json_out(capsys)["outputs"]["pairwise_certified"] is True
    assert run_harness(4, 5, 3).ok
    assert calls == []


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
    with pytest.raises(SystemExit) as exc:  # the harness has no --jobs option
        main(small + ["--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


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
    # 1000000! and binomial(102999, 2999) have thousands of digits; the
    # 3000-cycle has 3000 pieces
    f = graph_file(serialize_graph(cycle(3000)))
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
    # the 3000-path is one piece: one partitional multidegree, answered
    f = graph_file(serialize_graph(path(3000)), "path.json")
    start = time.perf_counter()
    assert main(["verify", f, "--degree", "100000", "--json"]) == 0
    assert time.perf_counter() - start < 1
    assert _json_out(capsys)["outputs"]["agree"] is True


def test_harness_refuses_a_huge_edge_bound(capsys):
    # the count's tables have max_edges + 1 entries, and gamma 2 alone has
    # max_edges graphs: refused before either is built
    argv = ["harness", "--max-gamma", "3", "--max-edges", "99999999999", "--max-degree", "1"]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert _one_line_error(capsys) == "error: max_edges must be <= 1000000\n"


def test_bridge_heavy_curves_answer_fast(graph_file, capsys):
    # a 2000-component path whose last component lies on a doubled triangle:
    # 3 pieces, the doubled triangle is X', epsilon 4, 12 spanning trees
    edges = [(i, i + 1) for i in range(1999)]
    edges += [(1999, 2000), (2000, 2001), (1999, 2001)] * 2
    g = CurveGraph([f"C{i + 1}" for i in range(2002)], edges)
    f = graph_file(serialize_graph(g))
    p = graph_file(serialize_graph(path(2000)), "path.json")

    def vector(entries):  # {component index: entry}, 0 elsewhere
        return ",".join(str(entries.get(i, 0)) for i in range(2002))

    # t is the multidegree of 1 on C1..C1000 and on C2002: it crosses the
    # separating node 999 and the four nodes 2000, 2001, 2003, 2004 at C2002
    t = vector({999: -1, 1000: 1, 1999: 2, 2000: 2, 2001: -4})
    divisor = [1] * 1000 + [0] * 1001 + [1]
    outputs = {}
    for argv, key, value in (
        (["info", f], "class_group_order", 12),
        (["verify", f, "--degree", "1"], "agree", True),
        (["verify", f, "--degree", "4"], "pairwise_certified", False),
        (["is-natural", f, "--degree", "3"], "natural", True),
        (["classes", f, "--degree", "1"], "count", 12),
        (["equiv", f, "--d1", vector({0: 1}), "--d2", vector({1999: 1})], "equivalent", True),
        (["canonical-rep", f, "--t", t], "divisor", divisor),
        (["twister-dim", f, "--t", t], "dim", 3),
        (["s-set", f, "--t", t], "crossing_nodes", [999, 2000, 2001, 2003, 2004]),
        (["choose-reps", f, "--degree", "1"], "degree", 1),
        (["classes", p, "--degree", "3"], "classes", [[3] + [0] * 1999]),
    ):
        start = time.perf_counter()
        assert main([*argv, "--json"]) == 0
        assert time.perf_counter() - start < 2, argv
        out = _json_out(capsys)["outputs"]
        assert out[key] == value and out.get("agree", True), (argv, out)
        outputs[argv[0], argv[1]] = out
    # epsilon 4 > 1: three classes have a partitional member, the lex-smallest
    # being one point on the last component of a piece
    reps = outputs["choose-reps", f]
    assert reps["classes"] == outputs["classes", f]["classes"]
    partitional = sorted(r for r in reps["reps"] if min(r) >= 0)
    assert partitional == [[int(i == k) for i in range(2002)] for k in (2001, 2000, 1999)]
    # a "no" echoes t and names pi(t) and its residue on X', 3 entries each
    not_twister = vector({0: 1, 2001: -1})
    for cmd in ("canonical-rep", "twister-dim", "s-set"):
        start = time.perf_counter()
        assert main([cmd, f, "--t", not_twister]) == 2
        assert time.perf_counter() - start < 2, cmd
        err = _one_line_error(capsys)
        assert len(err.encode()) < 64 * 1024, (cmd, len(err))
        assert err.endswith(" (piece totals (1, 0, -1) reduce to (1, 0, -1), not 0)\n"), err


def test_harness_failures_report(monkeypatch, capsys):
    failing = HarnessResult(
        graphs=4, checks=8, failures=((("C1", "C2"), ((0, 1), (0, 1)), 2, True),)
    )
    monkeypatch.setattr(cli, "run_harness", lambda *args: failing)
    argv = ["harness", "--max-gamma", "2", "--max-edges", "2", "--max-degree", "2"]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "1 failing instances:\n"
        "  components=['C1', 'C2'] edges=[(0, 1), (0, 1)] degree=2"
        " natural_by_classes=True natural_by_epsilon=False\n"
    )
    assert main(argv + ["--json"]) == 1
    assert _json_out(capsys)["outputs"] == {
        "graphs": 4,
        "checks": 8,
        "failures": [{"components": ["C1", "C2"], "edges": [[0, 1], [0, 1]], "degree": 2,
                      "natural_by_classes": True}],
        "ok": False,
    }


def test_harness_failure_says_which_route_said_yes(monkeypatch, capsys):
    # a failing degree records is_natural, the class route; the criterion
    # said the opposite.  Every graph fails at degree 2 here, so both
    # verdicts show: two parallel nodes have no natural map, one component
    # has.  A failure names a bridgeless graph: one component, a double
    # node.  One node joining two components separates them, and its X' is
    # one component, so it is counted but not reported.
    check = harness.cross_check_naturality

    def fail_at_two(x, max_degree):  # the real check at every other degree
        return [(2, abelmap.is_natural(x, 2))] + [f for f in check(x, max_degree) if f[0] != 2]

    monkeypatch.setattr(harness, "cross_check_naturality", fail_at_two)
    argv = ["harness", "--max-gamma", "2", "--max-edges", "2", "--max-degree", "2"]
    assert main(argv + ["--json"]) == 1
    out = _json_out(capsys)["outputs"]
    assert (out["graphs"], out["checks"], out["ok"]) == (6, 12, False)
    verdicts = {
        tuple(map(tuple, f["edges"])): f["natural_by_classes"]
        for f in out["failures"] if f["degree"] == 2
    }
    assert verdicts == {(): True, ((0, 1), (0, 1)): False}
    assert len(out["failures"]) == 2
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2 failing instances:"
    assert (
        "  components=['C1', 'C2'] edges=[(0, 1), (0, 1)] degree=2"
        " natural_by_classes=False natural_by_epsilon=True"
    ) in lines
    assert sum("natural_by_classes=True natural_by_epsilon=False" in x for x in lines) == 1


def test_disconnected_graph_is_an_error(graph_file, capsys):
    doc = {"components": ["A", "B"], "nodes": []}
    assert main(["info", graph_file(doc)]) == 2
    assert "not connected" in capsys.readouterr().err


def test_missing_file_is_an_error(capsys):
    assert main(["info", "/nonexistent/graph.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag, argv", [
    ("--degree", ["natural-abel", "{graph}", "--degree=--"]),
    ("--t", ["canonical-rep", "{graph}", "--t=--"]),
    ("--reps", ["is-natural", "{graph}", "--degree=1", "--reps=--"]),
    ("--max-gamma", ["harness", "--max-gamma=--", "--max-edges=2", "--max-degree=1"]),
])
def test_double_dash_as_an_option_value_is_an_error(flag, argv, graph_file, capsys):
    graph = graph_file(TWO_DELTA3)
    assert main([a.format(graph=graph) for a in argv]) == 2
    assert _one_line_error(capsys) == f"error: {flag} needs a value\n"


# ----- argv: help, errors, and argparse as the oracle ------------------------


def _exit_code(argv: list) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_help_lists_every_command_and_option(capsys):
    assert _exit_code([]) == 2
    assert capsys.readouterr().err.splitlines() == [cli._usage(None), "abelmap: error: no command given"]
    for flag in ("-h", "--help", "--he"):
        assert _exit_code([flag]) == 0
        rows = [line.split(None, 1) for line in capsys.readouterr().out.splitlines() if line[:2] == "  "]
        assert rows == [[c.name, c.help] for c in cli.COMMANDS]
    for cmd in cli.COMMANDS:
        assert _exit_code([cmd.name, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: abelmap {cmd.name} [-h] [--json]")
        named = [line.split()[0] for line in out.splitlines() if line[:2] == "  "]
        assert named == ["graph"] * cmd.needs_graph + ["--json", *(o.flag for o in cmd.options)]
    assert _exit_code(["is-natural", "-h"]) == 0  # help comes before the missing graph
    assert cli.REPS.help in capsys.readouterr().out


ARGV_ERRORS = [
    (["frob"], "abelmap: error: unknown command 'frob'"),
    (["epsilon", "{graph}", "--frob"], "abelmap epsilon: error: unrecognized arguments: --frob"),
    (["natural-abel", "{graph}"],
     "abelmap natural-abel: error: the following arguments are required: --degree"),
    (["epsilon", "--json"], "abelmap epsilon: error: the following arguments are required: graph"),
    (["epsilon", "{graph}", "{graph}"], "abelmap epsilon: error: unrecognized arguments: {graph}"),
    (["natural-abel", "{graph}", "--degree"],
     "abelmap natural-abel: error: argument --degree: expected one argument"),
    (["natural-abel", "{graph}", "--degree", "x"],
     "abelmap natural-abel: error: argument --degree: invalid int value: 'x'"),
    (["equiv", "{graph}", "--d", "1,0", "--d2=0,1"],
     "abelmap equiv: error: ambiguous option: --d could match --d1, --d2"),
    (["harness", "{graph}", "--max-gamma", "1", "--max-edges", "1", "--max-degree", "1"],
     "abelmap harness: error: unrecognized arguments: {graph}"),
]


@pytest.mark.parametrize("argv, error", ARGV_ERRORS)
def test_argv_errors_print_usage_and_exit_2(argv, error, graph_file, capsys):
    graph = graph_file(TWO_DELTA3)
    assert _exit_code([a.format(graph=graph) for a in argv]) == 2
    usage, line = capsys.readouterr().err.splitlines()
    assert usage == cli._usage(next((c for c in cli.COMMANDS if c.name == argv[0]), None))
    assert line == error.format(graph=graph)


ORACLE = argparse_cli_parser()
ARGS = ["g.json", "1", "-3", "x", "1,0", "0,-1", "-3,3", "-3, 3", "-", ""]


@st.composite
def argvs(draw):
    """argv for a command of the table (or an unknown one): its own flags
    exact or abbreviated, foreign flags, values joined by "=", separate or
    missing, and positionals, in any order; mostly beside a complete call."""
    cmd = draw(st.sampled_from(cli.COMMANDS))
    flags = ["--json", *(o.flag for o in cmd.options)]
    spellings = [f[:k] for f in flags for k in range(3, len(f) + 1)] + ["--jobs", "--d", "--x"]
    forms = {"=": lambda f, v: [f"{f}={v}"], " ": lambda f, v: [f, v], "": lambda f, v: [f]}
    option = st.builds(lambda form, f, v: forms[form](f, v), st.sampled_from(sorted(forms)),
                       st.sampled_from(spellings), st.sampled_from(ARGS))
    chunks = draw(st.lists(option | st.builds(lambda a: [a], st.sampled_from(ARGS)), max_size=2))
    if draw(st.integers(0, 3)):
        chunks += [["g.json"]] * cmd.needs_graph + [[o.flag, "1"] for o in cmd.options if o.required]
    name = draw(st.sampled_from([cmd.name] * 5 + ["frob"]))
    return [name, *(token for chunk in draw(st.permutations(chunks)) for token in chunk)]


def _argparse_reading(argv: list):
    try:
        with redirect_stderr(io.StringIO()):
            ns = ORACLE.parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return None
    values = {o.flag: getattr(ns, o.flag[2:].replace("-", "_")) for o in ns.command.options}
    return ns.command.name, getattr(ns, "graph", None), ns.json, values


def _table_reading(argv: list):
    err = io.StringIO()
    try:
        with redirect_stderr(err):
            cmd, graph, as_json, values = cli._parse(argv)
    except SystemExit as exc:
        assert exc.code == 2
        usage, line = err.getvalue().splitlines()
        assert usage.startswith("usage: abelmap") and line.startswith("abelmap") and ": error: " in line
        return None
    return cmd.name, graph, as_json, values


@settings(deadline=None, max_examples=500)
@given(argvs())
@example(["natural-abel", "g.json", "--deg", "3"])  # a unique prefix
@example(["canonical-rep", "g.json", "--t", "-3,3"])  # a dash-led vector is another flag
@example(["natural-abel", "g.json", "--json"])  # a required option left out
def test_argv_is_read_as_argparse_reads_it(argv):
    """The table-driven parser rejects argv (exit 2) exactly when argparse,
    built from the same table, does, and otherwise reads the same command,
    graph, --json and option values."""
    assert _table_reading(argv) == _argparse_reading(argv)


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
@example(("canonical-rep", '{"components": ["C1"], "nodes": []}', [("--t", "--")], False))
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
            except SystemExit as exc:  # the argv parser rejected the arguments
                assert exc.code == 2
                return
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()
