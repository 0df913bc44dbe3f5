"""Tests of the benchmark itself: answer checks, seeds, tracing, refusal.

    python3 -m pytest abelbench/test_abelbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from abelmap import abel, cli, harness, lattice, levels  # noqa: E402
from abelmap.graph import CurveGraph  # noqa: E402

SMALL = workloads.Workload(
    name="small",
    why="two cheap calls",
    calls=(
        workloads.Call(("epsilon", "@c4", "--json"), 0, {"epsilon": 4}),
        workloads.Call(("natural-abel", "@c4", "--degree", "3", "--json"), 0,
                       {"natural_abel_map_exists": True}),
    ),
    checks=2,
    graphs={"c4": (4, workloads.doubled_cycle(4))},
)


def _measure(workload, seed=1, trace=False):
    rundir = run.write_inputs(workload, seed)
    try:
        return run.measure(workload, rundir, 0, trace)
    finally:
        shutil.rmtree(rundir)


def test_one_wrong_expected_value_is_one_failed_call():
    first, second = SMALL.calls
    wrong = replace(SMALL, calls=(replace(first, outputs={"epsilon": 5}), second))
    m = _measure(wrong)
    assert m["attempted"] == 2
    assert len(m["failures"]) == 1 and "epsilon = 4, expected 5" in m["failures"][0]
    assert len(m["plain"]) == 1  # the sample's timing is kept; the run went on


def test_wrong_exit_code_and_traceback_are_failures():
    call = SMALL.calls[0]
    assert workloads.check_call(call, 0, json.dumps({"outputs": {"epsilon": 4}})) == ""
    assert "exit code 2" in workloads.check_call(call, 2, "")
    assert workloads.check_call(call, 0, "", error="Traceback ...") == "Traceback ..."
    assert "unreadable" in workloads.check_call(call, 0, "not json")


def test_correct_small_workload_traced():
    m = _measure(SMALL, trace=True)
    assert m["failures"] == [] and len(m["traced"]) == 1
    layers = m["traced"][0]["layers"]
    assert layers["abel.eps_calls"] == 3  # natural-abel computes it twice
    assert layers["lattice.builds"] == 0 and layers["harness.graphs"] == 0


def test_documents_follow_the_seed():
    w = workloads.WORKLOADS["large-eps"]
    assert w.documents(7) == w.documents(7)
    assert w.documents(7) != w.documents(8)
    for seed in (7, 8):
        g = cli.parse_graph(w.documents(seed)["pendant17"])
        assert g.gamma == 17 and len(g.bridges) == 5


def test_verdicts_identical_for_two_seeds():
    def verdicts(name, seed):
        w = workloads.WORKLOADS[name]
        m = _measure(w, seed)
        assert m["failures"] == []
        return [json.loads(c["stdout"])["outputs"] for c in m["plain"][0]["calls"]]

    for name in ("large-eps", "class-walk"):
        assert verdicts(name, 1) == verdicts(name, 2)


def _pair_count_graph():
    return CurveGraph(["A", "B", "C"], [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2)])


def test_tracer_sees_calls_bound_by_name_and_restores():
    originals = (abel.equivalent, lattice.equivalent, levels.twister_divisor,
                 harness.cross_check_naturality, cli.run_harness, CurveGraph.__init__)
    cache = lattice._lattice
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert abel.equivalent is lattice.equivalent is not originals[0]
        assert levels.twister_divisor is lattice.twister_divisor
        assert cli.run_harness is harness.run_harness is not originals[4]
        g = _pair_count_graph()
        assert abel.partitional_pairs_certified(g, 2)
        m = spans.layer_metrics(tracer, cache)
    finally:
        tracer.uninstall()
    restored = (abel.equivalent, lattice.equivalent, levels.twister_divisor,
                harness.cross_check_naturality, cli.run_harness, CurveGraph.__init__)
    assert restored == originals
    assert m["abel.pairs_tested"] == comb(comb(2 + 2, 2), 2)
    assert m["graph.curvegraphs_built"] == 1
    for name, count, incl, self_s, _, _ in (
        (k[0], *v) for k, v in tracer.stats.items()
    ):
        assert count > 0 and 0 <= self_s <= incl + 1e-9, name


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(200000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    t = tracer.totals()
    assert t["inner"][spans.COUNT] == 2
    assert abs(t["outer"][spans.INCL] - t["outer"][spans.SELF] - t["inner"][spans.INCL]) < 1e-9
    assert t["outer"][spans.SELF] < t["inner"][spans.INCL]


def test_generator_spans_count_yields():
    tracer = spans.Tracer()
    gen = tracer.wrap_generator("gen", lambda: iter(range(5)))
    assert list(gen()) == list(range(5))
    assert tracer.totals()["gen"][spans.ITEMS] == 5


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "abelbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "abelbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: u for k, (u, _) in run.END_TO_END.items()
    }
    layer_names = {*spans.SPAN_METRICS, *spans.OTHER_METRICS, *run.BENCH_METRICS}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: run.layer_unit(k) for k in layer_names
    }
