"""Acceptance gate: one test per criterion, one printed line each.

Runs under plain pytest; the [acceptance] lines temporarily lift output
capture so they appear without needing -s.
"""

from __future__ import annotations

import json
import math
import time
from itertools import product

from abelmap import (
    choose_representatives,
    class_group_order,
    crossing_nodes_of_multidegree,
    enumerate_classes,
    equivalent,
    essential_connectivity,
    is_sum_of_tails,
    is_sum_of_tails_multidegree,
    has_natural_abel_map,
    multidegree_class,
    multidegree_of,
    normalize_divisor,
    partitional_multidegrees,
    twister_divisor,
    twister_space_dim,
)
from abelmap.cli import main
from abelmap.harness import connected_multigraphs
from helpers import (
    check_level_degree_bounds,
    multigraphs_with_loops,
    tail_sum_oracle_table,
    two_component,
)


def _run(n: int, desc: str, capsys, body) -> None:
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] criterion {n:2d}: FAIL - {desc}", flush=True)
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {n:2d}: PASS - {desc}", flush=True)


def _graph_doc(tmp_path, delta: int) -> str:
    doc = {"components": ["C1", "C2"], "nodes": [["C1", "C2"]] * delta}
    p = tmp_path / f"two_delta{delta}.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_criterion_01_epsilon_two_components(tmp_path, capsys):
    def body():
        for delta in range(1, 6):
            assert main(["epsilon", _graph_doc(tmp_path, delta), "--json"]) == 0
            got = json.loads(capsys.readouterr().out)["outputs"]["epsilon"]
            expected = "infinity" if delta == 1 else delta
            assert got == expected, (delta, got)

    _run(1, "epsilon is infinity for delta=1 and delta for delta>=2", capsys, body)


def test_criterion_02_natural_abel_threshold(tmp_path, capsys):
    def body():
        for delta in (2, 3, 4):
            f = _graph_doc(tmp_path, delta)
            for d in range(1, 7):
                code = main(["natural-abel", f, "--degree", str(d)])
                capsys.readouterr()
                assert code == (0 if d < delta else 1), (delta, d, code)

    _run(2, "natural-abel true exactly for d < delta (delta in 2..4)", capsys, body)


def test_criterion_03_class_group_consistency(capsys):
    def body():
        t0 = time.monotonic()
        graphs = 0
        for g in connected_multigraphs(5, 8):
            # raises if the Hermite pivot product and Matrix-Tree differ
            order = class_group_order(g)
            for d in range(-2, 6):
                assert len(enumerate_classes(g, d)) == order, (g, d)
            graphs += 1
        elapsed = time.monotonic() - t0
        assert graphs > 400
        assert elapsed < 10.0, f"took {elapsed:.1f}s"

    _run(3, "Hermite pivot product = spanning trees = class count, gamma<=5, <=8 edges, <10s",
         capsys, body)


def test_criterion_04_single_node_curve(tmp_path, capsys):
    def body():
        g = two_component(1)
        assert class_group_order(g) == 1
        assert len(enumerate_classes(g, 1)) == 1
        assert equivalent(g, (1, 0), (0, 1))
        f = _graph_doc(tmp_path, 1)
        assert main(["equiv", f, "--d1", "1,0", "--d2", "0,1"]) == 0
        capsys.readouterr()

    _run(4, "delta=1, d=1: one class and (1,0) ~ (0,1)", capsys, body)


def test_criterion_05_exhaustive_harness(capsys):
    def body():
        t0 = time.monotonic()
        code = main(
            [
                "harness",
                "--max-gamma",
                "4",
                "--max-edges",
                "6",
                "--max-degree",
                "3",
                "--json",
            ]
        )
        elapsed = time.monotonic() - t0
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["outputs"]["ok"] is True
        assert payload["outputs"]["failures"] == []
        assert payload["outputs"]["graphs"] > 200
        assert elapsed < 300.0, f"took {elapsed:.1f}s"

    _run(5, "harness gamma<=4 edges<=6 degree<=3: zero failures, <5min", capsys, body)


def test_criterion_06_canonical_level_suite(capsys):
    def body():
        for g in connected_multigraphs(4, 5):
            seen = set()
            for dv in product(range(-3, 4), repeat=g.gamma):
                t = multidegree_of(g, dv)
                if not any(t) or t in seen:
                    continue
                seen.add(t)
                canonical = twister_divisor(g, t)
                # (a) base level 0 on a nonempty Z_0; level m is the set of
                # components with coefficient m, so the levels are disjoint
                # and cover the curve
                assert min(canonical) == 0
                # (b) the expression reassembles to multidegree t, and it is
                # the normalized preimage
                assert multidegree_of(g, canonical) == t
                assert canonical == normalize_divisor(dv)
                # (c) degree lower bounds, strict for Y = Z_0
                assert check_level_degree_bounds(g, t)

    _run(6, "canonical level expressions satisfy (a)-(c) and reassemble", capsys, body)


def test_criterion_07_sum_of_tails_oracle(capsys):
    def body():
        for g in multigraphs_with_loops(4, 5):
            table = tail_sum_oracle_table(g, 2)
            for dv in product(range(-2, 3), repeat=g.gamma):
                fast = is_sum_of_tails(g, dv)
                brute = normalize_divisor(dv) in table
                assert fast == brute, (g, dv)

    _run(7, "is_sum_of_tails agrees with the existential search oracle", capsys, body)


def test_criterion_08_twister_dim_chain(capsys):
    def body():
        for g in multigraphs_with_loops(4, 5):
            bridges = g.bridges
            seen = set()
            for dv in product(range(-2, 3), repeat=g.gamma):
                t = multidegree_of(g, dv)
                if t in seen:
                    continue
                seen.add(t)
                dim0 = twister_space_dim(g, t) == 0
                in_subgroup = is_sum_of_tails_multidegree(g, t)
                crossing_ok = crossing_nodes_of_multidegree(g, t) <= bridges
                assert dim0 == in_subgroup == crossing_ok, (g, t)

    _run(8, "dim 0 <=> sum-of-tails multidegree <=> crossings separating", capsys, body)


def test_criterion_09_compact_type_and_uniqueness(capsys):
    def body():
        trees = [
            g
            for g in connected_multigraphs(5, 4)
            if g.edge_count == g.gamma - 1
        ]
        assert len(trees) > 5
        for g in trees:
            assert math.isinf(essential_connectivity(g))
            assert len(g.bridges) == g.gamma - 1
            for d in range(1, 11):
                assert has_natural_abel_map(g, d)
        # without separating nodes the only sum-of-tails multidegree is 0, so
        # a natural map must send each partitional multidegree to itself:
        # no two of them may share a class
        unique = 0
        for g in multigraphs_with_loops(4, 5):
            if g.bridges:
                continue
            for d in range(1, 4):
                if has_natural_abel_map(g, d):
                    parts = partitional_multidegrees(g.gamma, d)
                    classes = {multidegree_class(g, p) for p in parts}
                    assert len(classes) == len(parts), (g, d)
                    unique += 1
        assert unique > 10

    _run(9, "trees natural for d<=10; bridge-free natural maps are unique", capsys, body)


def test_criterion_10_high_degree_partitional_reps(capsys):
    def body():
        for delta in (2, 3):
            g = two_component(delta)
            assert class_group_order(g) == delta
            for d in (delta, delta + 1):
                # the chooser picks a partitional rep whenever a class has one
                table = choose_representatives(g, d)
                assert len(table) == delta
                for cls, rep in table.items():
                    assert sum(rep) == d and min(rep) >= 0, (delta, d, cls)

    _run(10, "two components, d >= delta: every class has a partitional rep", capsys, body)
