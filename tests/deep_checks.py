"""The deep checks: pinned counts and cross-checks too slow for tier-1.

    PYTHONPATH=src python tests/deep_checks.py

needs the test extras (helpers imports hypothesis).  It lists the loopless
graphs with gamma <= 7, <= 9 edges once and runs every corpus check on that
list, the harness sweeps through the CLI's --json report, and the
self-checks that must survive python -O in a python -O child.  It prints
each count, and each check's wall time on stderr; the first count off its
pin exits 1 with a line naming the check.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import abelmap
from abelmap import CurveGraph, abel, class_group_order, essential_connectivity, harness, is_natural
from abelmap import partitional_multidegrees
from abelmap.abel import _least_shared_degree
from abelmap.harness import _canonical_vectors, _graph_count, run_harness
from abelmap.lattice import piece_totals
from helpers import chorded_doubled_cycle, connected_multigraphs, dhar_reduced, doubled_cycle
from helpers import edge_disjoint_paths_reach as reach
from helpers import listing_least_shared_degree, loop_placements, loopful_orbit_minimum, subdivided

# the children import this abelmap, and helpers from this directory
HERE = [Path(abelmap.__file__).resolve().parents[1], Path(__file__).resolve().parent]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, HERE))}


_since = [time.perf_counter()]  # the end of the last check


def pin(name: str, got, want) -> None:
    # got is computed before the call, so the time since the last pin is its check's
    now = time.perf_counter()
    print(f"{now - _since[0]:6.1f} s  {name}", file=sys.stderr, flush=True)
    _since[0] = now
    print(f"{name}: {got}", flush=True)
    if got != want:
        sys.exit(f"deep check failed: {name}: got {got}, want {want}")


def loop_placement_total(corpus: list, max_edges: int) -> int:
    # the tests' lister: one loop placement per orbit of each loopless graph's
    # automorphisms, the curves with loops that the harness counts by Polya
    return sum(sum(1 for _ in loop_placements(a, max_edges - g.edge_count)) for g, a in corpus)


def bridgeless_listing(corpus: list, max_edges: int) -> tuple:
    # the harness's listing (simple graphs, then node multiplicities up to
    # their automorphisms) against the bridgeless filter of the corpus: the
    # same classes, each once.  A listed graph has no bridge, and its
    # automorphisms, identity first, each fix it and are as many as its class
    # has in the corpus.  A listed graph labeled as in the corpus is of that
    # graph's class; the orbit minimum is taken of the others only, which is
    # faster than taking it of all
    full = {(g.components, g.edges): a for g, a in corpus if not g.bridges}
    listed = [
        (g, a)
        for gamma in range(1, max(g.gamma for g, _ in corpus) + 1)
        for g, a in _canonical_vectors(gamma, max_edges, bridgeless=True)
    ]
    keys = [(g.components, g.edges) for g, _ in listed]
    missed = {loopful_orbit_minimum(CurveGraph(*k)): len(full[k]) for k in full.keys() - set(keys)}
    ok = len(set(keys)) == len(keys)
    for (g, a), key in zip(listed, keys):
        count = len(full[key]) if key in full else missed.pop(loopful_orbit_minimum(g), None)
        fixed = all(sorted(tuple(sorted((p[i], p[j]))) for i, j in g.edges) == sorted(g.edges) for p in a)
        ok &= count == len(a) == len(set(a)) and a[0] == tuple(range(g.gamma)) and fixed
        ok &= not CurveGraph(*key).bridges
    return len(listed), len(full), ok and not missed


def contracted_covering(corpus: list) -> tuple:
    # the harness cross-checks only the bridgeless graphs: the X' of each
    # bridged graph must be isomorphic to one of them, by the brute-force
    # orbit minimum over all relabelings
    bridgeless = {loopful_orbit_minimum(g) for g, _ in corpus if not g.bridges}
    contracted = {loopful_orbit_minimum(g.contracted) for g, _ in corpus if g.bridges}
    return len(bridgeless), len(contracted), contracted <= bridgeless


def menger_disagreements(corpus: list) -> tuple:
    # each bridgeless graph is its own X'; its minimum cut must be the most
    # edge-disjoint paths from component 0 to every other, found by
    # augmenting paths and not by Stoer-Wagner
    bridgeless, wrong = [g for g, _ in corpus if not g.bridges], []
    for g in bridgeless:
        eps = essential_connectivity(g)
        k = g.edge_count + 1 if eps == math.inf else eps
        if not reach(g, k) or (eps < math.inf and reach(g, eps + 1)):
            wrong.append((g.edges, eps))
    return len(bridgeless), wrong


def subdivided_menger_disagreements(graphs: list) -> tuple:
    # each bridgeless graph with its node classes made chains of 1-3 pieces,
    # from a fixed seed: epsilon, found by contracting chains and pendant
    # pieces of X' around a Stoer-Wagner kernel, against Menger paths on X'
    rng, bridgeless, wrong = random.Random(36), [g for g in graphs if not g.bridges and g.gamma > 1], []
    for g in bridgeless:
        x = subdivided(g, rng).contracted
        eps = essential_connectivity(x)
        k = x.edge_count + 1 if eps == math.inf else eps
        if not reach(x, k) or (eps < math.inf and reach(x, eps + 1)):
            wrong.append((g.edges, x.edges, eps))
    return len(bridgeless), wrong


def class_walk_disagreements(corpus: list, max_degree: int) -> tuple:
    # each bridgeless graph is its own X'; the class walk, which reduces each
    # partitional multidegree as it builds it, must find the degree that the
    # listing walk, one class lookup per vector, finds
    bridgeless, wrong = [g for g, _ in corpus if not g.bridges], []
    for g in bridgeless:
        for top in range(1, max_degree + 1):
            want = listing_least_shared_degree(g, top, {})
            if _least_shared_degree(g, top) != want:
                wrong.append((g.edges, top, want))
    return len(bridgeless), wrong


def chip_firing_disagreements(graphs: list, max_degree: int) -> tuple:
    # Dhar's burning names each class of X's partitional multidegrees with no
    # contracted curve and no Hermite form; is_natural, and the harness's one
    # class walk per X', must say natural below the same degree
    checks, natural, wrong = 0, 0, []
    for g in graphs:
        shared = _least_shared_degree(g.contracted, max_degree)
        for d in range(1, max_degree + 1):
            totals: dict = {}
            for p in partitional_multidegrees(g.gamma, d):
                totals.setdefault(dhar_reduced(g, p, 0), set()).add(piece_totals(g, p))
            expected = all(len(t) == 1 for t in totals.values())
            if is_natural(g, d) != expected or (d < shared) != expected:
                wrong.append((g.edges, d, expected))
            checks += 1
            natural += expected
    return checks, natural, wrong


def large_curves() -> tuple:
    # lattice builds at scale, the largest a 599 x 599 Hermite form with its
    # Matrix-Tree check, and one class walk over 20301 partitional multidegrees
    order = class_group_order(doubled_cycle(300))
    chorded = class_group_order(chorded_doubled_cycle(600))
    g = chorded_doubled_cycle(200)
    return (order == 300 * 2**299, chorded == 91200 * 2**598, is_natural(g, 2),
            essential_connectivity(g) > 2)


def harness_report(max_gamma: int, max_edges: int, max_degree: int) -> tuple:
    bounds = ["--max-gamma", max_gamma, "--max-edges", max_edges, "--max-degree", max_degree]
    argv = [sys.executable, "-m", "abelmap", "harness", *map(str, bounds), "--json"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=ENV)
    try:
        r = json.loads(proc.stdout)["outputs"]
    except (ValueError, KeyError):  # no report: the error's last line fails the pin
        return proc.stderr.strip().splitlines()[-1:]
    return r["graphs"], r["checks"], r["ok"]


def optimized_self_checks() -> None:
    # -O strips assert statements; the sweep must still answer, a contracted
    # curve with a cut below 2 must still stop it, and so must a Polya count
    # that leaves a remainder: without the transpositions' cycle type, S_2
    # fixes one edgeless graph, not a multiple of 2!
    pin("running under python -O", sys.flags.optimize > 0, True)
    r = run_harness(5, 7, 3)
    pin("-O harness (5, 7, 3): graphs, checks, ok", (r.graphs, r.checks, r.ok), (1177, 3531, True))
    abel._min_cut = lambda weight: 1
    try:
        run_harness(3, 3, 1)
    except RuntimeError as e:
        print("-O a cut of 1 raises:", e)
    else:
        pin("-O a cut of 1 raises", False, True)
    types = harness._cycle_types
    harness._cycle_types = lambda n: [t for t in types(n) if t != (2,)]
    try:
        _graph_count(3, 4)
    except RuntimeError as e:
        print("-O a count with a remainder raises:", e)
    else:
        pin("-O a count with a remainder raises", False, True)


def optimized_child() -> int:
    code = "import deep_checks; deep_checks.optimized_self_checks()"
    return subprocess.run([sys.executable, "-O", "-c", code], env=ENV).returncode


def main() -> None:
    # the shared partitional listing at d = 4; gamma 7 runs the 5040-relabeling leaf
    for gamma, edges, graphs in [(5, 8, 3300), (6, 8, 5081), (6, 9, 16381), (7, 9, 22479)]:
        name = f"harness ({gamma}, {edges}, 4): graphs, checks, ok"
        pin(name, harness_report(gamma, edges, 4), (graphs, 4 * graphs, True))
    pin("python -O self-checks: exit code", optimized_child(), 0)
    pin("doubled 300-cycle: 300 * 2^299 classes; doubled 600-cycle and a chord: 91200 * 2^598"
        " classes; doubled 200-cycle and a chord: natural at degree 2 by classes, by epsilon",
        large_curves(), (True, True, True, True))

    corpus = list(connected_multigraphs(7, 9))
    pin("loopless graphs (7, 9)", len(corpus), 4208)
    pin("graphs with loops by loop placements (7, 9)", loop_placement_total(corpus, 9), 22479)
    pin("bridgeless listed, filtered, equal", bridgeless_listing(corpus, 9), (818, 818, True))
    pin("bridgeless graphs, classes of X' of bridged graphs, covered",
        contracted_covering(corpus), (818, 260, True))
    pin("bridgeless graphs against Menger paths, disagreements",
        menger_disagreements(corpus), (818, []))
    sub = [g for g, _ in corpus if g.gamma <= 6 and g.edge_count <= 8]
    pin("subdivided bridgeless corpus (gamma <= 6, E <= 8): epsilon against Menger paths, disagreements",
        subdivided_menger_disagreements(sub), (259, []))
    pin("bridgeless graphs, class walk against the listing walk at degrees 1..5, disagreements",
        class_walk_disagreements(corpus, 5), (818, []))
    checks, natural, wrong = chip_firing_disagreements(sub, 3)
    print(f"chip-firing (6, 8, 3): {natural} natural")
    pin("chip-firing (6, 8, 3): graphs, checks, disagreements", (len(sub), checks, wrong),
        (998, 2994, []))

    # 2784 bridgeless graphs cross-checked; all curves, loops included, counted
    pin("harness (8, 10, 3): graphs, checks, ok", harness_report(8, 10, 3), (102016, 306048, True))


if __name__ == "__main__":
    main()
