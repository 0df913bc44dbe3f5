"""Essential connectivity, partitional classes, naturality decisions."""

from __future__ import annotations

import heapq
import math
import random
import tracemalloc
from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from abelmap import (
    CurveGraph,
    abel,
    InvalidChooserError,
    choose_representatives,
    class_group_order,
    cross_check_naturality,
    enumerate_classes,
    equivalent,
    essential_connectivity,
    has_natural_abel_map,
    is_natural,
    is_sum_of_tails_multidegree,
    multidegree_class,
    partitional_multidegrees,
)
from abelmap.abel import partitional_pairs_certified
from abelmap.graph import _components
from abelmap.lattice import _lattice
from abelmap.levels import piece_totals
from helpers import (
    bridges_by_removal,
    classes_are_distinct,
    connected_graphs,
    connected_multigraphs,
    cut_edges,
    cycle,
    dhar_reduced,
    doubled_cycle,
    edge_disjoint_paths_reach,
    epsilon_by_piece_scan,
    epsilon_over_connected_subcurves,
    is_natural_by_piece_totals,
    listing_least_shared_degree,
    multigraphs_with_loops,
    pairing_matrix,
    path,
    star,
    subdivided,
    triangle_with_pendant,
    two_component,
)


def _epsilon_no_bridge_in_cut(g):
    # variant form: inf over subcurves whose cut avoids separating nodes
    best = math.inf
    bridges = g.bridges
    for mask in range(1, (1 << g.gamma) - 1):
        zs = frozenset(i for i in range(g.gamma) if mask >> i & 1)
        cut = cut_edges(g, zs)
        if cut & bridges:
            continue
        best = min(best, len(cut))
    return best


def test_epsilon_two_components():
    assert essential_connectivity(two_component(1)) == math.inf
    for delta in range(2, 6):
        assert essential_connectivity(two_component(delta)) == delta


def test_epsilon_examples():
    assert essential_connectivity(CurveGraph(["C1"], [(0, 0)])) == math.inf
    assert essential_connectivity(path(4)) == math.inf  # compact type
    assert essential_connectivity(cycle(3)) == 2
    assert essential_connectivity(cycle(4)) == 2
    assert essential_connectivity(triangle_with_pendant()) == 2


def test_epsilon_three_forms_agree():
    for g in multigraphs_with_loops(5, 6):
        full = essential_connectivity(g)
        conn = epsilon_over_connected_subcurves(g)
        no_bridge = _epsilon_no_bridge_in_cut(g)
        scan = epsilon_by_piece_scan(g)
        assert full == conn == no_bridge == scan


@settings(deadline=None)
@given(connected_graphs())
def test_epsilon_matches_connected_subcurve_oracle(g):
    assert essential_connectivity(g) == epsilon_over_connected_subcurves(g)


def test_epsilon_and_bridges_match_oracles_exhaustive():
    for g in multigraphs_with_loops(5, 8):
        assert essential_connectivity(g) == epsilon_by_piece_scan(g)
        assert g.bridges == bridges_by_removal(g)


@settings(deadline=None)
@given(connected_graphs(max_gamma=14))
def test_epsilon_matches_piece_scan_oracle(g):
    assert essential_connectivity(g) == epsilon_by_piece_scan(g)


def _curve(gamma: int, weights: dict) -> CurveGraph:
    # weights: (a, b) -> the number of nodes joining components a and b
    return CurveGraph([f"C{i}" for i in range(gamma)], [e for e, w in weights.items() for _ in range(w)])


def _twin_rings(n: int) -> CurveGraph:
    # two doubled n-cycles joined by three nodes: cutting those is cheapest
    ring = [(i, (i + 1) % n) for i in range(n)] * 2
    joins = [(0, n), (3 * n // 10, 3 * n // 2), (6 * n // 10, 17 * n // 10)]
    return CurveGraph([f"C{i}" for i in range(2 * n)], ring + [(a + n, b + n) for a, b in ring] + joins)


def _eps_and_pushes(monkeypatch, g) -> tuple:
    # essential_connectivity(g) and the heap pushes of its Stoer-Wagner phases
    pushes = []

    def heappush(heap, item):
        pushes.append(item)
        heapq.heappush(heap, item)

    with monkeypatch.context() as m:
        m.setattr(abel, "heapq", SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
        return essential_connectivity(g), len(pushes)


def test_epsilon_at_scale(monkeypatch):
    assert essential_connectivity(doubled_cycle(200)) == 4
    assert essential_connectivity(_twin_rings(100)) == 3
    # every piece meets two others, so the chains are contracted and no
    # phase is left to run: Stoer-Wagner alone pushes 2,000,998 times here
    g = doubled_cycle(2000)
    assert _eps_and_pushes(monkeypatch, g) == (4, 0)
    assert essential_connectivity(CurveGraph(g.components, g.edges[:-1])) == 3  # one link a single node
    assert essential_connectivity(_twin_rings(1000)) == 3
    # a path: every node separating, one piece, found without deep recursion
    g = path(2000)
    assert len(g.bridges) == 1999
    assert essential_connectivity(g) == math.inf


def test_epsilon_contraction_rule_on_hand_cases(monkeypatch):
    # a piece v is merged into its heaviest neighbour a when 2 w(v, a) >=
    # delta(v), and the cut {v} is kept; Menger paths confirm each epsilon
    k4 = dict.fromkeys(combinations(range(4), 2), 2)
    cases = [
        # a chain 0-2-3-4-1 closing onto 1, which already meets 0 in one node:
        # the last merges add a chain link to that node's weight, and the cut
        # is that node and one link
        (_curve(5, {(0, 1): 1, (0, 2): 2, (2, 3): 2, (3, 4): 2, (1, 4): 2}), 3, True),
        # 0 and 1 meet in 4 nodes, and each meets 2 and 3 once: weights (4, 1, 1)
        # fire, then the rest is chains
        (_curve(4, {(0, 1): 4, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1}), 3, True),
        # K4 with one perfect matching single and the other nodes doubled: every
        # piece has weights (2, 2, 1), so nothing fires and a phase runs
        (_curve(4, {(0, 1): 2, (0, 2): 2, (0, 3): 1, (1, 2): 1, (1, 3): 2, (2, 3): 2}), 5, False),
        # 4 meets 0 and 1 three times each, on a doubled K4: (3, 3) fires at
        # exactly half, and then every piece in turn
        (_curve(5, {**k4, (0, 4): 3, (1, 4): 3}), 6, True),
    ]
    # v = 4 meets a = 0 twice, b = 5 twice and c = 6 once, between two doubled
    # K4: weights (2, 2, 1), short of half.  The cheapest cut, 3, parts v from
    # a, so merging v into a heavy neighbour loses it on one of the labelings
    right = {(a + 5, b + 5): w for (a, b), w in k4.items()}
    for a, b, c in [(0, 5, 6), (5, 0, 1)]:
        cases.append((_curve(9, {**k4, **right, (a, 4): 2, (b, 4): 2, (c, 4): 1, (3, 8): 1}), 3, False))
    for g, want, contracted in cases:
        eps, pushes = _eps_and_pushes(monkeypatch, g)
        assert eps == want and _menger_count_is(g, want), g
        assert (pushes == 0) == contracted, g


def test_epsilon_scans_pieces_not_components():
    # a 60-component path whose last component lies on a doubled triangle:
    # 62 components but 3 pieces once the 59 separating nodes are contracted,
    # so 3 cuts to scan where a scan over components would face 2^61
    path_edges = [(i, i + 1) for i in range(59)]
    triangle = [(59, 60), (60, 61), (59, 61)] * 2
    g = CurveGraph([f"C{i}" for i in range(62)], path_edges + triangle)
    assert len(g.bridges) == 59
    assert essential_connectivity(g) == 4


def _menger_count_is(x, eps):
    # eps edge-disjoint paths from component 0 to every other, and not eps + 1
    return edge_disjoint_paths_reach(x, eps) and not edge_disjoint_paths_reach(x, eps + 1)


def test_epsilon_is_the_menger_path_count_exhaustive():
    # every bridgeless graph is its own X'; the lone component has no other
    # component to reach, so it reaches any count and its epsilon is inf
    checked = 0
    for g, _ in connected_multigraphs(6, 9):
        if g.bridges:
            continue
        eps = essential_connectivity(g)
        if g.gamma == 1:
            assert eps == math.inf and edge_disjoint_paths_reach(g, g.edge_count + 1)
        else:
            assert _menger_count_is(g, eps), g
        checked += 1
    assert checked == 731


def test_epsilon_is_the_menger_path_count_on_subdivided_graphs():
    # each bridgeless graph with its node classes made chains of 1-3 pieces:
    # chains to contract around kernels of three or more pieces, and single
    # links that separate, so X' is taken first
    rng, checked = random.Random(36), 0
    for g, _ in connected_multigraphs(4, 6):
        if g.bridges or g.gamma == 1:
            continue
        x = subdivided(g, rng).contracted
        eps = essential_connectivity(x)
        assert (eps == math.inf) if x.gamma == 1 else _menger_count_is(x, eps), x
        checked += 1
    assert checked == 31


@pytest.mark.parametrize("n", [3, 10, 100, 300])
def test_epsilon_is_the_menger_path_count_on_doubled_cycles(n):
    g = doubled_cycle(n)
    assert essential_connectivity(g) == 4 and _menger_count_is(g, 4)


def test_epsilon_is_the_menger_path_count_on_doubled_complete_graphs():
    # isolating one component cuts its 2(n - 1) nodes, and no cut is smaller
    for n in range(2, 11):
        pairs = list(combinations(range(n), 2))
        g = CurveGraph([f"C{i + 1}" for i in range(n)], pairs * 2)
        eps = essential_connectivity(g)
        assert eps == 2 * (n - 1) and _menger_count_is(g, eps), n


def test_epsilon_is_the_menger_path_count_of_the_contracted_curve():
    # a doubled 6-cycle with a 4-component chain hanging from C3: X' is the
    # doubled 6-cycle, so epsilon is 4, while on X itself a chain node cuts
    ring = [(i, (i + 1) % 6) for i in range(6)] * 2
    chain = [(2, 6), (6, 7), (7, 8), (8, 9)]
    g = CurveGraph([f"C{i + 1}" for i in range(10)], ring + chain)
    x = g.contracted
    assert (x.gamma, essential_connectivity(g)) == (6, 4) and _menger_count_is(x, 4)
    assert _menger_count_is(g, 1)


def test_has_natural_abel_map():
    g = two_component(3)
    assert has_natural_abel_map(g, 1)
    assert has_natural_abel_map(g, 2)
    assert not has_natural_abel_map(g, 3)
    assert not has_natural_abel_map(g, 4)
    with pytest.raises(ValueError):
        has_natural_abel_map(g, 0)


def test_has_natural_monotone_in_degree():
    for g in multigraphs_with_loops(4, 5):
        for d in range(1, 4):
            if has_natural_abel_map(g, d + 1):
                assert has_natural_abel_map(g, d)


def test_partitional_multidegrees():
    assert partitional_multidegrees(2, 1) == [(0, 1), (1, 0)]
    assert partitional_multidegrees(3, 0) == [(0, 0, 0)]
    assert partitional_multidegrees(1, 4) == [(4,)]
    assert partitional_multidegrees(2, -1) == []
    got = partitional_multidegrees(3, 2)
    assert got == sorted(got)
    assert len(got) == math.comb(2 + 3 - 1, 3 - 1)
    assert all(sum(p) == 2 and min(p) >= 0 for p in got)


def test_partitional_multidegrees_refuses_huge_counts():
    assert math.comb(67 + 4, 4) <= 10**6 < math.comb(68 + 4, 4)
    with pytest.raises(ValueError, match=str(math.comb(68 + 4, 4))):
        partitional_multidegrees(5, 68)


def test_partitional_multidegrees_match_sorted_product_filter():
    for gamma in range(1, 6):
        for d in range(5):
            box = product(range(d + 1), repeat=gamma)
            expected = sorted(v for v in box if sum(v) == d)
            assert partitional_multidegrees(gamma, d) == expected, (gamma, d)


def test_partitional_multidegrees_many_components():
    # one vector per component: no recursion as deep as gamma
    got = partitional_multidegrees(1100, 1)
    assert len(got) == 1100
    assert got == sorted(got)
    assert got[0] == (0,) * 1099 + (1,) and got[-1] == (1,) + (0,) * 1099


def test_partitional_listing_cache_is_safe():
    # every call gets a fresh list, and a refused listing raises every time
    got = partitional_multidegrees(3, 2)
    expected = list(got)
    got.append((9, 9, 9))
    got[0] = None
    assert partitional_multidegrees(3, 2) == expected
    for _ in range(2):
        with pytest.raises(ValueError, match=str(math.comb(68 + 4, 4))):
            partitional_multidegrees(5, 68)


def _partitional_reps(g, d) -> dict:
    # class -> its chosen representative, when that one is partitional
    table = choose_representatives(g, d)
    return {cls: rep for cls, rep in table.items() if min(rep) >= 0}


def test_chooser_partitional_reps_two_components():
    # three classes at delta = 3, d = 1; the classes of (1,0) and (0,1)
    # are distinct, so two classes carry a partitional rep and one does not
    g = two_component(3)
    found = _partitional_reps(g, 1)
    assert sorted(found.values()) == [(0, 1), (1, 0)]
    assert len(enumerate_classes(g, 1)) - len(found) == 1
    assert multidegree_class(g, (1, 0)) != multidegree_class(g, (0, 1))


def test_chooser_partitional_rep_is_lex_smallest():
    g = two_component(1)
    (cls,) = enumerate_classes(g, 2)
    # (0,2), (1,1), (2,0) are all equivalent here; lex-smallest wins
    assert _partitional_reps(g, 2) == {cls: (0, 2)}


def test_choose_representatives():
    g = two_component(3)
    table = choose_representatives(g, 1)
    # the class of (2, -1) has no partitional member: it represents itself
    assert table == {(1, 0): (1, 0), (2, -1): (2, -1), (3, -2): (0, 1)}
    assert list(table.values()) == [(1, 0), (2, -1), (0, 1)]
    assert list(table) == enumerate_classes(g, 1)
    assert all(multidegree_class(g, rep) == cls for cls, rep in table.items())
    assert table == choose_representatives(g, 1)  # deterministic


def test_is_natural_rejects_a_bad_choice():
    g = two_component(3)  # classes of (1, 0), (2, -1), (0, 1) at d = 1
    for reps, error, message in [
        ([(1, 0), (2, -1)], InvalidChooserError, "has 2 classes, the curve has 3"),
        ([(1, 0), (4, -3), (0, 1)], InvalidChooserError, "share a class"),
        ([(1, 0), (2, -1), (1, 1)], InvalidChooserError, "has total 2 != 1"),
        ([(1, 0), (2, -1), (0, 1, 0)], ValueError, "has length 3, expected 2"),
    ]:
        with pytest.raises(error, match=message):
            is_natural(g, 1, reps)


def test_is_natural_matches_pairwise_condition():
    # the O(P^2) pair loop is the oracle for the class-grouped pass
    for g in multigraphs_with_loops(4, 6):
        disagreements = []
        for d in range(1, 4):
            pairwise = partitional_pairs_certified(g, d)
            assert is_natural(g, d) == pairwise
            if pairwise != has_natural_abel_map(g, d):
                disagreements.append((d, pairwise))
        assert cross_check_naturality(g, 3) == disagreements


def test_the_reversed_walk_finds_every_degree_the_set_test_finds():
    # one walk of the top listing answers every lower degree: the degrees
    # below its answer are those at which the set of classes has no repeat
    contracted = {}
    for g, _ in connected_multigraphs(6, 9):
        contracted.setdefault(pairing_matrix(g.contracted), g.contracted)
    assert len(contracted) == 1376
    for x in contracted.values():
        distinct = [d for d in range(1, 6) if classes_are_distinct(x, d)]
        for top in range(1, 6):
            shared = abel._least_shared_degree(x, top)
            below = [d for d in range(1, top + 1) if d < shared]
            assert below == [d for d in distinct if d <= top], (x.edges, top)


def test_the_class_walk_equals_the_listing_walk():
    # the walk reduces each vector as it builds it; the oracle lists the
    # vectors and looks each one's class up
    curves, contracted = [g for g, _ in connected_multigraphs(5, 8)], {}
    for g in curves:
        contracted.setdefault(pairing_matrix(g.contracted), g.contracted)
    assert len(contracted) == 304
    for x in contracted.values():
        for top in range(1, 6):
            want = listing_least_shared_degree(x, top, {})
            assert abel._least_shared_degree(x, top) == want, (x.edges, top)
    k6 = CurveGraph([f"C{i}" for i in range(6)],
                    [(i, j) for i in range(6) for j in range(i + 1, 6) for _ in range(2)])
    for x, top, want in [(doubled_cycle(40), 3, 4), (k6, 7, 8), (path(3).contracted, 4, 5)]:
        assert listing_least_shared_degree(x, top, {}) == want
        assert abel._least_shared_degree(x, top) == want
    # chosen representatives, counted by is_natural, against the listing
    # oracle with its table pre-filled from their piece totals: the chosen
    # and the canonical representatives, on every curve, one piece
    # (compact type) included
    answers = set()
    for g in [*curves, path(3), two_component(3)]:
        x = g.contracted
        for d in range(1, 4):
            for reps in (choose_representatives(g, d).values(), enumerate_classes(g, d)):
                totals = [piece_totals(g, r) for r in reps]
                listing = {multidegree_class(x, t): t for t in totals}
                want = listing_least_shared_degree(x, d, listing) > d
                assert is_natural(g, d, reps) == want, (g.edges, d)
                answers.add(want)
    assert answers == {True, False}


def test_the_class_walk_keeps_nothing_sized_by_a_pivot():
    # K4 with six distinct multiplicities: its last pivot is the whole
    # class count but one factor 2, and the walk's arcs stay a few entries
    mult = [101, 103, 107, 109, 113, 127]
    slots = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    g = CurveGraph([f"C{i}" for i in range(4)],
                   [s for s, m in zip(slots, mult) for _ in range(m)])
    assert [val for val, _, _ in _lattice(g)] == [1, 2, 10602938]
    assert cross_check_naturality(g, 4) == []
    for top in range(1, 5):
        tracemalloc.start()
        shared = abel._least_shared_degree(g, top)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert shared == listing_least_shared_degree(g, top, {}) == top + 1
        assert peak < 2**20, (top, peak)


def test_a_sum_of_tails_moves_no_representative():
    # a representative plus a sum of tails keeps its class and its piece
    # totals, so the verdict stays, even with entries below 0 on X itself
    g = triangle_with_pendant()
    tail = (5, 0, 0, -5)  # C1 and C4, the ends of the bridge, lie on one piece
    assert piece_totals(g, tail) == (0, 0, 0)
    for d in range(1, 4):
        reps = list(choose_representatives(g, d).values())
        moved = [tuple(x + t for x, t in zip(r, tail)) for r in reps]
        assert all(piece_totals(g, m) == piece_totals(g, r) for m, r in zip(moved, reps))
        assert any(min(m) < 0 for m in moved)
        assert is_natural(g, d, moved) == is_natural(g, d) == (essential_connectivity(g) > d)


def test_is_natural_with_reps_matches_the_definition():
    # is_natural keys each class by its representative's piece totals; the
    # definition subtracts the representative and tests for a sum of tails.
    # Three choices: the default, the canonical multidegrees, and each
    # class's last partitional member (the canonical one when it has none).
    seen = set()
    for g in multigraphs_with_loops(4, 6):
        for d in range(1, 4):
            parts = partitional_multidegrees(g.gamma, d)
            canonical = {c: c for c in enumerate_classes(g, d)}
            last = dict(canonical)
            for p in parts:
                last[multidegree_class(g, p)] = p
            for reps in (choose_representatives(g, d), canonical, last):
                definition = all(
                    is_sum_of_tails_multidegree(
                        g, [x - y for x, y in zip(p, reps[multidegree_class(g, p)])]
                    )
                    for p in parts
                )
                assert is_natural(g, d, reps.values()) == definition, (g, d, reps)
                seen.add(definition)
    assert seen == {True, False}


def test_the_contracted_curve_answers_for_the_curve():
    # X' = g.contracted is connected and bridgeless with one component per
    # piece; pi = piece_totals keeps the total; the class count, epsilon and
    # the brute-force verdict read off X' match those of X itself
    for g in multigraphs_with_loops(5, 8):
        x = g.contracted
        assert len(set(_components(x.gamma, x.edges))) == 1 and not x.bridges
        assert x.gamma == len(set(g.pieces))
        t = tuple(range(3, 3 + g.gamma))
        assert len(piece_totals(g, t)) == x.gamma and sum(piece_totals(g, t)) == sum(t)
        assert class_group_order(g) == math.prod(val for val, _, _ in _lattice(g))
        assert essential_connectivity(g) >= 2
        for d in range(1, 5):
            assert is_natural(g, d) == is_natural_by_piece_totals(g, d), (g, d)


def test_is_natural_matches_chip_firing_classes():
    # an oracle with no X' and no Hermite form: Dhar's reduced form names the
    # class of each partitional multidegree of X itself, and the curve is
    # natural when no class holds two piece_totals vectors
    verdicts = []
    for g, _ in connected_multigraphs(5, 8):
        for d in range(1, 4):
            totals: dict = {}
            for p in partitional_multidegrees(g.gamma, d):
                totals.setdefault(dhar_reduced(g, p, 0), set()).add(piece_totals(g, p))
            natural = all(len(t) == 1 for t in totals.values())
            assert is_natural(g, d) == natural, (g, d)
            verdicts.append(natural)
    assert (len(verdicts), sum(verdicts)) == (1515, 700)


def test_default_chooser_matches_explicit_table():
    # explicit representatives are keyed and counted before the full-table path
    for g in multigraphs_with_loops(4, 5):
        for d in range(1, 4):
            reps = choose_representatives(g, d).values()
            assert is_natural(g, d) == is_natural(g, d, reps), (g, d)


def test_default_chooser_never_enumerates_classes(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_classes called")

    monkeypatch.setattr(abel, "enumerate_classes", refuse)
    assert is_natural(cycle(16), 1)
    assert is_natural(two_component(3), 2)
    assert not is_natural(two_component(2), 2)
    with pytest.raises(AssertionError):
        choose_representatives(two_component(3), 1)


def test_explicit_chooser_never_enumerates_classes(monkeypatch):
    # is_natural compares the number of classes keyed with the class count
    g, weak = two_component(3), two_component(2)
    reps = list(choose_representatives(g, 2).values())
    weak_reps = list(choose_representatives(weak, 2).values())

    def refuse(*args):
        raise AssertionError("enumerate_classes called")

    monkeypatch.setattr(abel, "enumerate_classes", refuse)
    assert is_natural(g, 2, reps)
    assert is_natural(g, 2, reversed(reps))  # any order, any iterable
    assert not is_natural(weak, 2, weak_reps)
    with pytest.raises(InvalidChooserError, match="has 2 classes, the curve has 3"):
        is_natural(g, 2, reps[:-1])


def test_no_natural_map_rejects_every_chooser():
    # two components, two edges, d = 2: no natural map; every valid chooser
    # with representatives in the [-4, 4] box must fail
    g = two_component(2)
    d = 2
    assert not has_natural_abel_map(g, d)
    classes = enumerate_classes(g, d)
    options = {
        cls: [
            v
            for v in product(range(-4, 5), repeat=2)
            if sum(v) == d and multidegree_class(g, v) == cls
        ]
        for cls in classes
    }
    count = 0
    for picks in product(*(options[cls] for cls in classes)):
        assert not is_natural(g, d, picks)
        count += 1
    assert count > 1


def test_cross_check_examples():
    g = two_component(2)
    # d=1: no equivalent partitional pairs, map exists
    assert partitional_pairs_certified(g, 1)
    assert has_natural_abel_map(g, 1)
    # d=2: (2,0) ~ (0,2) but their difference crosses both non-separating
    # nodes, and indeed no map exists
    assert equivalent(g, (2, 0), (0, 2))
    assert not partitional_pairs_certified(g, 2)
    assert not has_natural_abel_map(g, 2)
    assert cross_check_naturality(g, 2) == []
    with pytest.raises(ValueError, match="degree must be >= 1"):
        cross_check_naturality(g, 0)


def test_cross_check_star_and_cycles():
    for g in [star(3), cycle(3), cycle(4), triangle_with_pendant()]:
        assert cross_check_naturality(g, 3) == []
