"""Essential connectivity, partitional classes, naturality decisions."""

from __future__ import annotations

import math
from itertools import product

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
from abelmap.harness import connected_multigraphs
from abelmap.lattice import _lattice
from abelmap.levels import piece_totals
from helpers import (
    bridges_by_removal,
    connected_graphs,
    cut_edges,
    cycle,
    dhar_reduced,
    doubled_cycle,
    epsilon_by_piece_scan,
    epsilon_over_connected_subcurves,
    is_natural_by_piece_totals,
    multigraphs_with_loops,
    path,
    star,
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


def test_epsilon_at_scale():
    assert essential_connectivity(doubled_cycle(200)) == 4
    # two doubled 100-cycles joined by three nodes: cutting those is cheapest
    ring = [(i, (i + 1) % 100) for i in range(100)] * 2
    edges = ring + [(a + 100, b + 100) for a, b in ring] + [(0, 100), (30, 150), (60, 170)]
    assert essential_connectivity(CurveGraph([f"C{i}" for i in range(200)], edges)) == 3
    # a path: every node separating, one piece, found without deep recursion
    g = path(2000)
    assert len(g.bridges) == 1999
    assert essential_connectivity(g) == math.inf


def test_epsilon_scans_pieces_not_components():
    # a 60-component path whose last component lies on a doubled triangle:
    # 62 components but 3 pieces once the 59 separating nodes are contracted,
    # so 3 cuts to scan where a scan over components would face 2^61
    path_edges = [(i, i + 1) for i in range(59)]
    triangle = [(59, 60), (60, 61), (59, 61)] * 2
    g = CurveGraph([f"C{i}" for i in range(62)], path_edges + triangle)
    assert len(g.bridges) == 59
    assert essential_connectivity(g) == 4


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


def test_partitional_listing_cache_is_safe(monkeypatch):
    # listings are kept for reuse up to a budget; every call gets a fresh list
    monkeypatch.setattr(abel, "_kept", {})
    got = partitional_multidegrees(3, 2)
    expected = list(got)
    got.append((9, 9, 9))
    got[0] = None
    assert partitional_multidegrees(3, 2) == expected
    assert list(abel._kept) == [(3, 2)]
    for _ in range(2):  # a refused listing raises every time, and is not kept
        with pytest.raises(ValueError, match=str(math.comb(68 + 4, 4))):
            partitional_multidegrees(5, 68)
    # a listing past the budget is built on every call and never kept
    big = partitional_multidegrees(5, 20)
    assert 5 * len(big) > abel.KEPT_ENTRIES
    assert partitional_multidegrees(5, 20) == big
    for d in range(200):  # the budget bounds what all kept listings hold
        partitional_multidegrees(2, d)
    assert (5, 20) not in abel._kept and (2, 1) in abel._kept
    held = sum(gamma * len(p) for (gamma, _), p in abel._kept.items())
    assert 0 < held <= abel.KEPT_ENTRIES


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
    for g in connected_multigraphs(5, 8):
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
