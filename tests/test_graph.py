"""Dual graph structure: pairing, cuts, bridges, pieces, Betti numbers, connectivity."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelmap import CurveGraph, DisconnectedCurveError, betti
from helpers import (
    bridges_by_removal,
    connected_graphs,
    cut_edges,
    cycle,
    multigraphs_with_loops,
    pairing,
    pairing_matrix,
    path,
    triangle_with_pendant,
    two_component,
)


def _subsets(gamma):
    for mask in range(1 << gamma):
        yield frozenset(i for i in range(gamma) if mask >> i & 1)


def test_pairing_two_components():
    for delta in range(1, 6):
        g = two_component(delta)
        assert pairing(g, {0}, {1}) == delta
        assert pairing(g, {0}, {0}) == -delta


def test_pairing_ignores_loops():
    g = CurveGraph(["C1"], [(0, 0), (0, 0)])
    assert pairing(g, {0}, {0}) == 0
    plain = two_component(2)
    loopy = two_component(2, loops=(0, 1, 1))
    assert pairing_matrix(plain) == pairing_matrix(loopy)


def test_pairing_three_cycle():
    g = cycle(3)
    assert pairing_matrix(g) == ((-2, 1, 1), (1, -2, 1), (1, 1, -2))


def test_pairing_bilinear_symmetric_degenerate():
    whole = None
    for g in multigraphs_with_loops(4, 4):
        whole = frozenset(range(g.gamma))
        for z in _subsets(g.gamma):
            assert pairing(g, whole, z) == 0  # (X . Z) = 0
            for w in _subsets(g.gamma):
                assert pairing(g, z, w) == pairing(g, w, z)
            if z and z != whole:
                assert pairing(g, z, z) == -len(cut_edges(g, z))


def test_pairing_index_out_of_range():
    g = two_component(1)
    with pytest.raises(IndexError):
        pairing(g, {0}, {5})


def test_cut_size_examples():
    assert len(cut_edges(two_component(3), {0})) == 3
    assert len(cut_edges(cycle(3), {0, 1})) == 2
    assert len(cut_edges(path(3), {0, 1})) == 1


def test_cut_edges_ignore_loops():
    g = two_component(2, loops=(0,))
    assert cut_edges(g, {0}) == frozenset({0, 1})


def test_separating_nodes():
    assert path(3).bridges == frozenset({0, 1})
    assert cycle(3).bridges == frozenset()
    assert two_component(2).bridges == frozenset()
    assert two_component(1).bridges == frozenset({0})
    # loops are never separating
    g = two_component(1, loops=(0, 1))
    assert g.bridges == frozenset({0})
    assert triangle_with_pendant().bridges == frozenset({3})


def test_pieces_examples():
    assert len(set(path(4).pieces)) == 1  # compact type: one piece
    assert cycle(3).pieces == (0, 1, 2)
    # the triangle is three pieces, and the pendant joins C1's piece
    p = triangle_with_pendant().pieces
    assert p[3] == p[0] and len(set(p)) == 3


def test_contracted_examples():
    # pieces are numbered in order of their last component, and piece k is
    # component k of X', labelled by its first component
    g = CurveGraph(["A", "B", "C", "D"], [(0, 1), (1, 2), (2, 3), (1, 3), (3, 3)])
    assert g.pieces == (0, 0, 1, 2)
    x = g.contracted
    assert (x.components, x.edges) == (("A", "C", "D"), ((0, 1), (1, 2), (0, 2), (2, 2)))
    assert triangle_with_pendant().pieces == (2, 0, 1, 2)
    x = path(4).contracted
    assert (x.components, x.edges) == (("C1",), ())
    c = cycle(3)
    assert c.contracted is c and c.contracted.contracted is c


def test_reading_contracted_makes_no_reference_cycle():
    # a bridgeless curve is its own X'; caching it on the curve would make a
    # cycle that only the cyclic garbage collector frees
    gc.disable()
    try:
        for make in (cycle, path):
            g = make(4)
            x = g.contracted
            assert x.contracted is x
            refs = weakref.ref(g), weakref.ref(x)
            del g, x
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@settings(deadline=None)
@given(connected_graphs())
def test_pieces_are_the_bridge_forest_components(g):
    # bridges join one piece, every other non-loop node two, and the bridges
    # form a forest, so there is one piece per component of that forest
    piece = g.pieces
    for e, (a, b) in enumerate(g.edges):
        if a != b:
            assert (piece[a] == piece[b]) == (e in g.bridges)
    assert len(set(piece)) == g.gamma - len(g.bridges)


def test_contract_complement_examples():
    # betti(g, S) counts the cycles left after contracting every edge not in S
    g = two_component(2)
    assert betti(g, {0, 1}) == 1
    # contracting one of the two parallel edges merges the vertices and the
    # kept edge becomes a loop
    assert betti(g, {0}) == 1
    assert betti(triangle_with_pendant(), {3}) == 0


def test_loop_in_node_set_stays_a_loop():
    g = two_component(1, loops=(1,))
    assert betti(g, {1}) == 1  # edge 1 is the loop at C2


def test_betti_zero_iff_separating_exhaustive():
    for g in multigraphs_with_loops(4, 5):
        bridges = g.bridges
        for mask in range(1 << g.edge_count):
            s = frozenset(e for e in range(g.edge_count) if mask >> e & 1)
            assert (betti(g, s) == 0) == (s <= bridges)


def test_single_edge_betti():
    for g in multigraphs_with_loops(4, 4):
        for e, (a, b) in enumerate(g.edges):
            if a == b:
                assert betti(g, {e}) == 1
            else:
                assert (betti(g, {e}) == 0) == (e in g.bridges)


@settings(deadline=None)
@given(connected_graphs(max_gamma=14))
def test_bridges_match_removal_oracle(g):
    cut_off = bridges_by_removal(g)
    assert g.bridges == cut_off
    for e in range(g.edge_count):
        assert (betti(g, {e}) == 0) == (e in cut_off)


@settings(deadline=None)
@given(connected_graphs(4), connected_graphs(5), st.randoms())
def test_two_pieces_are_disconnected(a, b, rng):
    gamma = a.gamma + b.gamma
    label = list(range(gamma))
    rng.shuffle(label)
    pairs = list(a.edges) + [(x + a.gamma, y + a.gamma) for x, y in b.edges]
    edges = [(label[x], label[y]) for x, y in pairs]
    with pytest.raises(DisconnectedCurveError):
        CurveGraph([f"C{i + 1}" for i in range(gamma)], edges)


def test_betti_bad_edge_id():
    with pytest.raises(IndexError):
        betti(path(3), {9})


def test_validation():
    with pytest.raises(DisconnectedCurveError):
        CurveGraph(["A", "B"], [])
    with pytest.raises(DisconnectedCurveError):
        CurveGraph(["A", "B", "C"], [(0, 1)])
    with pytest.raises(ValueError):
        CurveGraph([], [])
    with pytest.raises(IndexError):
        CurveGraph(["A"], [(0, 1)])
    with pytest.raises(ValueError):
        CurveGraph(["A", "A"], [(0, 1)])
    # edge endpoints are stored sorted, ids by insertion order
    g = CurveGraph(["A", "B"], [(1, 0)])
    assert g.edges == ((0, 1),)


