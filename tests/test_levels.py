"""Level expressions, crossing nodes, sums of tails, twister dimensions."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelmap import (
    CurveGraph,
    NotATwisterError,
    crossing_nodes,
    crossing_nodes_of_multidegree,
    is_sum_of_tails,
    is_sum_of_tails_multidegree,
    multidegree_of,
    normalize_divisor,
    twister_divisor,
    twister_space_dim,
)
from helpers import (
    bridge_tails,
    check_level_degree_bounds,
    connected_graphs,
    cycle,
    multigraphs_with_loops,
    path,
    star,
    sum_of_tails_by_search,
    sum_of_tails_multidegree_by_crossings,
    tail_sum_oracle_table,
    triangle_with_pendant,
    two_component,
)


# The level expression of t is read off its canonical divisor: level m is
# the set of components with coefficient m.


def test_multidegree_levels_two_components():
    # C1 at level 0, C2 at level 1
    assert twister_divisor(two_component(3), (3, -3)) == (0, 1)


def test_multidegree_levels_three_cycle():
    # t = deg of the first component: the base is {C2,C3} and level 1
    # carries {C1}
    assert twister_divisor(cycle(3), (-2, 1, 1)) == (1, 0, 0)


def test_multidegree_levels_degenerate_zero():
    # the whole curve at level 0
    assert twister_divisor(path(3), (0, 0, 0)) == (0, 0, 0)


def test_multidegree_levels_rejects_non_members():
    with pytest.raises(NotATwisterError, match=r"\(1, -1\) reduce to \(1, -1\), not 0") as info:
        twister_divisor(two_component(3), (1, -1))
    assert not hasattr(info.value, "graph")
    with pytest.raises(NotATwisterError, match=r"\(1, 0\) reduce to \(1, 0\), not 0"):
        twister_divisor(two_component(3), (1, 0))


def test_canonical_level_conditions_sweep():
    # base level 0 on a nonempty Z_0, and the levels reassemble to t
    for g in multigraphs_with_loops(3, 4):
        for dv in product(range(-3, 4), repeat=g.gamma):
            t = multidegree_of(g, dv)
            canonical = twister_divisor(g, t)
            assert min(canonical) == 0
            assert multidegree_of(g, canonical) == t


def test_level_expression_same_for_every_preimage():
    for g in [two_component(3), cycle(3), star(3)]:
        for dv in product(range(-2, 3), repeat=g.gamma):
            t = multidegree_of(g, dv)
            assert twister_divisor(g, t) == normalize_divisor(dv)


def test_check_level_degree_bounds_examples():
    assert check_level_degree_bounds(two_component(3), (3, -3))
    assert check_level_degree_bounds(cycle(3), (-2, 1, 1))
    with pytest.raises(ValueError):
        check_level_degree_bounds(cycle(3), (0, 0, 0))
    with pytest.raises(NotATwisterError):
        check_level_degree_bounds(two_component(2), (1, -1))


def test_check_level_degree_bounds_always_holds():
    for g in multigraphs_with_loops(3, 4):
        for dv in product(range(-2, 3), repeat=g.gamma):
            t = multidegree_of(g, dv)
            if any(t):
                assert check_level_degree_bounds(g, t)


def test_crossing_nodes_examples():
    g = path(3)
    assert crossing_nodes(g, (0, 0, 1)) == frozenset({1})
    assert crossing_nodes_of_multidegree(g, (0, 1, -1)) == frozenset({1})
    g2 = two_component(2)
    assert crossing_nodes_of_multidegree(g2, (2, -2)) == frozenset({0, 1})
    assert crossing_nodes_of_multidegree(g2, (0, 0)) == frozenset()
    with pytest.raises(NotATwisterError):
        crossing_nodes_of_multidegree(g2, (1, -1))


def test_crossing_nodes_skip_loops_and_shifts():
    g = two_component(2, loops=(0, 1))
    assert crossing_nodes(g, (0, 5)) == frozenset({0, 1})
    for c in (-2, 3):
        shifted = (0 + c, 5 + c)
        assert crossing_nodes(g, shifted) == crossing_nodes(g, (0, 5))


@settings(deadline=None)
@given(
    st.integers(0, 3),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
)
def test_crossing_subadditive(gi, d1, d2):
    g = [path(4), star(3), cycle(4), triangle_with_pendant()][gi]
    a = tuple(d1[: g.gamma])
    b = tuple(d2[: g.gamma])
    s = tuple(x + y for x, y in zip(a, b))
    assert crossing_nodes(g, s) <= crossing_nodes(g, a) | crossing_nodes(g, b)


def test_is_sum_of_tails_examples():
    g = path(3)
    assert is_sum_of_tails(g, (0, 1, 1))
    assert is_sum_of_tails(g, (4, 4, 4))  # multiple of X, empty sum
    g2 = two_component(2)
    assert not is_sum_of_tails(g2, (0, 1))
    assert is_sum_of_tails_multidegree(path(3), (0, 1, -1))
    assert not is_sum_of_tails_multidegree(g2, (2, -2))
    # outside the lattice: False, not an error
    assert not is_sum_of_tails_multidegree(g2, (1, -1))
    with pytest.raises(ValueError):
        is_sum_of_tails_multidegree(g2, (0, 0, 0))
    # C4 hangs off the triangle by a separating node: pieces {C1, C4}, {C2},
    # {C3}; the tail C4 has multidegree e_1 - e_4
    g3 = triangle_with_pendant()
    assert is_sum_of_tails_multidegree(g3, (3, 0, 0, -3))
    assert not is_sum_of_tails_multidegree(g3, (2, 1, 0, -3))  # total 0


@settings(deadline=None, max_examples=200)
@given(connected_graphs(), st.data())
def test_sum_of_tails_multidegree_matches_crossing_oracle(g, data):
    entries = st.lists(st.integers(-3, 3), min_size=g.gamma, max_size=g.gamma)
    v = data.draw(entries)
    coeffs = data.draw(entries)
    # a sum of tails, one tail per separating node (the side avoiding C1)
    tails = [0] * g.gamma
    for c, tail in zip(coeffs, bridge_tails(g)):
        for i in tail:
            tails[i] += c
    # any vector (any total, mostly off the lattice), a twister multidegree,
    # and the multidegree of the sum of tails
    for t in (v, multidegree_of(g, v), multidegree_of(g, tails)):
        fast = is_sum_of_tails_multidegree(g, t)
        assert fast == sum_of_tails_multidegree_by_crossings(g, t), (g, t)
    assert is_sum_of_tails_multidegree(g, multidegree_of(g, tails))


def test_sum_of_tails_multidegree_matches_crossing_oracle_exhaustive():
    # every vector of the box, on and off the lattice, of every total
    for g in multigraphs_with_loops(4, 5):
        for t in product(range(-2, 3), repeat=g.gamma):
            fast = is_sum_of_tails_multidegree(g, t)
            assert fast == sum_of_tails_multidegree_by_crossings(g, t), (g, t)


def test_sum_of_tails_star_needs_doubled_search_bound():
    # a sum of tails whose minimal tail coefficients are twice the divisor
    # coefficient bound; the search oracle must still find it
    g = star(3)
    d = (1, -1, -1, -1)
    assert is_sum_of_tails(g, d)
    assert sum_of_tails_by_search(g, d)
    g2 = path(2)
    assert is_sum_of_tails(g2, (2, -2))
    assert sum_of_tails_by_search(g2, (2, -2))


def test_sum_of_tails_against_search_oracle():
    for g in [path(3), star(3), triangle_with_pendant(), cycle(3)]:
        table = tail_sum_oracle_table(g, 2)
        for dv in product(range(-2, 3), repeat=g.gamma):
            assert is_sum_of_tails(g, dv) == sum_of_tails_by_search(g, dv, table)


def test_sum_of_tails_multidegrees_form_a_subgroup():
    for g in [path(3), star(3), triangle_with_pendant()]:
        assert is_sum_of_tails_multidegree(g, (0,) * g.gamma)
        members = []
        for dv in product(range(-1, 2), repeat=g.gamma):
            t = multidegree_of(g, dv)
            if is_sum_of_tails_multidegree(g, t):
                members.append(t)
        for a in members:
            neg = tuple(-x for x in a)
            assert is_sum_of_tails_multidegree(g, neg)
            for b in members:
                s = tuple(x + y for x, y in zip(a, b))
                assert is_sum_of_tails_multidegree(g, s)


def test_twister_space_dim_examples():
    assert twister_space_dim(two_component(3), (3, -3)) == 2
    assert twister_space_dim(path(3), (0, 1, -1)) == 0
    assert twister_space_dim(cycle(3), (0, 0, 0)) == 0
    with pytest.raises(NotATwisterError):
        twister_space_dim(two_component(3), (1, -1))


def test_dim_zero_iff_sum_of_tails():
    for g in multigraphs_with_loops(3, 4):
        bridges = g.bridges
        for dv in product(range(-2, 3), repeat=g.gamma):
            t = multidegree_of(g, dv)
            crossing = crossing_nodes_of_multidegree(g, t)
            dim0 = twister_space_dim(g, t) == 0
            assert dim0 == is_sum_of_tails_multidegree(g, t)
            assert dim0 == (crossing <= bridges)
