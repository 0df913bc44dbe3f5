"""Twister lattice membership, degree classes, class group order."""

from __future__ import annotations

import ast
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from itertools import combinations, product
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

import abelmap
from abelmap import (
    CurveGraph,
    LatticeSelfCheckError,
    NotATwisterError,
    choose_representatives,
    class_group_order,
    enumerate_classes,
    equivalent,
    essential_connectivity,
    is_natural,
    lattice,
    multidegree_class,
    multidegree_of,
    normalize_divisor,
    twister_divisor,
)
from abelmap.intlinalg import row_hnf
from abelmap.lattice import LISTING_LIMIT, _place, piece_totals
from helpers import (
    bridges_by_removal,
    choose_representatives_by_gamma,
    chorded_doubled_cycle,
    connected_graphs,
    connected_multigraphs,
    cycle,
    dense_class,
    dense_classes,
    dense_twister_divisor,
    dhar_reduced,
    doubled_cycle,
    multidegree_by_pairing_matrix,
    multigraphs_with_loops,
    pairing_matrix,
    path,
    star,
    triangle_with_pendant,
    two_component,
)

SAMPLE_GRAPHS = [
    two_component(1),
    two_component(3),
    cycle(3),
    path(3),
    star(3),
    triangle_with_pendant(),
    CurveGraph(["C1"], [(0, 0)]),
]


def test_multidegree_examples():
    g = two_component(3)
    assert multidegree_of(g, (0, 1)) == (3, -3)
    assert multidegree_of(cycle(3), (1, 0, 0)) == (-2, 1, 1)
    for h in SAMPLE_GRAPHS:
        whole = (1,) * h.gamma
        assert multidegree_of(h, whole) == (0,) * h.gamma  # deg X = 0


def test_multidegree_total_is_zero():
    for g in SAMPLE_GRAPHS:
        for dv in product(range(-2, 3), repeat=g.gamma):
            assert sum(multidegree_of(g, dv)) == 0


@settings(deadline=None)
@given(connected_graphs(), st.data())
def test_multidegree_matches_pairing_matrix_product(g, data):
    dv = data.draw(st.lists(st.integers(-5, 5), min_size=g.gamma, max_size=g.gamma))
    assert multidegree_of(g, dv) == multidegree_by_pairing_matrix(g, dv)


def test_normalize_divisor():
    assert normalize_divisor((3, 1, 2)) == (2, 0, 1)
    assert normalize_divisor((-1, -1, 4)) == (0, 0, 5)
    assert normalize_divisor((0,)) == (0,)
    with pytest.raises(ValueError):
        normalize_divisor(())


def test_twister_divisor_examples():
    g = two_component(3)
    assert twister_divisor(g, (3, -3)) == (0, 1)
    with pytest.raises(NotATwisterError, match=r"totals \(1, -1\) reduce to \(1, -1\), not 0"):
        twister_divisor(g, (1, -1))
    assert twister_divisor(two_component(1), (1, -1)) == (0, 1)
    # nonzero total degree is never in the lattice
    with pytest.raises(NotATwisterError, match=r"totals \(1, 0\) reduce to \(1, 0\), not 0"):
        twister_divisor(g, (1, 0))
    with pytest.raises(ValueError):
        twister_divisor(g, (1, 2, 3))


@settings(deadline=None)
@given(
    st.integers(0, len(SAMPLE_GRAPHS) - 1),
    st.lists(st.integers(-50, 50), min_size=1, max_size=5),
)
def test_twister_divisor_round_trip(gi, coeffs):
    g = SAMPLE_GRAPHS[gi]
    dv = tuple((coeffs * g.gamma)[: g.gamma])
    t = multidegree_of(g, dv)
    assert twister_divisor(g, t) == normalize_divisor(dv)


def test_equivalent_one_node():
    g = two_component(1)
    assert equivalent(g, (1, 0), (0, 1))
    assert class_group_order(g) == 1


def test_equivalent_examples():
    g3 = two_component(3)
    assert not equivalent(g3, (1, 0), (0, 1))
    g2 = two_component(2)
    assert equivalent(g2, (2, 0), (0, 2))
    assert not equivalent(g2, (1, 1), (2, 1))  # different totals
    assert equivalent(g2, (5, -5), (1, -1))
    for a, b in [((1, 0, 0), (1, 0)), ((1, 0), (1, 0, 0))]:
        with pytest.raises(ValueError, match="^multidegree has length 3, expected 2$"):
            equivalent(g2, a, b)


def test_equivalence_relation_sampled():
    for g in [two_component(2), cycle(3), path(3)]:
        box = list(product(range(-2, 3), repeat=g.gamma))
        vecs = [v for v in box if sum(v) == 1]
        for a in vecs:
            assert equivalent(g, a, a)
            for b in vecs:
                assert equivalent(g, a, b) == equivalent(g, b, a)
        # transitivity on the class partition
        classes = {}
        for v in vecs:
            classes.setdefault(multidegree_class(g, v), []).append(v)
        for members in classes.values():
            for a in members:
                for b in members:
                    assert equivalent(g, a, b)
        for ca, ma in classes.items():
            for cb, mb in classes.items():
                if ca != cb:
                    assert not equivalent(g, ma[0], mb[0])


def test_class_invariant_under_lattice_shift():
    for g in SAMPLE_GRAPHS:
        for dv in product(range(-1, 2), repeat=g.gamma):
            t = multidegree_of(g, dv)
            base = tuple(range(g.gamma))
            shifted = tuple(x + y for x, y in zip(base, t))
            assert multidegree_class(g, base) == multidegree_class(g, shifted)


def test_class_canonical_is_a_member():
    for g in SAMPLE_GRAPHS:
        for v in product(range(-2, 3), repeat=g.gamma):
            c = multidegree_class(g, v)
            assert type(c) is tuple
            assert sum(c) == sum(v)
            assert equivalent(g, v, c)
            assert multidegree_class(g, c) == c


def test_class_group_order_examples():
    assert class_group_order(CurveGraph(["C1"], [])) == 1
    assert class_group_order(CurveGraph(["C1"], [(0, 0), (0, 0)])) == 1
    for delta in range(1, 6):
        assert class_group_order(two_component(delta)) == delta
    assert class_group_order(cycle(3)) == 3
    assert class_group_order(path(4)) == 1
    assert class_group_order(triangle_with_pendant()) == 3


@pytest.mark.parametrize("n", [40, 120])
def test_class_group_order_of_a_chorded_doubled_cycle(n):
    # deletion-contraction on the antipodal chord: deleting it leaves the
    # doubled n-cycle, n * 2^(n-1) trees; contracting it leaves two doubled
    # (n/2)-cycles that share one component, (n/2 * 2^(n/2-1))^2 trees
    g = chorded_doubled_cycle(n)
    assert class_group_order(g) == n * 2 ** (n - 1) + (n // 2) ** 2 * 2 ** (n - 2)
    if n == 40:
        assert is_natural(g, 2) == (essential_connectivity(g) > 2)


def test_enumerate_classes_basics():
    g = two_component(3)
    classes = enumerate_classes(g, 1)
    assert classes == [(1, 0), (2, -1), (3, -2)]
    assert enumerate_classes(g, 1) == classes  # deterministic
    assert len(set(classes)) == len(classes)


def test_enumerate_classes_partition_the_degree():
    for g in [two_component(2), cycle(3), path(3), star(3)]:
        for d in (-1, 0, 2):
            classes = enumerate_classes(g, d)
            assert len(classes) == class_group_order(g)
            for a in classes:
                assert sum(a) == d
                assert multidegree_class(g, a) == a  # each is its own class
                for b in classes:
                    if a != b:
                        assert not equivalent(g, a, b)
            # every multidegree of total d lands in exactly one listed class
            for v in product(range(-2, 3), repeat=g.gamma):
                if sum(v) != d:
                    continue
                hits = [c for c in classes if multidegree_class(g, v) == c]
                assert len(hits) == 1


def test_class_count_independent_of_degree():
    for g in SAMPLE_GRAPHS:
        order = class_group_order(g)
        for d in range(-2, 6):
            assert len(enumerate_classes(g, d)) == order


def test_order_cross_check_over_enumeration():
    # class_group_order raises internally if the Hermite pivot product and
    # Matrix-Tree disagree; sympy's Smith form is a third, independent count
    for g in multigraphs_with_loops(4, 5):
        snf = smith_normal_form(sympy.Matrix(pairing_matrix(g)))
        order = math.prod(abs(int(x)) for x in snf.diagonal() if x)
        assert class_group_order(g) == order == len(enumerate_classes(g, 0))


def test_basis_is_in_hermite_form_exhaustively():
    # With the two build checks this pins the unique Hermite basis, so the
    # canonical representatives cannot drift on graphs outside the golden file.
    for g in multigraphs_with_loops(5, 8):
        basis = lattice._lattice(g)
        zero = (0,) * g.gamma
        assert len(basis) == g.gamma - 1
        for r, (val, col, _) in enumerate(basis):
            assert sum(col) == 0
            assert col[:r] == zero[:r] and col[r] == val > 0
            for c in range(r + 1, g.gamma - 1):
                assert 0 <= col[c] < basis[c][0]
        for i in range(g.gamma):
            e = tuple(int(j == i) for j in range(g.gamma))
            assert equivalent(g, multidegree_of(g, e), zero)


def test_equivalent_and_classes_match_chip_firing():
    # an oracle with no Hermite form: two multidegrees of one total are
    # equivalent exactly when Dhar's burning reduces them alike, both lifted
    # by one amount that makes every entry off component 0 nonnegative
    rng = random.Random(3)
    pairs = same = 0
    for g, _ in connected_multigraphs(5, 8):
        for _ in range(5):
            p = [rng.randint(-3, 3) for _ in range(g.gamma)]
            q = [rng.randint(-3, 3) for _ in range(g.gamma)]
            q[0] += sum(p) - sum(q)
            c = multidegree_class(g, p)
            lift = -min([0, *p[1:], *q[1:], *c[1:]])
            reduced = dhar_reduced(g, p, lift)
            assert equivalent(g, p, q) == (dhar_reduced(g, q, lift) == reduced), (g, p, q)
            assert dhar_reduced(g, c, lift) == reduced, (g, p)
            pairs += 1
            same += equivalent(g, p, q)
    assert pairs == 2525 and 0 < same < pairs


def test_equivalent_matches_twister_membership_oracle():
    # the membership test equivalent used to make: build the twister divisor
    # of the difference, which raises exactly when there is none
    for g in multigraphs_with_loops(4, 5):
        box = product(range(-1, 2), repeat=g.gamma)
        for a, b in combinations(box, 2):
            if sum(a) == sum(b):
                diff = tuple(x - y for x, y in zip(a, b))
                if equivalent(g, a, b):
                    assert multidegree_of(g, twister_divisor(g, diff)) == diff
                else:
                    with pytest.raises(NotATwisterError, match=r"piece totals \(.*\), not 0\)$"):
                        twister_divisor(g, diff)


_NOT_A_TWISTER = re.compile(
    r"(\(.*\)) is not a twister multidegree \(piece totals (\(.*\)) reduce to (\(.*\)), not 0\)"
)


def _check_not_a_twister_witness(g, t, message):
    # the message names pi(t) and a nonzero residue r in the fundamental
    # domain of X'; t minus r placed on X is a twister by X's own basis
    shown, totals, r = map(ast.literal_eval, _NOT_A_TWISTER.fullmatch(message).groups())
    assert shown == tuple(t) and totals == piece_totals(g, t)
    assert any(r) and sum(r) == sum(t)
    pivots = [val for val, _, _ in lattice._lattice(g.contracted)]
    assert len(r) == len(pivots) + 1
    assert all(0 <= x < val for x, val in zip(r, pivots))
    lifted = _place(g, list(r))
    assert dense_twister_divisor(g, [a - b for a, b in zip(t, lifted)]) is not None


def test_the_lift_of_the_contracted_basis_is_the_dense_basis(monkeypatch):
    # every class question reduces on X' = g.contracted and places the result
    # on X; the oracle is X's own Hermite basis, _lattice(g).  No library call
    # builds a lattice for a curve with a separating node.
    built = set()
    dense_lattice = lattice._lattice
    monkeypatch.setattr(lattice, "_lattice", lambda g: built.add(g) or dense_lattice(g))
    rng = random.Random(16)
    graphs = bridged = 0
    for g in multigraphs_with_loops(5, 8):
        graphs += 1
        bridged += bool(bridges_by_removal(g))
        assert not bridges_by_removal(g.contracted)
        for d in (0, 1, 3):
            assert enumerate_classes(g, d) == dense_classes(g, d), (g, d)
        for d in (1, 2, 3):
            assert choose_representatives(g, d) == choose_representatives_by_gamma(g, d)
        for _ in range(3):
            t, u = (tuple(rng.randint(-3, 3) for _ in g.components) for _ in "tu")
            assert multidegree_class(g, t) == dense_class(g, t), (g, t)
            same = sum(t) == sum(u) and dense_class(g, t) == dense_class(g, u)
            assert equivalent(g, t, u) == same
            twist = multidegree_of(g, u)  # a lattice vector
            assert equivalent(g, t, [a + b for a, b in zip(t, twist)])
            assert twister_divisor(g, twist) == dense_twister_divisor(g, twist) \
                == normalize_divisor(u)
            z = (*t[:-1], -sum(t[:-1]))  # total zero, in the lattice or not
            if dense_twister_divisor(g, z) is None:
                with pytest.raises(NotATwisterError) as info:
                    twister_divisor(g, z)
                _check_not_a_twister_witness(g, z, str(info.value))
            else:
                assert twister_divisor(g, z) == dense_twister_divisor(g, z)
    assert (graphs, bridged) == (3300, 2525)
    assert built and not any(bridges_by_removal(x) for x in built)


def test_the_lattice_cache_gives_each_curve_object_its_own_basis():
    # curves compare by identity, so the one-entry cache keys on the object:
    # two curves built from the same data are two keys, and each change of
    # object rebuilds.  Every library path reads one object at a time (a
    # bridgeless curve is its own X', a bridged curve's X' is cached), so a
    # walk over one curve builds its basis once
    a = CurveGraph(["A", "B", "C"], [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2)])
    b = CurveGraph(["A", "B", "C"], [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2)])
    c = CurveGraph(["A", "B", "C"], [(0, 1), (1, 2), (0, 2)])
    assert a != b
    misses = lattice._lattice.cache_info().misses
    for g in (a, c, b, a, c):
        for t in ((1, 0, 0), (3, -1, 0), (0, 2, -1)):
            assert enumerate_classes(g, 1) == dense_classes(g, 1)
            assert multidegree_class(g, t) == dense_class(g, t)
        misses += 1
        info = lattice._lattice.cache_info()
        assert (info.misses, info.currsize) == (misses, 1)
    pendant = CurveGraph(["A", "B", "C", "D"], [*a.edges, (2, 3)])
    for t in ((1, 0, 0, 0), (0, 0, 2, -1)):
        assert multidegree_class(pendant, t) == dense_class(pendant, t)
    assert lattice._lattice.cache_info().misses == misses + 1


def _corrupt_hnf(mat):
    # shift the entry of the first row above the second pivot: the pivots and
    # their product stay, but the first column no longer matches its preimage
    h, u = row_hnf(mat)
    h[0][next(c for c, x in enumerate(h[1]) if x)] += 1
    return h, u


def test_build_check_rejects_a_basis_off_its_preimages(monkeypatch):
    monkeypatch.setattr(lattice, "row_hnf", _corrupt_hnf)
    g = CurveGraph(["P", "Q", "R"], [(0, 1), (1, 2), (0, 2), (2, 2)])
    with pytest.raises(LatticeSelfCheckError, match="is not the multidegree of"):
        class_group_order(g)


def test_enumerate_classes_refuses_huge_counts():
    doubled = doubled_cycle(24)
    assert class_group_order(doubled) == 24 * 2**23 > LISTING_LIMIT
    with pytest.raises(ValueError, match=str(24 * 2**23)):
        enumerate_classes(doubled, 1)


def test_self_check_survives_python_O():
    # a wrong basis and a wrong multidegree_of must each surface as
    # LatticeSelfCheckError even when the interpreter strips assert statements
    script = textwrap.dedent("""
        from abelmap import lattice
        from abelmap.graph import CurveGraph

        def caught(check):
            try:
                check()
            except lattice.LatticeSelfCheckError:
                return "caught"
            return "missed"

        real = lattice.row_hnf

        def corrupt(mat):
            h, u = real(mat)
            h[0][next(c for c, x in enumerate(h[1]) if x)] += 1
            return h, u

        lattice.row_hnf = corrupt
        triangle = CurveGraph(["A", "B", "C"], [(0, 1), (1, 2), (0, 2)])
        print("build", caught(lambda: lattice.class_group_order(triangle)))
        lattice.row_hnf = real
        g = CurveGraph(["A", "B"], [(0, 1)])
        lattice.class_group_order(g)  # build before multidegree_of goes wrong
        lattice.multidegree_of = lambda g, d: (0, 0)
        print("round trip", caught(lambda: lattice.twister_divisor(g, (1, -1))))
    """)
    src = str(Path(abelmap.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.stdout == "build caught\nround trip caught\n", (proc.stdout, proc.stderr)


def test_round_trip_check_survives_python_O():
    # class_group_order builds the lattice of the contracted curve, so build
    # the curve's own lattice through twister_divisor before multidegree_of
    # goes wrong; then only the round-trip check can catch it
    script = textwrap.dedent("""
        from abelmap import lattice
        from abelmap.graph import CurveGraph

        g = CurveGraph(["A", "B"], [(0, 1)])
        lattice.twister_divisor(g, (1, -1))
        lattice.multidegree_of = lambda g, d: (0, 0)
        try:
            lattice.twister_divisor(g, (1, -1))
        except lattice.LatticeSelfCheckError as exc:
            print(exc)
    """)
    src = str(Path(abelmap.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.stdout == "divisor (0, 1) found for (1, -1) has another multidegree\n", (
        proc.stdout, proc.stderr)


def test_round_trip_check_survives_python_O_past_separating_nodes():
    # the divisor is pieced together from X''s divisor and the tails; a
    # wrong multidegree_of must still surface under python -O
    script = textwrap.dedent("""
        from abelmap import lattice
        from abelmap.graph import CurveGraph

        g = CurveGraph(["A", "B", "C", "D"], [(0, 1), (1, 2), (2, 3), (1, 3), (3, 3)])
        print(lattice.twister_divisor(g, (1, -2, 2, -1)))
        lattice.multidegree_of = lambda g, d: (0, 0, 0, 0)
        try:
            lattice.twister_divisor(g, (1, -2, 2, -1))
        except lattice.LatticeSelfCheckError as exc:
            print(exc)
    """)
    src = str(Path(abelmap.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.stdout == (
        "(0, 1, 0, 1)\n"
        "divisor (0, 1, 0, 1) found for (1, -2, 2, -1) has another multidegree\n"
    ), (proc.stdout, proc.stderr)
