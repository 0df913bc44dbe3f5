"""Exact integer linear algebra, cross-checked against independent oracles."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from sympy.matrices.normalforms import smith_normal_form

import abelmap
from abelmap.intlinalg import det_bareiss, row_hnf
from helpers import (
    connected_graphs,
    connected_multigraphs,
    dense_row_hnf,
    doubled_cycle,
    pairing_matrix,
)


def _random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def _det_fraction(mat):
    # plain fraction Gaussian elimination, an oracle independent of Bareiss
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    assert det.denominator == 1
    return int(det)


def _nonsingular(rng, n):
    while True:
        mat = _random_matrix(rng, n, n)
        if det_bareiss(mat):
            return mat


def test_row_hnf_transform_and_shape():
    assert row_hnf([]) == ([], [])
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        mat = _nonsingular(rng, n)
        h, u = row_hnf(mat)
        # U @ mat == H
        for i in range(n):
            for j in range(n):
                assert sum(u[i][k] * mat[k][j] for k in range(n)) == h[i][j]
        assert abs(det_bareiss(u)) == 1
        # upper triangular, positive diagonal pivots, entries above reduced
        for r in range(n):
            assert h[r][:r] == [0] * r
            assert h[r][r] > 0
            for i in range(r):
                assert 0 <= h[i][r] < h[r][r]


def _minor(g):
    return [list(row[:-1]) for row in pairing_matrix(g)[:-1]]


@settings(deadline=None)
@given(connected_graphs(max_gamma=40))
def test_sparse_row_hnf_matches_the_dense_oracle(g):
    # Laplacian minors of sparse multigraphs (a spanning tree plus a few
    # extra and parallel nodes, relabeled): the Hermite form is unique, so
    # H must equal the dense oracle's, and U must be a unimodular transform
    mat = _minor(g)
    h, u = row_hnf(mat)
    assert h == dense_row_hnf(mat)[0]
    n = len(mat)
    for i in range(n):
        for j in range(n):
            assert sum(u[i][k] * mat[k][j] for k in range(n)) == h[i][j]
    assert abs(det_bareiss(u)) == 1


def test_sparse_row_hnf_matches_the_dense_oracle_on_the_corpus():
    bridgeless = [g for g, _ in connected_multigraphs(6, 9) if not g.bridges]
    assert len(bridgeless) == 731
    for g in bridgeless:
        mat = _minor(g)
        assert row_hnf(mat) == dense_row_hnf(mat), g


def test_row_hnf_refuses_a_singular_matrix():
    rng = random.Random(5)
    singular = [[[0]], [[0, 1], [0, 2]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 0, 0], [0, 0, 1]]]
    for _ in range(20):
        n = rng.randint(2, 5)
        mat = _random_matrix(rng, n - 1, n)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        mat.insert(rng.randint(0, n - 1), [a * x + b * y for x, y in zip(mat[0], mat[-1])])
        singular.append(mat)
    for mat in singular:
        assert det_bareiss(mat) == 0
        with pytest.raises(ValueError, match="nonsingular"):
            row_hnf(mat)


def test_a_euclid_pass_that_makes_no_progress_raises_under_python_O():
    # with the nonzero listing patched to yield nothing, no Euclid pass
    # changes a row; row_hnf must raise, even under python -O, and not spin
    # (the timeout turns a spin into a failure)
    script = textwrap.dedent("""
        from abelmap import intlinalg

        intlinalg.compress = lambda data, selectors: iter(())
        try:
            intlinalg.row_hnf([[-2, 1], [1, -2]])
        except RuntimeError as exc:
            print(exc)
    """)
    src = str(Path(abelmap.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.stdout == "row_hnf: a Euclid pass made no progress on column 0\n", (
        proc.stdout, proc.stderr)


def test_smith_invariants_against_sympy():
    # The class count is read off Hermite pivots and checked against a
    # determinant; sympy's Smith form is an independent oracle for both.
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 4)
        mat = _nonsingular(rng, n)
        ref = smith_normal_form(sympy.Matrix(mat))
        invariants = [abs(int(ref[i, i])) for i in range(n)]
        h, _ = row_hnf(mat)
        # the index of the full-rank row lattice in Z^n, three ways
        assert math.prod(h[r][r] for r in range(n)) == math.prod(invariants)
        assert abs(det_bareiss(mat)) == math.prod(invariants)


def test_det_bareiss():
    assert det_bareiss([]) == 1
    assert det_bareiss([[5]]) == 5
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[0, 1], [0, 2]]) == 0
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 5)
        mat = _random_matrix(rng, n, n)
        assert det_bareiss(mat) == _det_fraction(mat)


def test_det_bareiss_on_sparse_matrices_with_row_swaps():
    # mostly zeros, so rows skip pivot columns, and a zero leading entry
    # makes the first step swap rows
    rng = random.Random(17)
    swapped = nonzero = 0
    for _ in range(400):
        n = rng.randint(2, 7)
        mat = [[rng.randint(-7, 7) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
        mat[0][0] = 0
        det = _det_fraction(mat)
        assert det_bareiss(mat) == det, mat
        swapped += any(row[0] for row in mat)
        nonzero += det != 0
    assert swapped > 200 and nonzero > 100


def test_det_bareiss_counts_the_spanning_trees_of_a_doubled_cycle():
    # a doubled n-cycle has n * 2^(n - 1) spanning trees: leave out one pair
    # of nodes, then take one node of each other pair.  Its Laplacian minor
    # is tridiagonal but for one corner row, so most rows skip each step
    for n in (2, 3, 16, 100, 300):
        minor = [list(row[:-1]) for row in pairing_matrix(doubled_cycle(n))[:-1]]
        assert abs(det_bareiss(minor)) == n * 2 ** (n - 1), n
