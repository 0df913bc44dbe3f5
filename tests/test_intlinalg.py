"""Exact integer linear algebra, cross-checked against independent oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import sympy
from sympy.matrices.normalforms import smith_normal_form

from abelmap.intlinalg import det_bareiss, row_hnf


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


def test_row_hnf_transform_and_shape():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = _random_matrix(rng, m, n)
        h, u = row_hnf(mat)
        # U @ mat == H
        for i in range(m):
            for j in range(n):
                assert sum(u[i][k] * mat[k][j] for k in range(m)) == h[i][j]
        assert abs(det_bareiss(u)) == 1
        # echelon: pivot columns strictly increase, zero rows last
        pivots = []
        for row in h:
            p = next((c for c, x in enumerate(row) if x), None)
            pivots.append(p)
        nonzero = [p for p in pivots if p is not None]
        assert nonzero == sorted(nonzero)
        assert len(set(nonzero)) == len(nonzero)
        assert pivots[len(nonzero):] == [None] * (len(pivots) - len(nonzero))
        # pivot positive, entries above reduced
        for r, p in enumerate(pivots):
            if p is None:
                continue
            assert h[r][p] > 0
            for i in range(r):
                assert 0 <= h[i][p] < h[r][p]


def test_smith_invariants_against_sympy():
    # The class count is read off Hermite pivots and checked against a
    # determinant; sympy's Smith form is an independent oracle for both.
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = _random_matrix(rng, m, n)
        ref = smith_normal_form(sympy.Matrix(mat))
        invariants = [abs(int(ref[i, i])) for i in range(min(m, n))]
        nonzero = [d for d in invariants if d]
        h, _ = row_hnf(mat)
        pivots = [next(x for x in row if x) for row in h if any(row)]
        assert len(pivots) == len(nonzero)
        if len(pivots) == n:
            # full-rank row lattice: its index in Z^n both ways
            assert math.prod(pivots) == math.prod(nonzero)
        if m == n:
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
