"""Exact linear algebra over the integers.

Everything here works on plain Python ints, so intermediate entries may grow
without overflow.  Matrices are lists (or tuples) of equal-length rows.

Provided:
  row_hnf        row-style Hermite normal form with its unimodular transform
  det_bareiss    exact determinant by fraction-free elimination

The lattice module reads the class-group order off the Hermite pivots as
their product, and checks it against a Matrix-Tree determinant.
"""

from __future__ import annotations

from typing import Sequence

Matrix = Sequence[Sequence[int]]


def _sub_scaled(target: list[int], source: list[int], q: int) -> None:
    # target -= q * source, in place
    for k in range(len(target)):
        target[k] -= q * source[k]


def row_hnf(mat: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form of an integer matrix, with transform.

    Returns (H, U) where U is unimodular, U @ mat == H, and H is in row
    echelon Hermite form: each pivot is positive, entries above a pivot lie
    in [0, pivot), entries below are zero, zero rows come last.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    H = [list(row) for row in mat]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        if r == m:
            break
        if not any(H[i][c] for i in range(r, m)):
            continue
        # Euclid on column c over rows r..m-1 until a single nonzero survives.
        while True:
            best = None
            for i in range(r, m):
                if H[i][c] and (best is None or abs(H[i][c]) < abs(H[best][c])):
                    best = i
            reduced = True
            for i in range(r, m):
                if i != best and H[i][c]:
                    q = H[i][c] // H[best][c]
                    if q:
                        _sub_scaled(H[i], H[best], q)
                        _sub_scaled(U[i], U[best], q)
                    if H[i][c]:
                        reduced = False
            if reduced:
                break
        if best != r:
            H[r], H[best] = H[best], H[r]
            U[r], U[best] = U[best], U[r]
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        # entries above the pivot reduced into [0, pivot)
        for i in range(r):
            q = H[i][c] // H[r][c]
            if q:
                _sub_scaled(H[i], H[r], q)
                _sub_scaled(U[i], U[r], q)
        r += 1
    return H, U


def det_bareiss(mat: Matrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination).

    All divisions in the Bareiss recurrence are exact, so the result is an
    int with no rounding anywhere.  The empty matrix has determinant 1.
    """
    n = len(mat)
    if n == 0:
        return 1
    A = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]
