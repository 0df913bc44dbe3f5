"""Exact linear algebra over the integers.

Everything here works on plain Python ints, so intermediate entries may grow
without overflow.  Matrices are lists (or tuples) of equal-length rows.

Provided:
  row_hnf        Hermite normal form of a nonsingular square matrix, with
                 its unimodular transform
  det_bareiss    exact determinant by fraction-free elimination

The lattice module reads the class-group order off the Hermite pivots of
one square matrix and checks it against the determinant of that matrix.
"""

from __future__ import annotations

from typing import Sequence

Matrix = Sequence[Sequence[int]]


def _sub_scaled(target: list[int], source: list[int], q: int) -> None:
    # target -= q * source, in place
    for k in range(len(target)):
        target[k] -= q * source[k]


def row_hnf(mat: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form of a nonsingular square matrix, with transform.

    Returns (H, U) where U is unimodular, U @ mat == H, and H is upper
    triangular: each diagonal pivot is positive and the entries above it lie
    in [0, pivot).  Raises ValueError when mat is singular.
    """
    n = len(mat)
    H = [list(row) for row in mat]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        # Euclid on column c over rows c..n-1 until a single nonzero survives.
        while True:
            best = None
            for i in range(c, n):
                if H[i][c] and (best is None or abs(H[i][c]) < abs(H[best][c])):
                    best = i
            if best is None:
                raise ValueError("row_hnf needs a nonsingular matrix")
            reduced = True
            for i in range(c, n):
                if i != best and H[i][c]:
                    q = H[i][c] // H[best][c]
                    if q:
                        _sub_scaled(H[i], H[best], q)
                        _sub_scaled(U[i], U[best], q)
                    if H[i][c]:
                        reduced = False
            if reduced:
                break
        if best != c:
            H[c], H[best] = H[best], H[c]
            U[c], U[best] = U[best], U[c]
        if H[c][c] < 0:
            H[c] = [-x for x in H[c]]
            U[c] = [-x for x in U[c]]
        # entries above the pivot reduced into [0, pivot)
        for i in range(c):
            q = H[i][c] // H[c][c]
            if q:
                _sub_scaled(H[i], H[c], q)
                _sub_scaled(U[i], U[c], q)
    return H, U


def det_bareiss(mat: Matrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination).

    All divisions in the Bareiss recurrence are exact, so the result is an
    int with no rounding anywhere.  The empty matrix has determinant 1.

    A row whose entry in the pivot column is 0 is left alone at that step:
    the recurrence would only multiply it by the pivot and divide it by the
    previous one, and those factors telescope.  at[i] is the pivot of the
    step that last rewrote row i (1 before any), so the recurrence's row is
    row i times prev / at[i].  Eliminating row i divides by at[i] in place
    of prev, and a row that becomes the pivot row is first brought to that
    scale, entry by entry.  Every division is exact, as every Bareiss entry
    is a minor (Bareiss, Math. Comp. 1968).  So a Laplacian minor, with few
    nonzeros per column, costs the rows that meet each pivot column, not
    all the rows below it.
    """
    n = len(mat)
    if n == 0:
        return 1
    A = [list(row) for row in mat]
    at = [1] * n
    sign = prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            at[k], at[swap] = at[swap], at[k]
            sign = -sign
        row = A[k]
        if at[k] != prev:
            row = [x * prev // at[k] for x in row]
        pivot = row[k]
        for i in range(k + 1, n):
            r, a = A[i], A[i][k]
            if a:
                for j in range(k + 1, n):
                    r[j] = (r[j] * pivot - a * row[j]) // at[i]
                at[i] = pivot
        prev = pivot
    return sign * A[n - 1][n - 1] * prev // at[n - 1]
