"""Exact linear algebra over the integers.

Everything here works on plain Python ints, so intermediate entries may grow
without overflow.  Matrices are lists (or tuples) of equal-length rows.

Provided:
  row_hnf        Hermite normal form of a nonsingular square matrix, with
                 its unimodular transform
  det_bareiss    exact determinant by fraction-free elimination

The lattice module reads the class-group order off the Hermite pivots of
one square matrix and checks it against the determinant of that matrix.
That matrix is a Laplacian minor, with a few nonzeros per row, so both
functions skip zeros: row_hnf runs each row operation over the nonzero
entries of its source row (it costs row operations times source-row
nonzeros, and sources stay sparse), and det_bareiss leaves alone the rows
that miss a pivot column.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

Matrix = Sequence[Sequence[int]]


def row_hnf(mat: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form of a nonsingular square matrix, with transform.

    Returns (H, U) where U is unimodular, U @ mat == H, and H is upper
    triangular: each diagonal pivot is positive and the entries above it lie
    in [0, pivot).  Raises ValueError when mat is singular.

    Row i of H and row i of U are kept as one list, so a row operation
    target -= q * source updates both at once.  Every row operation, in the
    Euclid steps and in the step that reduces the entries above each pivot,
    runs over the nonzero entries of its source row only: they are listed
    once per source row per pass (in H they all lie from column c on), and
    Euclid on column c visits only the rows from c on that hold column c.
    So the cost is the sum, over row operations, of the nonzeros in the
    source row, plus per pass a scan of column c and the listing (a C-level
    scan of one row).  Sources stay sparse: a source is a row from c on,
    and such a row is never the target of an above-pivot step, so on a
    Laplacian minor it stays about as sparse as the input.  Only the rows
    above the pivot fill in, and once above it a row is never a source.
    """
    n = len(mat)
    R = [[*row, *[0] * n] for row in mat]  # row i: H's row i, then U's row i
    for i in range(n):
        R[i][n + i] = 1
    cols = range(2 * n)
    for c in range(n):
        # Euclid on column c over the rows from c on that hold it, until one
        # nonzero survives
        rows = [i for i in range(c, n) if R[i][c]]
        if not rows:
            raise ValueError("row_hnf needs a nonsingular matrix")
        while len(rows) > 1:
            best = min(rows, key=lambda i: abs(R[i][c]))
            src = R[best]
            nz = list(compress(cols, src))
            for i in rows:
                if i != best:
                    r = R[i]
                    q = r[c] // src[c]
                    for k in nz:
                        r[k] -= q * src[k]
            rows = [i for i in rows if R[i][c]]
        best = rows[0]
        R[c], R[best] = R[best], R[c]
        src = R[c]
        nz = list(compress(cols, src))
        if src[c] < 0:
            for k in nz:
                src[k] = -src[k]
        # entries above the pivot reduced into [0, pivot)
        for i in range(c):
            r = R[i]
            q = r[c] // src[c]
            if q:
                for k in nz:
                    r[k] -= q * src[k]
    return [r[:n] for r in R], [r[n:] for r in R]


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
