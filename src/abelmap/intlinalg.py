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
functions skip zeros: row_hnf runs Euclid on the row lists themselves, each
row operation over the nonzero entries of its source row (sources stay
sparse), and det_bareiss leaves alone the rows that miss a pivot column.
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
    target -= q * source updates both at once.  Euclid on column c works on
    those row objects, the ones from c on that hold column c, with a source
    of least |entry|.  Every row operation, there and in the step that
    reduces the entries above each pivot, runs over the nonzero entries of
    its source row only, listed once per source per pass.  So the cost is
    the sum, over row operations, of the nonzeros in the source row, plus
    per pass a scan of column c.  Sources stay sparse: a source is a row
    from c on, never the target of an above-pivot step.  A pass that does
    not lower the least |entry| of column c below its source's raises
    RuntimeError (also under python -O) rather than loop forever.
    """
    n = len(mat)
    # row i: H's row i, then U's row i
    R = [[*row, *[0] * i, 1, *[0] * (n - 1 - i)] for i, row in enumerate(mat)]
    cols = range(2 * n)
    for c in range(n):
        # Euclid on column c over the rows from c on that hold it, until one
        # nonzero survives: the last source, as a source is never a target
        rows = [r for r in R[c:] if r[c]]
        if not rows:
            raise ValueError("row_hnf needs a nonsingular matrix")
        src, nz, last = rows[0], None, 0
        while len(rows) > 1:
            least = abs(src[c])
            for r in rows:
                if abs(r[c]) < least:
                    src, least = r, abs(r[c])
            if last and least >= last:
                raise RuntimeError(f"row_hnf: a Euclid pass made no progress on column {c}")
            last = least
            nz = list(compress(cols, src))
            p = src[c]
            for r in rows:
                if r is not src:
                    q = r[c] // p
                    for k in nz:
                        r[k] -= q * src[k]
            rows = [r for r in rows if r[c]]
        if src is not R[c]:  # rows stay independent, so no other row equals src
            i = R.index(src, c)
            R[c], R[i] = src, R[c]
        if nz is None:
            nz = list(compress(cols, src))
        p = src[c]
        if p < 0:
            p = -p
            for k in nz:
                src[k] = -src[k]
        # entries above the pivot reduced into [0, pivot)
        for r in R[:c]:
            q = r[c] // p
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
