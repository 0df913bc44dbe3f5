"""Twister lattice and degree classes of a nodal curve.

A divisor supported on the components is a coefficient vector D; its
multidegree is deg D = ((D . C_0), ..., (D . C_{gamma-1})), computed with the
pairing matrix.  The image of deg is the twister lattice: it records which
multidegrees arise from twisting by components.  Since deg X = 0 the map
descends to divisors modulo X, where it is injective, and its image is a
finite-index sublattice of the degree-0 vectors.

Two multidegrees of the same total degree are equivalent when their
difference lies in the twister lattice; the classes of total degree d form a
finite set whose size is independent of d and equals the number of spanning
trees of the dual graph.  That count is the product of the pivots of the
Hermite basis of the twister lattice, and it is checked against a
Matrix-Tree determinant: the two must agree.

All arithmetic is exact on Python ints.  Divisors and multidegrees are
plain tuples of ints of length gamma.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .graph import CurveGraph
from .intlinalg import det_bareiss, row_hnf

Divisor = tuple  # tuple[int, ...]
Multidegree = tuple  # tuple[int, ...]


class LatticeSelfCheckError(RuntimeError):
    """Internal error: two independent computations of the lattice disagree."""


@dataclass(frozen=True)
class DegreeClass:
    """An equivalence class of multidegrees, keyed by its canonical rep.

    The canonical representative is the unique member whose degree-0 shift
    lies in the Hermite fundamental domain of the twister lattice, shifted
    back to the class's total degree along the first coordinate.
    """

    canonical: Multidegree

    @property
    def total(self) -> int:
        return sum(self.canonical)


@dataclass(frozen=True)
class _LatticeData:
    # column Hermite basis of the twister lattice plus solving data
    gamma: int
    pivots: tuple  # tuple[(row, value), ...] in increasing row order
    basis_cols: tuple  # basis column per pivot, tuple[tuple[int, ...], ...]
    solve_rows: tuple  # preimage generator per pivot (rows of the transform)
    tree_count: int


@lru_cache(maxsize=None)
def _lattice(g: CurveGraph) -> _LatticeData:
    """Compute-once lattice data for a graph.

    lru_cache gives the once-only initialization; a racing first access may
    duplicate the work but never publishes a half-built value.
    """
    m = g.pairing_matrix
    gamma = g.gamma
    # Row-reduce the transpose: H = U * M^T, so M * U^T = H^T gives a column
    # Hermite basis of the column span (the twister lattice) together with
    # preimages: column r of H^T equals M applied to row r of U.
    mt = [list(row) for row in zip(*m)]
    h, u = row_hnf(mt)
    pivots = []
    basis_cols = []
    solve_rows = []
    for r, row in enumerate(h):
        p = next((c for c, x in enumerate(row) if x), None)
        if p is None:
            continue
        pivots.append((p, row[p]))
        basis_cols.append(tuple(row))
        solve_rows.append(tuple(u[r]))
    if len(pivots) != gamma - 1:
        raise LatticeSelfCheckError(
            f"pairing matrix rank {len(pivots)} != gamma - 1 = {gamma - 1}"
        )
    order = 1
    for _, val in pivots:
        order *= val
    # Matrix-Tree: principal minor of the negated pairing matrix (the
    # Laplacian) counts spanning trees of the dual graph.
    minor = [[-m[i][j] for j in range(1, gamma)] for i in range(1, gamma)]
    trees = det_bareiss(minor)
    if order != trees:
        raise LatticeSelfCheckError(
            f"Hermite pivot product {order} != spanning-tree count {trees}"
        )
    return _LatticeData(
        gamma=gamma,
        pivots=tuple(pivots),
        basis_cols=tuple(basis_cols),
        solve_rows=tuple(solve_rows),
        tree_count=trees,
    )


def _check_vector(g: CurveGraph, v: Iterable[int], what: str) -> tuple:
    t = tuple(v)
    if len(t) != g.gamma:
        raise ValueError(f"{what} has length {len(t)}, expected {g.gamma}")
    return t


def multidegree_of(g: CurveGraph, d: Iterable[int]) -> Multidegree:
    """deg D = pairing of D against every component; always sums to zero."""
    dv = _check_vector(g, d, "divisor")
    m = g.pairing_matrix
    return tuple(sum(m[i][j] * dv[j] for j in range(g.gamma)) for i in range(g.gamma))


def normalize_divisor(d: Iterable[int]) -> Divisor:
    """Subtract the right multiple of X so the minimum coefficient is 0.

    Divisors with the same multidegree differ by a multiple of X, so this
    picks the canonical preimage.

    >>> normalize_divisor((3, 1, 2))
    (2, 0, 1)
    >>> normalize_divisor((-1, -1, 4))
    (0, 0, 5)
    """
    dv = tuple(d)
    if not dv:
        raise ValueError("empty divisor")
    lo = min(dv)
    return tuple(x - lo for x in dv)


def twister_divisor(g: CurveGraph, t: Iterable[int]) -> Optional[Divisor]:
    """The normalized divisor with multidegree t, or None if t is not one.

    Membership in the twister lattice is decided by forward substitution
    against the Hermite basis; the solution is unique modulo X and returned
    with minimum coefficient 0.
    """
    tv = _check_vector(g, t, "multidegree")
    if sum(tv) != 0:
        return None
    data = _lattice(g)
    residue = list(tv)
    coeffs = []
    for (p, val), col in zip(data.pivots, data.basis_cols):
        q, rem = divmod(residue[p], val)
        if rem:
            return None
        if q:
            for k in range(data.gamma):
                residue[k] -= q * col[k]
        coeffs.append(q)
    if any(residue):
        return None
    x = [0] * data.gamma
    for q, row in zip(coeffs, data.solve_rows):
        if q:
            for k in range(data.gamma):
                x[k] += q * row[k]
    out = normalize_divisor(x)
    if multidegree_of(g, out) != tv:
        raise LatticeSelfCheckError(
            f"divisor {out} found for {tv} has another multidegree"
        )
    return out


def equivalent(g: CurveGraph, d1: Iterable[int], d2: Iterable[int]) -> bool:
    """Same total degree and difference in the twister lattice.

    Different totals simply compare unequal; no error.
    """
    a = _check_vector(g, d1, "multidegree")
    b = _check_vector(g, d2, "multidegree")
    if sum(a) != sum(b):
        return False
    return twister_divisor(g, tuple(x - y for x, y in zip(a, b))) is not None


def _reduce_degree_zero(data: _LatticeData, z: list[int]) -> list[int]:
    # unique fundamental-domain representative of z modulo the basis columns;
    # later pivots never disturb earlier pivot rows (echelon structure)
    for (p, val), col in zip(data.pivots, data.basis_cols):
        q = z[p] // val
        if q:
            for k in range(data.gamma):
                z[k] -= q * col[k]
    return z


def multidegree_class(g: CurveGraph, t: Iterable[int]) -> DegreeClass:
    """The degree class of t, keyed by its canonical representative.

    The canonical rep is found by shifting t to total degree 0 along the
    first coordinate, reducing to the Hermite fundamental domain, and
    shifting back.
    """
    tv = _check_vector(g, t, "multidegree")
    d = sum(tv)
    data = _lattice(g)
    z = list(tv)
    z[0] -= d
    z = _reduce_degree_zero(data, z)
    z[0] += d
    return DegreeClass(canonical=tuple(z))


def class_group_order(g: CurveGraph) -> int:
    """Number of degree classes for any fixed total degree.

    Computed as the product of the Hermite pivots of the twister lattice and
    cross-checked against the Matrix-Tree spanning-tree count; disagreement
    raises LatticeSelfCheckError.
    """
    return _lattice(g).tree_count


def enumerate_classes(g: CurveGraph, d: int) -> list[DegreeClass]:
    """All degree classes of total degree d, in a deterministic order.

    Walks the Hermite fundamental domain: pivot rows range over their
    residues, the one pivot-free row balances the total to zero, and the
    whole vector is shifted to total degree d along the first coordinate.
    """
    data = _lattice(g)
    pivot_rows = [p for p, _ in data.pivots]
    free_row = next(i for i in range(data.gamma) if i not in pivot_rows)
    out = []
    for residues in itertools.product(*(range(val) for _, val in data.pivots)):
        z = [0] * data.gamma
        for (p, _), res in zip(data.pivots, residues):
            z[p] = res
        z[free_row] = -sum(residues)
        z[0] += d
        out.append(DegreeClass(canonical=tuple(z)))
    return out
