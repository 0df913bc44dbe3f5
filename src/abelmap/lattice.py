"""Twister lattice and degree classes of a nodal curve.

A divisor supported on the components is a coefficient vector D; its
multidegree is deg D = ((D . C_0), ..., (D . C_{gamma-1})), read off the
edge list.  The image of deg is the twister lattice: it records which
multidegrees arise from twisting by components.  Since deg X = 0 the map
descends to divisors modulo X, where it is injective, and its image is a
finite-index sublattice of the degree-0 vectors.

Two multidegrees of the same total degree are equivalent when their
difference lies in the twister lattice; the classes of total degree d form a
finite set whose size is independent of d and equals the number of spanning
trees of the dual graph.  A class is its canonical representative, a plain
multidegree (defined at multidegree_class).

Every query reduces against one Hermite basis, that of X' = g.contracted,
the curve with its separating nodes contracted (built and checked by
_lattice); X's own basis is never built.  A sum of tails (total 0 on every
piece) is a twister, so t is one exactly when pi(t) = piece_totals(g, t)
is one on X'.  With pieces numbered in order of their last component, X's
Hermite basis is the lift of that of X': a component r that is not the
last of its piece has pivot 1 (e_r minus e of that last component is a
sum of tails), and the last component of piece k has pivot k of X'.  So
X's fundamental domain is that of X' placed on the last components.

A twister multidegree t is the multidegree of one divisor modulo X;
twister_divisor returns it normalized to minimum coefficient 0 (the
canonical divisor of t), and raises NotATwisterError for any t outside the
lattice, naming pi(t) and the nonzero residue its reduction on X' leaves (a
witness of size O(gamma + P)).  The level expression of t is read off that
divisor.

All arithmetic is exact on Python ints.  Divisors and multidegrees are
plain tuples of ints of length gamma.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable

from .graph import CurveGraph
from .intlinalg import det_bareiss, row_hnf

Divisor = tuple  # tuple[int, ...]
Multidegree = tuple  # tuple[int, ...]

LISTING_LIMIT = 10**6  # the most vectors or classes that one listing builds
_SHOWN_LIMIT = 10**18  # a larger listing size is neither computed nor printed


class LatticeSelfCheckError(RuntimeError):
    """Internal error: two independent computations of the lattice disagree."""


class NotATwisterError(ValueError):
    """t is not in the twister lattice.  The message names the witness:
    pi(t) and the nonzero residue that its Hermite reduction on X' leaves."""


def _check_listing(owner: str, items: str, factors: Iterable[tuple]) -> None:
    """Raise ValueError "<owner> has <size> <items>, over LISTING_LIMIT" when a
    listing is too long: the product of the fractions a / b in factors, each
    running product a growing integer, not computed past _SHOWN_LIMIT."""
    size = 1
    for a, b in factors:
        size = size * a // b
        if size > _SHOWN_LIMIT:
            break
    if size > LISTING_LIMIT:
        shown = size if size <= _SHOWN_LIMIT else f"more than {_SHOWN_LIMIT}"
        raise ValueError(f"{owner} has {shown} {items}, over {LISTING_LIMIT}")


@lru_cache(maxsize=1)
def _lattice(g: CurveGraph) -> tuple:
    """Column Hermite basis of the twister lattice, with its two build checks.

    Lattice vectors sum to zero, so their first gamma - 1 entries fix them;
    there the lattice is the column span of M', the pairing matrix without
    its last row and column (its last column is minus the sum of the
    others).  M' is symmetric and nonsingular, so in H = U * M' row r is M'
    applied to row r of U.  Record r is (pivot value, column, divisor): the
    column is row r of H extended by the balancing entry -sum(row), with its
    pivot in row r, and the divisor is row r of U extended by 0.  Only the
    last graph and its basis are kept: the CLI works on one graph per
    process, and the harness finishes each contracted curve before the
    next.  The library builds it only for curves without a separating node.
    """
    minor = [list(row[:-1]) for row in g.pairing_matrix[:-1]]
    h, u = row_hnf(minor)
    basis = tuple(
        (row[r], (*row, -sum(row)), (*pre, 0)) for r, (row, pre) in enumerate(zip(h, u))
    )
    for _, col, pre in basis:
        if multidegree_of(g, pre) != col:
            raise LatticeSelfCheckError(
                f"basis column {col} is not the multidegree of {pre}"
            )
    order = math.prod(val for val, _, _ in basis)
    # Matrix-Tree: the Laplacian minor -M' counts spanning trees of the dual
    # graph, and det(-M') = (-1)^(gamma - 1) det(M').
    trees = (-1) ** (g.gamma - 1) * det_bareiss(minor)
    if order != trees:
        raise LatticeSelfCheckError(
            f"Hermite pivot product {order} != spanning-tree count {trees}"
        )
    return basis


def _reduce(basis: tuple, z: list) -> list:
    """Floor-reduce z in place into the Hermite fundamental domain.

    Returns the quotient of each basis column.  Column r has its pivot in
    row r and is zero above it, so later columns never disturb earlier pivot
    rows; the last row is the balancing row, never a pivot row.
    """
    quotients = []
    for p, (val, col, _) in enumerate(basis):
        q = z[p] // val
        if q:
            for k in range(p, len(z)):
                z[k] -= q * col[k]
        quotients.append(q)
    return quotients


def _place(g: CurveGraph, w):
    """w, on X', with entry k on the last component of piece k (w itself if X' is X)."""
    if not g.bridges:
        return w
    last = {k: r for r, k in enumerate(g.pieces)}
    return [w[k] if r == last[k] else 0 for r, k in enumerate(g.pieces)]


def _check_vector(g: CurveGraph, v: Iterable[int], what: str) -> tuple:
    t = tuple(v)
    if len(t) != g.gamma:
        raise ValueError(f"{what} has length {len(t)}, expected {g.gamma}")
    return t


def piece_totals(g: CurveGraph, t: Iterable[int]) -> tuple[int, ...]:
    """pi(t): entry k is the total of t on piece k, component k of X'.

    >>> g = CurveGraph(["C1", "C2", "C3"], [(0, 1), (1, 2), (1, 2)])
    >>> piece_totals(g, (3, -1, 2)), piece_totals(g, (-1, 1, 0))  # C1 is a tail
    ((2, 2), (0, 0))
    """
    totals = [0] * (g.pieces[-1] + 1)  # the last component is on the last piece
    for k, x in zip(g.pieces, _check_vector(g, t, "multidegree")):
        totals[k] += x
    return tuple(totals)


def multidegree_of(g: CurveGraph, d: Iterable[int]) -> Multidegree:
    """deg D = pairing of D against every component; always sums to zero.

    Read off the edge list in O(gamma + E): a node (a, b) adds D_b - D_a to
    entry a and D_a - D_b to entry b, and a loop adds nothing.
    """
    dv = _check_vector(g, d, "divisor")
    out = [0] * g.gamma
    for a, b in g.edges:
        x = dv[b] - dv[a]
        out[a] += x
        out[b] -= x
    return tuple(out)


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


def twister_divisor(g: CurveGraph, t: Iterable[int]) -> Divisor:
    """The normalized divisor with multidegree t.

    t is in the twister lattice when the Hermite reduction of pi(t) on X'
    leaves zero; the quotients then weight the basis preimages of X' into
    D'.  D is read along a breadth-first spanning tree, which holds every
    separating node: across one, D drops by the total of t below it, the
    only node leaving that side; across any other node D changes as D' does
    between the two pieces (a sum of tails is constant there).  Unique
    modulo X, returned with minimum coefficient 0, and its multidegree is
    checked to be t.  It is the canonical divisor of t, and the level
    expression of t is read off it: level m is the set of components with
    coefficient m.  Raises NotATwisterError when t is outside the lattice;
    every column sums to zero, so a nonzero total always leaves a residue.

    >>> g = CurveGraph(["C1", "C2", "C3"], [(0, 1), (1, 2), (1, 2)])
    >>> try:
    ...     twister_divisor(g, (3, 0, -3))  # pieces {C1, C2} and {C3}
    ... except NotATwisterError as no:
    ...     print(no)
    (3, 0, -3) is not a twister multidegree (piece totals (3, -3) reduce to (1, -1), not 0)
    """
    tv = _check_vector(g, t, "multidegree")
    basis = _lattice(g.contracted)
    totals = piece_totals(g, tv)
    residue = list(totals)
    quotients = _reduce(basis, residue)
    if any(residue):
        raise NotATwisterError(f"{tv} is not a twister multidegree (piece totals"
                               f" {totals} reduce to {tuple(residue)}, not 0)")
    dx = [0] * len(residue)
    for q, (*_, pre) in zip(quotients, basis):
        dx = [a + q * b for a, b in zip(dx, pre)]
    adj = [[] for _ in tv]
    for e, (a, b) in enumerate(g.edges):
        adj[a].append((b, e))
        adj[b].append((a, e))
    order, via = [0], {0: None}  # via: component -> (parent, node between)
    for v in order:
        for w, e in adj[v]:
            if w not in via:
                via[w] = (v, e)
                order.append(w)
    below = list(tv)  # the total of t on the side below each component
    for v in reversed(order[1:]):
        below[via[v][0]] += below[v]
    p, x = g.pieces, [0] * len(tv)
    for v in order[1:]:
        u, e = via[v]
        x[v] = x[u] - below[v] if e in g.bridges else x[u] + dx[p[v]] - dx[p[u]]
    out = normalize_divisor(x)
    if multidegree_of(g, out) != tv:
        raise LatticeSelfCheckError(
            f"divisor {out} found for {tv} has another multidegree"
        )
    return out


def equivalent(g: CurveGraph, d1: Iterable[int], d2: Iterable[int]) -> bool:
    """Same canonical class (see multidegree_class).

    A canonical representative keeps the total degree, so different totals
    simply compare unequal; no error.
    """
    return multidegree_class(g, d1) == multidegree_class(g, d2)


def multidegree_class(g: CurveGraph, t: Iterable[int]) -> Multidegree:
    """The degree class of t, given as its canonical representative.

    The canonical representative is the one member of the class found by
    shifting t to total degree 0 along the first coordinate, reducing it into
    the Hermite fundamental domain of the twister lattice, and shifting back.
    That domain is X's: pi(z) reduced on X', placed.
    """
    z = list(_check_vector(g, t, "multidegree"))
    d = sum(z)
    z[0] -= d
    if not g.bridges:  # X' is the curve, as in every class lookup of is_natural
        _reduce(_lattice(g), z)
    else:
        z = list(piece_totals(g, z))
        _reduce(_lattice(g.contracted), z)
        z = _place(g, z)
    z[0] += d
    return tuple(z)


def class_group_order(g: CurveGraph) -> int:
    """Number of degree classes for any fixed total degree.

    The Hermite pivot product of g.contracted, checked at the build against
    its spanning-tree count: the curve's, as every tree has every bridge.
    """
    return math.prod(val for val, _, _ in _lattice(g.contracted))


def enumerate_classes(g: CurveGraph, d: int) -> list[Multidegree]:
    """The canonical representatives (see multidegree_class) of all degree
    classes of total degree d, in a deterministic order.

    Walks the Hermite fundamental domain of X': pivot rows 0..P-2 range
    over their residues, the balancing row brings the total to zero, and
    the vector is placed on X (_place) and shifted to total degree d along
    the first coordinate.  More than LISTING_LIMIT classes raises
    ValueError instead of exhausting memory.
    """
    pivots = [val for val, _, _ in _lattice(g.contracted)]
    _check_listing("the curve", "degree classes", ((val, 1) for val in pivots))
    out = []
    for residues in itertools.product(*(range(val) for val in pivots)):
        z = _place(g, [*residues, -sum(residues)])
        z[0] += d
        out.append(tuple(z))
    return out
