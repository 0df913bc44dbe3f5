"""Existence of natural d-th Abel maps via essential connectivity.

The essential connectivity of a connected nodal curve is the smallest
cut size k_Z over proper subcurves Z whose cut is not made of separating
nodes only: the smallest cut once the separating nodes are contracted.  It
is infinite when no such subcurve exists (irreducible curves, curves of
compact type, two components meeting in one node).

The decision implemented here: a natural d-th Abel map exists if and only
if the essential connectivity exceeds d.  The package also carries an
independent brute-force route: over all partitional multidegrees of total
degree d (nonnegative entries), every equivalent pair must differ by a
sum-of-tails multidegree, one whose total on every piece is 0.
cross_check_naturality compares the two routes and is the backbone of the
enumeration harness.  Both routes read one pieces labelling of the curve
(CurveGraph.pieces): epsilon is a Stoer-Wagner minimum cut between pieces,
polynomial in their number, and the sum-of-tails test sums over them.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations
from typing import Iterable, Optional

from .graph import CurveGraph
from .lattice import (
    DegreeClass,
    Multidegree,
    _check_listing,
    _check_vector,
    class_group_order,
    enumerate_classes,
    equivalent,
    multidegree_class,
)
from .levels import is_sum_of_tails_multidegree

INFINITY = math.inf


class InvalidChooserError(ValueError):
    """A representative choice does not fit the graph and degree."""


def essential_connectivity(g: CurveGraph):
    """inf of k_Z over proper subcurves whose cut has a non-separating node.

    A minimizing cut can always be taken with no separating node in it, so
    this is the smallest cut of the curve with its separating nodes
    contracted to pieces: a global minimum cut of the pieces, each other
    non-loop node an edge of weight 1, found by Stoer-Wagner in
    O(P * E log P) for P pieces.  math.inf for one piece (compact type).
    """
    piece = g.pieces
    weight: dict = {p: {} for p in piece}  # piece -> {piece: nodes between}
    for a, b in g.edges:
        u, v = piece[a], piece[b]
        if u != v:
            weight[u][v] = weight[u].get(v, 0) + 1
            weight[v][u] = weight[v].get(u, 0) + 1
    return _min_cut(weight)


def _min_cut(weight: dict) -> float:
    """Stoer-Wagner global minimum cut of a connected bridgeless graph.

    weight[v] maps each neighbour of v to the total weight between them.
    Each phase adds vertices in maximum-adjacency order; the weight joining
    the last one to all the others is a cut-of-the-phase, and the last two
    are then merged.  The smallest cut-of-the-phase is the minimum cut.
    With integer weights and no bridge no cut is below 2, so 2 ends the
    search.  math.inf for one vertex.  Consumes weight.
    """
    best = INFINITY
    while len(weight) > 1 and best > 2:
        start = next(iter(weight))
        attached = dict.fromkeys(weight, 0)  # weight to the vertices added so far
        heap = [(0, start)]
        added: set = set()
        prev = last = start
        while heap:
            _, v = heapq.heappop(heap)
            if v in added:
                continue  # an older entry; v's largest weight came out first
            added.add(v)
            prev, last = last, v
            for u, w in weight[v].items():
                if u not in added:
                    attached[u] += w
                    heapq.heappush(heap, (-attached[u], u))
        best = min(best, attached[last])
        for u, w in weight.pop(last).items():  # merge last into prev
            del weight[u][last]
            if u != prev:
                weight[prev][u] = weight[prev].get(u, 0) + w
                weight[u][prev] = weight[u].get(prev, 0) + w
    return best


def has_natural_abel_map(g: CurveGraph, d: int) -> bool:
    """True when the essential connectivity exceeds d.  Requires d >= 1."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return essential_connectivity(g) > d


def partitional_multidegrees(gamma: int, d: int) -> list[Multidegree]:
    """Nonnegative integer vectors of length gamma with total d, lex order.

    There are binomial(d + gamma - 1, gamma - 1) of them; more than
    LISTING_LIMIT raises ValueError instead of exhausting memory.

    >>> partitional_multidegrees(2, 1)
    [(0, 1), (1, 0)]
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if d < 0:
        return []
    _check_partitional(gamma, d)
    # stars and bars: the gaps between gamma - 1 bars among d + gamma - 1
    # slots; bars in lex order give vectors in lex order, and no recursion
    # as deep as gamma is needed
    return [
        tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, d + gamma - 1)))
        for bars in combinations(range(d + gamma - 1), gamma - 1)
    ]


def _check_partitional(gamma: int, d: int) -> None:
    # binomial(n, k) of them, one factor at a time (none when gamma or d < 1)
    n, k = d + gamma - 1, min(d, gamma - 1)
    factors = ((n - k + i, i) for i in range(1, k + 1))
    _check_listing(f"degree {d}", "partitional multidegrees", factors)


def choose_representatives(g: CurveGraph, d: int) -> dict:
    """One representative per degree class, keyed by class in
    enumerate_classes order: the lex-smallest partitional member when the
    class has one, the canonical representative otherwise.  Deterministic.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    first: dict[DegreeClass, Multidegree] = {}
    for p in partitional_multidegrees(g.gamma, d):
        first.setdefault(multidegree_class(g, p), p)
    return {cls: first.get(cls, cls.canonical) for cls in enumerate_classes(g, d)}


def is_natural(g: CurveGraph, d: int, reps: Optional[Iterable] = None) -> bool:
    """Does this choice of representatives give a natural d-th Abel map?

    True when every partitional multidegree differs from its class's chosen
    representative by a sum-of-tails multidegree.  reps holds one
    multidegree of total d per degree class, in any order; InvalidChooserError
    when two share a class or their count is not class_group_order (then
    every class has one).  The default is choose_representatives(g, d); only
    its partitional representatives are ever looked up, so the table starts
    empty and takes each class's first (lex-smallest) partitional member.

    >>> g = CurveGraph(["C1", "C2"], [(0, 1), (0, 1), (0, 1)])
    >>> reps = choose_representatives(g, 1).values()
    >>> list(reps)
    [(1, 0), (2, -1), (0, 1)]
    >>> is_natural(g, 1, reps)
    True
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    table: dict[DegreeClass, Multidegree] = {}
    if reps is not None:
        for rep in reps:
            rv = _check_vector(g, rep, "representative")
            if sum(rv) != d:
                raise InvalidChooserError(f"representative {rv} has total {sum(rv)} != {d}")
            cls = multidegree_class(g, rv)
            if cls in table:
                raise InvalidChooserError(
                    f"representatives {table[cls]} and {rv} share a class"
                )
            table[cls] = rv
        order = class_group_order(g)
        if len(table) != order:
            raise InvalidChooserError(
                f"the choice has {len(table)} classes, the curve has {order}"
            )
    for p in partitional_multidegrees(g.gamma, d):
        rep = table.setdefault(multidegree_class(g, p), p)
        t = tuple(x - y for x, y in zip(p, rep))
        if not is_sum_of_tails_multidegree(g, t):
            return False
    return True


def partitional_pairs_certified(g: CurveGraph, d: int) -> bool:
    """Brute-force side of the criterion.

    Every pair of equivalent partitional multidegrees must differ by a
    sum-of-tails multidegree.  Unordered pairs suffice: a vector's piece
    totals vanish exactly when those of its negative do.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    parts = partitional_multidegrees(g.gamma, d)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not equivalent(g, parts[i], parts[j]):
                continue
            t = tuple(x - y for x, y in zip(parts[i], parts[j]))
            if not is_sum_of_tails_multidegree(g, t):
                return False
    return True


def cross_check_naturality(g: CurveGraph, d: int) -> bool:
    """Compare the brute-force pair check with the connectivity criterion.

    Returns True when the two independent routes agree; the enumeration
    harness demands True on every instance.
    """
    return partitional_pairs_certified(g, d) == has_natural_abel_map(g, d)
