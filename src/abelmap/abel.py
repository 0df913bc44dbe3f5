"""Existence of natural d-th Abel maps via essential connectivity.

The essential connectivity of a connected nodal curve is the smallest
cut size k_Z over proper subcurves Z whose cut is not made of separating
nodes only: the smallest cut of X', the curve with its separating nodes
contracted (CurveGraph.contracted).  It is infinite when X' has one
component (irreducible curves, curves of compact type, two components
meeting in one node).

The decision implemented here: a natural d-th Abel map exists if and only
if the essential connectivity exceeds d.  The package also carries an
independent brute-force route, is_natural: every two equivalent
partitional multidegrees (nonnegative entries, total degree d) must differ
by a sum-of-tails multidegree.  On X' that asks whether the partitional
multidegrees lie in pairwise distinct classes (see is_natural for the
reduction).  cross_check_naturality compares the two routes per curve, at
each degree up to a bound; it is the backbone of the enumeration harness.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections import deque
from itertools import combinations
from typing import Iterable, Optional

from .graph import CurveGraph
from .lattice import (
    Multidegree,
    _check_listing,
    _check_vector,
    _lattice,
    _place,
    class_group_order,
    enumerate_classes,
    equivalent,
    multidegree_class,
    piece_totals,
)
from .levels import is_sum_of_tails_multidegree

INFINITY = math.inf


class InvalidChooserError(ValueError):
    """A representative choice does not fit the graph and degree."""


def essential_connectivity(g: CurveGraph):
    """inf of k_Z over proper subcurves whose cut has a non-separating node.

    A minimizing cut can always be taken with no separating node in it, so
    this is the global minimum cut of X' = g.contracted, each non-loop node
    an edge of weight 1 (_min_cut).  A piece whose heaviest neighbour holds
    at least half its nodes is first merged into that neighbour, which keeps
    some minimum cut (_min_cut says why), so chains and pendant pieces go in
    O(P + E) for P pieces, and Stoer-Wagner, O(P * E log P), runs only on
    the kernel that remains.  math.inf for one piece (compact type).
    """
    x = g.contracted
    weight: dict = {k: {} for k in range(x.gamma)}  # piece -> {piece: nodes between}
    for u, v in x.edges:
        if u != v:
            weight[u][v] = weight[u].get(v, 0) + 1
            weight[v][u] = weight[v].get(u, 0) + 1
    return _min_cut(weight)


def _min_cut(weight: dict) -> float:
    """Global minimum cut of a connected bridgeless graph.

    weight[v] maps each neighbour of v to the total weight between them.
    First, each vertex v whose heaviest neighbour a holds at least half of
    its degree, 2 w(v, a) >= delta(v), gives the cut {v} and is merged into
    a (Padberg-Rinaldi); this is exact, because moving v to a's side never
    enlarges a cut that parts v from a, so some minimum cut is {v} or keeps
    v with a.  Pendant vertices and vertices with two neighbours always
    qualify, so chains go in O(V + E).  Stoer-Wagner, O(V * E log V), runs
    on the kernel that remains: each phase adds vertices in
    maximum-adjacency order; the weight joining the last one to all the
    others is a cut-of-the-phase, and the last two are then merged.  The
    smallest cut found is the minimum cut.  With integer weights and no
    bridge no cut is below 2, so 2 ends the search.  math.inf for one
    vertex.  Consumes weight.
    """
    best = INFINITY
    todo, queued = deque(weight), set(weight)  # vertices to test, none twice in todo
    while todo and len(weight) > 1 and best > 2:
        v = todo.popleft()
        queued.remove(v)
        a = max(weight[v], key=weight[v].get)
        cut = sum(weight[v].values())
        if 2 * weight[v][a] >= cut:
            best = min(best, cut)
            fresh = weight[v].keys() - queued  # a and the others whose weights change
            todo += fresh
            queued |= fresh
            _merge(weight, v, a)
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
        _merge(weight, last, prev)
    return best


def _merge(weight: dict, v, a) -> None:
    """Merge vertex v into vertex a, adding up the weights they share."""
    for u, w in weight.pop(v).items():
        del weight[u][v]
        if u != a:
            weight[a][u] = weight[a].get(u, 0) + w
            weight[u][a] = weight[u].get(a, 0) + w


def has_natural_abel_map(g: CurveGraph, d: int) -> bool:
    """True when the essential connectivity exceeds d.  Requires d >= 1."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return essential_connectivity(g) > d


def partitional_multidegrees(gamma: int, d: int) -> list[Multidegree]:
    """Nonnegative integer vectors of length gamma with total d, lex order.

    There are binomial(d + gamma - 1, gamma - 1) of them; more than
    LISTING_LIMIT raises ValueError instead of exhausting memory.  Each call
    returns a fresh list.

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
    """One representative per degree class, keyed by the class's canonical
    multidegree in enumerate_classes order: the lex-smallest partitional
    member when the class has one (a partitional q of X' placed on the last
    components, _place), the canonical multidegree otherwise.  Deterministic.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    first: dict[Multidegree, Multidegree] = {}
    for q in partitional_multidegrees(g.contracted.gamma, d):
        p = tuple(_place(g, q))
        first.setdefault(multidegree_class(g, p), p)
    return {c: first.get(c, c) for c in enumerate_classes(g, d)}


def is_natural(g: CurveGraph, d: int, reps: Optional[Iterable] = None) -> bool:
    """Does this choice of representatives give a natural d-th Abel map?

    True when every partitional multidegree differs from its class's chosen
    representative by a sum-of-tails multidegree.  reps holds one
    multidegree of total d per degree class, in any order; InvalidChooserError
    when two share a class or their count is not class_group_order (then
    every class has one).  The default is choose_representatives(g, d).

    Both are decided on X' = g.contracted, with pi = piece_totals onto its
    components.  The sum-of-tails multidegrees are the kernel of pi in
    degree 0 and lie in the twister lattice, which pi maps onto that of X'.
    So p ~ q on X exactly when pi(p) ~ pi(q) on X', and p - q is a sum of
    tails exactly when pi(p) = pi(q).  pi maps partitional onto partitional
    multidegrees, so a choice works when every partitional q of X' is pi of
    its class's representative, and the default (each class's first
    partitional member) works exactly when no two partitional q share a
    class.  So does the pair test of partitional_pairs_certified, with no
    pair test and no class lookup per q: _least_shared_degree reduces each q
    as it builds it.

    Given reps, one per class, their piece totals lie in distinct classes
    of X', so they are distinct, and a representative whose piece totals
    are all >= 0 is pi of itself, partitional, in its own class.  So the
    partitional q that are pi of their class's representative are exactly
    the representatives' piece totals that are >= 0, and the choice works
    exactly when those are binomial(d + P - 1, P - 1), every partitional q
    of X' with P pieces: one class lookup per representative, no walk.

    >>> g = CurveGraph(["C1", "C2"], [(0, 1), (0, 1), (0, 1)])
    >>> reps = choose_representatives(g, 1).values()
    >>> list(reps)
    [(1, 0), (2, -1), (0, 1)]
    >>> is_natural(g, 1, reps)
    True
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    x = g.contracted
    if reps is None:
        return _least_shared_degree(x, d) > d
    held: dict[tuple, tuple] = {}  # pivot-row residues of a class -> its representative
    kept = 0  # representatives with piece totals >= 0
    for rep in reps:
        rv = _check_vector(g, rep, "representative")
        if sum(rv) != d:
            raise InvalidChooserError(f"representative {rv} has total {sum(rv)} != {d}")
        totals = piece_totals(g, rv)
        cls = multidegree_class(x, totals)
        key = (cls[0] - d, *cls[1:])[:-1]
        if key in held:
            raise InvalidChooserError(f"representatives {held[key]} and {rv} share a class")
        held[key] = rv
        kept += min(totals) >= 0
    order = class_group_order(g)
    if len(held) != order:
        raise InvalidChooserError(f"the choice has {len(held)} classes, the curve has {order}")
    _check_partitional(x.gamma, d)  # the default's walk refuses the same degrees
    return kept == math.comb(d + x.gamma - 1, x.gamma - 1)


def _least_shared_degree(x: CurveGraph, top: int) -> int:
    """The least d <= top at which two partitional multidegrees of the
    bridgeless x share a class, top + 1 if none do (cross_check_naturality
    says why one reversed walk finds it).

    The walk visits the degree-top vectors q in reverse lex order, building
    no listing, and reduces each as multidegree_class does, row by row as
    its entries are chosen: level p takes q[p] from what is left down to 0,
    and the quotient of divmod(q[p] + off[p], pivot p) comes off the later
    pivot rows' offsets through the nonzero entries of column p, and goes
    back on before q[p] changes.  So vectors sharing a prefix share its
    reduction, with no class lookup.  A class is keyed by its pivot-row
    residues; the balancing row is never read.

    At the leaf, the last pivot row takes v from rest down to 0 (the
    balancing entry takes rest - v), at residues (off + v) mod val for the
    last pivot val: one arc of rest + 1 residues on the cycle Z/val.  The
    block collides when rest >= val, or when its arc meets an arc taken
    earlier under the same residues in the earlier pivot rows.  Its vectors
    share q[0], so one test per block finds the degree top - q[0].  With
    one pivot row the block is the whole walk and v is q[0]; its first
    repeat is at v = top - val, degree val.  Taken arcs are disjoint, so
    each is kept as the integer interval [lo, lo + n], 0 <= lo < val, the
    ends of all in one sorted list per prefix.  A new [lo, hi] meets one
    mod val when it meets one as integers, when the last, the only one
    that can run past val - 1, runs on to lo (its end less val >= lo), or
    when [lo, hi] runs on to the first one's start (hi less val >= it).  A
    leaf costs one bisection, and nothing kept is sized by a pivot, which
    can be the whole class count.
    """
    _check_partitional(x.gamma, top)
    basis = _lattice(x)
    last = len(basis) - 1  # the leaf level; pivot rows 0..last, balancing row last + 1
    if last < 0:  # one piece: the one vector (top,)
        return top + 1
    pivots = [val for val, _, _ in basis]
    spread = [[(k, col[k]) for k in range(p + 1, last + 1) if col[k]]
              for p, (_, col, _) in enumerate(basis)]
    off, res, quo = [0] * (last + 1), [0] * last, [0] * last
    q, left = [top] * last, [top] * (last + 1)  # left[p]: the total still to place at level p
    off[0], p = -top, 0  # multidegree_class shifts the total off the first entry
    val, arcs = pivots[last], {}  # arcs: earlier residues -> the sorted ends of their arcs
    while True:
        while p < last:  # reduce row p at q[p], push its quotient down, descend
            quo[p], res[p] = divmod(q[p] + off[p], pivots[p])
            for k, c in spread[p]:
                off[k] -= quo[p] * c
            left[p + 1] = left[p] - q[p]
            p += 1
            if p < last:
                q[p] = left[p]
        rest, lo = left[last], off[last] % val
        if rest >= val:  # v and v - val share a residue
            return top - q[0] if last else val
        ends, hi = arcs.setdefault(tuple(res), []), lo + rest
        i = bisect_left(ends, lo)
        if ends and (i % 2 or i < len(ends) and ends[i] <= hi
                     or ends[-1] - val >= lo or ends[0] <= hi - val):
            return top - q[0]
        ends[i:i] = lo, hi
        while True:  # back up to the deepest level with a smaller q[p] left
            p -= 1
            if p < 0:
                return top + 1
            for k, c in spread[p]:
                off[k] += quo[p] * c
            if q[p]:
                q[p] -= 1
                break


def partitional_pairs_certified(g: CurveGraph, d: int) -> bool:
    """The O(P^2) pair form of is_natural(g, d), kept as a test oracle.

    Every pair of equivalent partitional multidegrees must differ by a
    sum-of-tails multidegree.  Unordered pairs suffice: a vector's piece
    totals vanish exactly when those of its negative do.  No library code
    calls it.  It stays in this module, calling lattice.equivalent, because
    the abelbench tracer self-test counts its equivalent calls.
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


def cross_check_naturality(g: CurveGraph, max_degree: int) -> list:
    """[(d, is_natural(g, d)), ...] for each d in 1..max_degree at which the
    brute-force route disagrees with the criterion "epsilon exceeds d".

    is_natural asks for distinct classes of the partitional multidegrees of
    X' = g.contracted; the criterion takes one minimum cut of X' for every
    degree, and is_natural's walk (_least_shared_degree) reads every degree
    off one pass over the degree-max_degree vectors in reverse lex order,
    building no listing.  There q[0] falls from max_degree
    to 0, so the tails q[1:] come by ascending total s; those of total <= s
    are the degree-s listing shifted along e_0, which shifts every class
    with it.  So the first class taken twice, at total s, is a collision at
    every degree from s on and at none below.  Every curve has a natural
    degree-1 Abel map ([CE]), so a cut below 2 raises RuntimeError.  The
    enumeration harness demands [].

    >>> cross_check_naturality(CurveGraph(["C1", "C2"], [(0, 1), (0, 1), (0, 1)]), 4)
    []
    """
    if max_degree < 1:
        raise ValueError("degree must be >= 1")
    eps = essential_connectivity(g)
    if eps < 2:
        raise RuntimeError(f"essential connectivity below 2 on {g!r}")
    shared = _least_shared_degree(g.contracted, max_degree)
    return [(d, d < shared) for d in range(1, max_degree + 1) if (d < shared) != (eps > d)]
