"""Exhaustive enumeration of small dual graphs and the agreement harness.

The library enumerates loopless graphs only.  A loopless graph is a
multiplicity vector over the vertex pairs i < j, in lex order, kept when it
is connected and no relabeling is lex-smaller: one vector, the orbit
minimum, per isomorphism class.  Every checked property is
isomorphism-invariant, so that covers all labeled graphs.

Rejection is orderly (Read, "Every one a winner", 1978): a prefix of k
multiplicities is dropped as soon as a relabeling that maps the first k
slots onto themselves makes it lex-smaller.  That relabeling's image on the
first k slots depends only on the prefix, so it makes every completion
lex-smaller too, and no orbit minimum is lost.  Slots fill row by row, so
once row r < gamma - 1 is filled, a class whose largest vertex is r is
complete and misses gamma - 1; and a node joins two classes at most.  So a
prefix is dropped there, or with more classes - 1 than nodes left, and
every full vector left is connected.  At the leaf, key(u), u's
multiplicities sorted, is the least row 0 a relabeling sending u to 0
gives: a key below row 0 rejects, and only the relabelings that send to 0
a u with key(u) = row 0 are run (McKay, "Practical graph isomorphism",
1981).  An orbit minimum has its row 0 sorted, so every automorphism sends
to 0 such a u: the relabelings run that fix the vector are exactly the
graph's automorphisms.

The harness counts loop placements: loops are counts per component on a
loopless graph g, one count vector per orbit of g's automorphisms.  A loop
enters no pairing and no cut, so every placement on g gets g's verdict,
and a bridged g's X' (loopless, connected, bridgeless and smaller) is a
bridgeless graph of the sweep up to isomorphism.  So run_harness counts
g's placements by Burnside's lemma (_loop_placement_count), cross-checks
g only when it is bridgeless, and reports a failure on g itself.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterator, NamedTuple

from .abel import _check_partitional, cross_check_naturality
from .graph import CurveGraph
from .lattice import _check_listing


def _slots(gamma: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(gamma), 2))


def _perm_getters(gamma: int, slots: list[tuple[int, int]]) -> list[list]:
    # tables[k], k < len(slots): one itemgetter per distinct non-identity
    # relabeling of the first k slots by a vertex permutation that maps them
    # onto themselves; tables[-1][u]: (itemgetter, perm) for each
    # non-identity vertex permutation perm sending u to 0, vertex i to perm[i]
    n = len(slots)
    index = {s: k for k, s in enumerate(slots)}
    images = [{} for _ in range(n)]  # dicts keep first-seen order
    groups = [[] for _ in range(gamma)]
    for perm in itertools.islice(itertools.permutations(range(gamma)), 1, None):  # no identity
        image = [0] * n
        for k, (i, j) in enumerate(slots):
            a, b = perm[i], perm[j]
            image[index[(a, b) if a <= b else (b, a)]] = k
        for k, top in enumerate(itertools.accumulate(image[:-1], max), 1):
            if top == k - 1:  # k distinct indices below k are range(k)
                images[k][tuple(image[:k])] = None
        # gamma = 2: the swap fixes the one slot, and itemgetter(0) returns no tuple
        groups[perm.index(0)].append((itemgetter(*image) if n > 1 else tuple, perm))
    return [
        [itemgetter(*im) for im in ims if im != tuple(range(k))]
        for k, ims in enumerate(images)
    ] + [groups]


def _canonical_vectors(gamma: int, max_edges: int) -> Iterator[tuple]:
    # (orbit-minimum vector, its automorphisms with the identity first)
    slots = _slots(gamma)
    tables = _perm_getters(gamma, slots)
    n = len(slots)
    rows = [[k for k, s in enumerate(slots) if u in s] for u in range(gamma)]  # u's slots
    identity = tuple(range(gamma))

    # last[v]: the largest vertex of v's class under the nodes so far
    def rec(prefix: tuple, budget: int, last: tuple, classes: int) -> Iterator[tuple]:
        if len(prefix) == n:
            row = list(prefix[: gamma - 1])  # row 0, the first block
            automorphisms = [identity]
            for u, group in enumerate(tables[n]):
                key = sorted([prefix[k] for k in rows[u]])
                if key < row:
                    return
                if key == row:
                    for get, perm in group:
                        image = get(prefix)
                        if image <= prefix:
                            if image < prefix:
                                return
                            automorphisms.append(perm)
            yield prefix, automorphisms
            return
        if any(g(prefix) < prefix for g in tables[len(prefix)]):
            return
        i, j = slots[len(prefix)]
        lo, hi = sorted((last[i], last[j]))
        joined = classes - (lo != hi)
        # a list, not a generator: tuple() resizes those, and the tuple free list keeps them
        merged = last if lo == hi else tuple([hi if c == lo else c for c in last])
        if not (j == gamma - 1 and last[i] == i):  # a 0 ends row i: i's class closes
            yield from rec(prefix + (0,), budget, last, classes)
        for m in range(1, budget - joined + 2):  # a later node joins two classes at most
            yield from rec(prefix + (m,), budget - m, merged, joined)

    return rec((), max_edges, identity, gamma)


def _loop_placement_count(automorphisms: list, budget: int) -> int:
    # the number of loop placements (tests/helpers.py's loop_placements lists
    # them) by Burnside's lemma: the mean over the group of the placements
    # each permutation fixes.  p fixes exactly the count vectors constant on
    # its cycles: one count per cycle, weighted by the cycle's length, a
    # coin-change count
    fixed = 0
    for p in automorphisms:
        ways = [1] + [0] * budget  # ways[t]: counts on the cycles so far, weighted total t
        seen: set = set()
        for start in range(len(p)):
            length, v = 0, start
            while v not in seen:
                seen.add(v)
                v, length = p[v], length + 1
            if length:  # 0: start lies on a cycle already counted
                for t in range(length, budget + 1):
                    ways[t] += ways[t - length]
        fixed += sum(ways)
    count, rest = divmod(fixed, len(automorphisms))
    # a remainder means no group, but a non-group can divide evenly
    # ([(0, 1, 2), (1, 2, 0)] at budget 3 gives 11), so tests still compare
    # the count with the lister
    if rest:
        raise RuntimeError(f"{fixed} fixed placements over {len(automorphisms)} automorphisms")
    return count


def connected_multigraphs(max_gamma: int, max_edges: int) -> Iterator[tuple[CurveGraph, list]]:
    """(graph, automorphisms) for all connected loopless multigraphs with
    <= max_gamma vertices and <= max_edges edges, one graph per isomorphism
    class, deterministic order.  The automorphisms are the vertex
    permutations p (vertex i to p[i]) that keep the graph, identity first.
    Loops are inert: run_harness counts each graph's loop placements.

    A connected graph on gamma vertices has at least gamma - 1 edges, so no
    gamma above max_edges + 1 is enumerated.  A largest gamma with more than
    LISTING_LIMIT relabelings raises ValueError before any is built."""
    if max_gamma < 1:
        raise ValueError("max_gamma must be >= 1")
    if max_edges < 0:
        raise ValueError("max_edges must be >= 0")
    top = min(max_gamma, max_edges + 1)
    _check_listing(f"gamma {top}", "relabelings", ((k, 1) for k in range(2, top + 1)))
    for gamma in range(1, top + 1):
        slots = _slots(gamma)
        labels = [f"C{i + 1}" for i in range(gamma)]
        for vec, automorphisms in _canonical_vectors(gamma, max_edges):
            edges = [s for s, m in zip(slots, vec) for _ in range(m)]
            yield CurveGraph(labels, edges), automorphisms


class HarnessResult(NamedTuple):
    graphs: int
    checks: int
    failures: tuple  # tuple[(components, edges, degree, natural_by_classes), ...], edges bridgeless

    @property
    def ok(self) -> bool:
        return not self.failures


def run_harness(max_gamma: int, max_edges: int, max_degree: int) -> HarnessResult:
    """cross_check_naturality on every contracted curve of the sweep.

    Each loopless graph stands for all its loop placements, counted.  Each
    bridgeless graph is its own X' and is cross-checked once; a bridged
    graph's X' is isomorphic to one of them, so it is only counted.  A
    failure names the bridgeless graph: every loop placement on it, and
    every curve whose X' it is, fails alike.  The failures are sorted.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    # a cycle or a double node has the most pieces: refuse their degrees now
    _check_partitional(max(1, min(max_gamma, max_edges)), max_degree)
    graphs, failures = 0, []
    for g, automorphisms in connected_multigraphs(max_gamma, max_edges):
        graphs += _loop_placement_count(automorphisms, max_edges - g.edge_count)
        if not g.bridges:  # a bridged g's X' is one of the sweep's bridgeless graphs
            fails = cross_check_naturality(g, max_degree)
            failures += [(g.components, g.edges, d, yes) for d, yes in fails]
    return HarnessResult(graphs, graphs * max_degree, tuple(sorted(failures)))
