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
1981).

The harness counts loop placements: loops are counts per component on a
loopless graph g, one count vector per orbit of g's automorphisms.  A loop
enters no pairing and no cut, so run_harness cross-checks g's X' once per
distinct pairing matrix and counts g's loop placements, listing them only
when X' fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .abel import _check_partitional, cross_check_naturality
from .graph import CurveGraph
from .lattice import _check_listing


def _slots(gamma: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(gamma), 2))


def _perm_getters(gamma: int, slots: list[tuple[int, int]]) -> list[list]:
    # tables[k], k < len(slots): one itemgetter per distinct non-identity
    # relabeling of the first k slots by a vertex permutation that maps them
    # onto themselves; tables[-1][u]: those of all slots that send u to 0
    n = len(slots)
    index = {s: k for k, s in enumerate(slots)}
    images = [{} for _ in range(n)]  # dicts keep first-seen order
    groups = [{} for _ in range(gamma)]
    for perm in itertools.permutations(range(gamma)):
        image = [0] * n
        for k, (i, j) in enumerate(slots):
            a, b = perm[i], perm[j]
            image[index[(a, b) if a <= b else (b, a)]] = k
        for k, top in enumerate(itertools.accumulate(image[:-1], max), 1):
            if top == k - 1:  # k distinct indices below k are range(k)
                images[k][tuple(image[:k])] = None
        groups[perm.index(0)][tuple(image)] = None
    return [
        [itemgetter(*im) for im in ims if im != tuple(range(k))]
        for k, ims in enumerate(images)
    ] + [[[itemgetter(*im) for im in ims if im != tuple(range(n))] for ims in groups]]


def _canonical_vectors(gamma: int, max_edges: int) -> Iterator[tuple]:
    slots = _slots(gamma)
    tables = _perm_getters(gamma, slots)
    n = len(slots)
    rows = [[k for k, s in enumerate(slots) if u in s] for u in range(gamma)]  # u's slots

    # last[v]: the largest vertex of v's class under the nodes so far
    def rec(prefix: tuple, budget: int, last: tuple, classes: int) -> Iterator[tuple]:
        if len(prefix) == n:
            row = list(prefix[: gamma - 1])  # row 0, the first block
            for u, group in enumerate(tables[n]):
                key = sorted([prefix[k] for k in rows[u]])
                if key < row or key == row and any(g(prefix) < prefix for g in group):
                    return
            yield prefix
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

    return rec((), max_edges, tuple(range(gamma)), gamma)


def _loop_placements(g: CurveGraph, budget: int) -> Iterator[tuple]:
    # loop counts per component, totalling at most budget, each the least of
    # its orbit under g's automorphisms: vertex permutations, since at
    # gamma = 2 the swap fixes the one slot but moves a loop
    m = g.pairing_matrix
    n = len(m)
    keys = [sorted(row) for row in m]

    def automorphisms(perm: tuple) -> Iterator[tuple]:  # those that extend perm
        u = len(perm)
        if u == n:
            yield perm
            return
        for v in range(n):
            if keys[v] == keys[u] and v not in perm and all(m[u][w] == m[v][p] for w, p in enumerate(perm)):
                yield from automorphisms(perm + (v,))

    getters = [itemgetter(*p) for p in automorphisms(()) if p != tuple(range(n))]

    def placements(prefix: tuple, budget: int) -> Iterator[tuple]:
        if len(prefix) < n:
            for count in range(budget + 1):
                yield from placements(prefix + (count,), budget - count)
        elif all(get(prefix) >= prefix for get in getters):
            yield prefix

    return placements((), budget)


def _with_loops(g: CurveGraph, counts: tuple) -> tuple:  # in row-major slot order
    return tuple(sorted(g.edges + tuple((i, i) for i, c in enumerate(counts) for _ in range(c))))


def connected_multigraphs(max_gamma: int, max_edges: int) -> Iterator[CurveGraph]:
    """All connected loopless multigraphs with <= max_gamma vertices and
    <= max_edges edges, one per isomorphism class, deterministic order.
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
        for vec in _canonical_vectors(gamma, max_edges):
            yield CurveGraph(labels, [s for s, m in zip(slots, vec) for _ in range(m)])


@dataclass(frozen=True)
class HarnessResult:
    graphs: int
    checks: int
    failures: tuple  # tuple[(components, edges, degree, natural_by_classes), ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_harness(max_gamma: int, max_edges: int, max_degree: int) -> HarnessResult:
    """cross_check_naturality on the contracted curve of each enumerated graph.

    Each loopless graph stands for all its loop placements.  Each distinct
    pairing matrix of X' = g.contracted is cross-checked once and its failures
    given to every graph that shares it; the failures are sorted.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    # a cycle or a double node has the most pieces: refuse their degrees now
    _check_partitional(max(1, min(max_gamma, max_edges)), max_degree)
    graphs, failures = 0, []
    decided: dict = {}  # X' pairing matrix -> [(d, natural_by_classes), ...] that fail
    for g in connected_multigraphs(max_gamma, max_edges):
        x = g.contracted
        if x.pairing_matrix not in decided:
            decided[x.pairing_matrix] = cross_check_naturality(x, max_degree)
        fails = decided[x.pairing_matrix]
        for counts in _loop_placements(g, max_edges - g.edge_count):  # a record only on failure
            graphs += 1
            failures += [(g.components, _with_loops(g, counts), d, yes) for d, yes in fails]
    return HarnessResult(graphs, graphs * max_degree, tuple(sorted(failures)))
