"""Exhaustive enumeration of small dual graphs and the agreement harness.

Graphs are generated as multiplicity vectors over the unordered vertex
pairs (loops included unless disabled) in lex order, and kept when the
non-loop support is connected and no relabeling is lex-smaller: one vector,
the orbit minimum, per isomorphism class.  Every checked property is
isomorphism-invariant, so that covers all labeled graphs.

Rejection is orderly (Read, "Every one a winner", 1978): a prefix of k
multiplicities is dropped as soon as a relabeling that maps the first k
slots onto themselves makes it lex-smaller.  That relabeling's image on the
first k slots depends only on the prefix, so it makes every completion
lex-smaller too, and no orbit minimum is lost.  Slots fill row by row, so
once row r < gamma - 1 is filled, a class whose largest vertex is r is
complete and misses gamma - 1; and a node joins two classes at most.  So a
prefix is dropped there, or with more classes - 1 than nodes left, and
every full vector left is connected.  At the leaf, key(u), u's loop count
(with loops) and then its other multiplicities sorted, is the least row 0
a relabeling sending u to 0 gives: a key below row 0 rejects, and only the
relabelings that send to 0 a u with key(u) = row 0 are run (McKay,
"Practical graph isomorphism", 1981).

Both routes of the cross-check read only the pairing matrix of X' (loops are
inert), so run_harness decides each distinct one once, serially: graphs are
enumerated BATCH at a time, then that batch's new X' are decided.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .abel import _check_partitional, cross_check_naturality, essential_connectivity, is_natural
from .graph import CurveGraph
from .lattice import _check_listing

BATCH = 128  # graphs held at once; the batch's new X' are decided after it is read


def _slots(gamma: int, loops: bool) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(gamma)
        for j in range(i if loops else i + 1, gamma)
    ]


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


def _canonical_vectors(gamma: int, max_edges: int, loops: bool) -> Iterator[tuple]:
    slots = _slots(gamma, loops)
    tables = _perm_getters(gamma, slots)
    n = len(slots)
    rows = [[k for k, s in enumerate(slots) if u in s] for u in range(gamma)]  # u's slots

    # last[v]: the largest vertex of v's class under the nodes so far
    def rec(prefix: tuple, budget: int, last: tuple, classes: int) -> Iterator[tuple]:
        if len(prefix) == n:
            row = [prefix[k] for k in rows[0]]  # row 0, the first block
            for u, group in enumerate(tables[n]):
                mult = [prefix[k] for k in rows[u]]  # u's loop, if any, is at position u
                key = mult[u : u + loops] + sorted(mult[:u] + mult[u + loops :])
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
        if not (i < j == gamma - 1 and last[i] == i):  # a 0 ends row i: i's class closes
            yield from rec(prefix + (0,), budget, last, classes)
        for m in range(1, budget - joined + 2):  # a later node joins two classes at most
            yield from rec(prefix + (m,), budget - m, merged, joined)

    return rec((), max_edges, tuple(range(gamma)), gamma)


def connected_multigraphs(
    max_gamma: int, max_edges: int, loops: bool = True
) -> Iterator[CurveGraph]:
    """All connected multigraphs with <= max_gamma vertices and <= max_edges
    edges (loops count), one per isomorphism class, deterministic order.

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
        slots = _slots(gamma, loops)
        labels = [f"C{i + 1}" for i in range(gamma)]
        for vec in _canonical_vectors(gamma, max_edges, loops):
            edges = []
            for slot, m in zip(slots, vec):
                edges.extend([slot] * m)
            yield CurveGraph(labels, edges)


@dataclass(frozen=True)
class HarnessResult:
    graphs: int
    checks: int
    failures: tuple  # tuple[(components, edges, degree, natural_by_classes), ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _disagreements(x: CurveGraph, max_degree: int) -> list:
    # every curve has a natural degree-1 Abel map ([CE]): no cut of X' is below 2
    if essential_connectivity(x) < 2:
        raise RuntimeError(f"essential connectivity below 2 on {x!r}")
    return [
        (d, is_natural(x, d))
        for d in range(1, max_degree + 1)
        if not cross_check_naturality(x, d)
    ]


def run_harness(max_gamma: int, max_edges: int, max_degree: int) -> HarnessResult:
    """cross_check_naturality over every enumerated graph and degree.

    Each distinct pairing matrix of X' = g.contracted is decided once and its
    failures given to every graph that shares it.  At most BATCH graphs are
    held at a time; the failures are sorted.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    # a cycle or a double node has the most pieces: refuse their degrees now
    _check_partitional(max(1, min(max_gamma, max_edges)), max_degree)
    graphs_in = connected_multigraphs(max_gamma, max_edges)
    graphs, failures = 0, []
    decided: dict = {}  # X' pairing matrix -> [(d, natural_by_classes), ...] that fail
    while batch := list(itertools.islice(graphs_in, BATCH)):
        graphs += len(batch)
        keys = [g.contracted.pairing_matrix for g in batch]
        new = {m: g.contracted for m, g in zip(keys, batch) if m not in decided}
        decided.update((m, _disagreements(x, max_degree)) for m, x in new.items())
        for g, m in zip(batch, keys):
            failures += [(g.components, g.edges, d, yes) for d, yes in decided[m]]
    return HarnessResult(graphs, graphs * max_degree, tuple(sorted(failures)))
