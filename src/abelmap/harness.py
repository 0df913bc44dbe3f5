"""Exhaustive enumeration of small dual graphs and the agreement harness.

Graphs are generated as multiplicity vectors over the unordered vertex
pairs (loops included unless disabled), kept when the non-loop support is
connected, and deduplicated by the exact minimum of the vector over all
vertex permutations.  Every checked property is isomorphism-invariant, so
one representative per isomorphism class covers all labeled graphs.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .abel import cross_check_naturality
from .graph import CurveGraph, _components


def _slots(gamma: int, loops: bool) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(gamma)
        for j in range(i if loops else i + 1, gamma)
    ]


def _perm_getters(gamma: int, slots: list[tuple[int, int]]):
    # one itemgetter per vertex permutation, mapping a multiplicity vector
    # to its relabeled copy; identity included
    index = {s: k for k, s in enumerate(slots)}
    getters = []
    for perm in itertools.permutations(range(gamma)):
        image = [0] * len(slots)
        for k, (i, j) in enumerate(slots):
            a, b = perm[i], perm[j]
            image[index[(a, b) if a <= b else (b, a)]] = k
        getters.append(itemgetter(*image))
    return getters


def _canonical_vectors(gamma: int, max_edges: int, loops: bool) -> list[tuple]:
    slots = _slots(gamma, loops)
    getters = _perm_getters(gamma, slots) if gamma > 1 else []
    seen = set()
    n = len(slots)

    def rec(prefix: tuple, budget: int) -> None:
        if len(prefix) == n:
            if len(set(_components(gamma, itertools.compress(slots, prefix)))) == 1:
                if gamma == 1:
                    seen.add(prefix)
                else:
                    canon = min(
                        g(prefix) for g in getters
                    )
                    seen.add(canon if isinstance(canon, tuple) else (canon,))
            return
        for m in range(budget + 1):
            rec(prefix + (m,), budget - m)

    rec((), max_edges)
    return sorted(seen)


def connected_multigraphs(
    max_gamma: int, max_edges: int, loops: bool = True
) -> Iterator[CurveGraph]:
    """All connected multigraphs with <= max_gamma vertices and <= max_edges
    edges (loops count), one per isomorphism class, deterministic order."""
    if max_gamma < 1 or max_edges < 0:
        raise ValueError("bounds must be positive")
    for gamma in range(1, max_gamma + 1):
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
    failures: tuple  # tuple[(components, edges, degree), ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _verify_instance(args) -> list:
    labels, edges, max_degree = args
    g = CurveGraph(labels, edges)
    return [
        (labels, edges, d)
        for d in range(1, max_degree + 1)
        if not cross_check_naturality(g, d)
    ]


def run_harness(
    max_gamma: int, max_edges: int, max_degree: int, jobs: int = 1
) -> HarnessResult:
    """cross_check_naturality over every enumerated graph and degree.

    jobs > 1 spreads the graph instances over a process pool; instances are
    independent and the result is order-insensitive (failures are sorted).
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    work = [
        (g.components, g.edges, max_degree)
        for g in connected_multigraphs(max_gamma, max_edges)
    ]
    failures: list = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for fails in pool.map(_verify_instance, work, chunksize=16):
                failures.extend(fails)
    else:
        for item in work:
            failures.extend(_verify_instance(item))
    return HarnessResult(
        graphs=len(work),
        checks=len(work) * max_degree,
        failures=tuple(sorted(failures)),
    )
