"""Exhaustive enumeration of small dual graphs and the agreement harness.

_canonical_vectors enumerates loopless graphs only.  A loopless graph is a
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

The harness lists only the bridgeless graphs: loops enter no pairing and no
cut, and a bridged graph's X' is a bridgeless graph of the sweep up to
isomorphism.  It lists them in two stages, as nauty's geng | multig does
(McKay and Piperno, "Practical graph isomorphism, II", 2014).  The search
above, with every multiplicity capped at 1, yields each connected simple
graph S once, with its automorphisms.  Then each edge of S takes a
multiplicity: >= 2 on a bridge of S and >= 1 on any other edge, since a
multigraph over S has a bridge exactly when a bridge of S keeps one node.
So the search charges one more node to its budget for each vertex that its
row leaves with degree 1 in S, a bridge's end.  A multiplicity vector is
kept when no automorphism of S maps it lex-lower, and the automorphisms of
S that fix it are the graph's.  Every isomorphism of
two multigraphs is one of their simple graphs, so each class is listed once.
A listed graph is the least of its orbit under S's automorphisms, which need
not be the orbit minimum of its full vector.  The total, every connected
curve with loops within the bounds, is counted by Polya's theorem
(_graph_count), with no enumeration.
The full listing, bridged graphs included, is the tests' corpus, in
tests/helpers.py; no library code runs it.
"""

from __future__ import annotations

import itertools
from math import factorial, gcd, lcm, prod
from operator import itemgetter
from typing import Iterator, NamedTuple

from .abel import _check_partitional, cross_check_naturality
from .graph import CurveGraph
from .lattice import LISTING_LIMIT, _check_listing


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


def _canonical_vectors(gamma: int, max_edges: int, bridgeless: bool = False) -> Iterator[tuple]:
    # (the graph of an orbit-minimum vector, its automorphisms with the identity
    # first).  bridgeless: the search lists the simple graphs, multiplicities
    # capped at 1, and _multiplicities places the nodes on each.  A listed graph,
    # which a failing sweep names, is then the least of its orbit under its
    # simple graph's automorphisms, not always the orbit minimum of its vector
    slots = _slots(gamma)
    tables = _perm_getters(gamma, slots)
    n = len(slots)
    rows = [[k for k, s in enumerate(slots) if u in s] for u in range(gamma)]  # u's slots
    identity = tuple(range(gamma))
    labels = [f"C{i + 1}" for i in range(gamma)]
    top = 1 if bridgeless else max_edges

    # last[v]: the largest vertex of v's class under the nodes so far
    def rec(prefix: tuple, budget: int, last: tuple, classes: int) -> Iterator[tuple]:
        if len(prefix) == n:
            row = list(prefix[: gamma - 1])  # row 0, the first block
            automorphisms = [(tuple, identity)]  # (slot getter, vertex permutation)
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
                            automorphisms.append((get, perm))
            g = CurveGraph(labels, [s for s, m in zip(slots, prefix) for _ in range(m)])
            if bridgeless:
                yield from _multiplicities(g, prefix, automorphisms, max_edges)
            else:
                yield g, [perm for _, perm in automorphisms]
            return
        if any(g(prefix) < prefix for g in tables[len(prefix)]):
            return
        i, j = slots[len(prefix)]
        lo, hi = sorted((last[i], last[j]))
        joined = classes - (lo != hi)
        # a list, not a generator: tuple() resizes those, and the tuple free list keeps them
        merged = last if lo == hi else tuple([hi if c == lo else c for c in last])
        # bridgeless: slot (i, gamma - 1) closes row i.  A vertex left with degree
        # 1 in S has a bridge for its one edge, which takes a second node; the
        # last vertex closes no row, so a single edge pays once.  deg: i's degree
        # before this slot, or 2, which pays nothing, on any other slot
        deg = sum(prefix[k] for k in rows[i][:-1]) if bridgeless and j == gamma - 1 else 2
        if not (j == gamma - 1 and last[i] == i):  # a 0 closes i's class
            if budget - (deg == 1) >= classes - 1:
                yield from rec(prefix + (0,), budget - (deg == 1), last, classes)
        for m in range(1, min(top, budget - joined + 1) + 1):  # a later node joins <= 2 classes
            spent = budget - m - (deg + m == 1)
            if spent >= joined - 1:
                yield from rec(prefix + (m,), spent, merged, joined)

    return rec((), max_edges, identity, gamma)


def _multiplicities(simple: CurveGraph, ones: tuple, automorphisms: list, max_edges: int) -> Iterator[tuple]:
    # the bridgeless graphs over the simple graph of the 0/1 slot vector ones,
    # with their automorphisms, identity first (why each class comes once: see
    # the module docstring).  least gives a bridge of simple 2 nodes and every
    # other edge 1, and each multiset of extra slots adds a node per pick.  The
    # automorphisms passed are simple's: (slot getter, vertex permutation)
    where = [k for k, x in enumerate(ones) if x]  # edge e of simple is slot where[e]
    least = list(ones)
    for e in simple.bridges:
        least[where[e]] = 2
    for extra in range(max_edges - sum(least) + 1):
        for more in itertools.combinations_with_replacement(where, extra):
            vector = least[:]
            for k in more:
                vector[k] += 1
            vector = tuple(vector)
            images = [(get(vector), perm) for get, perm in automorphisms]
            if all(image >= vector for image, _ in images):
                edges = [e for e, k in zip(simple.edges, where) for _ in range(vector[k])]
                g = CurveGraph(simple.components, edges)
                g.bridges = frozenset()  # none by construction: no search needed
                yield g, [perm for image, perm in images if image == vector]


def _top_gamma(max_gamma: int, max_edges: int) -> int:  # most vertices when connected
    if max_gamma < 1:
        raise ValueError("max_gamma must be >= 1")
    if max_edges < 0:
        raise ValueError("max_edges must be >= 0")
    top = min(max_gamma, max_edges + 1)
    _check_listing(f"gamma {top}", "relabelings", ((k, 1) for k in range(2, top + 1)))
    if max_edges > LISTING_LIMIT:  # gamma = 2 alone has max_edges graphs
        raise ValueError(f"max_edges must be <= {LISTING_LIMIT}")
    return top


def _cycle_types(n: int) -> list:  # the partitions of n, parts non-decreasing
    parts = (itertools.combinations_with_replacement(range(1, n + 1), k) for k in range(1, n + 1))
    return [p for ps in parts for p in ps if sum(p) == n]


def _graph_count(top: int, max_edges: int) -> int:
    # connected multigraphs with loops, up to isomorphism, on 1..top vertices, by
    # Polya's theorem (Harary-Palmer, "Graphical Enumeration", 1973, ch. 2 and 4), as
    # power series in x cut after x^max_edges.  every[n]: all graphs on n vertices, the
    # mean over S_n of the vectors on the slots i <= j constant on each slot cycle.
    # connected[n] inverts the Euler transform graded by vertices: n every[n] =
    # sum_k c[k] every[n - k], where c[k](x) = sum_{d | k} d connected[d](x^(k/d))
    def exact(series: list, b: int) -> list:  # raises, not asserts: runs under python -O
        if any(x % b for x in series):
            raise RuntimeError(f"a graph count is not a multiple of {b}")
        return [x // b for x in series]

    every, c, connected = [[1] + [0] * max_edges], [[]], [[]]
    for n in range(1, top + 1):
        total = [0] * (max_edges + 1)
        for p in _cycle_types(n):
            # an a-cycle has ceil(a/2) slot cycles of length a and, a even, one of
            # a/2; an a- and a b-cycle have gcd(a, b) of length lcm(a, b)
            lengths = [a // (1 + (2 * e == a)) for a in p for e in range(a // 2 + 1)]
            lengths += [lcm(a, b) for i, a in enumerate(p) for b in p[:i] for _ in range(gcd(a, b))]
            ways = [1] + [0] * max_edges
            for length in lengths:
                for t in range(length, max_edges + 1):
                    ways[t] += ways[t - length]
            size = factorial(n) // prod(k ** p.count(k) * factorial(p.count(k)) for k in set(p))
            total = [t + size * w for t, w in zip(total, ways)]
        every.append(exact(total, factorial(n)))
        c.append([n * e for e in every[n]])
        for k in range(1, n):
            c[n] = [x - sum(c[k][i] * every[n - k][t - i] for i in range(t + 1))
                    for t, x in enumerate(c[n])]
        rest = c[n][:]
        for d in (d for d in range(1, n) if n % d == 0):
            rest[:: n // d] = [r - d * v for r, v in zip(rest[:: n // d], connected[d])]
        connected.append(exact(rest, n))
    return sum(map(sum, connected))


class HarnessResult(NamedTuple):
    graphs: int
    checks: int
    failures: tuple  # tuple[(components, edges, degree, natural_by_classes), ...], edges bridgeless

    @property
    def ok(self) -> bool:
        return not self.failures


def run_harness(max_gamma: int, max_edges: int, max_degree: int) -> HarnessResult:
    """cross_check_naturality on every contracted curve of the sweep.

    graphs counts the connected curves within the bounds, loops included; only
    the bridgeless loopless graphs are listed.  Each is its own X', checked
    once, and is every other curve's X' up to isomorphism and loops.  A failure
    names it: every curve whose X' it is fails alike.  It is the graph the
    listing holds for its class, which need not be the class's orbit minimum.
    The failures are sorted.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    # a cycle or a double node has the most pieces: refuse their degrees now
    _check_partitional(max(1, min(max_gamma, max_edges)), max_degree)
    graphs, failures = _graph_count(_top_gamma(max_gamma, max_edges), max_edges), []
    for gamma in range(1, min(max_gamma, max(1, max_edges)) + 1):  # degrees >= 2: gamma nodes
        for g, _ in _canonical_vectors(gamma, max_edges, bridgeless=True):
            fails = cross_check_naturality(g, max_degree)
            failures += [(g.components, g.edges, d, yes) for d, yes in fails]
    return HarnessResult(graphs, graphs * max_degree, tuple(sorted(failures)))
