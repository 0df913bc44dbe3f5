"""Dual graphs of connected nodal curves.

A nodal curve X is encoded by its dual graph: one vertex per irreducible
component, one edge per node.  A node lying on a single component is a loop.
The curve is required to be connected, so the graph (loops aside) must be
connected as well.

Conventions used throughout the package:

  * components are indexed 0..gamma-1 and carry string labels;
  * edges are stored as index pairs (i, j) with i <= j, in insertion order,
    and the insertion position is the stable edge id;
  * a subcurve Z is a frozenset of component indices; its complement Z' is
    the union of the remaining components;
  * the intersection pairing of distinct components counts the non-loop
    edges joining them, and (C_i . C_i) = -sum of (C_i . C_j) over j != i,
    so every row of the pairing matrix sums to zero and loops contribute
    nothing;
  * the cut of Z, k_Z = (Z . Z'), counts the non-loop edges joining Z to
    its complement; a separating node is a bridge of the graph, and one
    low-link depth-first search (Tarjan) finds them all in O(gamma + E);
  * a piece is a class of components joined by separating nodes, and
    CurveGraph.contracted is X', the curve with its separating nodes
    contracted: component k of X' is piece k.  Twisting by a tail is
    trivial, so every question the package asks of pieces (essential
    connectivity, the brute-force verdict, the classes) is asked of X'.

The library needs no pairing matrix and no pairing or cut of subcurves:
it reads the edge list and the pieces, and the test suite keeps those forms
as oracles.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

NodeSet = frozenset  # frozenset[int], edge ids


class DisconnectedCurveError(ValueError):
    """Raised when an edge list does not connect all components."""


class CurveGraph:
    """Immutable dual graph: labeled components plus a multiset of edges.

    Loops and parallel edges are allowed; the graph without its loops must
    be connected.  Instances compare and hash by identity: the library asks
    each question of one curve object.
    """

    def __init__(self, components: Iterable[str], edges: Iterable[tuple[int, int]]):
        self.components: tuple[str, ...] = tuple(components)
        if not self.components:
            raise ValueError("a curve needs at least one component")
        if len(set(self.components)) != len(self.components):
            raise ValueError("component labels must be distinct")
        g = len(self.components)
        norm = []
        for a, b in edges:
            if not (0 <= a < g and 0 <= b < g):
                raise IndexError(f"edge ({a}, {b}) out of range for {g} components")
            norm.append((a, b) if a <= b else (b, a))
        self.edges: tuple[tuple[int, int], ...] = tuple(norm)
        if len(set(_components(g, self.edges))) > 1:
            raise DisconnectedCurveError("dual graph is not connected")

    @property
    def gamma(self) -> int:
        return len(self.components)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def bridges(self) -> NodeSet:
        """Edge ids of the separating nodes: removing one leaves two components.

        Tarjan's low-link depth-first search, O(gamma + E) and iterative, so
        a long path needs no deep recursion.  The search skips the node it
        arrived by, not the component it came from, so two nodes joining the
        same components are never separating; loops never are, and are
        skipped.
        """
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.gamma)]
        for e, (a, b) in enumerate(self.edges):
            if a != b:
                adj[a].append((b, e))
                adj[b].append((a, e))
        # order[v]: 1 + position of v in the search, 0 while unvisited;
        # low[v]: least order reached from v's subtree by one non-tree node
        order = [0] * self.gamma
        low = [0] * self.gamma
        order[0] = low[0] = count = 1
        stack = [(0, -1, iter(adj[0]))]  # (component, node in, untried nodes)
        found = []
        while stack:
            v, via, untried = stack[-1]
            for w, e in untried:
                if e == via:
                    continue
                if order[w]:
                    low[v] = min(low[v], order[w])
                else:
                    count += 1
                    order[w] = low[w] = count
                    stack.append((w, e, iter(adj[w])))
                    break
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > order[u]:  # nothing below v reaches above it
                        found.append(via)
        return frozenset(found)

    @cached_property
    def pieces(self) -> tuple[int, ...]:
        """Piece of each component, 0..P-1 in order of their last component:
        components joined by separating nodes share a piece.  A node joins
        two pieces exactly when its ends carry different labels, so loops
        and separating nodes never do."""
        last = _components(self.gamma, [self.edges[e] for e in self.bridges])
        dense = {r: k for k, r in enumerate(sorted(set(last)))}
        return tuple(dense[r] for r in last)

    @property
    def contracted(self) -> CurveGraph:
        """X', bridgeless: component k is piece k, with its first component's
        label.  The curve itself when it has no separating node."""
        return self._contracted if self.bridges else self

    @cached_property
    def _contracted(self) -> CurveGraph:
        p = self.pieces
        first = dict(zip(reversed(p), reversed(self.components)))
        kept = [(p[a], p[b]) for e, (a, b) in enumerate(self.edges) if e not in self.bridges]
        x = CurveGraph([first[k] for k in range(len(first))], kept)
        x.bridges = frozenset()  # X' has none: no search needed
        return x

    def __repr__(self) -> str:
        return f"CurveGraph({list(self.components)!r}, {list(self.edges)!r})"


def _components(gamma: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The last vertex of the component of each vertex 0..gamma-1 under the
    edges in pairs.  Union-find; a loop joins nothing.
    """
    parent = list(range(gamma))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra < rb:  # each root is the last vertex of its class
            parent[ra] = rb
        elif rb < ra:
            parent[rb] = ra
    return [find(v) for v in range(gamma)]


def betti(g: CurveGraph, s: Iterable[int]) -> int:
    """First Betti number of the contraction onto S: #S + 1 - #vertices."""
    ss = frozenset(s)
    for e in ss:
        if not (0 <= e < g.edge_count):
            raise IndexError(f"edge id {e} out of range")
    kept = [edge for e, edge in enumerate(g.edges) if e not in ss]
    return len(ss) + 1 - len(set(_components(g.gamma, kept)))
