"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations, product

from hypothesis import strategies as st

from abelmap import (
    CurveGraph,
    DisconnectedCurveError,
    NotATwisterError,
    crossing_nodes_of_multidegree,
    is_natural,
    normalize_divisor,
    partitional_multidegrees,
    twister_divisor,
)
from abelmap.harness import _loop_placements, _with_loops, connected_multigraphs
from abelmap.lattice import _lattice, _reduce, piece_totals

# X's own Hermite basis, for the dense oracles below, in a cache of its own
# so that it does not evict the library's basis of X'
_dense_lattice = lru_cache(maxsize=1)(_lattice.__wrapped__)


def two_component(delta: int, loops: tuple = ()) -> CurveGraph:
    """Two components joined by delta parallel edges, optional loops."""
    edges = [(0, 1)] * delta + [(i, i) for i in loops]
    return CurveGraph(["C1", "C2"], edges)


def cycle(n: int) -> CurveGraph:
    labels = [f"C{i + 1}" for i in range(n)]
    return CurveGraph(labels, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> CurveGraph:
    labels = [f"C{i + 1}" for i in range(n)]
    return CurveGraph(labels, [(i, i + 1) for i in range(n - 1)])


def doubled_cycle(n: int) -> CurveGraph:
    """n components in a ring, each consecutive pair meeting in two nodes."""
    labels = [f"C{i + 1}" for i in range(n)]
    return CurveGraph(labels, [(i, (i + 1) % n) for i in range(n)] * 2)


def star(leaves: int) -> CurveGraph:
    labels = [f"C{i + 1}" for i in range(leaves + 1)]
    return CurveGraph(labels, [(0, i + 1) for i in range(leaves)])


def triangle_with_pendant() -> CurveGraph:
    # 3-cycle on C1..C3 plus C4 hanging off C1 by a bridge
    return CurveGraph(["C1", "C2", "C3", "C4"], [(0, 1), (1, 2), (0, 2), (0, 3)])


def subcurve(g: CurveGraph, indices) -> frozenset:
    """Validate component indices and return them as a subcurve."""
    z = frozenset(indices)
    for i in z:
        if not (0 <= i < g.gamma):
            raise IndexError(f"component index {i} out of range")
    return z


def pairing(g: CurveGraph, z, w) -> int:
    """Intersection pairing (Z . W), bilinear in both subcurves.

    (X . Z) = 0 for every Z since the pairing matrix has zero row sums.
    """
    zs = subcurve(g, z)
    ws = subcurve(g, w)
    m = g.pairing_matrix
    return sum(m[i][j] for i in zs for j in ws)


def cut_edges(g: CurveGraph, z) -> frozenset:
    """Ids of the non-loop edges joining Z to its complement."""
    zs = subcurve(g, z)
    return frozenset(
        e
        for e, (a, b) in enumerate(g.edges)
        if a != b and ((a in zs) != (b in zs))
    )


def check_level_degree_bounds(g: CurveGraph, t) -> bool:
    """Lower bounds forced on t by its level expression.

    The base Z_0 is where the canonical divisor of t is 0, and m_1 is its
    smallest positive coefficient.  For every nonempty Y inside Z_0 the
    total of t on Y is at least -m_1 (Y . Z_0) which is itself nonnegative,
    and for Y = Z_0 the total is at least m_1 k_{Z_0} > 0.  Must hold for
    every nonzero twister multidegree.  Raises on t = 0 or t outside the
    lattice.
    """
    tv = tuple(t)
    dv = twister_divisor(g, tv)
    if not any(dv):
        raise ValueError("t = 0 has no positive level")
    m1 = min(x for x in dv if x)
    z0 = [i for i, x in enumerate(dv) if x == 0]
    for size in range(1, len(z0) + 1):
        for ys in combinations(z0, size):
            bound = -m1 * pairing(g, ys, z0)
            if bound < 0:
                return False
            ty = sum(tv[i] for i in ys)
            if ty < bound:
                return False
            if size == len(z0) and ty <= 0:
                return False
    return True


def sum_of_tails_multidegree_by_crossings(g: CurveGraph, t) -> bool:
    """The paper's definition: t is in the twister lattice and every
    crossing node of its canonical divisor is separating."""
    try:
        return crossing_nodes_of_multidegree(g, t) <= g.bridges
    except NotATwisterError:
        return False


@st.composite
def connected_graphs(draw, max_gamma=9):
    """Connected multigraphs: a random spanning tree plus extra edges,
    loops and parallel copies, on randomly relabeled vertices."""
    gamma = draw(st.integers(1, max_gamma))
    vertex = st.integers(0, gamma - 1)
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, gamma)]
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    label = draw(st.permutations(range(gamma)))
    edges = draw(st.permutations([(label[a], label[b]) for a, b in pairs]))
    return CurveGraph([f"C{i + 1}" for i in range(gamma)], edges)


def multigraphs_with_loops(max_gamma: int, max_edges: int):
    """Every connected multigraph within the bounds, loops counted among the
    edges, once per isomorphism class: each loopless graph of
    connected_multigraphs (its empty loop placement), then its other loop
    placements up to its automorphisms."""
    for g in connected_multigraphs(max_gamma, max_edges):
        for counts in _loop_placements(g, max_edges - g.edge_count):
            yield CurveGraph(g.components, _with_loops(g, counts))


def dhar_reduced(g: CurveGraph, p, lift: int) -> tuple:
    """The reduced form of p + lift on every entry, with respect to
    component 0, by Dhar's burning algorithm (Dhar, Phys. Rev. Lett. 64,
    1990); no lattice and no Hermite form.

    It reads only the pairing matrix m, so loops are ignored.  Firing a set
    U adds m applied to U's indicator divisor, a twister multidegree.  Each
    round burns from component 0: an unburnt v burns when its nodes to
    burnt components exceed c[v].  If anything stays unburnt, the unburnt
    set fires (each of its members has at least as many chips as nodes
    leaving it), and the round repeats.  Each class holds one reduced form
    (Baker and Norine, Adv. Math. 2007), so two vectors of one total are
    equivalent exactly when, lifted by the same lift, they reduce alike;
    reduced(x + k) is not reduced(x) + k.  The lifted entries off
    component 0 must be >= 0.
    """
    m = g.pairing_matrix
    c = [x + lift for x in p]
    if min(c[1:], default=0) < 0:
        raise ValueError(f"{tuple(c)} is negative off component 0")
    while True:
        burnt, unburnt = [0], set(range(1, len(c)))
        for _ in burnt:  # one more pass per component burnt
            for v in sorted(unburnt):
                if sum(m[v][w] for w in burnt) > c[v]:
                    unburnt.discard(v)
                    burnt.append(v)
        if not unburnt:
            return tuple(c)
        for v in range(len(c)):
            c[v] += sum(m[v][u] for u in unburnt)


def _relabelings(gamma: int, loops: bool) -> tuple:
    # the vertex pairs (loops included when asked) and, per vertex
    # permutation, the slot each slot is sent to
    slots = [(i, j) for i in range(gamma) for j in range(i if loops else i + 1, gamma)]
    index = {s: k for k, s in enumerate(slots)}
    images = [
        [index[tuple(sorted((perm[i], perm[j])))] for i, j in slots]
        for perm in permutations(range(gamma))
    ]
    return slots, images


def _orbit_minimum(vec, images) -> tuple:
    relabeled = []
    for image in images:
        w = [0] * len(vec)
        for k, m in zip(image, vec):
            w[k] = m
        relabeled.append(tuple(w))
    return min(relabeled)


def canonical_vectors_by_min(gamma: int, max_edges: int, loops: bool) -> list:
    """Isomorph rejection by the exact orbit minimum.

    Every connected multiplicity vector over the vertex pairs (loops
    included when asked) with total at most max_edges is replaced by its
    lex minimum over all vertex relabelings; the distinct minima, sorted.
    """
    slots, images = _relabelings(gamma, loops)
    labels = [f"C{i + 1}" for i in range(gamma)]
    minima = set()
    for vec in _bounded_vectors(len(slots), max_edges):
        try:
            CurveGraph(labels, [s for s, m in zip(slots, vec) for _ in range(m)])
        except DisconnectedCurveError:
            continue
        minima.add(_orbit_minimum(vec, images))
    return sorted(minima)


def loopful_orbit_minimum(g: CurveGraph) -> tuple:
    """g's multiplicity vector over the vertex pairs, loops included, at its
    lex minimum over all vertex relabelings: canonical_vectors_by_min's
    entry for g's isomorphism class."""
    slots, images = _relabelings(g.gamma, True)
    return _orbit_minimum([g.edges.count(s) for s in slots], images)


def _bounded_vectors(n: int, budget: int):
    # nonnegative integer vectors of length n with total at most budget
    if n == 0:
        yield ()
        return
    for m in range(budget + 1):
        for rest in _bounded_vectors(n - 1, budget - m):
            yield (m,) + rest


def epsilon_over_connected_subcurves(g: CurveGraph):
    """Essential connectivity scanned over connected subcurves only.

    Agrees with the full scan because a minimizing subcurve can always be
    taken connected.
    """
    best = math.inf
    for mask in range(1, (1 << g.gamma) - 1):
        zs = frozenset(i for i in range(g.gamma) if mask >> i & 1)
        if _reachable(g, zs) != zs:
            continue
        cut = cut_edges(g, zs)
        if not cut <= g.bridges:
            best = min(best, len(cut))
    return best


def epsilon_by_piece_scan(g: CurveGraph):
    """Essential connectivity by scanning every cut between pieces.

    One side of each cut is a union of pieces without the last piece; a
    node crosses the cut when the side holds exactly one of its two pieces.
    Exponential in the number of pieces; math.inf for one piece.
    """
    piece = g.pieces
    bit = {p: 1 << k for k, p in enumerate(dict.fromkeys(piece))}
    ends = [bit[piece[a]] | bit[piece[b]] for a, b in g.edges if piece[a] != piece[b]]
    masks = range(1, 1 << (len(bit) - 1))
    return min((sum(0 < m & xy < xy for xy in ends) for m in masks), default=math.inf)


def bridges_by_removal(g: CurveGraph) -> frozenset:
    """Edge ids whose removal, one at a time, disconnects the curve."""
    return frozenset(e for e in range(g.edge_count) if _side_of(g, e))


def multidegree_by_pairing_matrix(g: CurveGraph, d) -> tuple:
    """deg D as the dense product of the pairing matrix with D."""
    m = g.pairing_matrix
    return tuple(sum(m[i][j] * d[j] for j in range(g.gamma)) for i in range(g.gamma))


def bridge_tails(g: CurveGraph) -> list[frozenset]:
    """One tail per bridge: the side not containing component 0."""
    return [_side_of(g, e) for e in sorted(g.bridges)]


def _side_of(g: CurveGraph, e: int) -> frozenset:
    # component of the graph minus edge e that avoids vertex 0
    everything = frozenset(range(g.gamma))
    return everything - _reachable(g, everything, skip=e)


def _reachable(g: CurveGraph, zs: frozenset, skip=None) -> frozenset:
    # vertices of zs reached from its smallest one along non-loop edges
    # inside zs, never using edge id skip; a plain BFS, independent of the
    # library's union-find
    start = min(zs)
    seen = {start}
    queue = [start]
    for v in queue:
        for f, (a, b) in enumerate(g.edges):
            if f == skip or a == b or v not in (a, b):
                continue
            w = b if v == a else a
            if w in zs and w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def tail_sum_oracle_table(g: CurveGraph, coeff_bound: int) -> set:
    """Normalized divisors expressible as bounded sums of tails.

    Searches one tail per bridge (the side avoiding component 0; the other
    side differs from it by X, so nothing is lost) with coefficients up to
    2 * coeff_bound in absolute value.  That doubled bound is needed: the
    unique expression of a sum of tails over these tails has coefficients
    equal to differences of divisor values across a bridge, which reach
    twice the divisor's max coefficient.
    """
    tails_ = bridge_tails(g)
    bound = 2 * coeff_bound
    table = set()
    for ms in product(range(-bound, bound + 1), repeat=len(tails_)):
        s = [0] * g.gamma
        for m, q in zip(ms, tails_):
            for i in q:
                s[i] += m
        table.add(normalize_divisor(s))
    return table


def sum_of_tails_by_search(g: CurveGraph, d, table=None) -> bool:
    """Existential oracle: is D a sum of tails plus a multiple of X?"""
    if table is None:
        bound = max((abs(x) for x in d), default=0)
        table = tail_sum_oracle_table(g, bound)
    return normalize_divisor(d) in table


def is_natural_by_piece_totals(g: CurveGraph, d: int, reps=None) -> bool:
    """is_natural on the curve itself, without the contracted curve.

    Every partitional multidegree p of length gamma must have the piece
    totals of its class's representative (by default the class's first
    partitional member): p minus it is then a sum of tails.  One class
    lookup on X's own lattice per p.
    """
    table: dict = {}
    if reps is not None:
        table = {dense_class(g, r): piece_totals(g, r) for r in reps}
    for p in partitional_multidegrees(g.gamma, d):
        totals = piece_totals(g, p)
        if table.setdefault(dense_class(g, p), totals) != totals:
            return False
    return True


def dense_class(g: CurveGraph, t) -> tuple:
    """multidegree_class reduced against X's own Hermite basis."""
    z = list(t)
    d = sum(z)
    z[0] -= d
    _reduce(_dense_lattice(g), z)
    z[0] += d
    return tuple(z)


def dense_classes(g: CurveGraph, d: int) -> list:
    """enumerate_classes walking the pivots of X's own Hermite basis."""
    out = []
    for residues in product(*(range(val) for val, _, _ in _dense_lattice(g))):
        z = [*residues, -sum(residues)]
        z[0] += d
        out.append(tuple(z))
    return out


def dense_twister_divisor(g: CurveGraph, t):
    """twister_divisor from X's own basis: the reduction quotients weight
    the basis preimages.  None when t is outside the lattice."""
    basis = _dense_lattice(g)
    residue = list(t)
    quotients = _reduce(basis, residue)
    if any(residue):
        return None
    x = [0] * g.gamma
    for q, (*_, pre) in zip(quotients, basis):
        x = [a + q * b for a, b in zip(x, pre)]
    return normalize_divisor(x)


def choose_representatives_by_gamma(g: CurveGraph, d: int) -> dict:
    """choose_representatives over the partitional multidegrees of length
    gamma, classed on X's own basis: each class keeps its first
    (lex-smallest) partitional member."""
    first: dict = {}
    for p in partitional_multidegrees(g.gamma, d):
        first.setdefault(dense_class(g, p), p)
    return {c: first.get(c, c) for c in dense_classes(g, d)}


def harness_failures_by_graph(max_gamma: int, max_edges: int, max_degree: int, check) -> tuple:
    """run_harness's failures with nothing shared between graphs: the
    degrees that check, in place of cross_check_naturality, finds on each
    graph's own contracted curve, and the class route's verdict on the
    graph itself."""
    return tuple(sorted(
        (g.components, g.edges, d, is_natural(g, d))
        for g in multigraphs_with_loops(max_gamma, max_edges)
        for d, _ in check(g.contracted, max_degree)
    ))
