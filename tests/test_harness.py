"""Graph enumeration and the agreement harness."""

from __future__ import annotations

from itertools import combinations, compress, permutations

import pytest

from abelmap import (
    CurveGraph,
    abel,
    class_group_order,
    cross_check_naturality,
    essential_connectivity,
    has_natural_abel_map,
    harness,
    is_natural,
    lattice,
)
from abelmap.harness import _canonical_vectors, _graph_count, run_harness
from abelmap.graph import _components
import deep_checks
from helpers import (
    _bounded_vectors,
    canonical_vectors_by_min,
    connected_multigraphs,
    harness_failures_by_graph,
    loopful_orbit_minimum,
    multigraphs_with_loops,
    pairing_matrix,
)


def test_small_counts_by_hand():
    # gamma = 1: loop counts 0..2
    assert len(list(multigraphs_with_loops(1, 2))) == 3
    # gamma <= 2, <= 2 edges, loops allowed: 3 single-vertex graphs plus
    # {1 edge}, {1 edge + loop}, {2 edges} between two vertices
    graphs = list(multigraphs_with_loops(2, 2))
    assert len(graphs) == 6
    # loopless: single vertex, one edge, two parallel edges
    assert len(list(connected_multigraphs(2, 2))) == 3


def test_the_enumeration_yields_no_loop():
    graphs = [g for g, _ in connected_multigraphs(4, 6)]
    assert graphs and not any(a == b for g in graphs for a, b in g.edges)


def test_enumeration_is_deterministic_and_valid():
    a = list(multigraphs_with_loops(3, 4))
    b = list(multigraphs_with_loops(3, 4))
    assert [(g.components, g.edges) for g in a] == [(g.components, g.edges) for g in b]
    for g in a:
        assert isinstance(g, CurveGraph)
        assert g.gamma <= 3 and g.edge_count <= 4


def _vectors(gamma, max_edges):
    # the multiplicity vector over the slots i < j of each graph yielded
    slots = harness._slots(gamma)
    return [tuple(map(g.edges.count, slots)) for g, _ in _canonical_vectors(gamma, max_edges)]


def test_enumeration_dedups_isomorphic_relabelings():
    # path C1-C2-C3 and path C2-C1-C3 are isomorphic; only one canonical
    # vector may survive for the path shape
    graphs = list(_canonical_vectors(3, 2))
    # slots (0,1),(0,2),(1,2): connected with 2 edges = path, up to iso,
    # with C3 in the middle: its automorphisms swap the ends
    assert _vectors(3, 2) == [(0, 1, 1)]
    assert [(g.edges, a) for g, a in graphs] == [(((0, 2), (1, 2)), [(0, 1, 2), (1, 0, 2)])]


@pytest.mark.parametrize("loops", [True, False])
def test_early_exit_canonicity_matches_orbit_minimum(loops):
    # with loops, each yielded graph (a loopless graph and one of its loop
    # placements) is taken to the orbit minimum of its vector over all
    # pairs i <= j: every class once, and no class twice
    for gamma in range(1, 6):
        # with loops, gamma = 5 stops at five nodes, where the oracle
        # already takes about half a second
        for max_edges in range(6 if (gamma, loops) == (5, True) else 7):
            if loops:
                graphs = multigraphs_with_loops(gamma, max_edges)
                got = sorted(loopful_orbit_minimum(g) for g in graphs if g.gamma == gamma)
            else:
                got = _vectors(gamma, max_edges)
            assert got == canonical_vectors_by_min(gamma, max_edges, loops), (gamma, max_edges)


def test_prefix_tables_fix_their_prefix():
    # the pruning is sound only if each prefix-k relabeling permutes the
    # first k slots among themselves; the leaf table holds every
    # non-identity vertex permutation once, in the group of the vertex it
    # sends to 0, with its relabeling of the slots; gamma = 2's swap too,
    # though it fixes the one slot
    for gamma in range(1, 6):
        slots = harness._slots(gamma)
        n = len(slots)
        *tables, groups = harness._perm_getters(gamma, slots)
        assert len(tables) == n and len(groups) == gamma
        for k, table in enumerate(tables):
            images = [g(tuple(range(k))) for g in table]
            assert len(set(images)) == len(images)
            for image in images:
                assert sorted(image) == list(range(k)) and image != tuple(range(k))
        index = {s: k for k, s in enumerate(slots)}
        leaf = [
            (u, perm, get(tuple(range(n)))) for u, group in enumerate(groups) for get, perm in group
        ]
        assert sorted(perm for _, perm, _ in leaf) == list(permutations(range(gamma)))[1:]
        for u, perm, image in leaf:
            expected = [0] * n
            for k, (i, j) in enumerate(slots):
                expected[index[tuple(sorted((perm[i], perm[j])))]] = k
            assert perm[u] == 0 and image == tuple(expected), (perm, image)
    assert [perm for _, perm in harness._perm_getters(2, harness._slots(2))[-1][1]] == [(1, 0)]


def _connected(gamma, slots, vec):
    return len(set(_components(gamma, compress(slots, vec)))) == 1


def test_pruned_prefixes_have_no_connected_completion(monkeypatch):
    # spies record each prefix that meets its table (first) and each one the
    # table lets through (last); a full vector meets group 0 first, since
    # orbit pruning has sorted its row 0.  A child of a let-through prefix
    # that met nothing was dropped for connectivity, so no completion of it
    # within the budget may be connected.
    getters = harness._perm_getters
    met, passed = set(), set()

    def spy(record):
        def get(vec):
            record.add(vec)
            return vec  # never smaller: the real getters still decide

        return get

    def spied(gamma, slots):
        *tables, groups = getters(gamma, slots)
        groups[0] = [(spy(met), None)] + groups[0]  # adds None to the unread automorphisms
        return [[spy(met)] + table + [spy(passed)] for table in tables] + [groups]

    monkeypatch.setattr(harness, "_perm_getters", spied)
    for gamma, max_edges in [(2, 4), (3, 5), (4, 3), (4, 6)]:
        met.clear()
        passed.clear()
        slots = harness._slots(gamma)
        got = _vectors(gamma, max_edges)
        assert got == canonical_vectors_by_min(gamma, max_edges, False)
        dropped = [
            p + (m,) for p in passed for m in range(max_edges - sum(p) + 1) if p + (m,) not in met
        ]
        assert dropped and set(got) <= met
        for p in dropped:
            for rest in _bounded_vectors(len(slots) - len(p), max_edges - sum(p)):
                assert not _connected(gamma, slots, p + rest), (gamma, p, rest)


def test_groups_passed_over_for_a_larger_key_hold_no_smaller_image():
    # key(u): u's multiplicities sorted.  The leaf rejects on a key below
    # row 0 and skips group u on a key above it; both must agree with the
    # relabelings themselves.
    skipped = rejected = 0
    for gamma in range(2, 6):
        slots = harness._slots(gamma)
        n = len(slots)
        groups = harness._perm_getters(gamma, slots)[-1]
        index = {s: k for k, s in enumerate(slots)}
        pair = [[index.get((min(u, v), max(u, v))) for v in range(gamma)] for u in range(gamma)]
        for vec in _bounded_vectors(n, 4 if n <= 10 else 3):
            row = list(vec[: gamma - 1])
            for u, group in enumerate(groups):
                key = sorted(vec[pair[u][v]] for v in range(gamma) if v != u)
                if key > row:
                    skipped += 1
                    assert all(g(vec) > vec for g, _ in group), (vec, u)
                elif key < row:
                    rejected += 1
                    assert any(g(vec) < vec for g, _ in group), (vec, u)
    assert skipped and rejected


def test_only_connected_leaves_reach_the_leaf_table(monkeypatch):
    # a full-length vector meets the leaf relabelings only if it is
    # connected: the prefixes that cannot connect were dropped before
    getters = harness._perm_getters
    expected = {args: _vectors(*args) for args in ((4, 6), (5, 8))}
    seen = set()

    def guarded(gamma, slots):
        tables = getters(gamma, slots)
        labels = [f"C{i + 1}" for i in range(gamma)]

        def connected_only(get):
            def checked(vec):
                assert len(vec) == len(slots)
                # raises DisconnectedCurveError on a disconnected leaf
                CurveGraph(labels, [s for s, m in zip(slots, vec) for _ in range(m)])
                seen.add(vec)
                return get(vec)

            return checked

        tables[-1] = [[(connected_only(get), perm) for get, perm in group] for group in tables[-1]]
        return tables

    monkeypatch.setattr(harness, "_perm_getters", guarded)
    for args, vecs in expected.items():
        assert _vectors(*args) == vecs, args
    assert len(seen) > sum(map(len, expected.values()))


def _stabilizer(g):
    # the vertex permutations p that keep g's pairing matrix, in lex order
    m, n = pairing_matrix(g), g.gamma
    return [
        p for p in permutations(range(n))
        if all(m[p[i]][p[j]] == m[i][j] for i in range(n) for j in range(n))
    ]


def test_the_yielded_automorphisms_are_the_stabilizer():
    # every vertex permutation p that keeps the pairing matrix, identity
    # first, each once; gamma = 2 keeps the swap, which moves a loop
    graphs = list(connected_multigraphs(5, 8))
    for g, automorphisms in graphs:
        assert automorphisms[0] == tuple(range(g.gamma)), g.edges
        assert len(set(automorphisms)) == len(automorphisms), g.edges
        assert sorted(automorphisms) == _stabilizer(g), g.edges
    assert graphs[0][1] == [(0,)]
    pairs = [automorphisms for g, automorphisms in graphs if g.gamma == 2]
    assert pairs and all(a == [(0, 1), (1, 0)] for a in pairs)


def test_polya_counts_the_listed_graphs_with_loops():
    # the count of every connected curve, loops included, against the
    # tests' lister: loopless graphs and their loop placements
    for max_gamma in range(1, 6):
        for max_edges in range(9):
            listed = sum(1 for _ in multigraphs_with_loops(max_gamma, max_edges))
            assert _graph_count(max_gamma, max_edges) == listed, (max_gamma, max_edges)
    assert listed == 3300
    assert _graph_count(7, 9) == 22479


def test_graph_count_refuses_a_remainder(monkeypatch):
    # each mean over S_n and each division by n in the Euler inversion is
    # checked, by a raise, so it also runs under python -O.  Without the
    # transposition's cycle type, S_2 fixes C(e + 2, 2) graphs with e edges,
    # and 1 graph with no edge is not a multiple of 2!
    assert _graph_count(3, 4) == 34
    types = harness._cycle_types
    monkeypatch.setattr(harness, "_cycle_types", lambda n: [t for t in types(n) if t != (2,)])
    with pytest.raises(RuntimeError, match="^a graph count is not a multiple of 2$"):
        _graph_count(3, 4)
    with pytest.raises(RuntimeError, match="^a graph count is not a multiple of 2$"):
        run_harness(3, 4, 1)


def test_the_bridgeless_enumeration_is_the_filter_of_the_full_one():
    # within every bound up to (5, 8), the harness's listing holds each class
    # of the bridgeless filter of connected_multigraphs once.  Its graphs are
    # least under their simple graph's automorphisms, not always the full
    # vector's orbit minimum, so classes are compared, not labels.  The full
    # listing is the filter of the (5, 8) corpus, labels, order and all
    corpus = list(connected_multigraphs(5, 8))
    full = [g for g, _ in corpus if not g.bridges]
    assert len(full) == 208
    classes, stabilizers = {}, {}
    for gamma in range(1, 6):
        for max_edges in range(9):
            within = [(g, a) for g, a in corpus if g.gamma == gamma and g.edge_count <= max_edges]
            got = list(_canonical_vectors(gamma, max_edges, bridgeless=True))
            for g, a in got:
                key = (g.components, g.edges)
                if key not in classes:
                    classes[key] = loopful_orbit_minimum(g)
                    stabilizers[key] = _stabilizer(g)
                    assert not CurveGraph(*key).bridges, key
                assert a[0] == tuple(range(gamma)) and len(set(a)) == len(a), key
                assert sorted(a) == stabilizers[key], key
            listed = [classes[g.components, g.edges] for g, _ in got]
            expected = [loopful_orbit_minimum(g) for g, _ in within if not g.bridges]
            assert len(set(listed)) == len(listed), (gamma, max_edges)
            assert sorted(listed) == sorted(expected), (gamma, max_edges)
            assert [(g.components, g.edges, a) for g, a in _canonical_vectors(gamma, max_edges)] == [
                (g.components, g.edges, a) for g, a in within
            ], (gamma, max_edges)
    assert len(classes) == 208


def test_exact_graph_counts():
    assert sum(1 for _ in multigraphs_with_loops(5, 7)) == 1177
    assert sum(1 for _ in connected_multigraphs(5, 8)) == 505
    assert sum(1 for _ in connected_multigraphs(6, 8)) == 998
    # gamma = 7: the 5040-relabeling leaf
    assert sum(1 for _ in connected_multigraphs(7, 8)) == 1418


def test_enumeration_skips_sizes_that_cannot_connect(monkeypatch):
    # a connected curve on gamma components needs gamma - 1 nodes, so three
    # nodes reach gamma = 4 at most; the guard fails fast on 5! relabelings
    # and more instead of building them
    getters = harness._perm_getters

    def guarded(gamma, slots):
        if gamma > 4:
            raise AssertionError(f"enumerated gamma = {gamma}")
        return getters(gamma, slots)

    monkeypatch.setattr(harness, "_perm_getters", guarded)
    assert [(g.components, g.edges) for g in multigraphs_with_loops(12, 3)] == [
        (g.components, g.edges) for g in multigraphs_with_loops(4, 3)
    ]


def test_enumeration_refuses_relabeling_tables_that_cannot_be_built(monkeypatch):
    # nine nodes reach gamma = 10, whose 10! relabelings are over
    # LISTING_LIMIT; the guard fails fast if any table is built
    def guarded(gamma, slots):
        raise AssertionError(f"built the table of gamma = {gamma}")

    monkeypatch.setattr(harness, "_perm_getters", guarded)
    with pytest.raises(ValueError, match="gamma 10 has 3628800 relabelings"):
        run_harness(10, 9, 1)
    with pytest.raises(ValueError, match="gamma 10 has 3628800 relabelings"):
        next(connected_multigraphs(12, 9))
    # eight nodes reach gamma = 9 (362880 relabelings): enumeration starts
    with pytest.raises(AssertionError, match="gamma = 1"):
        run_harness(10, 8, 1)


def test_a_sweep_keeps_one_lattice():
    result = run_harness(4, 6, 2)
    assert result.ok and (result.graphs, result.checks) == (283, 566)
    assert lattice._lattice.cache_info().currsize == 1


def test_a_sweep_builds_no_partitional_listing(monkeypatch):
    # each graph is checked at degrees 1..D by one walk over its degree-D
    # partitional multidegrees, which reduces them as it builds them
    built = []

    def counted(pool, r):
        built.append((r + 1, len(pool) - r))  # (gamma, d)
        return combinations(pool, r)

    monkeypatch.setattr(abel, "combinations", counted)
    result = run_harness(3, 4, 9)
    assert result.ok and result.graphs > 9
    assert built == []


def test_enumeration_contains_known_shapes():
    matrices = {pairing_matrix(g) for g, _ in connected_multigraphs(3, 3)}

    def some_relabeling_present(edges):
        for perm in permutations(range(3)):
            h = CurveGraph(["C1", "C2", "C3"], [(perm[a], perm[b]) for a, b in edges])
            if pairing_matrix(h) in matrices:
                return True
        return False

    assert some_relabeling_present([(0, 1), (1, 2), (0, 2)])  # triangle
    assert some_relabeling_present([(0, 1), (1, 2)])  # path


def test_loops_are_inert():
    base = CurveGraph(["C1", "C2", "C3"], [(0, 1), (1, 2), (0, 2)])
    loopy = CurveGraph(["C1", "C2", "C3"], [(0, 1), (1, 2), (0, 2), (1, 1), (2, 2)])
    assert pairing_matrix(base) == pairing_matrix(loopy)
    assert base.bridges == loopy.bridges == frozenset()
    assert essential_connectivity(base) == essential_connectivity(loopy)
    assert class_group_order(base) == class_group_order(loopy)
    assert cross_check_naturality(loopy, 3) == []


def test_run_harness_small():
    res = run_harness(3, 4, 2)
    assert res.ok
    assert res.failures == ()
    assert res.checks == res.graphs * 2
    assert res.graphs == len(list(multigraphs_with_loops(3, 4)))


def test_run_harness_validates_bounds():
    with pytest.raises(ValueError, match="max_gamma must be >= 1"):
        run_harness(0, 3, 1)
    with pytest.raises(ValueError, match="max_edges must be >= 0"):
        run_harness(2, -1, 1)
    with pytest.raises(ValueError, match="max_degree must be >= 1"):
        run_harness(2, 2, 0)
    res = run_harness(1, 0, 1)  # no edge is a valid bound: the lone vertex
    assert (res.graphs, res.checks, res.failures) == (1, 1, ())


def test_run_harness_refuses_by_the_largest_piece_count(monkeypatch):
    # is_natural lists binomial(d + P - 1, P - 1) vectors for P pieces; with
    # at most 2 nodes a curve has at most 2 pieces, though gamma reaches 3
    monkeypatch.setattr(lattice, "LISTING_LIMIT", 100)
    assert run_harness(3, 2, 13).ok  # binomial(14, 1) = 14
    with pytest.raises(ValueError, match="degree 13 has 105 partitional"):
        run_harness(3, 3, 13)  # a triangle: binomial(15, 2)


def test_run_harness_builds_each_graph_once(monkeypatch):
    # when nothing fails: each simple graph S of the search, for its bridges,
    # then each listed bridgeless graph over S once, in listing order; no
    # curve with a loop and no X'.  The simple graphs are the corpus's graphs
    # with no double node, in the corpus's order
    bases = [g for g, _ in connected_multigraphs(4, 6)]
    simple = [g for g in bases if len(set(g.edges)) == g.edge_count]
    listed = [
        (g.components, g.edges)
        for gamma in range(1, 5) for g, _ in _canonical_vectors(gamma, 6, bridgeless=True)
    ]

    def over(s):  # the listed graphs whose simple graph is s
        return [(c, e) for c, e in listed if (c, tuple(sorted(set(e)))) == (s.components, s.edges)]

    assert [key for s in simple for key in over(s)] == listed
    built = []
    init = CurveGraph.__init__

    def recording_init(self, components, edges):
        init(self, components, edges)
        built.append((self.components, self.edges))

    monkeypatch.setattr(CurveGraph, "__init__", recording_init)
    res = run_harness(4, 6, 2)
    assert res.ok and res.graphs > len(bases) > len(listed) > len(simple) > 0
    assert (len(bases), len(listed), len(simple)) == (63, 32, 10)
    assert built == [key for s in simple for key in [(s.components, s.edges), *over(s)]]


def test_run_harness_counts_every_loop_placement():
    for bounds in [(1, 0), (2, 3), (4, 6), (7, 6)]:
        assert run_harness(*bounds, 1).graphs == sum(1 for _ in multigraphs_with_loops(*bounds))
    assert run_harness(2, 3, 1).graphs == 11
    # the swap of two components fixes their one node but moves a loop:
    # one node and one loop is one curve, not two
    one_loop = [
        g for g in multigraphs_with_loops(2, 3) if sorted(g.edges) in ([(0, 0), (0, 1)], [(0, 1), (1, 1)])
    ]
    assert len(one_loop) == 1


def test_graphs_that_share_a_contracted_pairing_matrix_share_their_verdicts():
    # the oracle for run_harness deciding one graph per X': each graph
    # decided on its own agrees with every graph whose X' is isomorphic to
    # its own, loops aside, and so with every graph whose X' has the same
    # pairing matrix
    verdicts: dict = {}
    matrices = set()
    for g in multigraphs_with_loops(5, 8):
        got = tuple((is_natural(g, d), has_natural_abel_map(g, d)) for d in range(1, 5))
        x = g.contracted
        matrices.add(pairing_matrix(x))
        loopless = CurveGraph(x.components, [e for e in x.edges if e[0] != e[1]])
        verdicts.setdefault(loopful_orbit_minimum(loopless), set()).add(got)
    assert (len(matrices), len(verdicts)) == (304, 208)
    assert all(len(v) == 1 for v in verdicts.values())


def test_every_contracted_curve_is_a_bridgeless_graph_of_the_sweep():
    # why run_harness cross-checks only the bridgeless graphs: a bridged
    # graph's X' is loopless, connected, bridgeless and smaller, so it is
    # isomorphic to one bridgeless graph of the same enumeration
    corpus = list(connected_multigraphs(5, 8))
    assert deep_checks.contracted_covering(corpus) == (208, 60, True)
    assert sum(not g.bridges for g, _ in corpus) == 208  # no two isomorphic


def test_run_harness_failures_match_a_per_graph_oracle(monkeypatch):
    calls = []

    def disagree_on_some(x, max_degree):  # reads X' only through its pairing matrix
        calls.append((pairing_matrix(x), max_degree))
        m = pairing_matrix(x)
        return [
            (d, is_natural(x, d)) for d in range(1, max_degree + 1)
            if (len(m) + d - sum(m[i][i] for i in range(len(m)))) % 3 == 0
        ]

    def cls(components, edges):
        return loopful_orbit_minimum(CurveGraph(components, edges))

    # run_harness names each failing class of bridgeless graphs once, by the
    # graph it lists, which need not be the class's orbit minimum: the
    # oracle's loopful graphs with their loops stripped, and the bridged ones
    # left out, must agree to one class.  At (5, 7) two listed graphs are
    # labeled otherwise than the corpus's graph of their class
    monkeypatch.setattr(harness, "cross_check_naturality", disagree_on_some)
    for bounds, counts in [((4, 6, 3), (283, 63, 32, 0)), ((5, 7, 3), (1177, 241, 87, 2))]:
        max_gamma, max_edges, _ = bounds
        loopful = harness_failures_by_graph(*bounds, disagree_on_some)
        loopless = {
            (components, tuple(e for e in edges if e[0] != e[1]), d, yes)
            for components, edges, d, yes in loopful
        }
        graphs = {(g.components, g.edges): g for g, _ in connected_multigraphs(max_gamma, max_edges)}
        bridged = {f for f in loopless if graphs[f[:2]].bridges}
        expected = sorted((cls(*f[:2]), *f[2:]) for f in loopless - bridged)
        listed = {
            (g.components, g.edges)
            for gamma in range(1, max_gamma + 1)
            for g, _ in _canonical_vectors(gamma, max_edges, bridgeless=True)
        }
        calls.clear()
        result = run_harness(*bounds)
        reported = [(cls(*f[:2]), *f[2:]) for f in result.failures]
        assert result.failures == tuple(sorted(result.failures))
        assert len(set(reported)) == len(reported) and sorted(reported) == expected
        assert all(f[:2] in listed for f in result.failures)
        relabeled = {f[:2] for f in result.failures if f[:2] not in graphs}
        assert (len(loopful), len(loopless), len(calls), len(relabeled)) == counts
        assert len(calls) == len(set(calls)) == len(listed)
        # a bridged graph left out fails as the reported graph its X' is
        failing: dict = {}
        for c, d, yes in reported:
            failing.setdefault(c, set()).add((d, yes))
        left_out: dict = {}
        for f in bridged:
            left_out.setdefault(graphs[f[:2]], set()).add(f[2:])
        assert all(failing[loopful_orbit_minimum(g.contracted)] == v for g, v in left_out.items())


def test_run_harness_takes_one_min_cut_per_contracted_curve(monkeypatch):
    # every degree of one X' is cross-checked on one minimum cut and one
    # class walk, with no per-degree call of is_natural; each bridgeless
    # graph is its own X', and a bridged one's X' is one of them
    calls = {"essential_connectivity": 0, "_least_shared_degree": 0, "is_natural": 0}

    def spy(name):
        real = getattr(abel, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(abel, name, counted)

    for name in calls:
        spy(name)
    bridgeless = sum(not g.bridges for g, _ in connected_multigraphs(4, 6))
    assert run_harness(4, 6, 3).ok
    assert bridgeless == 32
    assert calls == {"essential_connectivity": 32, "_least_shared_degree": 32, "is_natural": 0}


def test_run_harness_checks_that_every_curve_has_a_natural_degree_one_map(monkeypatch):
    # X' is bridgeless, so no cut is below 2; the check raises rather than
    # asserts, so it also runs under python -O
    monkeypatch.setattr(abel, "_min_cut", lambda weight: 1)
    with pytest.raises(RuntimeError, match="essential connectivity below 2"):
        run_harness(3, 3, 1)


def test_run_harness_reports_each_failing_loopless_graph_once(monkeypatch):
    # only the double node fails; loops beside it change no verdict, so it
    # is reported once, with no loop.  The double node with a pendant
    # component has it as X', but its pendant node separates, so it is only
    # counted: a failure names a bridgeless graph
    def double_node_fails(x, max_degree):
        if pairing_matrix(x) != ((-2, 2), (2, -2)):
            return []
        return [(d, is_natural(x, d)) for d in range(1, max_degree + 1)]

    monkeypatch.setattr(harness, "cross_check_naturality", double_node_fails)
    result = run_harness(3, 4, 1)
    assert result.failures == ((("C1", "C2"), ((0, 1), (0, 1)), 1, True),)
    pendant = CurveGraph(["C1", "C2", "C3"], [(0, 2), (1, 2), (1, 2)])
    enumerated = {(g.components, g.edges) for g, _ in connected_multigraphs(3, 4)}
    assert (pendant.components, pendant.edges) in enumerated and pendant.bridges
    assert pairing_matrix(pendant.contracted) == ((-2, 2), (2, -2))
    assert result.graphs == len(list(multigraphs_with_loops(3, 4)))


def test_the_deep_checks_pass_on_a_small_corpus():
    # tests/deep_checks.py runs these on gamma <= 7, <= 9 edges; here each
    # runs on a small corpus, so a renamed helper or import fails here too
    corpus = list(connected_multigraphs(4, 6))
    bridgeless = sum(not g.bridges for g, _ in corpus)
    assert deep_checks.loop_placement_total(corpus, 6) == _graph_count(4, 6)
    assert deep_checks.bridgeless_listing(corpus, 6) == (bridgeless, bridgeless, True)
    assert deep_checks.contracted_covering(corpus)[::2] == (bridgeless, True)
    assert deep_checks.menger_disagreements(corpus) == (bridgeless, [])
    assert deep_checks.class_walk_disagreements(corpus, 5) == (bridgeless, [])
    checks, _, wrong = deep_checks.chip_firing_disagreements([g for g, _ in corpus], 3)
    assert (checks, wrong) == (3 * len(corpus), [])


def test_the_deep_checks_child_processes_run():
    r = run_harness(3, 3, 1)
    assert deep_checks.harness_report(3, 3, 1) == (r.graphs, r.checks, r.ok)
    assert deep_checks.optimized_child() == 0
