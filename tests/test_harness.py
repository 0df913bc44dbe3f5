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
from abelmap.harness import (
    _canonical_vectors,
    connected_multigraphs,
    run_harness,
)
from abelmap.graph import _components
from helpers import (
    _bounded_vectors,
    canonical_vectors_by_min,
    harness_failures_by_graph,
    loopful_orbit_minimum,
    multigraphs_with_loops,
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
    graphs = list(connected_multigraphs(4, 6))
    assert graphs and not any(a == b for g in graphs for a, b in g.edges)


def test_enumeration_is_deterministic_and_valid():
    a = list(multigraphs_with_loops(3, 4))
    b = list(multigraphs_with_loops(3, 4))
    assert a == b
    for g in a:
        assert isinstance(g, CurveGraph)
        assert g.gamma <= 3 and g.edge_count <= 4


def test_enumeration_dedups_isomorphic_relabelings():
    # path C1-C2-C3 and path C2-C1-C3 are isomorphic; only one canonical
    # vector may survive for the path shape
    vecs = list(_canonical_vectors(3, 2))
    # slots (0,1),(0,2),(1,2): connected with 2 edges = path, up to iso
    assert vecs == [(0, 1, 1)]


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
                got = list(_canonical_vectors(gamma, max_edges))
            assert got == canonical_vectors_by_min(gamma, max_edges, loops), (gamma, max_edges)


def test_prefix_tables_fix_their_prefix():
    # the pruning is sound only if each prefix-k relabeling permutes the
    # first k slots among themselves; the leaf table holds every relabeling
    # once, in the group of the vertex it sends to 0
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
        sent_to_0 = {}  # full image -> the vertices its relabelings send to 0
        for perm in permutations(range(gamma)):
            image = [0] * n
            for k, (i, j) in enumerate(slots):
                image[index[tuple(sorted((perm[i], perm[j])))]] = k
            sent_to_0.setdefault(tuple(image), set()).add(perm.index(0))
        leaf = [(u, g(tuple(range(n)))) for u, group in enumerate(groups) for g in group]
        assert sorted(image for _, image in leaf) == sorted(set(sent_to_0) - {tuple(range(n))})
        for u, image in leaf:
            assert u in sent_to_0[image]


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
        groups[0] = [spy(met)] + groups[0]
        return [[spy(met)] + table + [spy(passed)] for table in tables] + [groups]

    monkeypatch.setattr(harness, "_perm_getters", spied)
    for gamma, max_edges in [(2, 4), (3, 5), (4, 3), (4, 6)]:
        met.clear()
        passed.clear()
        slots = harness._slots(gamma)
        got = list(_canonical_vectors(gamma, max_edges))
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
                    assert all(g(vec) > vec for g in group), (vec, u)
                elif key < row:
                    rejected += 1
                    assert any(g(vec) < vec for g in group), (vec, u)
    assert skipped and rejected


def test_only_connected_leaves_reach_the_leaf_table(monkeypatch):
    # a full-length vector meets the leaf relabelings only if it is
    # connected: the prefixes that cannot connect were dropped before
    getters = harness._perm_getters
    expected = {args: list(_canonical_vectors(*args)) for args in ((4, 6), (5, 8))}
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

        tables[-1] = [[connected_only(get) for get in group] for group in tables[-1]]
        return tables

    monkeypatch.setattr(harness, "_perm_getters", guarded)
    for args, vecs in expected.items():
        assert list(_canonical_vectors(*args)) == vecs, args
    assert len(seen) > sum(map(len, expected.values()))


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
    assert list(multigraphs_with_loops(12, 3)) == list(multigraphs_with_loops(4, 3))


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


def test_a_sweep_builds_one_listing_per_gamma_and_degree(monkeypatch):
    # graphs come gamma by gamma, each checked at degrees 1..D: past D = 8
    # the kept listings still serve every graph, and no listing is built twice
    built = []

    def counted(pool, r):
        built.append((r + 1, len(pool) - r))  # (gamma, d)
        return combinations(pool, r)

    monkeypatch.setattr(abel, "_kept", {})
    monkeypatch.setattr(abel, "combinations", counted)
    result = run_harness(3, 4, 9)
    assert result.ok and result.graphs > 9
    assert sorted(built) == [(gamma, d) for gamma in (1, 2, 3) for d in range(1, 10)]


def test_enumeration_contains_known_shapes():
    graphs = list(connected_multigraphs(3, 3))
    matrices = {g.pairing_matrix for g in graphs}

    def some_relabeling_present(edges):
        for perm in permutations(range(3)):
            h = CurveGraph(["C1", "C2", "C3"], [(perm[a], perm[b]) for a, b in edges])
            if h.pairing_matrix in matrices:
                return True
        return False

    assert some_relabeling_present([(0, 1), (1, 2), (0, 2)])  # triangle
    assert some_relabeling_present([(0, 1), (1, 2)])  # path


def test_loops_are_inert():
    base = CurveGraph(["C1", "C2", "C3"], [(0, 1), (1, 2), (0, 2)])
    loopy = CurveGraph(["C1", "C2", "C3"], [(0, 1), (1, 2), (0, 2), (1, 1), (2, 2)])
    assert base.pairing_matrix == loopy.pairing_matrix
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
    # when nothing fails: each loopless graph once, plus its contracted
    # curve when it has a separating node, and no curve with a loop
    bases = list(connected_multigraphs(4, 6))
    bridged = sum(bool(g.bridges) for g in bases)
    built = []
    init = CurveGraph.__init__

    def recording_init(self, components, edges):
        init(self, components, edges)
        built.append(self.edges)

    monkeypatch.setattr(CurveGraph, "__init__", recording_init)
    res = run_harness(4, 6, 2)
    assert res.ok and res.graphs > len(bases) > bridged > 0
    assert len(built) == len(bases) + bridged
    assert not any(a == b for edges in built for a, b in edges)


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
    # the oracle for run_harness's key: each graph decided on its own agrees
    # with every graph whose X' has the same pairing matrix
    verdicts: dict = {}
    for g in multigraphs_with_loops(5, 8):
        got = tuple((is_natural(g, d), has_natural_abel_map(g, d)) for d in range(1, 5))
        verdicts.setdefault(g.contracted.pairing_matrix, set()).add(got)
    assert len(verdicts) == 304
    assert all(len(v) == 1 for v in verdicts.values())


def test_run_harness_failures_match_a_per_graph_oracle(monkeypatch):
    calls = []

    def disagree_on_some(x, max_degree):  # reads X' only through its pairing matrix
        calls.append((x.pairing_matrix, max_degree))
        m = x.pairing_matrix
        return [
            (d, is_natural(x, d)) for d in range(1, max_degree + 1)
            if (len(m) + d - sum(m[i][i] for i in range(len(m)))) % 3 == 0
        ]

    expected = harness_failures_by_graph(4, 6, 3, disagree_on_some)
    distinct = len({g.contracted.pairing_matrix for g in multigraphs_with_loops(4, 6)})
    monkeypatch.setattr(harness, "cross_check_naturality", disagree_on_some)
    calls.clear()
    result = run_harness(4, 6, 3)
    assert 0 < len(expected) < result.checks and result.failures == expected
    assert len(calls) == len(set(calls)) == distinct


def test_run_harness_takes_one_min_cut_per_contracted_curve(monkeypatch):
    # every degree of one X' is cross-checked on one minimum cut, and each
    # degree's class route runs once
    calls = {"essential_connectivity": 0, "is_natural": 0}

    def spy(name):
        real = getattr(abel, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(abel, name, counted)

    spy("essential_connectivity")
    spy("is_natural")
    distinct = len({g.contracted.pairing_matrix for g in multigraphs_with_loops(4, 6)})
    assert run_harness(4, 6, 3).ok
    assert calls == {"essential_connectivity": distinct, "is_natural": distinct * 3}


def test_run_harness_checks_that_every_curve_has_a_natural_degree_one_map(monkeypatch):
    # X' is bridgeless, so no cut is below 2; the check raises rather than
    # asserts, so it also runs under python -O
    monkeypatch.setattr(abel, "_min_cut", lambda weight: 1)
    with pytest.raises(RuntimeError, match="essential connectivity below 2"):
        run_harness(3, 3, 1)


def test_run_harness_lists_every_loop_placement_of_a_failing_graph(monkeypatch):
    # only the double node fails; on two components with up to two loops
    # beside it, its four placements up to the swap are each listed once
    def double_node_fails(x, max_degree):
        if x.pairing_matrix != ((-2, 2), (2, -2)):
            return []
        return [(d, is_natural(x, d)) for d in range(1, max_degree + 1)]

    expected = harness_failures_by_graph(3, 4, 1, double_node_fails)
    monkeypatch.setattr(harness, "cross_check_naturality", double_node_fails)
    result = run_harness(3, 4, 1)
    assert result.failures == expected
    two = [edges for components, edges, d, yes in result.failures if len(components) == 2]
    loops = sorted(tuple(sorted(edges.count((i, i)) for i in (0, 1))) for edges in two)
    assert loops == [(0, 0), (0, 1), (0, 2), (1, 1)]
    assert len(result.failures) > len(two)  # a pendant component keeps X'
