"""Span tracing of abelmap's layers, installed from outside the package.

Tracer.install wraps the public functions of each abelmap module, plus a
few private boundaries the per-layer metrics need (the cached lattice
build, CurveGraph construction and its cached bridges, Report.to_json).
Several modules bind functions of other modules by name at import time, so
every wrapper is installed in every abelmap namespace that holds the
original object.

Each span is a frame on a stack.  A span charges its duration to the frame
of the span that caused it (the enclosing one), so a span's self time is its
duration minus exactly the time of its direct children.  Spans are
aggregated in memory by (name, parent name) and read out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "harness", "abel", "lattice", "levels", "intlinalg", "graph")

# aggregate record fields
COUNT, INCL, SELF, TRUTHY, ITEMS = range(5)


class Tracer:
    def __init__(self) -> None:
        self.stack = [["(root)", 0.0]]  # frame = [name, time of direct children]
        self.stats: dict = {}  # (name, parent name) -> [count, incl, self, truthy, items]
        self._restore: list = []  # (owner, attribute, original)

    # ----- recording -------------------------------------------------

    def _record(self, name: str, parent: list, dur: float, child: float) -> list:
        parent[1] += dur
        key = (name, parent[0])
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0.0, 0, 0]
        rec[COUNT] += 1
        rec[INCL] += dur
        rec[SELF] += dur - child
        return rec

    def wrap(self, name: str, fn):
        """Span around every call of fn; counts truthy results too."""
        stack = self.stack
        record = self._record
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                rec = record(name, parent, dur, frame[1])
            if result is not None and result is not False:
                rec[TRUTHY] += 1
            if type(result) is list:
                rec[ITEMS] += len(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """One span per resume of the generator; ITEMS counts the yields."""
        stack = self.stack
        record = self._record
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [name, 0.0]
                stack.append(frame)
                t0 = clock()
                done = False
                try:
                    item = next(it)
                except StopIteration:
                    done = True
                finally:
                    dur = clock() - t0
                    stack.pop()
                    rec = record(name, parent, dur, frame[1])
                if done:
                    return
                rec[ITEMS] += 1
                yield item

        return traced

    def wrap_cached(self, name: str, cached):
        """Span around an lru_cache'd function, split into builds and hits."""
        stack = self.stack
        record = self._record
        clock = time.perf_counter
        info = cached.cache_info

        @functools.wraps(cached)
        def traced(*args):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            misses = info().misses
            t0 = clock()
            try:
                return cached(*args)
            finally:
                dur = clock() - t0
                stack.pop()
                kind = ".build" if info().misses != misses else ".hit"
                record(name + kind, parent, dur, frame[1])

        return traced

    # ----- installation ----------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary in every abelmap namespace."""
        import abelmap
        from abelmap import cli, graph, lattice

        modules = [sys.modules[f"abelmap.{layer}"] for layer in LAYERS]
        wrappers: dict = {}  # id(original) -> wrapper; the originals stay alive
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    wrapper = self.wrap_generator(name, obj)
                else:
                    wrapper = self.wrap(name, obj)
                wrappers[id(obj)] = wrapper
        lat = lattice._lattice
        wrappers[id(lat)] = self.wrap_cached("lattice._lattice", lat)

        for mod in [abelmap, *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])

        cg = graph.CurveGraph
        self._set(cg, "__init__", self.wrap("graph.CurveGraph", cg.__init__))
        prop = cg.__dict__["bridges"]
        traced_prop = type(prop)(self.wrap("graph.bridges", prop.func))
        traced_prop.__set_name__(cg, "bridges")
        self._set(cg, "bridges", traced_prop)
        self._set(cli.Report, "to_json", self.wrap("cli.Report.to_json", cli.Report.to_json))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ----- read-out --------------------------------------------------

    def totals(self) -> dict:
        """name -> [count, incl, self, truthy, items] summed over parents."""
        out: dict = {}
        for (name, _), rec in self.stats.items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0, 0])
            for k, v in enumerate(rec):
                acc[k] += v
        return out

    def table(self) -> list:
        """Every (name, parent) aggregate, for the trace file."""
        return [
            {
                "name": name,
                "parent": parent,
                "count": rec[COUNT],
                "incl_s": rec[INCL],
                "self_s": rec[SELF],
                "truthy": rec[TRUTHY],
                "items": rec[ITEMS],
            }
            for (name, parent), rec in sorted(self.stats.items())
        ]


# metric -> (span name, aggregate field, definition); times are self times
SPAN_METRICS = {
    "harness.graphs": ("harness.connected_multigraphs", ITEMS, "graphs yielded by connected_multigraphs"),
    "harness.enum_s": ("harness.connected_multigraphs", SELF, "enumeration with isomorph rejection"),
    "harness.run_s": ("harness.run_harness", SELF, "run_harness outside its callees"),
    "abel.eps_calls": ("abel.essential_connectivity", COUNT, "essential_connectivity calls"),
    "abel.eps_s": ("abel.essential_connectivity", SELF, "the 2^gamma subset scan of essential_connectivity"),
    "abel.pairs_certified_s": ("abel.partitional_pairs_certified", SELF, "the O(P^2) pair loop"),
    "abel.choose_reps_s": ("abel.choose_representatives", SELF, "choose_representatives"),
    "abel.is_natural_s": ("abel.is_natural", SELF, "is_natural"),
    "graph.curvegraphs_built": ("graph.CurveGraph", COUNT, "CurveGraph constructions"),
    "graph.cut_edges_calls": ("graph.cut_edges", COUNT, "cut_edges calls"),
    "graph.cut_edges_s": ("graph.cut_edges", SELF, "cut_edges"),
    "graph.bridges_s": ("graph.bridges", SELF, "CurveGraph.bridges, computed once per graph"),
    "lattice.build_s": ("lattice._lattice.build", INCL, "lattice builds (cache misses), HNF/SNF/Bareiss included"),
    "lattice.twister_calls": ("lattice.twister_divisor", COUNT, "twister_divisor calls"),
    "lattice.twister_s": ("lattice.twister_divisor", SELF, "twister_divisor"),
    "lattice.multidegree_of_calls": ("lattice.multidegree_of", COUNT, "multidegree_of calls"),
    "lattice.equivalent_calls": ("lattice.equivalent", COUNT, "equivalent calls"),
    "lattice.class_calls": ("lattice.multidegree_class", COUNT, "multidegree_class calls"),
    "lattice.class_s": ("lattice.multidegree_class", SELF, "multidegree_class"),
    "lattice.enumerate_classes_s": ("lattice.enumerate_classes", SELF, "enumerate_classes"),
    "lattice.classes_enumerated": ("lattice.enumerate_classes", ITEMS, "classes returned by enumerate_classes"),
    "intlinalg.hnf_calls": ("intlinalg.row_hnf", COUNT, "row_hnf calls"),
    "intlinalg.hnf_s": ("intlinalg.row_hnf", SELF, "row_hnf"),
    "intlinalg.snf_s": ("intlinalg.smith_invariants", SELF, "smith_invariants"),
    "intlinalg.bareiss_s": ("intlinalg.det_bareiss", SELF, "det_bareiss"),
    "levels.sum_of_tails_calls": ("levels.is_sum_of_tails_multidegree", COUNT, "is_sum_of_tails_multidegree calls"),
    "levels.sum_of_tails_s": ("levels.is_sum_of_tails_multidegree", SELF, "is_sum_of_tails_multidegree"),
    "levels.crossing_calls": ("levels.crossing_nodes", COUNT, "crossing_nodes calls"),
    "cli.calls": ("cli.main", COUNT, "CLI calls (cli.main)"),
    "cli.parse_graph_s": ("cli.parse_graph", SELF, "parse_graph inside the CLI calls"),
    "cli.report_s": ("cli.Report.to_json", SELF, "Report.to_json"),
}

OTHER_METRICS = {
    "abel.pairs_tested": "equivalent calls made by partitional_pairs_certified",
    "abel.equiv_pair_ratio": "equivalent pairs / pairs tested (0 when none tested)",
    "lattice.builds": "_lattice cache misses, from cache_info()",
    "lattice.cache_hits": "_lattice cache hits, from cache_info()",
    "lattice.cache_entries": "_lattice cache currsize at the end of the sample",
    "lattice.twister_hit_ratio": "twister_divisor results that are not None / calls (0 when no call)",
}


def layer_metrics(tracer: Tracer, lattice_cache) -> dict:
    """The per-layer metrics of one traced sample, as plain numbers."""
    totals = tracer.totals()
    empty = [0, 0.0, 0.0, 0, 0]
    out = {
        metric: totals.get(span, empty)[field]
        for metric, (span, field, _) in SPAN_METRICS.items()
    }
    pairs = tracer.stats.get(("lattice.equivalent", "abel.partitional_pairs_certified"), empty)
    twister = totals.get("lattice.twister_divisor", empty)
    info = lattice_cache.cache_info()
    out.update({
        "abel.pairs_tested": pairs[COUNT],
        "abel.equiv_pair_ratio": pairs[TRUTHY] / pairs[COUNT] if pairs[COUNT] else 0.0,
        "lattice.builds": info.misses,
        "lattice.cache_hits": info.hits,
        "lattice.cache_entries": info.currsize,
        "lattice.twister_hit_ratio": twister[TRUTHY] / twister[COUNT] if twister[COUNT] else 0.0,
    })
    return out
