"""Command-line interface.

Graphs come in as JSON documents:

    {"components": ["C1", "C2"], "nodes": [["C1", "C2"], ["C1", "C2"]]}

one entry per component label, one node per edge (a loop repeats the
label).  Every subcommand emits a flat report, human-readable by default
or machine-readable with --json.  Exit codes: 0 success (and true for
predicate commands), 1 predicate false or harness failures, 2 error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional

from . import abel, lattice, levels
from .graph import CurveGraph
from .harness import run_harness

INFINITY_TOKEN = "infinity"


def _load_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


def parse_graph(text: str) -> CurveGraph:
    """Build a CurveGraph from a JSON graph document."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ValueError("graph document must be a JSON object")
    components = doc.get("components")
    nodes = doc.get("nodes")
    if not _is_label_list(components):
        raise ValueError('"components" must be a list of labels')
    if not isinstance(nodes, list):
        raise ValueError('"nodes" must be a list of label pairs')
    index = {c: i for i, c in enumerate(components)}
    if len(index) != len(components):
        raise ValueError("component labels must be distinct")
    edges = []
    for pair in nodes:
        if not (_is_label_list(pair) and len(pair) == 2):
            raise ValueError(f"node {pair!r} must be a pair of labels")
        a, b = pair
        if a not in index or b not in index:
            raise ValueError(f"node {pair!r} references an unknown component")
        edges.append((index[a], index[b]))
    return CurveGraph(components, edges)


def _is_label_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def serialize_graph(g: CurveGraph) -> dict:
    """Inverse of parse_graph, structurally."""
    return {
        "components": list(g.components),
        "nodes": [[g.components[a], g.components[b]] for a, b in g.edges],
    }


@dataclass(frozen=True)
class Report:
    """What a subcommand computed: command name, inputs, outputs."""

    command: str
    inputs: dict
    outputs: dict

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": _encode(self.inputs),
            "outputs": _encode(self.outputs),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _encode(value):
    if isinstance(value, float) and math.isinf(value):
        return INFINITY_TOKEN
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and math.isinf(value):
        return INFINITY_TOKEN
    if isinstance(value, (list, tuple)):
        if value and isinstance(value[0], (list, tuple)):
            return "; ".join(_fmt(v) for v in value)
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _parse_vector(text: str, gamma: int, what: str) -> tuple:
    try:
        vec = tuple(int(part) for part in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise ValueError(f"{what} must be a comma-separated integer vector") from exc
    if len(vec) != gamma:
        raise ValueError(f"{what} has length {len(vec)}, expected {gamma}")
    return vec


# ----- the command table ----------------------------------------------------

INT, VECTOR, PATH = "int", "vector", "path"


@dataclass(frozen=True)
class _Option:
    """An option of a subcommand; the runner parses VECTORs against g.gamma.

    The report's inputs show an absent option as `absent` (None: left out).
    """

    flag: str
    kind: str
    required: bool = True
    default: object = None
    absent: object = None
    reported: bool = True
    help: Optional[str] = None


COMMANDS: list = []  # filled by @_Command(...), in `abelmap --help` order


@dataclass(frozen=True)
class _Command:
    """A subcommand; decorating compute(g, **options) -> outputs registers it.

    Exit code 1 when the `predicate` output is false.  In text mode
    `text(outputs, **options)` replaces the `key: value` lines.  Compute
    steps call the library through module attributes (abel.x), so code that
    rebinds such an attribute sees the call.
    """

    name: str
    help: str
    options: tuple = ()
    predicate: Optional[str] = None
    needs_graph: bool = True
    text: Optional[Callable[..., str]] = None
    compute: Optional[Callable[..., dict]] = None

    def __call__(self, compute):
        COMMANDS.append(replace(self, compute=compute))
        return compute


DEGREE = (_Option("--degree", INT),)
T = (_Option("--t", VECTOR),)


@_Command("info", "graph summary and class group order")
def _info(g: CurveGraph) -> dict:
    return {
        "components": list(g.components), "gamma": g.gamma, "edges": g.edge_count,
        "loops": sum(a == b for a, b in g.edges),
        "separating_nodes": sorted(g.bridges),
        "class_group_order": lattice.class_group_order(g),
    }


@_Command("epsilon", "essential connectivity")
def _epsilon(g: CurveGraph) -> dict:
    return {"epsilon": abel.essential_connectivity(g)}


@_Command("natural-abel", "does a natural d-th Abel map exist", DEGREE,
          predicate="natural_abel_map_exists")
def _natural_abel(g: CurveGraph, degree: int) -> dict:
    exists = abel.has_natural_abel_map(g, degree)
    eps = abel.essential_connectivity(g)
    return {"epsilon": eps, "degree": degree, "natural_abel_map_exists": exists}


@_Command("classes", "canonical degree class representatives", DEGREE)
def _classes(g: CurveGraph, degree: int) -> dict:
    classes = [c.canonical for c in lattice.enumerate_classes(g, degree)]
    return {"degree": degree, "count": len(classes), "classes": classes}


@_Command("equiv", "are two multidegrees equivalent",
          (_Option("--d1", VECTOR), _Option("--d2", VECTOR)), predicate="equivalent")
def _equiv(g: CurveGraph, d1: tuple, d2: tuple) -> dict:
    return {"d1": d1, "d2": d2, "equivalent": lattice.equivalent(g, d1, d2)}


@_Command("canonical-rep", "canonical level expression of t", T)
def _canonical_rep(g: CurveGraph, t: tuple) -> dict:
    le = levels.multidegree_levels(g, t)
    rows = [[m, sorted(g.components[i] for i in zs)] for m, zs in le.levels]
    return {
        "t": t, "divisor": le.as_divisor(g.gamma),
        "degenerate": le.is_degenerate, "levels": rows,
    }


@_Command("s-set", "crossing nodes of a multidegree or divisor",
          (_Option("--t", VECTOR, False), _Option("--divisor", VECTOR, False)))
def _s_set(g: CurveGraph, t: Optional[tuple], divisor: Optional[tuple]) -> dict:
    if (t is None) == (divisor is None):
        raise ValueError("give exactly one of --t or --divisor")
    if t is not None:
        ids = levels.crossing_nodes_of_multidegree(g, t)
    else:
        ids = levels.crossing_nodes(g, divisor)
    nodes = [[e, *(g.components[i] for i in g.edges[e])] for e in sorted(ids)]
    return {"crossing_nodes": sorted(ids), "nodes": nodes}


@_Command("twister-dim", "dimension of the twister family of t", T)
def _twister_dim(g: CurveGraph, t: tuple) -> dict:
    return {"t": t, "dim": levels.twister_space_dim(g, t)}


@_Command("sum-of-tails", "is the divisor a sum of tails",
          (_Option("--divisor", VECTOR),), predicate="sum_of_tails")
def _sum_of_tails(g: CurveGraph, divisor: tuple) -> dict:
    ok = levels.is_sum_of_tails(g, divisor)
    return {"divisor": divisor, "sum_of_tails": ok}


@_Command("choose-reps", "pick class representatives", DEGREE)
def _choose_reps(g: CurveGraph, degree: int) -> dict:
    table = abel.choose_representatives(g, degree)
    return {
        "degree": degree, "classes": [c.canonical for c in table],
        "reps": list(table.values()),
    }


def _read_chooser(degree: int, path: str) -> list:
    """The "reps" list of a reps file; is_natural checks it against the curve."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = _load_json(fh.read())
    if isinstance(payload, dict) and "outputs" in payload:
        payload = payload["outputs"]  # a full choose-reps --json report
    if not isinstance(payload, dict) or not isinstance(payload.get("reps"), list):
        raise ValueError('reps file needs a "reps" list')
    given = payload.get("degree", degree)
    if type(given) is not int:
        raise ValueError(f'reps file "degree" {given!r} must be an integer')
    if given != degree:
        raise ValueError(f"reps file degree {given} does not match --degree {degree}")
    for rep in payload["reps"]:
        if not (isinstance(rep, list) and all(type(x) is int for x in rep)):
            raise ValueError(f"representative {rep!r} must be a list of integers")
    return payload["reps"]


REPS = _Option("--reps", PATH, False, absent="default",
               help="JSON reps file (from choose-reps --json)")


@_Command("is-natural", "does a representative choice work", (*DEGREE, REPS),
          predicate="natural")
def _is_natural(g: CurveGraph, degree: int, reps: Optional[str]) -> dict:
    chosen = None if reps is None else _read_chooser(degree, reps)
    ok = abel.is_natural(g, degree, chosen)
    return {"degree": degree, "chooser": reps or "default", "natural": ok}


@_Command("verify", "brute-force check against the criterion", DEGREE, predicate="agree")
def _verify(g: CurveGraph, degree: int) -> dict:
    certified = abel.partitional_pairs_certified(g, degree)
    criterion = abel.has_natural_abel_map(g, degree)
    return {
        "degree": degree, "pairwise_certified": certified,
        "epsilon_criterion": criterion, "agree": certified == criterion,
    }


def _harness_text(out: dict, max_degree: int, **_) -> str:
    if out["ok"]:
        return (
            f"all {out['graphs']} graphs verified for degrees 1..{max_degree} "
            f"({out['checks']} checks)"
        )
    lines = [f"{len(out['failures'])} failing instances:"]
    for f in out["failures"]:
        edges = [tuple(e) for e in f["edges"]]
        lines.append(f"  components={f['components']} edges={edges} degree={f['degree']}")
    return "\n".join(lines)


HARNESS_OPTIONS = (
    _Option("--max-gamma", INT),
    _Option("--max-edges", INT),
    _Option("--max-degree", INT),
    _Option("--jobs", INT, False, default=1, reported=False),
)


@_Command("harness", "exhaustive agreement sweep", HARNESS_OPTIONS, predicate="ok",
          needs_graph=False, text=_harness_text)
def _harness(g, max_gamma: int, max_edges: int, max_degree: int, jobs: int) -> dict:
    result = run_harness(max_gamma, max_edges, max_degree, jobs)
    failures = [
        {"components": list(c), "edges": [list(e) for e in ed], "degree": d}
        for c, ed, d in result.failures
    ]
    return {
        "graphs": result.graphs, "checks": result.checks,
        "failures": failures, "ok": result.ok,
    }


# ----- the runner -----------------------------------------------------------


def _run(cmd: _Command, args: argparse.Namespace) -> int:
    g, inputs, values = None, {}, {}
    if cmd.needs_graph:
        with open(args.graph, "r", encoding="utf-8") as fh:
            g = parse_graph(fh.read())
        inputs["graph"] = serialize_graph(g)
    for opt in cmd.options:
        dest = opt.flag[2:].replace("-", "_")
        value = getattr(args, dest)
        if opt.kind == VECTOR and value is not None:
            value = _parse_vector(value, g.gamma, opt.flag)
        values[dest] = value
        shown = opt.absent if value is None else value
        if opt.reported and shown is not None:
            inputs[dest] = shown
    outputs = cmd.compute(g, **values)
    if args.json:
        print(Report(cmd.name, inputs, outputs).to_json())
    elif cmd.text is not None:
        print(cmd.text(outputs, **values))
    else:
        for key, value in outputs.items():
            print(f"{key}: {_fmt(value)}")
    return 0 if cmd.predicate is None or outputs[cmd.predicate] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abelmap",
        description="Natural Abel maps of nodal curves from their dual graphs.",
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="cmd")
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        if cmd.needs_graph:
            p.add_argument("graph", help="path to a JSON graph document")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        for opt in cmd.options:
            p.add_argument(
                opt.flag,
                type=int if opt.kind == INT else None,
                required=opt.required,
                default=opt.default,
                help=opt.help,
            )
        p.set_defaults(command=cmd)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return _run(args.command, args)
    except (ValueError, IndexError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
