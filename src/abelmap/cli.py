"""Command-line interface.

Graphs come in as JSON documents:

    {"components": ["C1", "C2"], "nodes": [["C1", "C2"], ["C1", "C2"]]}

one entry per component label, one node per edge (a loop repeats the
label).  Every subcommand emits a flat report, human-readable by default
or machine-readable with --json.  Exit codes: 0 success (and true for
predicate commands), 1 predicate false or harness failures, 2 error.

argv is read straight from the command table COMMANDS, with the rules of
argparse (unique prefixes of flags, "--flag value" or "--flag=value"), so
start-up imports no parser library and builds no parser.

A --json report is the text of json.dumps(report, indent=2, sort_keys=True),
with ±inf as the string "infinity", but written by _json_text in one pass:
json.dumps with an indent cannot use the C encoder (up to Python 3.13) and
runs a pure-Python generator per value, which took longer than ε itself on
a 16-component curve.  Strings still go through json's C escaper.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Callable, NamedTuple, Optional

from . import abel, lattice, levels
from .graph import CurveGraph
from .harness import run_harness

INFINITY_TOKEN = "infinity"
_quote = json.encoder.encode_basestring_ascii  # json's C string escaper, quotes included


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
    if not (isinstance(components, list) and all(isinstance(c, str) for c in components)):
        raise ValueError('"components" must be a list of labels')
    if not isinstance(nodes, list):
        raise ValueError('"nodes" must be a list of label pairs')
    index = {c: i for i, c in enumerate(components)}
    if len(index) != len(components):
        raise ValueError("component labels must be distinct")
    edges = []
    for pair in nodes:
        a, b = pair if isinstance(pair, list) and len(pair) == 2 else (None, None)
        if not (isinstance(a, str) and isinstance(b, str)):
            raise ValueError(f"node {pair!r} must be a pair of labels")
        if a not in index or b not in index:
            raise ValueError(f"node {pair!r} references an unknown component")
        edges.append((index[a], index[b]))
    return CurveGraph(components, edges)


def serialize_graph(g: CurveGraph) -> dict:
    """Inverse of parse_graph, structurally."""
    return {
        "components": list(g.components),
        "nodes": [[g.components[a], g.components[b]] for a, b in g.edges],
    }


class Report(NamedTuple):
    """What a subcommand computed: command name, inputs, outputs."""

    command: str
    inputs: dict
    outputs: dict

    def to_json(self) -> str:
        return _json_text(self._asdict(), "")


def _json_text(value, indent: str) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it at the
    nesting `indent`, but ±inf as the string "infinity".  Each value must be
    of one of the exact types matched below, each dict key a str; anything
    else raises TypeError."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is list or kind is tuple:
        inner = indent + "  "
        items = [_quote(v) if type(v) is str else _json_text(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]" if items else "[]"
    if kind is dict:
        inner = indent + "  "
        items = [f"{_quote(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}" if items else "{}"
    if kind is float:
        return _quote(INFINITY_TOKEN) if math.isinf(value) else "NaN" if value != value else repr(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


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


class _Option(NamedTuple):
    """An option of a subcommand; the runner parses VECTORs against g.gamma.

    Every option is shown in the report's inputs, an absent one as `absent`
    (None: left out).
    """

    flag: str
    kind: str
    required: bool = True
    absent: object = None
    help: Optional[str] = None


COMMANDS: list = []  # filled by @_Command(...), in `abelmap --help` order


class _Command(NamedTuple):
    """A subcommand; decorating compute(g, **options) -> outputs registers it.

    The argv parser and the help read name, help, needs_graph (one
    positional graph path) and options from here.  Exit code 1 when the
    `predicate` output is false.  In text mode `text(outputs, **options)`
    replaces the `key: value` lines.  Compute steps call the library
    through module attributes (abel.x), so code that rebinds such an
    attribute sees the call.
    """

    name: str
    help: str
    options: tuple = ()
    predicate: Optional[str] = None
    needs_graph: bool = True
    text: Optional[Callable[..., str]] = None
    compute: Optional[Callable[..., dict]] = None

    def __call__(self, compute):
        COMMANDS.append(self._replace(compute=compute))
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
    classes = lattice.enumerate_classes(g, degree)
    return {"degree": degree, "count": len(classes), "classes": classes}


@_Command("equiv", "are two multidegrees equivalent",
          (_Option("--d1", VECTOR), _Option("--d2", VECTOR)), predicate="equivalent")
def _equiv(g: CurveGraph, d1: tuple, d2: tuple) -> dict:
    return {"d1": d1, "d2": d2, "equivalent": lattice.equivalent(g, d1, d2)}


@_Command("canonical-rep", "canonical level expression of t", T)
def _canonical_rep(g: CurveGraph, t: tuple) -> dict:
    dv = lattice.twister_divisor(g, t)
    rows = [
        [m, sorted(c for c, x in zip(g.components, dv) if x == m)]
        for m in sorted(set(dv))
    ]
    return {"t": t, "divisor": dv, "degenerate": not any(dv), "levels": rows}


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
        "degree": degree, "classes": list(table),
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
    certified = abel.is_natural(g, degree)
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
        yes = f["natural_by_classes"]
        lines.append(f"  components={list(f['components'])} edges={list(f['edges'])} degree="
                     f"{f['degree']} natural_by_classes={yes} natural_by_epsilon={not yes}")
    return "\n".join(lines)


HARNESS_OPTIONS = (
    _Option("--max-gamma", INT),
    _Option("--max-edges", INT),
    _Option("--max-degree", INT),
)


@_Command("harness", "exhaustive agreement sweep", HARNESS_OPTIONS, predicate="ok",
          needs_graph=False, text=_harness_text)
def _harness(g, max_gamma: int, max_edges: int, max_degree: int) -> dict:
    result = run_harness(max_gamma, max_edges, max_degree)
    keys = ("components", "edges", "degree", "natural_by_classes")
    failures = [dict(zip(keys, f)) for f in result.failures]
    return {
        "graphs": result.graphs, "checks": result.checks,
        "failures": failures, "ok": result.ok,
    }


# ----- the runner -----------------------------------------------------------


def _run(cmd: _Command, graph: Optional[str], as_json: bool, given: dict) -> int:
    g, inputs, values = None, {}, {}
    if cmd.needs_graph:
        with open(graph, "r", encoding="utf-8") as fh:
            g = parse_graph(fh.read())
        inputs["graph"] = serialize_graph(g)
    for opt in cmd.options:
        dest = opt.flag[2:].replace("-", "_")
        value = given[opt.flag]
        if opt.kind == VECTOR and value is not None:
            value = _parse_vector(value, g.gamma, opt.flag)
        values[dest] = value
        shown = opt.absent if value is None else value
        if shown is not None:
            inputs[dest] = shown
    outputs = cmd.compute(g, **values)
    if as_json:
        print(Report(cmd.name, inputs, outputs).to_json())
    elif cmd.text is not None:
        print(cmd.text(outputs, **values))
    else:
        for key, value in outputs.items():
            print(f"{key}: {_fmt(value)}")
    return 0 if cmd.predicate is None or outputs[cmd.predicate] else 1


# ----- argv -----------------------------------------------------------------


def _flag(cmd: Optional[_Command], token: str) -> Optional[str]:
    """The flag that token (up to any "=") names: exactly, or as the unique
    prefix of a --flag, as argparse's allow_abbrev reads it; else None."""
    head = token.partition("=")[0]
    flags = ("--help", "--json", *(o.flag for o in cmd.options)) if cmd else ("--help",)
    if head in flags or head == "-h":
        return head
    hits = [f for f in flags if head[2:] and head.startswith("--") and f.startswith(head)]
    if len(hits) > 1:
        _fail(cmd, f"ambiguous option: {head} could match {', '.join(hits)}")
    return hits[0] if hits else None


def _is_positional(token: str) -> bool:
    # a dash-led token that names no flag is still an argument when it is a
    # negative integer, a lone "-", or holds a space, as argparse reads it
    return not token.startswith("-") or token == "-" or token[1:].isdecimal() or " " in token


def _parse(argv: list) -> tuple:
    """(command, graph path, --json given, {flag: value}) from argv.

    Each flag of the command's COMMANDS entry takes one value, separate or
    after "=", and the last one given wins.  A separate value may start
    with "-" only as a negative integer.  Bad argv prints the usage and an
    error line and raises SystemExit(2).
    """
    name = next(iter(argv), None)
    cmd = next((c for c in COMMANDS if c.name == name), None)
    if cmd is None:
        if name and _flag(None, name):  # -h, or --help or a prefix of it
            _exit_with_help(None)
        _fail(None, "no command given" if name is None else f"unknown command {name!r}")
    given, graph, as_json, extras = dict.fromkeys(o.flag for o in cmd.options), None, False, []
    tokens = iter(argv[1:])
    for token in tokens:
        flag = _flag(cmd, token)
        if flag is None:
            if cmd.needs_graph and graph is None and _is_positional(token):
                graph = token
            else:
                extras.append(token)
            continue
        _, eq, value = token.partition("=")
        if flag in ("-h", "--help", "--json"):
            if eq:
                _fail(cmd, f"argument {flag}: ignored explicit argument {value!r}")
            if flag != "--json":
                _exit_with_help(cmd)
            as_json = True
            continue
        if not eq:
            value = next(tokens, "--")
            if _flag(cmd, value) or not _is_positional(value):
                _fail(cmd, f"argument {flag}: expected one argument")
        elif value == "--":
            raise ValueError(f"{flag} needs a value")
        if next(o.kind for o in cmd.options if o.flag == flag) == INT:
            try:
                value = int(value)
            except ValueError:
                _fail(cmd, f"argument {flag}: invalid int value: {value!r}")
        given[flag] = value
    missing = ["graph"] if cmd.needs_graph and graph is None else []
    missing += [o.flag for o in cmd.options if o.required and given[o.flag] is None]
    if missing:
        _fail(cmd, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(cmd, f"unrecognized arguments: {' '.join(extras)}")
    return cmd, graph, as_json, given


def _usage(cmd: Optional[_Command]) -> str:
    if cmd is None:
        return "usage: abelmap [-h] <command> ...  (abelmap <command> -h lists its options)"
    words = [f"{o.flag} {o.kind.upper()}" for o in cmd.options]
    words = [w if o.required else f"[{w}]" for o, w in zip(cmd.options, words)]
    graph = ["graph"] * cmd.needs_graph
    return " ".join(["usage: abelmap", cmd.name, "[-h] [--json]", *words, *graph])


def _exit_with_help(cmd: Optional[_Command]):
    rows = [(c.name, c.help) for c in COMMANDS] if cmd is None else [
        *[("graph", "path to a JSON graph document")] * cmd.needs_graph,
        ("--json", "machine-readable report"),
        *((f"{o.flag} {o.kind.upper()}", o.help or "") for o in cmd.options)]
    width = max(len(name) for name, _ in rows) + 2
    about = "Natural Abel maps of nodal curves from their dual graphs." if cmd is None else cmd.help
    rows = [f"  {name.ljust(width)}{text}".rstrip() for name, text in rows]
    print(_usage(cmd), "", about, "", *rows, sep="\n")
    raise SystemExit(0)


def _fail(cmd: Optional[_Command], message: str):
    prog = "abelmap" if cmd is None else f"abelmap {cmd.name}"
    print(_usage(cmd), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def main(argv: Optional[list] = None) -> int:
    try:
        return _run(*_parse(sys.argv[1:] if argv is None else argv))
    except (ValueError, IndexError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
