"""Workloads of the abelmap benchmark: graph documents, CLI calls, verdicts.

Each workload is a short list of CLI calls.  A call names its argv (graph
arguments are document names, resolved to files by the runner), the exit
code it must return, and the fields its JSON report must carry.  The graph
documents are built from a seed: the seed relabels the components at random
and shuffles the component and node order.  Every checked verdict is
invariant under isomorphism, so the expected values do not depend on it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Call:
    argv: tuple  # CLI arguments; "@name" stands for the path of document name
    exit_code: int
    outputs: dict  # expected values of fields of the report's "outputs"

    def resolve(self, paths: dict) -> list:
        return [paths[a[1:]] if a.startswith("@") else a for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple
    checks: int  # verdicts the calls check, for checks_per_s
    graphs: dict = field(default_factory=dict)  # name -> (gamma, edges)

    def documents(self, seed: int) -> dict:
        """JSON graph documents, relabeled and shuffled by the seed."""
        rng = random.Random(f"{self.name}:{seed}")
        return {
            name: relabeled_document(gamma, edges, rng)
            for name, (gamma, edges) in sorted(self.graphs.items())
        }


def doubled_cycle(n: int) -> list:
    return [(i, (i + 1) % n) for i in range(n) for _ in range(2)]


def doubled_complete(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n) for _ in range(2)]


def cycle_with_pendant_chain(n: int, chain: int) -> tuple:
    """Doubled n-cycle with a chain of `chain` components hanging off vertex 0.

    Every link of the chain is a single node, hence a separating node.
    """
    edges = doubled_cycle(n)
    prev = 0
    for k in range(n, n + chain):
        edges.append((prev, k))
        prev = k
    return n + chain, edges


def relabeled_document(gamma: int, edges: list, rng: random.Random) -> str:
    """Graph document with random labels, component order and node order."""
    labels = [f"X{k:05d}" for k in rng.sample(range(100000), gamma)]
    order = labels[:]
    rng.shuffle(order)
    nodes = [
        [labels[a], labels[b]] if rng.random() < 0.5 else [labels[b], labels[a]]
        for a, b in edges
    ]
    rng.shuffle(nodes)
    return json.dumps({"components": order, "nodes": nodes})


SWEEP = Workload(
    name="sweep",
    why="harness sweep of 1177 graphs: enumeration with isomorph rejection and one lattice build per graph",
    calls=(
        Call(
            argv=("harness", "--max-gamma", "5", "--max-edges", "7", "--max-degree", "3", "--json"),
            exit_code=0,
            outputs={"graphs": 1177, "checks": 3531, "failures": [], "ok": True},
        ),
    ),
    checks=3531,
)

LARGE_EPS = Workload(
    name="large-eps",
    why="epsilon and natural-abel on gamma 16 and 17: the 2^gamma cut scan and bridges, with no lattice or harness call",
    calls=(
        Call(
            argv=("epsilon", "@cycle16", "--json"),
            exit_code=0,
            outputs={"epsilon": 4},
        ),
        Call(
            argv=("natural-abel", "@pendant17", "--degree", "3", "--json"),
            exit_code=0,
            outputs={"epsilon": 4, "degree": 3, "natural_abel_map_exists": True},
        ),
    ),
    graphs={
        "cycle16": (16, doubled_cycle(16)),
        "pendant17": cycle_with_pendant_chain(12, 5),
    },
    checks=2,
)

CLASS_WALK = Workload(
    name="class-walk",
    why="is-natural walks 524288 classes and verify tests 313k pairs: two lattice builds, many lattice queries",
    calls=(
        Call(
            argv=("is-natural", "@cycle16", "--degree", "1", "--json"),
            exit_code=0,
            outputs={"degree": 1, "chooser": "default", "natural": True},
        ),
        Call(
            argv=("verify", "@k6", "--degree", "7", "--json"),
            exit_code=0,
            outputs={
                "degree": 7,
                "pairwise_certified": True,
                "epsilon_criterion": True,
                "agree": True,
            },
        ),
    ),
    graphs={
        "cycle16": (16, doubled_cycle(16)),
        "k6": (6, doubled_complete(6)),
    },
    checks=2,
)

WORKLOADS = {w.name: w for w in (SWEEP, LARGE_EPS, CLASS_WALK)}


def check_call(call: Call, code, stdout: str, error: str = "") -> str:
    """Empty string when the call's result is as expected, else the reason."""
    if error:
        return error
    if code != call.exit_code:
        return f"exit code {code}, expected {call.exit_code}"
    try:
        outputs = json.loads(stdout)["outputs"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    for key, want in call.outputs.items():
        if key not in outputs:
            return f"report has no {key!r}"
        if outputs[key] != want:
            return f"{key} = {outputs[key]!r}, expected {want!r}"
    return ""
