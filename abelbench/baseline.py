"""Measure the baseline: two rounds of every workload on ten seeds, plus one traced run.

    python3 abelbench/baseline.py

Run from the root of a checkout.  Each run is one invocation of run.py with
its own seed and BENCHMARK.json's run_seconds.  Round 1 runs every workload
on seeds 1-10, then round 2 runs them all again, as two separate sets of
runs of the same code would.  For every end-to-end metric the script prints
each round's median and spread (interquartile distance over the median, as
statistics.quantiles(n=4) gives it) and how much worse round 2's median is
than round 1's, each beside the metric's bound.  It then writes
abelbench/baseline.json: the host, the commit, the metric and workload
definitions, every run's values and the per-layer metrics of the traced run.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
ROUNDS = 2
OUT = os.path.join(HERE, "baseline.json")

OMITTED = {
    "harness gamma<=5, E<=8, d<=4": "about 33 s per sample, too long for 22 runs per workload",
    "epsilon on a doubled 20-cycle": "9.2 s per call; gamma 16 and 17 exercise the same scan",
    "harness --jobs 2": "on a 2-core shared host, wall-clock scaling would measure the scheduler",
}


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stderr}")
    return result


def spread(values: list) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def flag(value: float, bound: float) -> str:
    return "ok" if value < bound / 3 else ("within bound" if value <= bound else "OVER BOUND")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    rounds = []
    for r in range(ROUNDS):
        rounds.append({})
        for name in WORKLOADS:
            t0 = time.monotonic()
            runs = [invoke(name, seed, seconds, 0) for seed in SEEDS]
            summary = {}
            for m in metrics:
                values = [run_["metrics"][m["name"]]["value"] for run_ in runs]
                med, s = statistics.median(values), spread(values)
                summary[m["name"]] = {"median": med, "spread": s, "values": values}
                print(f"round {r + 1} {name:11s} {m['name']:13s} median {med:10.5g} "
                      f"spread {s:.3f} bound {m['bound']} {flag(s, m['bound'])}", flush=True)
            rounds[-1][name] = {
                "end_to_end": summary,
                "attempted": sum(run_["attempted"] for run_ in runs),
                "failed": sum(run_["failed"] for run_ in runs),
                "elapsed_s": time.monotonic() - t0,
            }

    results = {}
    for name in WORKLOADS:
        drift = {}
        for m in metrics:
            first, second = (rnd[name]["end_to_end"][m["name"]]["median"] for rnd in rounds)
            drift[m["name"]] = worse_by(first, second, m["better"])
            print(f"{name:11s} {m['name']:13s} round 2 worse by {drift[m['name']]:+.3f} "
                  f"bound {m['bound']} {flag(drift[m['name']], m['bound'])}")
        traced = invoke(name, 1, seconds, 1)
        results[name] = {
            "rounds": [rnd[name] for rnd in rounds],
            "round2_worse_by": drift,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    record = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "rounds": ROUNDS,
        "seeds": list(SEEDS),
        "end_to_end_definitions": {k: {"unit": u, "definition": d}
                                   for k, (u, d) in run.END_TO_END.items()},
        "per_layer_definitions": {
            **{k: d for k, (_, _, d) in spans.SPAN_METRICS.items()},
            **spans.OTHER_METRICS,
            **run.BENCH_METRICS,
        },
        "workloads": {
            w.name: {
                "why": w.why,
                "calls": [
                    {"argv": list(c.argv), "exit_code": c.exit_code, "outputs": c.outputs}
                    for c in w.calls
                ],
            }
            for w in WORKLOADS.values()
        },
        "omitted_workloads": OMITTED,
        "results": results,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
