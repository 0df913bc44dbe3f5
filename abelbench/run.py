"""abelmap benchmark: cold-process CLI workloads, checked answers, medians.

    python3 abelbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample is a fresh interpreter
(sample.py) that imports abelmap.cli, parses the workload's graph documents
and runs the workload's CLI calls, as a user's commands would; no cache
survives from one sample to the next.  Samples run one after another
(closed loop, one client) until S seconds have passed.  Each call's exit
code and JSON verdict are checked; a wrong one counts as a failed call and
the run goes on.

A shared host's speed drifts, so a fixed reference task
(reference.py) is timed in a fresh interpreter before and after every
sample, and the sample's times are scaled by REF_NOMINAL_S over the mean of
those two reference times: end-to-end times are seconds on a host where the
reference task takes REF_NOMINAL_S.  The raw times are printed beside them.

With --trace 0 the result carries the end-to-end metrics, each the median
over the run's samples.  With --trace 1 untraced and traced samples
alternate, and the result carries the per-layer metrics of the traced
samples and trace_overhead (traced over untraced wall time); the span table
of the last traced sample is written to .abelbench/trace-NAME-N.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".abelbench")
sys.path.insert(0, HERE)

from reference import REF_NOMINAL_S  # noqa: E402
from workloads import WORKLOADS, check_call  # noqa: E402

CHILD_TIMEOUT_S = 150

# per-layer metrics of the benchmark itself -> definition
BENCH_METRICS = {
    "trace_overhead": "traced wall_s / untraced wall_s in the same run",
    "bench.wall_raw_s": "median wall time of the untraced samples, not scaled",
    "bench.reference_s": "median time of the reference task in the run",
}

# end-to-end metric -> (unit, definition); each is the median over the run's
# samples, and times are scaled to the reference host speed
END_TO_END = {
    "wall_s": ("s", "wall time of the workload's CLI calls in one fresh process"),
    "cpu_s": ("s", "process CPU time over the same interval"),
    "checks_per_s": ("1/s", "checked verdicts per wall second: harness checks on sweep, one per call elsewhere"),
    "peak_rss_mb": ("MB", "peak resident set of the sample process (ru_maxrss / 1024)"),
    "setup_s": ("s", "process start until abelmap.cli is imported and the graph documents are parsed"),
}


class SampleError(RuntimeError):
    """A sample process crashed, timed out or printed no result."""


def run_sample(rundir: str, *flags: str) -> dict:
    """Spawn one sample; return its result with setup_s filled in."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), rundir, *flags]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"sample exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_end"] - start
    return result


def run_reference() -> float:
    """Time the reference task in a fresh interpreter."""
    cmd = [sys.executable, os.path.join(HERE, "reference.py")]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout)


def write_inputs(workload, seed: int) -> str:
    """The run's directory: graphs/NAME.json and calls.json, the argv lists."""
    rundir = os.path.join(OUT, f"run-{workload.name}-{os.getpid()}")
    graphs = os.path.join(rundir, "graphs")
    os.makedirs(graphs, exist_ok=True)
    paths = {}
    for name, text in workload.documents(seed).items():
        paths[name] = os.path.join(graphs, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(rundir, "calls.json"), "w", encoding="utf-8") as fh:
        json.dump([call.resolve(paths) for call in workload.calls], fh)
    return rundir


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, rundir: str, seconds: float, trace: bool) -> dict:
    """Samples until `seconds` have passed.

    Every sample result gets "scale": REF_NOMINAL_S over the mean reference
    time around it.
    """
    plain, traced, failures, refs = [], [], [], [run_reference()]
    attempted = 0
    start = time.monotonic()
    while True:
        for flags, bucket in ((), plain), (("--trace",), traced):
            if flags and not trace:
                continue
            attempted += len(workload.calls)
            try:
                result = run_sample(rundir, *flags)
            except SampleError as exc:
                failures.extend([str(exc)] * len(workload.calls))
                result = None
            refs.append(run_reference())
            if result is None:
                continue
            result["scale"] = REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2)
            for call, out in zip(workload.calls, result["calls"]):
                reason = check_call(call, out["code"], out["stdout"], out["error"])
                if reason:
                    failures.append(f"{' '.join(call.argv)}: {reason} {out['stderr'][-200:]}")
            bucket.append(result)
        if time.monotonic() - start >= seconds:
            break
    return {"plain": plain, "traced": traced, "refs": refs,
            "attempted": attempted, "failures": failures}


def end_to_end(workload, m: dict) -> dict:
    plain = m["plain"]
    raw = {
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "checks_per_s": [workload.checks / r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
    }
    scaled = {
        "wall_s": [r["wall_s"] * r["scale"] for r in plain],
        "cpu_s": [r["cpu_s"] * r["scale"] for r in plain],
        "checks_per_s": [workload.checks / (r["wall_s"] * r["scale"]) for r in plain],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": [r["setup_s"] * r["scale"] for r in plain],
    }
    print(f"reference task: median {median(m['refs']):.4g} s over {len(m['refs'])} runs, "
          f"nominal {REF_NOMINAL_S} s")
    for name, values in scaled.items():
        shown = " ".join(f"{v:.4g}" for v in values)
        print(f"{name:14s} median {median(values):10.5g} {END_TO_END[name][0]:4s} "
              f"(raw {median(raw[name]):.5g}) n={len(values):<3d} [{shown}]")
    print(f"{'fail_ratio':14s} {len(m['failures'])}/{m['attempted']} calls")
    return {name: median(values) for name, values in scaled.items()}


def per_layer(m: dict) -> tuple:
    """Medians of the traced samples' layer metrics; False if counts differ."""
    traced = [r["layers"] for r in m["traced"]]
    if not traced:
        return {}, False
    steady = True
    out = {}
    for name in traced[0]:
        values = [t[name] for t in traced]
        if layer_unit(name) == "s":
            out[name] = median(values)
        else:
            out[name] = values[0]
            steady = steady and all(v == values[0] for v in values)
    plain_wall = median([r["wall_s"] * r["scale"] for r in m["plain"]])
    traced_wall = median([r["wall_s"] * r["scale"] for r in m["traced"]])
    out["trace_overhead"] = traced_wall / plain_wall if plain_wall else 0.0
    out["bench.wall_raw_s"] = median([r["wall_s"] for r in m["plain"]])
    out["bench.reference_s"] = median(m["refs"])
    for name, value in out.items():
        print(f"{name:30s} {value:.6g}")
    return out, steady


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_overhead")) else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "abelmap", "cli.py")):
        print(f"error: no abelmap sources under {SRC}", file=sys.stderr)
        return 2
    # what an installed CLI has: byte-compiled modules
    compileall.compile_dir(os.path.join(SRC, "abelmap"), quiet=1)

    workload = WORKLOADS[args.workload]
    rundir = write_inputs(workload, args.seed)
    try:
        m = measure(workload, rundir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for reason in m["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    correct = not m["failures"]
    if args.trace:
        values, steady = per_layer(m)
        if not steady:
            print("FAILED traced samples disagree on a count", file=sys.stderr)
        correct = correct and steady
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        if m["traced"]:
            path = os.path.join(OUT, f"trace-{workload.name}-{args.seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"layers": values, "spans": m["traced"][-1]["spans"]}, fh, indent=1)
    else:
        correct = correct and bool(m["plain"])
        values = end_to_end(workload, m)
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": m["attempted"],
        "failed": len(m["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
