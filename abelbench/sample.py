"""One benchmark sample: a fresh interpreter that runs a workload's CLI calls.

    python sample.py RUNDIR [--trace]

RUNDIR holds the workload's graph documents under graphs/ and its CLI calls
in calls.json, a list of argument lists.  The sample imports abelmap.cli,
parses every document with parse_graph (the end of set-up), then runs each
call through abelmap.cli.main as a user's command would, with its output
captured.  It prints one JSON line: the
monotonic-clock time at which set-up ended, the wall and CPU time of the
calls, peak RSS, and each call's exit code, output and error; the caller
checks the answers.  With --trace the calls run under spans.py and
the line also carries the per-layer metrics and the span table.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> None:
    rundir = sys.argv[1]
    trace = "--trace" in sys.argv[2:]

    from abelmap import cli

    graphs = os.path.join(rundir, "graphs")
    for fname in sorted(os.listdir(graphs)):
        with open(os.path.join(graphs, fname), encoding="utf-8") as fh:
            cli.parse_graph(fh.read())
    setup_end = time.monotonic()
    result = {"setup_end": setup_end}

    with open(os.path.join(rundir, "calls.json"), encoding="utf-8") as fh:
        calls = json.load(fh)
    tracer = None
    if trace:
        from spans import Tracer

        from abelmap import lattice

        lattice_cache = lattice._lattice  # the lru_cache itself, before wrapping
        tracer = Tracer()
        tracer.install()
    outcomes = []
    w0, c0 = time.perf_counter(), time.process_time()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        code, error = None, ""
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed call, and the run goes on
            error = traceback.format_exc(limit=-3)
        outcomes.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error})
    result["wall_s"] = time.perf_counter() - w0
    result["cpu_s"] = time.process_time() - c0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["calls"] = outcomes
    if tracer is not None:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer, lattice_cache)
        result["spans"] = tracer.table()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
