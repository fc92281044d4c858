"""One measured run of one workload, in a fresh interpreter.

Started by run.py from the root of a checkout.  Imports the package from
`src/`, makes the untimed warm-up call, then runs passes of the workload
until `--seconds` have elapsed (at least one pass).  It reports to run.py
as JSON lines on its original standard output: one `row` event per row and
pass, then one `done` event.  Anything the package prints goes to stderr.

With `--trace 1` every pass is traced (see tracer.py) and the spans are
written to `.bench_out/` at the end.  With `--setup-only` it stops after the
warm-up call; run.py times such runs as the set-up cost.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

# A run starts no pass that would end past this; run.py stops the whole
# worker if it overruns anyway.
HARD_STOP_S = 150.0


class RowTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RowTimeout("row timed out")


def _import_package(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import fractalcss

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(fractalcss.__file__).startswith(src + os.sep):
        raise SystemExit(f"fractalcss imported from {fractalcss.__file__}, not {src}")
    for layer in ("gf2", "complexes", "homology", "code", "distance", "gates",
                  "colorcode", "cli"):
        __import__(f"fractalcss.{layer}")


def _run_row(row, state: dict, tracer) -> dict:
    """Run one row under its timeout: its checks and wall time."""
    from workloads import Checks

    chk = Checks()
    error = None
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, row.timeout_s)
    try:
        with tracer.span(f"row:{row.name}") if tracer else contextlib.nullcontext():
            row.run(chk, state)
    except Exception as exc:  # every failure of a row is a counted result
        error = f"{type(exc).__name__}: {exc}"
        chk.fail(f"exception after step {chk.last!r}")
        if not isinstance(exc, RowTimeout):
            traceback.print_exc(file=sys.stderr)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {
        "row": row.name, "seconds": time.perf_counter() - t0,
        "attempted": chk.attempted, "failed": chk.failed, "last": chk.last,
        "failures": chk.failures[:5], "error": error,
        "last_call": tracer.last_closed if tracer else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    _import_package(root)
    import workloads
    from tracer import Tracer, span_cost

    rows = workloads.WORKLOADS[args.workload]
    workloads.warm_up()
    if args.setup_only:
        return 0

    # the protocol keeps the original stdout; stray prints go to stderr
    channel = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def emit(event: dict) -> None:
        channel.write(json.dumps(event) + "\n")

    out_dir = os.path.join(root, ".bench_out")
    tmp = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    layout = workloads.mixed_layout(args.seed)

    tracer = unresolved = None
    if args.trace:
        tracer = Tracer()
        unresolved = tracer.install([workloads])

    signal.signal(signal.SIGALRM, _on_alarm)
    passes = []
    row_times = collections.defaultdict(list)
    t_run = time.perf_counter()
    try:
        while True:
            p = len(passes)
            state = {"layout": layout, "tmp": tmp}
            if tracer:
                tracer.run = p
            t_pass = time.perf_counter()
            with tracer.span("pass") if tracer else contextlib.nullcontext():
                for row in rows:
                    r = _run_row(row, state, tracer)
                    row_times[row.name].append(r["seconds"])
                    emit({"event": "row", "pass": p, **r})
            wall = time.perf_counter() - t_pass
            passes.append(wall)
            elapsed = time.perf_counter() - t_run
            if elapsed >= args.seconds or elapsed + wall > HARD_STOP_S:
                break
        done = {
            "event": "done",
            "passes": passes,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "e_holes": sum(kind == "e" for kind in layout.values()),
            # each group: the sum of its rows' median times over the passes
            "row_groups_s": {
                name: sum(statistics.median(row_times[row]) for row in group)
                for name, group in workloads.ROW_GROUPS.get(args.workload, {}).items()
            },
        }
        if tracer:
            done["unresolved"] = unresolved
            done["layers"] = tracer.pass_metrics()
            done["span_cost_s"] = span_cost()
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans_path, f"{args.workload}:seed{args.seed}:pid{os.getpid()}")
            done["spans_file"] = os.path.relpath(spans_path, root)
        emit(done)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
