"""The repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout.  One run:

1. times `SETUP_RUNS` fresh interpreters that start, import the package from
   `src/` and make the warm-up call, and reports their median as `setup_s`;
2. starts one fresh single-threaded interpreter (worker.py) that runs passes
   of the workload for `--seconds` (at least one pass) and checks every
   output against its pinned value;
3. prints the metrics by name and unit, the error rate and the provenance,
   writes the full result to `.bench_out/`, and prints as its last line
   `{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json;
with `--trace 1` the worker traces every pass and the metrics are the
per-layer ones.  `--workload all` runs every workload untraced and traced
and prints one table, with the tracing overhead of each workload as traced
wall_s minus untraced wall_s.

A failed check is a wrong value, an exception, a non-zero exit code where
0 is expected, or a timeout; error_rate = failed / attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 30.0
RUN_LIMIT_S = 172.0  # the worker is stopped past this, counted as a timeout


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def _worker_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    env.pop("FRACTALCSS_BUDGET", None)
    return env


def provenance(root: str) -> dict:
    src = os.path.join(root, "src")
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(path, src).encode() + b"\0" + data)
            lines += sum(1 for ln in data.decode().splitlines() if ln.strip())
    git_sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    import numpy

    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_nonblank_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def _time_setup(args, root: str) -> tuple[list[float], int]:
    """SETUP_RUNS start-import-warm-up interpreters: their wall times and failures."""
    times, failed = [], 0
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(_worker_cmd(args, "--setup-only"), cwd=root,
                                  env=_worker_env(root), capture_output=True,
                                  timeout=SETUP_TIMEOUT_S)
            ok = proc.returncode == 0
            if not ok:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
        except subprocess.TimeoutExpired:
            ok = False
        times.append(time.perf_counter() - t0)
        failed += not ok
    return times, failed


def _run_worker(args, root: str, deadline: float) -> tuple[list[dict], bool]:
    """Start the worker and collect its events; (events, stopped at the deadline)."""
    proc = subprocess.Popen(_worker_cmd(args, "--trace", str(args.trace)), cwd=root,
                            env=_worker_env(root), stdout=subprocess.PIPE, text=True)
    events: list[dict] = []

    def read() -> None:
        for line in proc.stdout:
            try:
                events.append(json.loads(line))
            except ValueError:  # a line cut short when the worker was stopped
                pass

    reader = threading.Thread(target=read)
    reader.start()
    stopped = False
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stopped = True
        proc.kill()
        proc.wait()
    reader.join()
    proc.stdout.close()
    if proc.returncode != 0 and not stopped:
        events.append({"event": "exit", "code": proc.returncode})
    return events, stopped


def run_workload(args, root: str, spec: dict) -> dict:
    t_start = time.perf_counter()
    prov = provenance(root)
    setup, setup_failed = _time_setup(args, root)
    events, stopped = _run_worker(args, root, t_start + RUN_LIMIT_S)

    rows = [e for e in events if e["event"] == "row"]
    done = next((e for e in events if e["event"] == "done"), None)
    attempted = SETUP_RUNS + sum(r["attempted"] for r in rows)
    failed = setup_failed + sum(r["failed"] for r in rows)
    problems = [f"{r['row']} (pass {r['pass']}): {'; '.join(r['failures'])}"
                + (f" [{r['error']}; last call {r['last_call']}]" if r["error"] else "")
                for r in rows if r["failed"]]
    if done is None:
        # a stopped or crashed worker is one failed check; keep the rows it finished
        attempted += 1
        failed += 1
        last = rows[-1] if rows else None
        where = (f"after row {last['row']} (pass {last['pass']}, last step "
                 f"{last['last']!r}, last call {last['last_call']!r})" if last else "before any row")
        problems.append(("timeout" if stopped else "worker exited without a result") + " " + where)
    elif done.get("unresolved"):
        # a traced function the tracer could not find would read as 0 calls
        attempted += 1
        failed += 1
        problems.append(f"tracer found no function {', '.join(done['unresolved'])}")

    wall = statistics.median(done["passes"]) if done else time.perf_counter() - t_start
    values = {
        "wall_s": wall,
        "peak_rss_mb": done["peak_rss_kb"] / 1024 if done else 0.0,
        "setup_s": statistics.median(setup),
    }
    if args.trace:
        from tracer import median_metrics

        values = median_metrics(done["layers"]) if done and done.get("layers") else {}
        values["trace.wall_s"] = wall
        values["trace.overhead_est_s"] = (
            values.get("trace.spans", 0) * done["span_cost_s"] if done else 0.0)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(done["passes"]) if done else 0,
        "e_holes": done["e_holes"] if done else None,
        "provenance": prov, "setup_samples_s": setup,
        "pass_wall_s": done["passes"] if done else None,
        "row_groups_s": done["row_groups_s"] if done else {},
        "error_rate": failed / attempted, "problems": problems,
        "rows": rows, "spans_file": done.get("spans_file") if done else None,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def _print_run(res: dict) -> None:
    prov = res["provenance"]
    print(f"perfbench workload={res['workload']} seed={res['seed']} trace={res['trace']} "
          f"passes={res['passes']} e_holes={res['e_holes']}")
    print("provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for name, m in res["result"]["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6f} {m['unit']}")
    for name, value in res["row_groups_s"].items():
        print(f"  {name + ' (row group)':<44} {value:>16.6f} s")
    r = res["result"]
    print(f"  {'error_rate':<44} {res['error_rate']:>16.6f} ratio "
          f"({r['failed']} failed / {r['attempted']} attempted)")
    for p in res["problems"]:
        print(f"  FAILED {p}")
    if res["spans_file"]:
        print(f"  spans written to {res['spans_file']}")


def _save(res: dict, root: str) -> None:
    out = os.path.join(root, ".bench_out")
    os.makedirs(out, exist_ok=True)
    name = f"result-{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    with open(os.path.join(out, name), "w") as fh:
        json.dump(res, fh, indent=1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fractalcss", "__init__.py")):
        return _fail(f"no package source at {os.path.join(root, 'src', 'fractalcss')}; "
                     "run from the root of a checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        return _fail(f"cannot read BENCHMARK.json: {err}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return _report(args, root, spec, names)
    if args.workload not in names:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")

    res = run_workload(args, root, spec)
    _save(res, root)
    _print_run(res)
    print(json.dumps(res["result"]))
    return 0


def _report(args, root: str, spec: dict, names: list[str]) -> int:
    """Every workload untraced and traced, one table."""
    table = []
    for name in names:
        runs = {}
        for trace in (0, 1):
            args.workload, args.trace = name, trace
            runs[trace] = res = run_workload(args, root, spec)
            _save(res, root)
            _print_run(res)
        plain, traced = (runs[t]["result"]["metrics"] for t in (0, 1))
        table.append((name, plain, runs[0]["error_rate"], runs[1]["error_rate"],
                      traced["trace.wall_s"]["value"] - plain["wall_s"]["value"]))
    print()
    print("workload        " + "".join(f"{m['name']:>14}" for m in spec["end_to_end"])
          + f"{'error_rate':>12}{'trace_err':>10}{'overhead_s':>12}")
    print("                " + "".join(f"{m['unit']:>14}" for m in spec["end_to_end"])
          + f"{'ratio':>12}{'ratio':>10}{'s':>12}")
    for name, plain, err, terr, overhead in table:
        print(f"{name:<16}" + "".join(f"{plain[m['name']]['value']:>14.4f}"
                                      for m in spec["end_to_end"])
              + f"{err:>12.4f}{terr:>10.4f}{overhead:>12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
