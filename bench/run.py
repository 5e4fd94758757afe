"""motifcount benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are generated from the seed
into a temporary directory under .bench_runs/.  Each query process is a
fresh interpreter (cold caches, as on a CLI call) that issues the
workload's queries one after another: a closed loop with one client.  A
first, untimed process runs the queries on the small twin inputs, which the
oracle checks, and warms the file cache.  Timed query processes then run
back to back until the next one would end more than S seconds after the
run began; the metrics are medians over them.

--trace 0 reports the end-to-end metrics (query_s, setup_s, peak_rss_mb);
query_s is scaled by a machine-speed probe each process times (see
METRICS.md, "Machine probe").
--trace 1 alternates untraced and traced query processes and reports the
per-layer metrics from the traced ones plus the tracing overhead.  The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the lines before it record the environment and each process.
Spans and the full result are written to .bench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
DEADLINE_S = 170.0  # a run must exit within 180 s
# Median of query.machine_probe() on the machine the bounds were set on (see
# METRICS.md, "Noise"): query_s is reported in seconds of that machine.
REFERENCE_PROBE_S = 0.0105


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def metric_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def environment(thread_cap: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_cap": thread_cap,
        "machine": platform.machine(),
    }


def child_env(thread_cap: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(thread_cap)
    env["PYTHONHASHSEED"] = "0"  # same set iteration order in every process
    return env


def run_process(spec: dict, spec_path: str, env: dict, timeout: float) -> dict:
    """One query process; its report, or an "error" entry."""
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "query.py"), spec_path]
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd + [repr(spawn)], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "timed out", "wall_s": time.monotonic() - spawn}
    wall = time.monotonic() - spawn
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {err.strip()[-500:]}", "wall_s": wall}
    report = json.loads(lines[-1])
    report["wall_s"] = wall
    return report


def load_reference(workload: str, seed: int):
    try:
        with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def expected_answers(workload: str, seed: int, independent: list, recorded) -> list:
    """Per query the reference answer: independent where there is one,
    recorded for shipped seeds, else None (checked for agreement only)."""
    if recorded is not None and len(recorded) != len(independent):
        fail(f"reference.json has {len(recorded)} answers for {workload}, expected {len(independent)}")
    out = []
    for i, ref in enumerate(independent):
        if ref is not None and recorded is not None and recorded[i] != ref:
            fail(f"reference.json disagrees with the independent reference, query {i}")
        out.append(ref if ref is not None else (recorded[i] if recorded else None))
    return out


def end_to_end(metric: str, report: dict) -> float:
    """One process's value of an end-to-end metric.  query_s is scaled by
    the speed the machine probe measured in the same process, so that host
    contention that comes and goes over minutes does not show as a change
    of the program."""
    if metric == "query_s":
        return report["query_s"] * REFERENCE_PROBE_S / report["probe_s"]
    return report[metric]


def _layer_metrics(names, traced: list, untraced: list) -> dict:
    def median_of(fn):  # median_low: a value one traced process measured
        return statistics.median_low(fn(r) for r in traced)

    def layer(name, field):
        return lambda r: r["layers"].get(name, {}).get(field, 0)

    def counter(name):
        return lambda r: r["counters"].get(name, 0)

    values = {}
    for metric in names:
        func, _, what = metric.rpartition(".")
        if metric == "homcount.predicted_ops_per_s":
            values[metric] = median_of(
                lambda r: r["counters"].get("homcount.predicted_ops", 0) / r["kernel_s"]
                if r["kernel_s"] > 0 else 0.0)
        elif metric == "machine.probe_s":
            values[metric] = median_of(lambda r: r["probe_s"])
        elif metric == "trace.query_s":
            values[metric] = median_of(lambda r: r["query_s"])
        elif metric == "trace.overhead_frac":
            values[metric] = (median_of(lambda r: r["query_s"])
                              / statistics.median_low(r["query_s"] for r in untraced) - 1.0)
        elif what in ("s", "calls", "total_s"):
            values[metric] = median_of(layer(func, what))
        else:
            values[metric] = median_of(counter(metric))
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="motifcount benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "motifcount", "__init__.py")):
        fail(f"no motifcount sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)

    began = time.monotonic()
    thread_cap = len(os.sched_getaffinity(0))
    env_record = environment(thread_cap)
    print("env " + json.dumps(env_record), flush=True)

    os.makedirs(RUNS_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR)
    try:
        full = workloads.make_inputs(args.workload, args.seed, os.path.join(tmp, "full"), twin=False)
        twin = workloads.make_inputs(args.workload, args.seed, os.path.join(tmp, "twin"), twin=True)
        expected = expected_answers(
            args.workload, args.seed,
            workloads.independent_references(args.workload, full),
            load_reference(args.workload, args.seed))
        twin_expected = workloads.oracle_answers(args.workload, twin)

        env = child_env(thread_cap)
        tag = f"{args.workload}-seed{args.seed}"
        spec = {"workload": args.workload, "inputs": os.path.join(tmp, "twin"), "trace": False,
                "spans_out": os.path.join(RUNS_DIR, f"spans-{tag}.json")}
        spec_path = os.path.join(tmp, "spec.json")
        twin_report = run_process(spec, spec_path, env, DEADLINE_S)
        spec["inputs"] = os.path.join(tmp, "full")
        reports = []
        while True:
            spec["trace"] = bool(args.trace) and len(reports) % 2 == 1
            report = run_process(spec, spec_path, env, DEADLINE_S - (time.monotonic() - began))
            report["traced"] = spec["trace"]
            reports.append(report)
            print("process " + json.dumps({k: report.get(k) for k in
                  ("traced", "setup_s", "query_s", "probe_s", "peak_rss_mb", "wall_s", "error")}),
                  flush=True)
            if "error" in report:
                break
            elapsed = time.monotonic() - began
            typical = statistics.median(r["wall_s"] for r in reports)
            done = len(reports) >= (2 if args.trace else 1)
            if done and elapsed + typical > args.seconds:
                break
            if elapsed + 1.5 * typical > DEADLINE_S:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # correctness: every answer against its reference, and every process
    # against the first one where no reference exists
    attempted = failed = 0
    problems = []
    per_query = len(expected)
    for i, r in enumerate(reports):
        attempted += per_query
        if "error" in r:
            failed += per_query
            problems.append(f"process {i}: {r['error']}")
            continue
        for q, (got, err) in enumerate(zip(r["answers"], r["errors"])):
            if expected[q] is None:
                expected[q] = got
            if err is not None or got != expected[q]:
                failed += 1
                problems.append(f"process {i} query {q}: {err or f'{got} != {expected[q]}'}")
    twin_ok = "error" not in twin_report and twin_report["answers"] == twin_expected
    if not twin_ok:
        problems.append(f"twin: got {twin_report.get('answers')} "
                        f"{twin_report.get('errors') or twin_report.get('error')}, "
                        f"oracle {twin_expected}")
    for p in problems[:20]:
        print("problem " + p, file=sys.stderr)

    ok = [r for r in reports if "error" not in r]
    untraced = [r for r in ok if not r["traced"]]
    if args.trace:
        traced = [r for r in ok if r["traced"]]
        if not traced or not untraced:
            fail("traced run needs one traced and one untraced process")
        units = metric_units("per_layer")
        metrics = {m: {"value": v, "unit": units[m]}
                   for m, v in _layer_metrics(units, traced, untraced).items()}
    else:
        if not untraced:
            fail("no query process finished")
        metrics = {m: {"value": statistics.median(end_to_end(m, r) for r in untraced), "unit": u}
                   for m, u in metric_units("end_to_end").items()}
    result = {"correct": failed == 0 and twin_ok, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    with open(os.path.join(RUNS_DIR, f"result-{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"env": env_record, "args": vars(args), "processes": reports,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
