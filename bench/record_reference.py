"""Record the full-size answers of every workload for seeds 0-19 into
bench/reference.json, after checking each seed's twin against the oracle
and the full-size answers against the independent references.

    python3 bench/record_reference.py

The recorded answers are a regression reference: a later change must
reproduce them exactly on these seeds.
"""

import json
import os
import shutil
import sys
import tempfile

import run
import workloads

SEEDS = range(20)


def record(seed: int, tmp: str) -> dict:
    out = {}
    for name in workloads.WORKLOADS:
        full = workloads.make_inputs(name, seed, os.path.join(tmp, name, "full"), twin=False)
        twin = workloads.make_inputs(name, seed, os.path.join(tmp, name, "twin"), twin=True)
        env = run.child_env(len(os.sched_getaffinity(0)))
        reports = {}
        for kind in ("twin", "full"):
            spec = {"workload": name, "inputs": os.path.join(tmp, name, kind), "trace": False,
                    "spans_out": os.path.join(tmp, "spans.json")}
            report = run.run_process(spec, os.path.join(tmp, "spec.json"), env, timeout=600)
            if "error" in report or any(report["errors"]):
                run.fail(f"{name} seed {seed} {kind}: {report.get('error') or report['errors']}")
            reports[kind] = report
        if reports["twin"]["answers"] != workloads.oracle_answers(name, twin):
            run.fail(f"{name} seed {seed}: twin answers disagree with the oracle")
        report = reports["full"]
        for got, ref in zip(report["answers"], workloads.independent_references(name, full)):
            if ref is not None and got != ref:
                run.fail(f"{name} seed {seed}: {got} != independent reference {ref}")
        out[name] = report["answers"]
        print(f"seed {seed} {name} ok ({report['query_s']:.1f} s)", flush=True)
    return out


def main() -> int:
    sys.path.insert(0, run.SRC)
    path = os.path.join(run.BENCH_DIR, "reference.json")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    os.makedirs(run.RUNS_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="reference-", dir=run.RUNS_DIR)
    try:
        for seed in SEEDS:
            for name, answers in record(seed, tmp).items():
                data.setdefault(name, {})[str(seed)] = answers
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
