"""One query process: a fresh interpreter that imports motifcount, issues a
workload's queries one after another and reports on stdout as one JSON line.

    python3 bench/query.py SPEC_JSON SPAWN_MONOTONIC

SPEC_JSON names the workload, the input directory, whether to trace, and
where to write spans.  SPAWN_MONOTONIC is time.monotonic() in the parent just
before it started this process (CLOCK_MONOTONIC is system-wide on Linux).
"""

import sys
import time

import motifcount  # noqa: F401  (the import whose cost setup_s measures)

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

import motifcount.cli  # noqa: E402,F401  (imported here so no query pays for it)
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402


def machine_probe() -> float:
    """Median time, over seven slices, of a fixed piece of work that uses no
    motifcount code: dict and tuple work as in the DP and canonical forms,
    int64 and Python-int matrix products as in the matrix engine.  It
    measures how fast the machine runs at the moment, so that the parent
    can take host contention out of query_s."""
    import numpy as np

    a = (np.arange(40 * 40, dtype=np.int64).reshape(40, 40) * 7 + 3) % 5
    small = a[:12, :12].astype(object)
    times = []
    for _ in range(7):
        start = time.perf_counter()
        table = {}
        for i in range(6000):
            key = (i % 97, (i * 31) % 89, i & 7)
            table[key] = table.get(key, 0) + i * i
        sorted(table, key=lambda k: (k[2], k[1], k[0]))
        m = a
        for _ in range(12):
            m = (m @ a) % 1000003
        o = small
        for _ in range(4):
            o = o @ small
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def run_queries(name: str, directory: str, recorder=None) -> tuple:
    """Answers (a string per query, or an error), and the wall time from the
    first query call to the last answer."""
    answers, errors = [], []
    start = time.monotonic()
    for qid, (label, thunk) in enumerate(workloads.queries(name, directory)):
        if recorder is not None:
            recorder.query_id = qid
        try:
            answers.append(thunk())
            errors.append(None)
        except Exception as exc:  # a failed query counts against the run
            answers.append(None)
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
    return answers, errors, time.monotonic() - start


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    setup_s = READY - float(sys.argv[2])

    recorder = None
    if spec["trace"]:
        recorder = spanlib.Recorder()
        recorder.install()
        cf = recorder.originals["graphs.canonical_form"]
        misses_before = cf.cache_info().misses

    probe_s = machine_probe()
    answers, errors, query_s = run_queries(spec["workload"], spec["inputs"], recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "setup_s": setup_s,
        "query_s": query_s,
        "probe_s": probe_s,
        "peak_rss_mb": peak_rss_mb,
        "answers": answers,
        "errors": errors,
    }
    if recorder is not None:
        report["layers"] = spanlib.layer_totals(recorder.spans)
        report["counters"] = dict(recorder.counters)
        report["counters"]["graphs.canonical_form.misses"] = cf.cache_info().misses - misses_before
        report["counters"]["decomp.exact_treewidth.distinct"] = recorder.distinct_treewidth_patterns()
        report["counters"]["homcount.predicted_ops"] = recorder.predicted_ops()
        report["kernel_s"] = spanlib.kernel_seconds(recorder.spans)
        with open(spec["spans_out"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"],
                       "spans": recorder.spans}, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
