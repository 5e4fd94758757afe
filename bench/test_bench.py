"""Self-tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py

The quick test runs every workload on its small twin through the same query
process the benchmark uses and checks the answers against the oracle.
"""

import os
import random
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    totals = spans.layer_totals(tree)
    assert totals["root"] == {"calls": 1, "s": 3.0, "total_s": 10.0}
    assert totals["a"] == {"calls": 1, "s": 2.0, "total_s": 3.0}


def test_recursive_spans_count_inclusive_time_once():
    tree = [
        ["f", 0.0, 6.0, -1, 0],
        ["f", 1.0, 5.0, 0, 0],
        ["g", 2.0, 3.0, 1, 0],
    ]
    totals = spans.layer_totals(tree)
    assert totals["f"] == {"calls": 2, "s": 5.0, "total_s": 6.0}


def test_recorder_wraps_import_sites_and_restores():
    import motifcount.cli
    import motifcount.motif as motif
    from motifcount import Graph, homcount

    original = motif.count_hom_mm
    rec = spans.Recorder()
    restore = rec.install()
    try:
        assert motif.count_hom_mm is not original
        assert motifcount.cli.count_hom_mm is motif.count_hom_mm
        path3 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        host = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert motif.count_pattern("sub", path3, host) == 5
    finally:
        restore()
    assert motif.count_hom_mm is original and homcount.count_hom_mm is original
    totals = spans.layer_totals(rec.spans)
    assert totals["motif.count_pattern"]["calls"] == 1
    assert totals["homcount.count_hom_mm"]["calls"] == rec.counters["motif.hom_terms"]
    # the spasm of P3 is connected and holds trees (tw 1) and the triangle (tw 2)
    assert [n for _h, n in rec.kernel_calls] == [5] * totals["homcount.count_hom_mm"]["calls"]
    assert rec.predicted_ops() == sum(5 ** (3 if len(h.edges) >= h.n else 2)
                                      for h, _n in rec.kernel_calls)
    assert 1 <= rec.distinct_treewidth_patterns() <= len(rec.treewidth_args)


def test_query_s_is_scaled_by_the_probe():
    report = {"query_s": 2.0, "probe_s": run.REFERENCE_PROBE_S / 2, "setup_s": 0.3}
    assert run.end_to_end("query_s", report) == 4.0
    assert run.end_to_end("setup_s", report) == 0.3


@pytest.mark.parametrize("k", [3, 4, 5])
def test_closed_walks_match_brute_hom_of_cycles(k):
    from motifcount import Graph
    from motifcount.oracle import brute_count

    host = workloads.gnm(random.Random(k), 6, 9)
    a = workloads.adjacency_matrix(host)
    cyc = workloads.cycle(k)
    assert workloads.closed_walks(a, k) == brute_count("hom", Graph(*cyc), Graph(*host))


def test_alternating_c6_homs_match_brute():
    from motifcount import ColoredGraph, Graph
    from motifcount.oracle import brute_count

    rng = random.Random(7)
    host = workloads.gnm(rng, 7, 14)
    colors = [rng.randrange(3) for _ in range(7)]
    want = brute_count("colored-hom", ColoredGraph(Graph(*workloads.C6), workloads.C6_COLORS),
                       ColoredGraph(Graph(*host), colors))
    assert workloads.alternating_c6_homs(workloads.adjacency_matrix(host), colors) == want


def test_graph6_writer_round_trips():
    from motifcount import parse_graph6

    for n, m in ((1, 0), (9, 18), (70, 200)):
        g = workloads.gnm(random.Random(n), n, m)
        parsed = parse_graph6(workloads.graph6(g))
        assert parsed.n == n and sorted(parsed.edges) == g[1]


def test_trees6_are_the_six_trees():
    from motifcount import Graph, build_tree_count_parameter, canonical_form

    ours = {canonical_form(Graph(6, t)) for t in workloads.TREES6}
    assert ours == set(build_tree_count_parameter(6).as_dict())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quick_twin(name, tmp_path):
    twin = workloads.make_inputs(name, 0, str(tmp_path / "twin"), twin=True)
    spec = {"workload": name, "inputs": str(tmp_path / "twin"), "trace": False,
            "spans_out": str(tmp_path / "spans.json")}
    report = run.run_process(spec, str(tmp_path / "spec.json"),
                             run.child_env(1), timeout=120)
    assert "error" not in report, report.get("error")
    assert report["errors"] == [None] * len(report["answers"])
    assert report["answers"] == workloads.oracle_answers(name, twin)
