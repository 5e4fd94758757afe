"""Acceptance suite: one test and one printed PASS/FAIL line per criterion."""

import itertools
import math
import multiprocessing
import random
import time
from fractions import Fraction

import numpy as np

from conftest import (
    all_graphs_up_to,
    brute_attachment,
    clique,
    cycle,
    has_a_path,
    path,
    random_colored,
    random_graph,
    star,
)
from motifcount import oracle
from motifcount.colored import (
    a_path_packing,
    a_path_packing_restricted,
    build_guarded_decomposition,
    count_colored_embeddings,
    count_colorful_subgraphs_ie,
    count_ordered_embeddings,
)
from motifcount.decomp import exact_treewidth, support_treewidth
from motifcount.extract import extract_hom_via_oracle, hom_closure
from motifcount.graphs import (
    ColoredGraph,
    Graph,
    canonical_form,
    graph_order_key,
    is_connected,
)
from motifcount.homcount import count_hom_dp, count_hom_mm
from motifcount.motif import MotifParameter, change_basis, count_pattern, evaluate
from motifcount.oracle import brute_count
from motifcount.partitions import coefficient_row, spasm

PAW = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def _report(num: int, name: str, ok: bool):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed"


def test_criterion_01_figure_matrices():
    basis = [clique(2), path(2), clique(3), path(3)]
    cfs = [canonical_form(g) for g in basis]
    hom = [[count_hom_dp(a, b) for b in basis] for a in basis]
    rows = [coefficient_row("Surj", ca) for ca in cfs]
    surj = [[int(row.get(cb, 0)) for cb in cfs] for row in rows]
    sub = [[count_pattern("sub", a, b) for b in basis] for a in basis]
    expected_hom = [[2, 4, 6, 6], [2, 6, 12, 10], [0, 0, 6, 0], [2, 8, 24, 16]]
    expected_surj = [[2, 0, 0, 0], [2, 2, 0, 0], [0, 0, 6, 0], [2, 4, 6, 2]]
    expected_sub = [[1, 2, 3, 3], [0, 1, 3, 2], [0, 0, 1, 0], [0, 0, 0, 1]]
    product = [
        [sum(surj[i][k] * sub[k][j] for k in range(4)) for j in range(4)]
        for i in range(4)
    ]
    ok = (
        hom == expected_hom
        and surj == expected_surj
        and sub == expected_sub
        and product == hom
    )
    _report(1, "Hom/Surj/Sub matrix fixture", ok)


def test_criterion_02_expansion_coefficients():
    expected = {
        path(4): Fraction(1, 2),
        path(3): Fraction(-1),
        PAW: Fraction(-1),
        cycle(4): Fraction(-1, 2),
        star(3): Fraction(-1, 2),
        clique(3): Fraction(3, 2),
        path(2): Fraction(5, 2),
        clique(2): Fraction(-1),
    }
    vec = coefficient_row("SurjInv", path(4))
    want = {canonical_form(g): c for g, c in expected.items()}
    _report(2, "4-path Sub-to-Hom expansion", vec == want)


def test_criterion_03_walk_cancellation():
    emb = MotifParameter(
        "emb",
        [
            (path(4), 1),
            (cycle(4), 1),
            (star(3), 1),
            (PAW, 2),
            (path(3), 2),
            (clique(3), 3),
            (path(2), 4),
            (clique(2), 1),
        ],
    )
    hom = change_basis(emb, "hom")
    ok = hom.as_dict() == {canonical_form(path(4)): Fraction(1)}
    rng = random.Random(303)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        a = np.zeros((g.n, g.n), dtype=np.int64)
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1
        walks = int((np.linalg.matrix_power(a, 4) if g.n else a).sum()) if g.n else 0
        ok = ok and evaluate(emb, g) == walks
    _report(3, "walk-counting cancellation", ok)


def test_criterion_04_spasm_facts():
    ok = len(spasm(path(4))) == 8
    ok = ok and max(exact_treewidth(cf.graph)[0] for cf in spasm(path(4))) == 2
    ok = ok and support_treewidth(cf.graph for cf in spasm(path(6))) == 2
    _report(4, "spasm size and treewidth", ok)


def test_criterion_05_oracle_equivalence():
    rng = random.Random(505)
    patterns = [g for g in all_graphs_up_to(4) if g.n == 4]
    assert len(patterns) == 11
    five = []
    seen = set()
    while len(five) < 10:
        g = random_graph(rng, 5, rng.choice([0.3, 0.5, 0.7]))
        key = canonical_form(g).key
        if key not in seen:
            seen.add(key)
            five.append(g)
    hosts = [random_graph(rng, rng.randint(3, 8)) for _ in range(50)]
    ok = True
    for h in patterns + five:
        for g in hosts:
            for kind in ("hom", "emb", "strembed", "sub", "indsub"):
                if count_pattern(kind, h, g) != brute_count(kind, h, g):
                    ok = False
    _report(5, "five-kind oracle equivalence", ok)


def test_criterion_06_engine_agreement():
    rng = random.Random(606)
    patterns = [
        g for g in all_graphs_up_to(6) if exact_treewidth(g)[0] <= 2
    ]
    hosts = [random_graph(rng, rng.randint(1, 10)) for _ in range(30)]
    ok = all(
        count_hom_mm(h, g) == count_hom_dp(h, g)
        for h in patterns
        for g in hosts
    )
    _report(6, "matrix engine agreement", ok)


def test_criterion_06_rank3_engine_agreement():
    # criterion 06 for the matrix engine's three-vertex scopes
    rng = random.Random(616)
    patterns = [g for g in all_graphs_up_to(6) if exact_treewidth(g)[0] == 3]
    hosts = [random_graph(rng, rng.randint(1, 10)) for _ in range(30)]
    ok = len(patterns) == 60 and all(
        count_hom_mm(h, g) == count_hom_dp(h, g)
        for h in patterns
        for g in hosts
    )
    _report(6, "matrix engine agreement at treewidth 3", ok)


def test_criterion_07_extraction():
    rng = random.Random(707)
    pool = [g for g in all_graphs_up_to(4) if g.n >= 2 and g.edges]
    ok = True
    for _ in range(20):
        support = rng.sample(pool, rng.randint(1, 3))
        alpha = MotifParameter(
            "hom",
            {g: Fraction(rng.choice([-3, -1, 1, 2])) for g in support},
        )
        host = random_graph(rng, rng.randint(1, 6))
        oracle = lambda gp: evaluate(alpha, gp)
        for cf in alpha.support():
            got = extract_hom_via_oracle(alpha, cf, host, oracle)
            if got != count_hom_dp(cf.graph, host):
                ok = False
    _report(7, "oracle extraction", ok)


def _invert(matrix):
    n = len(matrix)
    a = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def test_criterion_08_inversion_identities():
    classes = sorted(
        (canonical_form(g) for g in all_graphs_up_to(4)),
        key=graph_order_key,
    )

    def matrix(kind, rows):
        """The named matrix on `rows`, one coefficient row per h."""
        out = []
        for h in rows:
            row = coefficient_row(kind, h)
            out.append([row.get(f, Fraction(0)) for f in rows])
        return out

    ok = matrix("SurjInv", classes) == _invert(matrix("Surj", classes))
    for n in range(1, 5):
        sub_classes = [cf for cf in classes if cf.graph.n == n]
        ext = matrix("Ext", sub_classes)
        extinv = matrix("ExtInv", sub_classes)
        ok = ok and extinv == _invert(ext)
        for i, h in enumerate(sub_classes):
            for j, f in enumerate(sub_classes):
                sign = (-1) ** (len(f.graph.edges) - len(h.graph.edges))
                if extinv[i][j] != sign * ext[i][j]:
                    ok = False
    _report(8, "Surj/Ext inversion identities", ok)


def test_criterion_09_colored_pipeline():
    rng = random.Random(909)
    ok = True
    for _ in range(200):
        h = random_colored(rng, rng.randint(1, 6), rng.randint(1, 4))
        g = random_colored(rng, rng.randint(1, 8), 4)
        want = brute_count("colored-emb", h, g)
        if count_colored_embeddings(h, g) != want:
            ok = False
        gcd = build_guarded_decomposition(h)
        classes = [sorted(m) for m in gcd.similarity_partition()]
        ordered = count_ordered_embeddings(gcd, g)
        factor = 1
        for members in classes:
            factor *= math.factorial(len(members))
        if ordered * factor != want:
            ok = False
    for _ in range(40):
        nf = rng.randint(2, 4)
        f = random_graph(rng, nf, 0.6)
        ng = rng.randint(nf, 8)
        coloring = list(range(nf)) + [rng.randrange(nf) for _ in range(ng - nf)]
        rng.shuffle(coloring)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(ng), 2)
            if f.has_edge(coloring[u], coloring[v]) and rng.random() < 0.6
        ]
        host = Graph(ng, edges)
        want = brute_count(
            "colorful-partitioned", f, ColoredGraph(host, coloring)
        )
        if count_colorful_subgraphs_ie(f, host, coloring) != want:
            ok = False
    _report(9, "colored pipeline vs brute force", ok)


def test_criterion_10_apath_guarantees():
    rng = random.Random(1010)
    ok = True
    trials = 0
    while trials < 120:
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.5]))
        a = {v for v in range(n) if rng.random() < 0.5}
        k = rng.randint(1, 3)
        result = a_path_packing(g, a, k)
        if result[0] == "cover":
            cover = result[1]
            if len(cover) > 2 * k - 2 or has_a_path(g, a, set(cover)):
                ok = False
        if is_connected(g):
            res = a_path_packing_restricted(g, a, k, 2 * k)
            if res[0] == "cover":
                _, _a_star, s_star = res
                exhaustive = {
                    v
                    for v in range(n)
                    if brute_attachment(g, v, frozenset(a)) >= 2 * k
                }
                if s_star != exhaustive:
                    ok = False
        trials += 1
    _report(10, "A-path packing guarantees", ok)


def _brute_p7_subs(host_edges, host_n, out):
    oracle.DEFAULT_BUDGET = 10**18
    p7 = Graph(7, [(i, i + 1) for i in range(6)])
    out.value = brute_count("sub", p7, Graph(host_n, host_edges))


def test_criterion_11_performance_smoke():
    rng = random.Random(1111)
    n = 500
    host = Graph(
        n,
        [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.03],
    )
    p7 = path(6)
    start = time.time()
    fast_value = evaluate(MotifParameter("sub", {p7: 1}), host)
    fast_time = time.time() - start
    ok = fast_time < 60 and fast_value > 0

    # brute comparison on a 30-vertex host: pass if the oracle has not
    # finished within 10x the fast route's time on the large host
    small = random_graph(rng, 30, 0.3)
    start = time.time()
    small_fast = evaluate(MotifParameter("sub", {p7: 1}), small)
    small_fast_time = max(time.time() - start, 1e-3)
    ctx = multiprocessing.get_context("fork")
    out = ctx.Value("q", -1)
    proc = ctx.Process(target=_brute_p7_subs, args=(sorted(small.edges), 30, out))
    start = time.time()
    proc.start()
    proc.join(timeout=10 * max(fast_time, small_fast_time))
    if proc.is_alive():
        proc.terminate()
        proc.join()
        brute_slower = True
    else:
        elapsed = time.time() - start
        brute_slower = (
            elapsed >= 10 * small_fast_time and out.value == small_fast
        )
    ok = ok and brute_slower
    _report(11, "performance smoke", ok)
