"""count_hom_dp's row tables against the dict DP they replaced
(conftest.reference_hom_dp) and the brute-force oracle.

Seeded plain and colored pairs; the empty pattern, the empty host and an
edgeless one; isolated vertices and disconnected patterns; treewidth 4;
both integer regimes (int64 below the certificate's 2^63, Python ints
above), for counts and for key codes; both adjacency tests (the n x n matrix, and the search of sorted
edge codes above _MATRIX_ORDER); growth in chunks, merged tables, and the
refusal of a table past the guard.  Each example runs in well under a
second.
"""

import random

import pytest

from conftest import (clique, cycle, path, random_colored, random_graph, reference_hom_dp,
                      star)
from motifcount import cli, decomp, graphs, homcount
from motifcount.decomp import elimination_plan
from motifcount.graphs import CapacityError, ColoredGraph, Graph, encode_graph6
from motifcount.homcount import count_hom_dp
from motifcount.oracle import brute_count


@pytest.fixture(autouse=True)
def fresh_hosts():
    # the host cache holds the adjacency test chosen when a host was first
    # met, so each test starts and ends without it
    homcount._host_rows.cache_clear()
    yield
    homcount._host_rows.cache_clear()


def agree(h, g, oracle: bool = True) -> int:
    """count_hom_dp(h, g), checked against the dict DP and, with `oracle`,
    the brute-force count."""
    want = reference_hom_dp(h, g)
    assert count_hom_dp(h, g) == want
    if oracle:
        assert want == brute_count("colored-hom" if isinstance(h, ColoredGraph) else "hom", h, g)
    return want


def gnp_colored(rng: random.Random, n: int, p: float, ncolors: int) -> ColoredGraph:
    return ColoredGraph(random_graph(rng, n, p), [rng.randrange(ncolors) for _ in range(n)])


def k5_minus_edge() -> Graph:
    return Graph(5, [e for e in clique(5).edges if e != (0, 1)])


def test_seeded_plain_pairs():
    rng = random.Random(3301)
    for _ in range(60):
        agree(random_graph(rng, rng.randint(1, 5), rng.random()),
              random_graph(rng, rng.randint(1, 7), rng.random()))
    for _ in range(40):
        agree(random_graph(rng, rng.randint(4, 8), rng.random()),
              random_graph(rng, rng.randint(8, 24), rng.random()), oracle=False)


def test_seeded_colored_pairs():
    rng = random.Random(3302)
    for _ in range(60):
        agree(random_colored(rng, rng.randint(1, 5), 3, rng.random()),
              random_colored(rng, rng.randint(1, 7), 3, rng.random()))
    for _ in range(40):
        agree(gnp_colored(rng, rng.randint(4, 8), rng.random(), 2),
              gnp_colored(rng, rng.randint(8, 24), rng.random(), 3), oracle=False)


def test_empty_pattern_empty_host_and_edgeless_host():
    k4 = clique(4)
    assert agree(Graph(0), k4) == 1
    assert agree(Graph(0), Graph(0)) == 1
    assert agree(path(2), Graph(0)) == 0
    assert agree(Graph(3), Graph(5)) == 125
    assert agree(path(1), Graph(5)) == 0
    assert agree(ColoredGraph(Graph(0), ()), ColoredGraph(k4, (0, 0, 1, 1))) == 1
    assert agree(ColoredGraph(Graph(2), (0, 1)), ColoredGraph(Graph(0), ())) == 0
    assert agree(ColoredGraph(Graph(2), (0, 1)), ColoredGraph(Graph(5), (0, 1, 1, 2, 1))) == 3
    # a pattern colour the host lacks leaves no images
    assert agree(ColoredGraph(Graph(2), (0, 3)), ColoredGraph(k4, (0, 0, 1, 1))) == 0


def test_isolated_vertices_and_disconnected_patterns():
    rng = random.Random(3303)
    g = random_graph(rng, 7, 0.5)
    triangle_edge_point = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert agree(triangle_edge_point, g) == agree(clique(3), g) * agree(path(1), g) * g.n
    two_paths = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert agree(two_paths, g) == agree(path(2), g) ** 2
    host = gnp_colored(rng, 8, 0.5, 2)
    agree(ColoredGraph(triangle_edge_point, (0, 1, 0, 1, 1, 0)), host)
    agree(ColoredGraph(Graph(3, [(0, 1)]), (1, 0, 1)), host)


def test_treewidth_four():
    # K5, the dense kernel's first refusal, and K5 less an edge (treewidth 3)
    rng = random.Random(3304)
    for h, width in ((clique(5), 4), (k5_minus_edge(), 3)):
        assert elimination_plan(h)[0] == width
        agree(h, random_graph(rng, 8, 0.8))
        agree(h, random_graph(rng, 16, 0.7), oracle=False)
        agree(ColoredGraph(h, (0, 1, 0, 1, 0)), gnp_colored(rng, 16, 0.8, 2), oracle=False)
    # K5 with a pendant path keeps treewidth 4 over a wider component
    tail = Graph(7, list(clique(5).edges) + [(4, 5), (5, 6)])
    assert elimination_plan(tail)[0] == 4
    agree(tail, random_graph(rng, 12, 0.7), oracle=False)


def test_python_int_regime():
    # Hom(K1,13, K1,40) = 40^13 + 40 passes 2^63; the certificate n D^13
    # puts the counts in Python ints
    big = star(40)
    assert agree(star(13), big, oracle=False) == 40**13 + 40 > 2**63
    colored = ColoredGraph(big, (0,) + (1,) * 40)
    assert agree(ColoredGraph(star(13), (0,) + (1,) * 13), colored, oracle=False) == 40**13
    # seeded trees and a cycle with a tail past the bound, on dense hosts
    rng = random.Random(3305)
    for _ in range(4):
        k = rng.randint(14, 18)
        tree = Graph(k, [(rng.randrange(v), v) for v in range(1, k)])
        g = random_graph(rng, rng.randint(20, 30), 0.8)
        degree = max(map(len, graphs.adjacency(g)))
        assert g.n * degree ** (k - 1) >= 2**63
        agree(tree, g, oracle=False)
    tailed = Graph(16, list(cycle(4).edges) + [(3 + i, 4 + i) for i in range(12)])
    assert agree(tailed, random_graph(rng, 25, 0.8), oracle=False) > 2**63


def test_python_int_codes(monkeypatch):
    # key codes go to Python ints once n^s passes int64, as on a host of
    # 2^16 vertices with a four-vertex scope; a lower bound sends small
    # hosts there, counts included
    monkeypatch.setattr(homcount, "_INT64", 2**10)
    rng = random.Random(3310)
    for h in (clique(5), cycle(4), path(3), k5_minus_edge()):
        agree(h, random_graph(rng, 12, 0.6), oracle=False)
    agree(ColoredGraph(cycle(5), (0, 1, 0, 1, 2)), gnp_colored(rng, 12, 0.7, 3), oracle=False)


@pytest.mark.parametrize("matrix_order", [1024, 0], ids=["matrix", "sorted-codes"])
def test_both_adjacency_tests(matrix_order, monkeypatch):
    monkeypatch.setattr(homcount, "_MATRIX_ORDER", matrix_order)
    rng = random.Random(3306)
    for h in (clique(4), k5_minus_edge(), cycle(5), Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])):
        agree(h, random_graph(rng, 14, 0.6), oracle=False)
        agree(ColoredGraph(h, [v % 2 for v in range(h.n)]), gnp_colored(rng, 14, 0.7, 2),
              oracle=False)
    # the edge codes' last entry, and a host with no edges at all
    agree(clique(3), Graph(6, [(3, 4), (3, 5), (4, 5)]))
    agree(clique(3), Graph(6))


def test_chunks_and_merged_tables(monkeypatch):
    # growth of a few rows at a time, and a guard whose quarter the pieces
    # of one table pass (so they merge) while no merged table over at most
    # 30 x 30 keys does
    rng = random.Random(3307)
    g = random_graph(rng, 30, 0.3)
    monkeypatch.setattr(homcount, "_CHUNK_BYTES", 8 * 64)
    monkeypatch.setattr(homcount, "_ROW_BYTES_GUARD", 4 * 24 * 30 * 30 + 64)
    for h in (cycle(4), clique(4), k5_minus_edge(), path(4), Graph(3)):
        agree(h, g, oracle=False)
    agree(ColoredGraph(cycle(4), (0, 1, 0, 1)), gnp_colored(rng, 30, 0.3, 2), oracle=False)


def test_a_table_past_the_guard_is_refused(monkeypatch, capsys):
    g = random_graph(random.Random(3308), 30, 0.5)
    monkeypatch.setattr(homcount, "_ROW_BYTES_GUARD", 4096)
    with pytest.raises(CapacityError, match="row table"):
        count_hom_dp(clique(5), g)
    code = cli.main(["count", "--kind", "hom", "--pattern", encode_graph6(clique(5)),
                     "--host", encode_graph6(g)])
    assert code == 1 and "row table" in capsys.readouterr().err


def test_the_host_adjacency_is_never_built(monkeypatch):
    seen = []
    for module in (graphs, homcount, decomp):
        inner = module.adjacency
        monkeypatch.setattr(module, "adjacency",
                            lambda x, inner=inner: seen.append(x) or inner(x))
    g = random_graph(random.Random(3309), 12, 0.5)
    colored = ColoredGraph(g, [v % 3 for v in range(g.n)])
    for h in (clique(5), cycle(5), path(3)):
        count_hom_dp(h, g)
        count_hom_dp(ColoredGraph(h, [v % 3 for v in range(h.n)]), colored)
    assert g not in seen and colored not in seen
