"""Differential tests of the evaluation program (homcount._program and
homcount._run): every value is checked against the sum of c * count_hom_dp
over the program's terms.

The examples are seeded, and each runs in well under a second.  They cover
both arithmetic regimes on one host, rank-3 terms, colored spasm terms, a
route that sends some terms to the dict DP, and the whole-parameter
identity Hom(F, G x X) = Hom(F, G) Hom(F, X) over the tensor product.
"""

import random

import pytest

from conftest import clique, cycle, path, random_colored, random_graph, star, word_primes_bounds
from test_homcount import RANK3, gnm
from motifcount import homcount
from motifcount.colored import _spasm_embeddings
from motifcount.decomp import elimination_plan
from motifcount.graphs import Graph, adjacency, canonical_form, disjoint_union, tensor_product
from motifcount.homcount import count_hom_dp
from motifcount.motif import MotifParameter, change_basis, evaluate
from motifcount.partitions import _quotient_tally


def hom_terms(p: MotifParameter) -> list:
    return [(cf.graph, c) for cf, c in change_basis(p, "hom").terms]


def dp_sum(terms, g) -> int:
    """The sum of c * Hom(f, g) over the (f, c) terms, each by the dict DP."""
    return sum(c * count_hom_dp(f, g) for f, c in terms)


def program_sum(terms: dict, g) -> int:
    """The sum of c * Hom(f, g) over the terms {f: c}, as one program of the
    graphs as given: a pattern past the canonical search's cap is welcome."""
    return homcount._hom_sum(homcount._program(tuple(terms.items())), g)


def with_leaf(h: Graph, v: int) -> Graph:
    return Graph(h.n + 1, list(h.edges) + [(v, h.n)])


def test_both_regimes_on_one_host(monkeypatch):
    # on a host of maximum degree D, the terms of k - 1 vertices run in one
    # float64 pass and those of k vertices modulo primes (D^(k-1) >= 2^53):
    # paths with and without a leaf in each, and a cycle among the latter
    rng = random.Random(83)
    g = random_graph(rng, 36, 0.9)
    degree = max(map(len, adjacency(g)))
    k = next(k for k in range(2, 40) if degree ** (k - 1) >= 2**53)
    short = {path(k - 2): 3, with_leaf(path(k - 3), 1): 2, with_leaf(path(k - 3), 3): -1}
    long = {path(k - 1): 1, cycle(k): 5, with_leaf(path(k - 2), 2): -7}
    p = MotifParameter("hom", {**short, **long})
    bounds = word_primes_bounds(monkeypatch)
    assert evaluate(p, g) == dp_sum(hom_terms(p), g)
    assert bounds == [degree ** (k - 1)] * len(long)


@pytest.mark.parametrize("regime", ["float", "crt"])
def test_rank3_terms(regime, monkeypatch):
    # the rank-3 patterns beside C4 and K4 with a pendant vertex, which
    # share three-vertex messages; in the CRT regime each pattern carries a
    # path long enough to pass the certificate's 2^53
    rng = random.Random(f"program-rank3:{regime}")
    g = random_graph(rng, 14, 0.7)
    degree = max(map(len, adjacency(g)))
    tail = 0 if regime == "float" else next(t for t in range(60) if degree**t >= 2**53)
    terms = {disjoint_union(h, path(tail)) if tail else h: c
             for h, c in zip(list(RANK3.values()) + [cycle(4), with_leaf(clique(4), 0)],
                             [1, -2, 3, 5, -1, 4, 2])}
    bounds = word_primes_bounds(monkeypatch)
    assert program_sum(terms, g) == dp_sum(terms.items(), g)
    assert bool(bounds) == (regime == "crt")


def test_colored_spasm_terms():
    rng = random.Random(239)
    for _ in range(12):
        h = random_colored(rng, rng.randint(2, 6), rng.randint(1, 3), 0.5)
        g = random_colored(rng, 30, 3, 0.3)
        tally = _quotient_tally(canonical_form(h))
        assert _spasm_embeddings(h, g) == dp_sum(((f.graph, w) for f, _, w in tally), g)


def test_a_route_through_the_dict_dp(monkeypatch):
    # on a sparse host the dict DP takes one treewidth-1 term of Sub(P3)'s
    # hom form and two of Sub(C5)'s, K5 goes there at any size, and the
    # other terms run dense
    p = MotifParameter("sub", {cycle(5): 1, path(3): 2, clique(5): -1})
    g = gnm(random.Random(1), 300, 300)
    want = dp_sum(hom_terms(p), g)
    sparse = []
    dp = homcount.count_hom_dp
    monkeypatch.setattr(homcount, "count_hom_dp", lambda f, g: sparse.append(f) or dp(f, g))
    assert evaluate(p, g) == want
    widths = sorted(elimination_plan(f)[0] for f in sparse)
    assert widths[-1] == 4 and len(widths) < len(hom_terms(p)) and min(widths) <= 3


@pytest.mark.parametrize("regime", ["float", "crt"])
def test_tensor_product_multiplies(regime, monkeypatch):
    # the sum of c * Hom(F, G x X) over the terms is the sum of
    # c * Hom(F, G) Hom(F, X): Sub(P6) + 3 Sub(K1,3) - 2 Sub(C5) in the
    # float64 regime, and in the CRT regime terms that carry a path past the
    # certificate's 2^53 on the product
    rng = random.Random(f"program-tensor:{regime}")
    g, x = random_graph(rng, 9, 0.6), clique(4)
    host = tensor_product(g, x)
    bounds = word_primes_bounds(monkeypatch)
    if regime == "float":
        p = MotifParameter("sub", {path(5): 1, cycle(5): -2, star(3): 3})
        terms = dict(hom_terms(p))
        value = evaluate(p, host)
    else:
        degree = max(map(len, adjacency(host)))
        tail = next(t for t in range(60) if degree**t >= 2**53)
        terms = {disjoint_union(h, path(tail)): c
                 for h, c in ((cycle(4), 1), (clique(4), -3), (star(3), 2), (RANK3["pairs"], 5))}
        value = program_sum(terms, host)
    assert bool(bounds) == (regime == "crt")
    assert value == sum(c * count_hom_dp(f, g) * count_hom_dp(f, x) for f, c in terms.items())
