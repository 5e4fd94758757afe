import itertools
import math
import random

import numpy as np
import pytest

from conftest import (clique, cycle, matching, path, random_colored, random_graph, star,
                      word_primes_bounds)
from motifcount import homcount
from motifcount.decomp import DecompositionError, elimination_plan
from motifcount.graphs import ColoredGraph, Graph, adjacency, tensor_product
from motifcount.motif import (MotifParameter, build_tree_count_parameter, change_basis,
                              count_pattern, evaluate)
from motifcount.homcount import count_hom_dp, count_hom_mm
from motifcount.oracle import brute_count
from motifcount.partitions import CapacityError


def partial_2_tree(rng: random.Random, k: int) -> Graph:
    """A random subgraph of a random 2-tree on k vertices: treewidth <= 2."""
    edges = {(0, 1)} if k > 1 else set()
    for v in range(2, k):
        u, w = rng.choice(sorted(edges))
        edges |= {(u, v), (w, v)}
    return Graph(k, [e for e in edges if rng.random() < 0.8])


def with_tail(h: Graph, t: int) -> Graph:
    """h with a path of t more vertices hanging from its last vertex: the
    treewidth stays, the largest component grows."""
    return Graph(h.n + t, list(h.edges) + [(h.n - 1 + i, h.n + i) for i in range(t)])


def with_tails(h: Graph, t: int) -> Graph:
    """h with a path of t more vertices hanging from each of its vertices."""
    edges = list(h.edges)
    for u in range(h.n):
        first = h.n + u * t
        edges += [(u, first)] + [(first + i, first + i + 1) for i in range(t - 1)]
    return Graph(h.n * (1 + t), edges)


def gnm(rng: random.Random, n: int, m: int) -> Graph:
    """m distinct edges drawn uniformly on n vertices."""
    edges = set()
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, edges)


class TestDynamicProgram:
    def test_fixture_values(self):
        assert count_hom_dp(path(2), path(3)) == 10
        assert count_hom_dp(clique(3), path(3)) == 0
        assert count_hom_dp(path(3), clique(3)) == 24
        assert count_hom_dp(Graph(1), cycle(5)) == 5

    def test_isolated_pattern_vertices(self):
        host = random_graph(random.Random(0), 6)
        h = Graph(3, [(0, 1)])  # one isolated vertex
        assert count_hom_dp(h, host) == count_hom_dp(clique(2), host) * host.n

    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(40):
            h = random_graph(rng, rng.randint(1, 5))
            g = random_graph(rng, rng.randint(1, 7))
            assert count_hom_dp(h, g) == brute_count("hom", h, g)
        # a step whose second message lies inside the seed message's scope,
        # without its last vertex: it is joined before any vertex is grown
        h = Graph(7, [(0, 4), (0, 6), (1, 6), (2, 6), (3, 4), (3, 6), (4, 5), (4, 6)])
        assert count_hom_dp(h, clique(4)) == brute_count("hom", h, clique(4)) == 1296

    def test_empty_cases(self):
        assert count_hom_dp(Graph(0), clique(3)) == 1
        assert count_hom_dp(clique(2), Graph(0)) == 0


class TestMatrixEngine:
    def test_empty_host(self):
        assert count_hom_mm(clique(2), Graph(0)) == 0

    def test_agrees_with_dp(self):
        rng = random.Random(23)
        done = 0
        while done < 40:
            h = random_graph(rng, rng.randint(1, 6), 0.4)
            from motifcount.decomp import exact_treewidth

            if exact_treewidth(h)[0] > 2:
                continue
            g = random_graph(rng, rng.randint(1, 9))
            assert count_hom_mm(h, g) == count_hom_dp(h, g)
            done += 1

    def test_rejects_high_treewidth(self):
        with pytest.raises(DecompositionError):
            count_hom_mm(clique(5), clique(5))

    def test_disconnected_pattern_multiplies(self):
        two_edges = Graph(4, [(0, 1), (2, 3)])
        g = random_graph(random.Random(2), 7)
        assert count_hom_mm(two_edges, g) == count_hom_mm(clique(2), g) ** 2

    def test_large_host_no_overflow(self):
        # values near the int64 boundary must still be exact
        g = clique(40)
        assert count_hom_mm(path(6), g) == count_hom_dp(path(6), g)

    @pytest.mark.parametrize("n", [60, 61, 109, 110])
    def test_machine_word_boundary(self, n):
        # ten-vertex patterns: 59^9 < 2^53 <= 60^9, so K_60 (degree 59) runs
        # in one float64 pass and K_61, K_109 and K_110 modulo primes;
        # Hom(C10) exceeds int64 on K_109 and K_110, and Hom(P10, K_60) ~
        # 5.2e17 is exact only if the last sum is taken in Python ints
        g = clique(n)
        assert count_hom_mm(cycle(10), g) == (n - 1) ** 10 + (n - 1)
        assert count_hom_mm(path(9), g) == n * (n - 1) ** 9

    def test_dense_estimate_counts_built_layers(self, monkeypatch):
        # a tree's steps build vectors only, so it holds just the adjacency
        # matrix; a cycle's first step builds n x n products
        g = random_graph(random.Random(5), 40, 0.2)
        monkeypatch.setattr(homcount, "DENSE_BYTES_GUARD", 8 * 40 * 40)
        assert count_hom_mm(path(6), g) == count_hom_dp(path(6), g)
        with pytest.raises(CapacityError):
            count_hom_mm(cycle(4), g)

    def test_differential_in_both_regimes(self, monkeypatch):
        # random treewidth-<=2 patterns against the dict DP and, while small
        # enough, the brute-force oracle; 12-vertex patterns on dense
        # 32-vertex hosts pass the certificate's 2^53 (degree 29 or more)
        bounds = word_primes_bounds(monkeypatch)
        rng = random.Random(31)
        for _ in range(20):
            h = partial_2_tree(rng, rng.randint(1, 5))
            g = random_graph(rng, rng.randint(1, 7))
            assert count_hom_mm(h, g) == count_hom_dp(h, g) == brute_count("hom", h, g)
        assert not bounds
        for p in (0.5, 0.95, 0.95, 0.95):
            h = partial_2_tree(rng, 12)
            g = random_graph(rng, 32, p)
            assert count_hom_mm(h, g) == count_hom_dp(h, g)
        assert 1 <= len(bounds) <= 3

    def test_cached_host_arrays_are_read_only(self):
        g = random_graph(random.Random(71), 30, 0.3)
        want = count_hom_dp(cycle(5), g)
        assert count_hom_mm(cycle(5), g) == want
        ends, degree = homcount._host_facts(g)
        assert ends.shape == (2, len(g.edges))
        assert degree == max(map(len, adjacency(g)))
        for target in (ends, ends[0], ends[1]):
            with pytest.raises(ValueError):
                target[0] = 0
        assert count_hom_mm(cycle(5), g) == want

    def test_word_primes_are_memoised(self):
        def trial_division(n, bound):
            primes, product = [], 1
            p = math.isqrt((2**53 - 1) // n) + 1
            while product <= bound:
                if p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
                    primes.append(p)
                    product *= p
                p -= 1
            return primes

        for n, bound in ((32, 2**53), (120, 2**90), (1000, 2**200), (33, 2**60)):
            assert homcount._word_primes(n, bound) == trial_division(n, bound)
        misses = homcount._prime_at_most.cache_info().misses
        assert homcount._word_primes(120, 2**90) == trial_division(120, 2**90)
        assert homcount._word_primes(120, 2**53) == trial_division(120, 2**53)
        assert homcount._prime_at_most.cache_info().misses == misses

    @pytest.mark.parametrize("n", [1, 120])
    def test_reduction_at_the_edges(self, n):
        # modulo the largest primes _word_primes picks (n = 1 gives the
        # largest of all), at 0, p^2 - 1, and k*p and k*p - 1 for k up to the
        # last multiple of p below 2^53, in every rank a step reduces
        primes = homcount._word_primes(n, 2**200)
        top = [(2**53 - 1) // p for p in primes]
        rows = [[0, p * p - 1, p - 1, p, 2 * p - 1, 2 * p, k * p - 1, k * p, 2**53 - 1]
                for p, k in zip(primes, top)]
        reduce = homcount._reducer(primes)
        for shape in ((9,), (3, 3), (1, 3, 3)):
            x = np.array(rows, dtype=np.float64).reshape((len(primes),) + shape)
            assert np.array_equal(x.astype(np.int64), np.array(rows).reshape(x.shape))
            out = reduce(x).reshape(len(primes), 9).astype(np.int64).tolist()
            assert out == [[v % p for v in row] for p, row in zip(primes, rows)]


# Treewidth-3 patterns whose plans reach each way the matrix engine sums a
# vertex out of three-vertex arrays: three one-vertex factors (K4), a
# two-vertex factor beside a one-vertex one, two sharing a vertex, three
# pairwise sharing, and two messages over one three-vertex scope
RANK3 = {
    "K4": clique(4),
    "disjoint": Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]),
    "shared": Graph(6, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3), (3, 4),
                        (4, 5)]),
    "pairs": Graph(7, [(0, 1), (0, 2), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6), (2, 4),
                       (2, 5), (2, 6), (3, 5), (3, 6), (4, 5)]),
    "merged": Graph(8, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                        (1, 7), (2, 4), (2, 5), (3, 4), (3, 6), (4, 7)]),
}


class TestRank3:
    @pytest.mark.parametrize("n", [60, 61, 110])
    def test_machine_word_boundary(self, n, monkeypatch):
        # K4 with a tail of six vertices: ten vertices, so the certificate is
        # (n - 1)^9, below 2^53 on K_60 and above on K_61 and K_110; on
        # K_110 the count also exceeds int64
        bounds = word_primes_bounds(monkeypatch)
        want = n * (n - 1) * (n - 2) * (n - 3) * (n - 1) ** 6
        assert count_hom_mm(with_tail(clique(4), 6), clique(n)) == want
        assert bool(bounds) == (n > 60)

    def test_dense_estimate_counts_three_vertex_arrays(self, monkeypatch):
        # ten n x n layers: a tree's steps hold none, a cycle's five, and
        # K4's first step an n x n x n array
        g = random_graph(random.Random(5), 40, 0.2)
        monkeypatch.setattr(homcount, "DENSE_BYTES_GUARD", 8 * 40 * 40 * 10)
        for h in (path(6), cycle(4)):
            assert count_hom_mm(h, g) == count_hom_dp(h, g)
        with pytest.raises(CapacityError):
            count_hom_mm(clique(4), g)

    def test_plans_reach_every_contraction(self, monkeypatch):
        # the differential test below runs each way of summing out of
        # three-vertex arrays, in both regimes
        seen = set()
        contract = homcount._contract3

        def spy(factors, later, reduce, out):
            seen.add(tuple(sorted(map(len, factors))))
            return contract(factors, later, reduce, out)

        monkeypatch.setattr(homcount, "_contract3", spy)
        g = random_graph(random.Random(3), 8, 0.7)
        for h in RANK3.values():
            count_hom_mm(h, g)
        # by the later vertices of each array summed: three single ones, a
        # pair and a single one, two pairs, three pairs
        assert seen == {(1, 1, 1), (1, 2), (2, 2), (2, 2, 2)}
        # and one step takes in two three-vertex messages over one scope
        nodes = homcount._program(((RANK3["merged"], 1),)).nodes
        wide = [[slots for _, slots in inputs if len(slots) == 3] for _, _, inputs, _ in nodes]
        assert any(len(set(slots)) < len(slots) for slots in wide)

    @pytest.mark.parametrize("regime", ["float", "crt"])
    @pytest.mark.parametrize("name", sorted(RANK3))
    def test_tensor_product_multiplies(self, name, regime, monkeypatch):
        # Hom(F, G x X) = Hom(F, G) Hom(F, X) on hosts beyond the oracle.  In
        # the CRT regime a path of t vertices hangs from each vertex of F,
        # with D^t >= 2^26 for D the product host's maximum degree, so that
        # every message holds residues of counts far above the primes
        rng = random.Random(f"tensor:{name}")
        g, x = random_graph(rng, 9, 0.6), clique(4)
        host = tensor_product(g, x)
        h = RANK3[name]
        if regime == "crt":
            degree = max(map(len, adjacency(host)))
            h = with_tails(h, next(t for t in range(1, 60) if degree**t >= 2**26))
        assert elimination_plan(h)[0] == 3
        bounds = word_primes_bounds(monkeypatch)
        product = count_hom_mm(h, host)
        assert bool(bounds) == (regime == "crt")
        assert product == count_hom_mm(h, g) * count_hom_mm(h, x) > 0


class TestKernelRoute:
    # the route DENSE_WORK_RATIO gives on hosts of the benchmark's sizes
    @staticmethod
    def routes(monkeypatch, p, g) -> dict:
        """Kernel per hom term of p on g, without counting."""
        seen = {}

        def dense(program, chosen, g):
            for t in chosen:
                seen.setdefault(program.terms[t].f, "count_hom_mm")
            return dict.fromkeys(chosen, 0)

        monkeypatch.setattr(homcount, "_run", dense)
        monkeypatch.setattr(homcount, "count_hom_dp",
                            lambda f, g: seen.setdefault(f, "count_hom_dp") and 0)
        evaluate(p, g)
        return {f: (elimination_plan(f)[0], kernel) for f, kernel in seen.items()}

    def test_bench_terms_go_dense(self, monkeypatch):
        rng = random.Random(19)
        queries = [
            (MotifParameter("sub", {path(6): 1}), gnm(rng, 120, 900)),
            (MotifParameter("hom", {cycle(10): 1}), gnm(rng, 120, 900)),
            (build_tree_count_parameter(6), gnm(rng, 40, 117)),
            (MotifParameter("indsub", {path(4): 1, cycle(5): 1}), gnm(rng, 50, 245)),
        ]
        widths = []
        for p, g in queries:
            for width, kernel in self.routes(monkeypatch, p, g).values():
                widths.append(width)
                assert kernel == ("count_hom_mm" if width <= 3 else "count_hom_dp")
        assert widths.count(3) == 5 and widths.count(4) == 1

    def test_sparse_host_goes_to_the_dict_dp(self, monkeypatch):
        g = gnm(random.Random(23), 4500, 13500)
        routes = self.routes(monkeypatch, MotifParameter("hom", {cycle(4): 1}), g)
        assert list(routes.values()) == [(2, "count_hom_dp")]


class TestPatternsPastTheGuard:
    # forests on more than TREEWIDTH_GUARD vertices: the reduction rules
    # plan them, and both engines match closed forms
    @pytest.mark.parametrize("count", [count_hom_mm, count_hom_dp], ids=["mm", "dp"])
    def test_closed_forms(self, count):
        g = random_graph(random.Random(44), 40, 0.25)
        adj = adjacency(g)
        walks = [1] * g.n  # walks[v]: walks of the current length ending at v
        for _ in range(29):
            walks = [sum(walks[u] for u in a) for a in adj]
        assert count(matching(11), g) == (2 * len(g.edges)) ** 11
        assert count(star(20), g) == sum(len(a) ** 20 for a in adj)
        assert count(path(29), g) == sum(walks)


class TestColoredHom:
    def test_matches_brute_force(self):
        rng = random.Random(29)
        for _ in range(30):
            h = random_colored(rng, rng.randint(1, 4), 3)
            g = random_colored(rng, rng.randint(1, 6), 3)
            assert count_hom_dp(h, g) == brute_count("colored-hom", h, g)

    def test_color_filter(self):
        h = ColoredGraph(clique(2), (0, 1))
        g = ColoredGraph(clique(2), (0, 0))
        assert count_hom_dp(h, g) == 0

    @pytest.mark.parametrize("direction", ["plain pattern", "colored pattern"])
    def test_mixed_pairs_are_refused(self, direction):
        # a Graph pattern with a ColoredGraph host, or the reverse, raises
        # at every entry point instead of counting 0 or failing inside
        k4 = clique(4)
        cg = ColoredGraph(k4, [0, 0, 1, 1])
        h, g = (path(2), cg) if direction == "plain pattern" else (
            ColoredGraph(path(2), [0, 0, 0]), k4)
        calls = [lambda: count_pattern("hom", h, g), lambda: count_hom_dp(h, g),
                 lambda: count_hom_mm(h, g),
                 lambda: homcount._hom_sum(homcount._program(((h, 1),)), g)]
        if direction == "plain pattern":
            calls.append(lambda: evaluate(MotifParameter("sub", {h: 1}), g))
        for call in calls:
            with pytest.raises(ValueError, match="both be Graphs or both ColoredGraphs"):
                call()
        assert count_pattern("hom", path(2), k4) == 36
