"""The two routes of the colored counts, tested against each other, against
the oracle and against exact identities.

The spasm route sums Moebius-weighted colour-preserving hom counts over the
pattern's colored spasm (colored._spasm_embeddings); the guarded route runs
the ordered-embedding DP over a guarded decomposition.  Both are called
explicitly here, whichever one count_colored_embeddings picks.
"""

import math
import random

import pytest

from conftest import (
    CLI_MAIN,
    clique,
    matching,
    path,
    random_colored,
    random_graph,
    run_isolated,
    word_primes_bounds,
)
from test_colored import PATTERNS
from motifcount.colored import (
    FLOWER_CAP,
    _spasm_embeddings,
    build_guarded_decomposition,
    count_colored_embeddings,
    count_colored_sub,
    count_ordered_embeddings,
)
from motifcount.decomp import elimination_plan
from motifcount.graphs import (
    CapacityError,
    ColoredGraph,
    Graph,
    adjacency,
    automorphism_count,
    canonical_form,
    disjoint_union,
    encode_graph6,
    tensor_product,
)
from motifcount.homcount import count_hom_dp, count_hom_mm
from motifcount.oracle import brute_count
from motifcount.partitions import PARTITION_BUDGET, _quotient_tally, independent_partitions


def guarded_embeddings(h: ColoredGraph, g: ColoredGraph) -> int:
    """Colored embeddings by the guarded decomposition's ordered-embedding
    DP and the similarity factorials."""
    gcd = build_guarded_decomposition(h)
    factor = math.prod(math.factorial(len(m)) for m in gcd.similarity_partition())
    return count_ordered_embeddings(gcd, g) * factor


def spasm_embeddings(h: ColoredGraph, g: ColoredGraph) -> int:
    emb = _spasm_embeddings(h, g)
    assert emb is not None, "pattern refused by the spasm route"
    return emb


def colored_tensor(g: ColoredGraph, x: Graph) -> ColoredGraph:
    """G x X, vertex (v, w) numbered v * |V(X)| + w and coloured as v."""
    return ColoredGraph(tensor_product(g.graph, x), [c for c in g.colors for _ in range(x.n)])


def colored_star(m: int) -> ColoredGraph:
    """K1,m with centre colour 0 and leaves colour 1."""
    return ColoredGraph(Graph(m + 1, [(0, i) for i in range(1, m + 1)]), [0] + [1] * m)


# K4 with vertex 3 split in two: 3 sees 0 and 1, 4 sees 2; merging the two
# (same colour, not adjacent) gives K4, a treewidth-3 quotient
SPLIT_K4 = ColoredGraph(Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4)]),
                        (0, 1, 2, 1, 1))


class TestRoutesAgree:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_patterns_on_large_hosts(self, name):
        # 100 vertices in three colour classes: far beyond brute force
        h = PATTERNS[name]
        rng = random.Random(f"routes:{name}")
        g = random_colored(rng, 100, 3, 0.08)
        emb = spasm_embeddings(h, g)
        assert emb == guarded_embeddings(h, g) > 0
        assert count_colored_embeddings(h, g) == emb

    def test_random_patterns_on_large_hosts(self):
        rng = random.Random(211)
        nonzero = 0
        for _ in range(20):
            h = random_colored(rng, rng.randint(2, 6), rng.randint(1, 3), 0.4)
            g = random_colored(rng, 100, 3, 0.05)
            emb = spasm_embeddings(h, g)
            assert emb == guarded_embeddings(h, g)
            nonzero += emb > 0
        assert nonzero >= 10

    def test_both_match_brute_on_small_hosts(self):
        rng = random.Random(223)
        for _ in range(40):
            h = random_colored(rng, rng.randint(1, 6), rng.randint(1, 3))
            g = random_colored(rng, rng.randint(1, 8), 3, 0.7)
            want = brute_count("colored-emb", h, g)
            assert spasm_embeddings(h, g) == guarded_embeddings(h, g) == want
            assert count_colored_sub(h, g) == want // automorphism_count(h)

    def test_treewidth3_quotient(self):
        tally = _quotient_tally(canonical_form(SPLIT_K4))
        assert max(elimination_plan(f.graph.graph)[0] for f, _, _ in tally) == 3
        rng = random.Random(227)
        for _ in range(10):
            g = random_colored(rng, 8, 3, 0.8)
            want = brute_count("colored-emb", SPLIT_K4, g)
            assert spasm_embeddings(SPLIT_K4, g) == guarded_embeddings(SPLIT_K4, g) == want
        g = random_colored(rng, 60, 3, 0.3)
        assert spasm_embeddings(SPLIT_K4, g) == guarded_embeddings(SPLIT_K4, g) > 0

    @pytest.mark.parametrize("name", sorted(PATTERNS) + ["split-K4"])
    def test_colour_absent_from_host(self, name):
        h = PATTERNS.get(name, SPLIT_K4)
        rng = random.Random(f"routes-absent:{name}")
        for missing in sorted(set(h.colors)):
            kept = sorted({0, 1, 2, 3} - {missing})
            g = random_graph(rng, 30, 0.5)
            g = ColoredGraph(g, [rng.choice(kept) for _ in range(g.n)])
            assert spasm_embeddings(h, g) == guarded_embeddings(h, g) == 0


class TestPartitionConstant:
    @pytest.mark.parametrize("m", range(3, 11))
    def test_stars_below_the_constant(self, m):
        # K1,m on G(40, 0.5) with three centres of colour 0: below the
        # attachment threshold the guarded DP places every leaf as a guard
        # (m = 5 took minutes); the spasm route has m terms, and its tally
        # stays within PARTITION_BUDGET up to Bell(10) partitions
        rng = random.Random(1)
        g = random_graph(rng, 40)
        colors = [0] * 3 + [1] * 37
        rng.shuffle(colors)
        adj = adjacency(g)
        want = sum(math.perm(sum(colors[y] == 1 for y in adj[x]), m)
                   for x in range(40) if colors[x] == 0)
        h = colored_star(m)
        assert len(_quotient_tally(canonical_form(h))) == m
        assert count_colored_embeddings(h, ColoredGraph(g, colors)) == want > 0

    def test_large_stars_take_the_guarded_dp(self):
        # K1,11 and K1,19 have Bell(11) and Bell(19) partitions of their
        # leaves, counted only up to the budget; K1,20 has more vertices
        # than PRUNED_GUARD
        with pytest.raises(CapacityError, match=f"capped at {PARTITION_BUDGET} partitions"):
            _quotient_tally(canonical_form(colored_star(19)))
        g = random_colored(random.Random(5), 10, 2)
        for m in (11, 19, 20):
            assert _spasm_embeddings(colored_star(m), g) is None

    def test_bell_eight_is_under_the_constant(self):
        # the budget admits K1,8 and K1,10, whose leaves have Bell(8) and
        # Bell(10) partitions, but not K1,11 (Bell(11) = 678,570)
        h = colored_star(8)
        assert sum(1 for _ in independent_partitions(h)) == 4140
        tally = _quotient_tally(canonical_form(colored_star(10)))
        assert sum(count for _, count, _ in tally) == 115975 <= PARTITION_BUDGET < 678570

    def test_flower_cap_pattern_exits_1(self):
        # 2 * FLOWER_CAP vertices of one colour, matched: past PRUNED_GUARD,
        # so the guarded DP takes it, and refuses it
        pattern = encode_graph6(matching(FLOWER_CAP))
        proc = run_isolated(CLI_MAIN, "colored-count", "--kind", "emb", "--pattern", pattern,
                            "--host", "Bw")
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: class 0 still carries a {FLOWER_CAP}-flower; "
            "pattern is outside the tractable regime\n"
        )


def with_lone(h: ColoredGraph, colours) -> ColoredGraph:
    """h beside one isolated vertex of each given colour, numbered after
    h's vertices."""
    return ColoredGraph(Graph(h.n + len(colours), h.graph.edges), h.colors + tuple(colours))


class TestLoneVertices:
    # Emb(H) = Emb(H') prod_c perm(n_c - h'_c, m_c), H' the pattern less
    # its m_c isolated vertices of each colour c

    @pytest.mark.parametrize("m", range(6, 10))
    def test_an_edge_beside_lone_vertices(self, m):
        # one colour on a 2-colour G(40, 0.5): the edge's embeddings inside
        # colour 0, times the ways to place m more vertices there
        rng = random.Random(3)
        g = random_colored(rng, 40, 2)
        n0 = g.colors.count(0)
        inside = sum(g.colors[u] == g.colors[v] == 0 for u, v in g.graph.edges)
        h = with_lone(ColoredGraph(Graph(2, [(0, 1)]), (0, 0)), [0] * m)
        assert count_colored_embeddings(h, g) == 2 * inside * math.perm(n0 - 2, m) > 0
        assert count_colored_sub(h, g) == inside * math.comb(n0 - 2, m)

    def test_lone_vertices_of_two_colours(self):
        rng = random.Random(5)
        g = random_colored(rng, 30, 3, 0.3)
        edge = ColoredGraph(Graph(2, [(0, 1)]), (0, 1))
        h = with_lone(edge, [0, 1, 1, 2, 0, 1])
        n = [g.colors.count(c) for c in range(3)]
        want = (count_colored_embeddings(edge, g)
                * math.perm(n[0] - 1, 2) * math.perm(n[1] - 1, 3) * math.perm(n[2], 1))
        assert count_colored_embeddings(h, g) == want > 0
        # too few hosts of colour 2 for three lone vertices
        assert count_colored_embeddings(with_lone(edge, [2] * (n[2] + 1)), g) == 0

    def test_matches_brute_on_small_hosts(self):
        rng = random.Random(239)
        nonzero = 0
        for _ in range(40):
            core = random_colored(rng, rng.randint(0, 4), rng.randint(1, 2), 0.6)
            h = with_lone(core, [rng.randrange(2) for _ in range(rng.randint(1, 3))])
            order = list(range(h.n))
            rng.shuffle(order)  # lone vertices anywhere, not only last
            h = ColoredGraph(Graph(h.n, [(order[u], order[v]) for u, v in h.graph.edges]),
                             [h.colors[order.index(v)] for v in range(h.n)])
            g = random_colored(rng, rng.randint(4, 8), 2, 0.6)
            want = brute_count("colored-emb", h, g)
            nonzero += want > 0
            assert count_colored_embeddings(h, g) == want
            assert count_colored_sub(h, g) == want // automorphism_count(h)
        assert nonzero >= 20


def colored_pattern(h: Graph, rng: random.Random, ncolors: int) -> ColoredGraph:
    return ColoredGraph(h, [rng.randrange(ncolors) for _ in range(h.n)])


class TestColoredHomKernel:
    def test_matches_the_dict_dp(self):
        rng = random.Random(229)
        for h in (path(4), clique(3), clique(4), SPLIT_K4.graph, Graph(1), Graph(3, [(0, 1)])):
            for _ in range(3):
                f = colored_pattern(h, rng, 3)
                g = random_colored(rng, 30, 3, 0.4)
                assert count_hom_mm(f, g) == count_hom_dp(f, g)

    @pytest.mark.parametrize("regime", ["float", "crt"])
    def test_tensor_product_multiplies(self, regime, monkeypatch):
        # Hom_col(F, G x X) = Hom_col(F, G) Hom(F, X), G x X coloured by its
        # first factor.  In the CRT regime F is a coloured 11-vertex path
        # beside a triangle and one lone vertex, whose last vector is its
        # colour mask alone
        rng = random.Random(f"colored-tensor:{regime}")
        if regime == "float":
            f = colored_pattern(disjoint_union(path(3), clique(3)), rng, 2)
            g = random_colored(rng, 12, 2, 0.5)
        else:
            shape = disjoint_union(disjoint_union(path(10), clique(3)), Graph(1))
            f = ColoredGraph(shape, [v % 2 for v in range(11)] + [0, 1, 0, 1])
            g = random_colored(rng, 60, 2, 0.6)
        x = clique(3)
        bounds = word_primes_bounds(monkeypatch)
        alone = count_hom_mm(f, g)
        assert bool(bounds) == (regime == "crt")
        assert alone == count_hom_dp(f, g) > 0
        product = count_hom_mm(f, colored_tensor(g, x))
        assert product == alone * count_hom_dp(f.graph, x) > 0

    @pytest.mark.parametrize("colour", [0, 1])
    def test_lone_vertex_in_the_crt_regime(self, colour, monkeypatch):
        # a coloured path pushes the certificate past 2^53; the lone vertex
        # then counts its colour class
        rng = random.Random(233)
        g = random_colored(rng, 60, 2, 0.6)
        p = ColoredGraph(path(10), [v % 2 for v in range(11)])
        f = ColoredGraph(disjoint_union(p.graph, Graph(1)), p.colors + (colour,))
        bounds = word_primes_bounds(monkeypatch)
        assert count_hom_mm(f, g) == count_hom_mm(p, g) * g.colors.count(colour) > 0
        assert bounds
