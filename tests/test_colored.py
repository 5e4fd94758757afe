import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CLI_MAIN,
    brute_attachment,
    clique,
    cycle,
    has_a_path,
    matching,
    path,
    random_colored,
    random_graph,
    run_isolated,
)
from motifcount.colored import (
    _restricted_cover,
    FLOWER_CAP,
    FlowerCapExceeded,
    a_path_packing,
    a_path_packing_restricted,
    build_guarded_decomposition,
    clique_saturate,
    contract_colors,
    count_colored_embeddings,
    count_colored_sub,
    count_colorful_subgraphs_ie,
    count_ordered_embeddings,
    find_flower,
    is_l_attached,
)
from motifcount.graphs import (
    CapacityError,
    ColoredGraph,
    Graph,
    adjacency,
    automorphism_count,
    disjoint_union,
    encode_graph6,
    quotient,
)
from motifcount.homcount import count_hom_dp
from motifcount.oracle import brute_count
from motifcount.partitions import independent_partitions


def half_colorful_matching(k: int) -> ColoredGraph:
    """k disjoint edges, one endpoint in class 0, the others pairwise
    distinct classes."""
    edges = [(2 * i, 2 * i + 1) for i in range(k)]
    colors = []
    for i in range(k):
        colors += [0, i + 1]
    return ColoredGraph(Graph(2 * k, edges), colors)


@st.composite
def matching_class_instances(draw, m: int):
    """(pattern, host): class 0 of the pattern is m disjoint monochromatic
    edges, beside 0-2 vertices of colours 1 and 2 with random edges, so its
    largest A-path packing is m (each path spends two of its 2m vertices);
    the host has at most 8 vertices in the pattern's colours, and no fewer
    than the pattern unless that is over 8."""
    extra = draw(st.lists(st.sampled_from([1, 2]), max_size=2))
    edges = [(2 * i, 2 * i + 1) for i in range(m)]
    for v in range(2 * m, 2 * m + len(extra)):
        edges += [(u, v) for u in range(v) if draw(st.booleans())]
    h = ColoredGraph(Graph(2 * m + len(extra), edges), [0] * (2 * m) + extra)
    rng = draw(st.randoms(use_true_random=False))
    palette = sorted(set(h.colors))
    n = rng.randint(min(h.n, 8), 8)
    g = ColoredGraph(random_graph(rng, n, rng.choice([0.5, 0.8])),
                     [rng.choice(palette) for _ in range(n)])
    return h, g


def brute_ordered_embeddings(h, g, classes):
    """Color-preserving embeddings monotone on every class, by enumeration."""
    class_of = {}
    for ci, members in enumerate(classes):
        for v in members:
            class_of[v] = ci
    count = 0
    for phi in itertools.permutations(range(g.n), h.n):
        if any(h.colors[v] != g.colors[phi[v]] for v in range(h.n)):
            continue
        if any(not g.graph.has_edge(phi[u], phi[v]) for u, v in h.graph.edges):
            continue
        ok = True
        for members in classes:
            for u, v in zip(members, members[1:]):
                if phi[u] > phi[v]:
                    ok = False
        if ok:
            count += 1
    return count


class TestContractSaturate:
    def test_contract(self):
        h = ColoredGraph(path(2), (0, 1, 0))
        c = contract_colors(h)
        assert c == Graph(2, [(0, 1)])

    def test_saturate_all_and_except(self):
        h = ColoredGraph(Graph(4), (0, 0, 1, 1))
        assert clique_saturate(h) == Graph(4, [(0, 1), (2, 3)])
        assert clique_saturate(h, keep={0}) == Graph(4, [(2, 3)])


class TestAPaths:
    def test_packing_first_arm(self):
        g = Graph(4, [(0, 1), (2, 3)])
        kind, paths = a_path_packing(g, {0, 1, 2, 3}, 2)
        assert kind == "paths" and len(paths) == 2

    def test_cover_arm_verified(self):
        rng = random.Random(71)
        for _ in range(60):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, 0.4)
            a = {v for v in range(n) if rng.random() < 0.5}
            k = rng.randint(1, 3)
            result = a_path_packing(g, a, k)
            if result[0] == "paths":
                assert len(result[1]) == k
                used = [v for p in result[1] for v in p]
                assert len(used) == len(set(used))
            else:
                cover = result[1]
                assert len(cover) <= 2 * k - 2

    def test_cover_arm_is_minimum(self):
        # no smaller vertex set leaves the graph free of A-paths (removing
        # more vertices never creates one, so one size less suffices)
        rng = random.Random(97)
        sizes = []
        for _ in range(120):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            a = {v for v in range(n) if rng.random() < 0.6}
            result = a_path_packing(g, a, rng.randint(1, 4))
            if result[0] == "paths":
                continue
            cover = result[1]
            assert not has_a_path(g, a, cover)
            if cover:
                for smaller in itertools.combinations(range(n), len(cover) - 1):
                    assert has_a_path(g, a, smaller)
            sizes.append(len(cover))
        assert len(sizes) >= 40 and max(sizes) >= 3

    def test_attachment_matches_brute(self):
        rng = random.Random(73)
        for _ in range(40):
            n = rng.randint(2, 6)
            g = random_graph(rng, n, 0.5)
            a = frozenset(v for v in range(n) if rng.random() < 0.5)
            v = rng.randrange(n)
            want = brute_attachment(g, v, a)
            for l in (1, 2, 3):
                assert is_l_attached(g, v, a, l) == (want >= l)

    def test_restricted_postconditions(self):
        rng = random.Random(79)
        done = 0
        while done < 40:
            n = rng.randint(2, 8)
            g = random_graph(rng, n, 0.5)
            from motifcount.graphs import is_connected

            if not is_connected(g):
                continue
            a = {v for v in range(n) if rng.random() < 0.5}
            k = rng.randint(1, 3)
            result = a_path_packing_restricted(g, a, k, 2 * k)
            if result[0] == "cover":
                _, a_star, s_star = result
                assert a_star <= set(a)
                exhaustive = {
                    v
                    for v in range(n)
                    if brute_attachment(g, v, frozenset(a)) >= 2 * k
                }
                assert s_star == exhaustive
            done += 1


    def test_restricted_cover_rejects_a_large_packing(self):
        # the path 0-1-2-3 holds the two disjoint A-paths 0-1 and 2-3
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        with pytest.raises(AssertionError, match="large A-path packing"):
            _restricted_cover(g, frozenset(range(6)), 2, 4)

    def test_packing_rejects_an_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex 9"):
            a_path_packing(path(2), [0, 9], 1)

    def test_restricted_packing_rejects_an_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex 3"):
            a_path_packing_restricted(path(2), [0, 3], 1, 2)

    def test_attachment_rejects_an_unknown_vertex(self):
        for v, a in ((7, [0, 2]), (-1, [0, 2]), (1, [0, 3])):
            with pytest.raises(ValueError, match="unknown vertex"):
                is_l_attached(path(2), v, a, 1)


class TestFlowers:
    def test_internal_matching_flower(self):
        # class 0 holds 2c vertices matched pairwise
        c = 2
        h = ColoredGraph(Graph(4, [(0, 1), (2, 3)]), (0, 0, 0, 0))
        flower = find_flower(h, 0, c)
        assert flower is not None and len(flower.paths) == c

    def test_singleton_class_never_blooms(self):
        h = ColoredGraph(path(2), (0, 1, 2))
        for cls in (0, 1, 2):
            assert find_flower(h, cls, 1) is None

    def test_half_colorful_matching_no_flower(self):
        h = half_colorful_matching(3)
        assert find_flower(h, 0, 1) is None

    def test_matching_flower_boundary(self):
        # the monochromatic m-matching carries a c-flower iff c <= m
        for m in range(1, 6):
            h = ColoredGraph(matching(m), [0] * (2 * m))
            for c in range(1, 9):
                flower = find_flower(h, 0, c)
                assert (flower is not None) == (c <= m), (m, c)
                if flower is not None:
                    assert sorted(flower.paths) == [(2 * i, 2 * i + 1) for i in range(m)][:c]


class TestGuardedDecomposition:
    def _check(self, h):
        gcd = build_guarded_decomposition(h)
        gcd.validate()
        return gcd

    def test_colorful_pattern(self):
        h = ColoredGraph(path(3), (0, 1, 2, 3))
        gcd = self._check(h)
        # every class a singleton: guards may be whole bags
        for t in range(len(gcd.bags)):
            assert gcd.guards[t] <= gcd.bags[t]

    def test_half_colorful_matching_shape(self):
        gcd = self._check(half_colorful_matching(4))
        assert len(gcd.bags) >= 1

    def test_random_instances_validate(self):
        rng = random.Random(83)
        for _ in range(30):
            h = random_colored(rng, rng.randint(1, 6), rng.randint(1, 4))
            self._check(h)

    def test_flower_cap_diagnostic(self):
        # one giant class matched internally: flowers at every scale
        h = ColoredGraph(matching(20), [0] * 40)
        with pytest.raises(FlowerCapExceeded, match="class 0"):
            build_guarded_decomposition(h)

    @staticmethod
    def _decompose_in_subprocess(source: str):
        return run_isolated(CLI_MAIN, "decompose", "--guarded", source)

    def test_largest_matching_below_the_flower_cap(self):
        m = FLOWER_CAP - 1
        proc = self._decompose_in_subprocess(encode_graph6(matching(m)))
        everything = ",".join(map(str, range(2 * m)))
        assert proc.returncode == 0
        assert proc.stdout == f"0 parent=- bag={{{everything}}} guard={{{everything}}}\n"

    def test_matching_at_the_flower_cap_exits_1(self):
        proc = self._decompose_in_subprocess(encode_graph6(matching(FLOWER_CAP)))
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: class 0 still carries a {FLOWER_CAP}-flower; "
            "pattern is outside the tractable regime\n"
        )

    def test_bipartite_pair_against_a_class_of_eight(self, tmp_path):
        # K_{2,8} with the pair in its own colour: through the eight, made a
        # clique, the pair has about 10^5 simple A-paths but only 8 induced
        # ones (length 2)
        lines = ["n 10"] + [f"e {u} {v}" for u in (0, 1) for v in range(2, 10)]
        lines += [f"c {v} {int(v < 2)}" for v in range(10)]
        source = tmp_path / "k28.txt"
        source.write_text("\n".join(lines) + "\n")
        proc = self._decompose_in_subprocess(f"@{source}")
        assert proc.returncode == 0
        assert proc.stdout == (
            "0 parent=- bag={0,1} guard={0,1}\n"
            "1 parent=0 bag={0,1,2,3,4,5,6,7,8,9} guard={0,1,2,3,4,5,6,7,8,9}\n"
        )

    def test_monochromatic_path_least_cover(self):
        # a 30-vertex path in one colour: the restricted cover search runs
        # with k far past the flower bound
        proc = self._decompose_in_subprocess(encode_graph6(path(29)))
        everything = ",".join(map(str, range(30)))
        assert proc.returncode == 0
        assert proc.stdout == f"0 parent=- bag={{{everything}}} guard={{{everything}}}\n"


class TestOrderedEmbeddings:
    def test_similar_endpoints_factor_two(self):
        h = ColoredGraph(clique(2), (1, 1))
        g = ColoredGraph(Graph(3, [(0, 1)]), (1, 1, 1))
        gcd = build_guarded_decomposition(h)
        ordered = count_ordered_embeddings(gcd, g)
        classes = gcd.similarity_partition()
        factor = 1
        for members in classes:
            factor *= math.factorial(len(members))
        assert ordered * factor == 2
        assert ordered == brute_ordered_embeddings(
            h, g, [sorted(m) for m in classes]
        )

    def test_factorization_instance_wise(self):
        rng = random.Random(89)
        for _ in range(25):
            h = random_colored(rng, rng.randint(1, 5), rng.randint(1, 3))
            g = random_colored(rng, rng.randint(1, 6), 3)
            gcd = build_guarded_decomposition(h)
            classes = [sorted(m) for m in gcd.similarity_partition()]
            ordered = count_ordered_embeddings(gcd, g)
            assert ordered == brute_ordered_embeddings(h, g, classes)
            factor = 1
            for members in classes:
                factor *= math.factorial(len(members))
            assert ordered * factor == brute_count("colored-emb", h, g)


class TestColoredCounts:
    def test_colorful_edge(self):
        h = ColoredGraph(clique(2), (1, 2))
        g = ColoredGraph(path(2), (1, 2, 1))
        assert count_colored_embeddings(h, g) == 2

    def test_monochromatic_equals_uncolored(self):
        rng = random.Random(97)
        from motifcount.motif import count_pattern

        for _ in range(10):
            h = random_graph(rng, rng.randint(1, 4))
            g = random_graph(rng, rng.randint(1, 6))
            hc = ColoredGraph(h, [0] * h.n)
            gc = ColoredGraph(g, [0] * g.n)
            assert count_colored_embeddings(hc, gc) == count_pattern("emb", h, g)

    def test_matches_brute(self):
        rng = random.Random(101)
        for _ in range(60):
            h = random_colored(rng, rng.randint(1, 6), rng.randint(1, 4))
            g = random_colored(rng, rng.randint(1, 8), 4)
            want = brute_count("colored-emb", h, g)
            assert count_colored_embeddings(h, g) == want
            assert count_colored_sub(h, g) == want // automorphism_count(h)

    def test_star_leaves_free_beside_a_guarded_centre(self):
        # K1,20 with centre colour 0 and leaves colour 1: the leaves are one
        # free class whose members all neighbour the guarded centre
        rng = random.Random(103)
        g = random_graph(rng, 60)
        colors = [0] * 3 + [1] * 57
        rng.shuffle(colors)
        h = ColoredGraph(Graph(21, [(0, i) for i in range(1, 21)]), [0] + [1] * 20)
        adj = adjacency(g)
        want = sum(math.perm(sum(colors[y] == 1 for y in adj[x]), 20)
                   for x in range(60) if colors[x] == 0)
        assert want > 0
        assert count_colored_embeddings(h, ColoredGraph(g, colors)) == want


# every bag fully guarded, every similarity class a singleton
P6_COLORED = ColoredGraph(path(5), (0, 1, 2, 0, 1, 2))
C6_COLORED = ColoredGraph(cycle(6), (0, 1, 0, 1, 0, 1))
# the isolated vertices 1 and 4 share colour 0: one similarity class of two,
# so the host sweep runs
SWEPT = ColoredGraph(Graph(7, [(0, 5), (2, 5), (2, 6), (3, 5)]), (2, 0, 1, 2, 0, 1, 1))
# a child whose separator has one unguarded vertex hangs off the root (the
# plan eliminates colour 0 first, so colour 2 is the root bag)
HANGING = ColoredGraph(Graph(5, [(1, 3), (3, 4)]), (0, 0, 2, 2, 0))
# one root bag holds the similarity class {0, 3} beside vertex 2, at which a
# child hangs (colour 1, planned last, is the root bag)
CLASS_AND_HANGING = ColoredGraph(Graph(5, [(1, 2)]), (1, 0, 1, 1, 0))
# the isolated vertices 2, 3 and 4 form one similarity class of three
CLASS_OF_THREE = ColoredGraph(Graph(5, [(0, 1)]), (2, 2, 1, 1, 1))
PATTERNS = {
    "P6": P6_COLORED,
    "C6": C6_COLORED,
    "swept": SWEPT,
    "hanging": HANGING,
    "class-and-hanging": CLASS_AND_HANGING,
    "class-of-three": CLASS_OF_THREE,
}


def partition_reference(h: ColoredGraph, g: ColoredGraph) -> int:
    """Colored embeddings by Moebius inversion over the partition lattice:
    the sum over partitions into monochromatic independent blocks of
    prod_B (-1)^(|B|-1) (|B|-1)! times colored Hom of the quotient."""
    total = 0
    for rho in independent_partitions(h):
        weight = 1
        for block in rho:
            weight *= (-1) ** (len(block) - 1) * math.factorial(len(block) - 1)
        f = ColoredGraph(quotient(h.graph, rho), [h.colors[b[0]] for b in rho])
        total += weight * count_hom_dp(f, g)
    return total


class TestColoredDifferential:
    def _assert_matches_brute(self, h, g):
        emb = brute_count("colored-emb", h, g)
        assert count_colored_embeddings(h, g) == emb
        assert count_colored_sub(h, g) == emb // automorphism_count(h)

    def test_patterns_reach_their_cases(self):
        for h in (P6_COLORED, C6_COLORED):
            gcd = build_guarded_decomposition(h)
            assert gcd.guards == [frozenset(b) for b in gcd.bags]
            assert all(len(m) == 1 for m in gcd.similarity_partition())
        gcd = build_guarded_decomposition(SWEPT)
        assert [1, 4] in gcd.similarity_partition()
        gcd = build_guarded_decomposition(HANGING)
        assert any(gcd.hanging(t) for t in range(len(gcd.bags)))
        gcd = build_guarded_decomposition(CLASS_AND_HANGING)
        assert [0, 3] in gcd.similarity_partition()
        assert any(
            set(gcd.hanging(t)) == {2} and gcd.bags[t] - gcd.guards[t] == {0, 2, 3}
            for t in range(len(gcd.bags))
        )
        gcd = build_guarded_decomposition(CLASS_OF_THREE)
        assert [2, 3, 4] in gcd.similarity_partition()

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_matches_brute(self, name):
        # dense hosts whose colour classes are as even as the pattern's
        # palette allows, so that most counts are nonzero
        h = PATTERNS[name]
        palette = sorted(set(h.colors))
        rng = random.Random(f"colored-differential:{name}")
        for _ in range(12):
            n = rng.randint(h.n, 8)
            colors = [palette[v % len(palette)] for v in range(n)]
            rng.shuffle(colors)
            g = ColoredGraph(random_graph(rng, n, rng.choice([0.6, 0.75, 0.9])), colors)
            self._assert_matches_brute(h, g)

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_colour_absent_from_host(self, name):
        h = PATTERNS[name]
        rng = random.Random(f"colored-absent:{name}")
        for missing in sorted(set(h.colors)):
            kept = sorted(set(range(4)) - {missing})
            g = random_graph(rng, 8, 0.7)
            g = ColoredGraph(g, [rng.choice(kept) for _ in range(g.n)])
            assert count_colored_embeddings(h, g) == 0
            assert count_colored_sub(h, g) == 0
            assert brute_count("colored-emb", h, g) == 0

    def test_empty_pattern(self):
        h = ColoredGraph(Graph(0), ())
        rng = random.Random(107)
        for n in (0, 1, 5):
            g = random_colored(rng, n, 3)
            assert count_colored_embeddings(h, g) == brute_count("colored-emb", h, g) == 1
            assert count_colored_sub(h, g) == 1

    def test_empty_pattern_runs_the_general_path(self):
        h = ColoredGraph(Graph(0), ())
        gcd = build_guarded_decomposition(h)
        assert gcd.dump() == "0 parent=- bag={} guard={}\n"
        g = random_colored(random.Random(108), 5, 3)
        assert count_ordered_embeddings(gcd, g) == 1

    @pytest.mark.parametrize("m", [1, 2, 4])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matching_class_packings(self, m, data):
        h, g = data.draw(matching_class_instances(m))
        assert find_flower(h, 0, m) is not None
        assert find_flower(h, 0, m + 1) is None
        build_guarded_decomposition(h).validate()
        # no injection into a smaller host; the brute-force budget refuses
        # its 8^10 maps
        emb = brute_count("colored-emb", h, g) if h.n <= g.n else 0
        assert count_colored_embeddings(h, g) == emb

    @pytest.mark.parametrize("name", ["P6", "C6"])
    def test_large_host_against_partition_reference(self, name):
        # 100 vertices in three colour classes: far beyond brute force
        h = PATTERNS[name]
        rng = random.Random(109)
        g = random_colored(rng, 100, 3, 0.09)
        emb = partition_reference(h, g)
        assert emb > 0
        assert count_colored_embeddings(h, g) == emb
        assert count_colored_sub(h, g) == emb // automorphism_count(h)


class TestColorfulIE:
    def test_identity_triangle(self):
        assert count_colorful_subgraphs_ie(clique(3), clique(3), [0, 1, 2]) == 1

    def test_two_disjoint_triangles(self):
        g = disjoint_union(clique(3), clique(3))
        assert count_colorful_subgraphs_ie(clique(3), g, [0, 1, 2, 0, 1, 2]) == 2

    def test_empty_class_gives_zero(self):
        g = Graph(2, [(0, 1)])
        assert count_colorful_subgraphs_ie(clique(3), g, [0, 1]) == 0

    def test_rejects_non_homomorphism_coloring(self):
        with pytest.raises(ValueError):
            count_colorful_subgraphs_ie(path(2), Graph(2, [(0, 1)]), [0, 2])

    def test_oversized_pattern_refused_before_the_sum(self):
        # the 2^21 terms of the sum are never run
        with pytest.raises(CapacityError):
            count_colorful_subgraphs_ie(Graph(21), Graph(0), [])

    def test_matches_brute(self):
        rng = random.Random(103)
        for _ in range(30):
            nf = rng.randint(2, 4)
            f = random_graph(rng, nf, 0.6)
            ng = rng.randint(nf, 8)
            coloring = list(range(nf)) + [
                rng.randrange(nf) for _ in range(ng - nf)
            ]
            rng.shuffle(coloring)
            edges = [
                (u, v)
                for u, v in itertools.combinations(range(ng), 2)
                if f.has_edge(coloring[u], coloring[v]) and rng.random() < 0.6
            ]
            g = Graph(ng, edges)
            want = brute_count(
                "colorful-partitioned", f, ColoredGraph(g, coloring)
            )
            assert count_colorful_subgraphs_ie(f, g, coloring) == want
