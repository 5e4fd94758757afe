import random

import pytest

from conftest import clique, cycle, path, random_colored, random_graph
from motifcount.decomp import DecompositionError
from motifcount.graphs import ColoredGraph, Graph
from motifcount.homcount import count_colored_hom, count_hom_dp, count_hom_mm
from motifcount.oracle import brute_count


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

    def test_empty_cases(self):
        assert count_hom_dp(Graph(0), clique(3)) == 1
        assert count_hom_dp(clique(2), Graph(0)) == 0


class TestMatrixEngine:
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
            count_hom_mm(clique(4), clique(5))

    def test_disconnected_pattern_multiplies(self):
        two_edges = Graph(4, [(0, 1), (2, 3)])
        g = random_graph(random.Random(2), 7)
        assert count_hom_mm(two_edges, g) == count_hom_mm(clique(2), g) ** 2

    def test_large_host_no_overflow(self):
        # values near the int64 boundary must still be exact
        g = clique(40)
        assert count_hom_mm(path(6), g) == count_hom_dp(path(6), g)

    @pytest.mark.parametrize("n", [109, 110])
    def test_machine_word_boundary(self, n):
        # ten-vertex patterns: 109^9 < 2^61 <= 110^9, so K_109 stays in int64
        # and K_110 takes exact big integers; Hom(C10) exceeds int64 on both
        g = clique(n)
        assert count_hom_mm(cycle(10), g) == (n - 1) ** 10 + (n - 1)
        assert count_hom_mm(path(9), g) == n * (n - 1) ** 9


class TestColoredHom:
    def test_matches_brute_force(self):
        rng = random.Random(29)
        for _ in range(30):
            h = random_colored(rng, rng.randint(1, 4), 3)
            g = random_colored(rng, rng.randint(1, 6), 3)
            assert count_colored_hom(h, g) == brute_count("colored-hom", h, g)

    def test_color_filter(self):
        h = ColoredGraph(clique(2), (0, 1))
        g = ColoredGraph(clique(2), (0, 0))
        assert count_colored_hom(h, g) == 0
