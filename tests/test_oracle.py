import itertools
import random

import pytest

from conftest import clique, path, random_graph
from motifcount import oracle
from motifcount.graphs import (
    ColoredGraph,
    Graph,
    automorphism_count,
    canonical_form,
    quotient,
)
from motifcount.oracle import BudgetExceeded, brute_count
from motifcount.partitions import independent_partitions


def quotient_matches(h, p, fc):
    independent = not any(h.has_edge(u, v) for b in p for u, v in itertools.combinations(b, 2))
    return independent and canonical_form(quotient(h, p)) == fc


class TestFixtures:
    def test_known_values(self):
        assert brute_count("hom", path(2), path(3)) == 10
        assert brute_count("sub", clique(2), clique(3)) == 3
        assert brute_count("indsub", path(2), path(3)) == 2
        assert brute_count("surj", path(3), clique(3)) == 6


class TestConsistency:
    def test_count_family_inequalities(self):
        rng = random.Random(107)
        for _ in range(25):
            h = random_graph(rng, rng.randint(1, 4))
            g = random_graph(rng, rng.randint(1, 6))
            hom = brute_count("hom", h, g)
            emb = brute_count("emb", h, g)
            strembed = brute_count("strembed", h, g)
            assert hom >= emb >= strembed
            aut = automorphism_count(h)
            assert emb == aut * brute_count("sub", h, g)
            assert strembed == aut * brute_count("indsub", h, g)

    def test_surj_partition_identity(self):
        rng = random.Random(109)
        for _ in range(15):
            h = random_graph(rng, rng.randint(1, 4))
            f = random_graph(rng, rng.randint(1, h.n))
            fc = canonical_form(f)
            matching = sum(
                1
                for p in independent_partitions(h)
                if quotient_matches(h, p, fc)
            )
            assert brute_count("surj", h, f) == automorphism_count(f) * matching


class TestBudget:
    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            brute_count("hom", clique(8), clique(20))

    def test_budget_is_the_module_constant(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 10)
        with pytest.raises(BudgetExceeded, match="budget of 10$"):
            brute_count("hom", clique(2), clique(4))

    def test_colored_kinds(self):
        h = ColoredGraph(clique(2), (0, 1))
        g = ColoredGraph(clique(3), (0, 1, 1))
        assert brute_count("colored-hom", h, g) == 2
        assert brute_count("colored-emb", h, g) == 2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            brute_count("bogus", clique(2), clique(2))
