import random
from fractions import Fraction

import pytest

from conftest import clique, cycle, path, random_graph, star
from motifcount import homcount
from motifcount.graphs import Graph, canonical_form, parse_graph6
from motifcount.homcount import count_hom_dp, count_hom_mm
from motifcount.motif import (
    BASES,
    MotifParameter,
    build_tree_count_parameter,
    change_basis,
    count_pattern,
    evaluate,
    format_motif_parameter,
    hom_support_treewidth,
    parse_motif_parameter,
)
from motifcount.oracle import brute_count
from motifcount.partitions import CapacityError


class TestMotifParameter:
    def test_terms_canonicalized_and_merged(self):
        p = MotifParameter(
            "sub",
            [
                (path(2), Fraction(1)),
                (Graph(3, [(0, 2), (1, 2)]), Fraction(2)),  # same class
                (clique(2), Fraction(0)),
            ],
        )
        assert len(p.terms) == 1
        assert p.terms[0][1] == 3

    def test_rejects_unknown_basis(self):
        with pytest.raises(ValueError):
            MotifParameter("bogus", [])


class TestChangeBasis:
    def test_clique_hom_equals_emb(self):
        p = MotifParameter("hom", {clique(3): Fraction(6)})
        assert change_basis(p, "emb").as_dict() == {
            canonical_form(clique(3)): Fraction(6)
        }

    def test_walk_vector_cancellation(self):
        emb = MotifParameter(
            "emb",
            [
                (path(4), 1),
                (cycle(4), 1),
                (star(3), 1),
                (Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), 2),  # paw
                (path(3), 2),
                (clique(3), 3),
                (path(2), 4),
                (clique(2), 1),
            ],
        )
        hom = change_basis(emb, "hom")
        assert hom.as_dict() == {canonical_form(path(4)): Fraction(1)}

    def test_round_trips_exact(self):
        rng = random.Random(41)
        pool = [path(2), path(3), clique(3), cycle(4), star(3), clique(2)]
        for _ in range(10):
            terms = [
                (g, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                for g in rng.sample(pool, 3)
            ]
            for src in BASES:
                p = MotifParameter(src, terms)
                for dst in BASES:
                    back = change_basis(change_basis(p, dst), src)
                    assert back == p

    def test_evaluation_invariant_under_basis_change(self):
        rng = random.Random(43)
        p = MotifParameter("sub", {path(3): 2, clique(3): -1})
        for _ in range(8):
            g = random_graph(rng, rng.randint(1, 7))
            want = evaluate(p, g)
            for dst in BASES:
                assert evaluate(change_basis(p, dst), g) == want


class TestEvaluationState:
    def test_basis_change_is_memoised(self):
        p = build_tree_count_parameter(5)
        hom = change_basis(p, "hom")
        assert change_basis(p, "hom") is hom
        assert change_basis(MotifParameter("sub", p.terms), "hom") is hom

    def test_guards_raise_on_every_call(self):
        # IndSub(P8) has 21 non-edges, past SUPERGRAPH_GUARD
        p = MotifParameter("indsub", {path(7): 1})
        for _ in range(2):
            with pytest.raises(CapacityError):
                change_basis(p, "hom")

    def test_values_survive_clearing_the_memo(self):
        rng = random.Random(67)
        p = MotifParameter("indsub", {path(3): 1, cycle(4): -2, star(3): Fraction(1, 3)})
        hosts = [random_graph(rng, rng.randint(1, 12), rng.random()) for _ in range(20)]
        before = [evaluate(p, g) for g in hosts]
        change_basis.cache_clear()
        assert [evaluate(p, g) for g in hosts] == before
        assert change_basis.cache_info().misses == 1

    def test_one_host_in_both_arithmetic_regimes(self, monkeypatch):
        # on K40 (degree 39) P3 runs in one float64 pass and P12 modulo
        # primes, since 39^11 >= 2^53; the shared host facts serve both
        bounds = []
        word_primes = homcount._word_primes
        monkeypatch.setattr(
            homcount,
            "_word_primes",
            lambda n, bound: bounds.append(bound) or word_primes(n, bound),
        )
        g = clique(40)
        terms = {path(2): Fraction(-3, 2), path(11): 5}
        want = sum(c * count_hom_dp(h, g) for h, c in terms.items())
        assert evaluate(MotifParameter("hom", terms), g) == want
        assert bounds == [39**11]


class TestCountPattern:
    def test_all_kinds_match_brute(self):
        rng = random.Random(47)
        for _ in range(15):
            h = random_graph(rng, rng.randint(1, 4))
            g = random_graph(rng, rng.randint(1, 7))
            for kind in ("hom", "sub", "indsub", "emb", "strembed"):
                assert count_pattern(kind, h, g) == brute_count(kind, h, g)

    def test_engines_agree(self):
        # the planner picks each term's kernel; both kernels agree on every
        # term of the hom form
        h, g = path(3), random_graph(random.Random(51), 8)
        hom = change_basis(MotifParameter("sub", {h: 1}), "hom")
        for cf, _ in hom.terms:
            assert count_hom_mm(cf.graph, g) == count_hom_dp(cf.graph, g)
        assert count_pattern("sub", h, g) == brute_count("sub", h, g)

    def test_brute_is_not_a_library_engine(self):
        # the library takes no engine at all; the oracle is brute_count
        with pytest.raises(TypeError):
            evaluate(MotifParameter("sub", {path(2): 1}), path(3), engine="brute")

    def test_auto_falls_back_on_large_sparse_hosts(self):
        # one 12000 x 12000 float64 matrix exceeds DENSE_BYTES_GUARD, so the
        # matrix engine refuses before allocating and the term goes to the
        # dict DP
        n, rng = 12000, random.Random(59)
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n)}
        g = Graph(n, edges)
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        with pytest.raises(CapacityError):
            count_hom_mm(path(1), g)
        assert count_pattern("hom", path(1), g) == 2 * len(edges)
        assert count_pattern("hom", path(2), g) == sum(d * d for d in degrees)
        assert count_pattern("sub", path(2), g) == sum(d * (d - 1) // 2 for d in degrees)


class TestSupportTreewidth:
    def test_path_spasm_width(self):
        p = MotifParameter("sub", {path(4): 1})
        assert hom_support_treewidth(p) == 2


class TestTreeBuilder:
    def test_counts_all_trees(self):
        p = build_tree_count_parameter(4)
        assert len(p.terms) == 2  # path and star on 4 vertices
        g = random_graph(random.Random(53), 7)
        want = sum(
            brute_count("sub", cf.graph, g) for cf, _ in p.terms
        )
        assert evaluate(p, g) == want

    def test_capacity(self):
        with pytest.raises(CapacityError):
            build_tree_count_parameter(11)


class TestCapacity:
    def test_oversized_pattern_fails_fast(self):
        # canonicalising an edgeless 21-vertex graph would take hours
        with pytest.raises(CapacityError):
            MotifParameter("sub", {Graph(21): 1})
        for kind in ("sub", "indsub", "emb", "strembed"):
            with pytest.raises(CapacityError):
                count_pattern(kind, Graph(21), Graph(3))


class TestFileFormat:
    def test_round_trip(self):
        p = MotifParameter("emb", {path(4): Fraction(1, 2), clique(3): -2})
        assert parse_motif_parameter(format_motif_parameter(p)) == p

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_motif_parameter("1/2 A_\n")  # missing basis line
        with pytest.raises(ValueError):
            parse_motif_parameter("basis hom\nx A_\n")

    def test_comments_allowed(self):
        p = parse_motif_parameter("# walk counter\nbasis hom\n1 DBg\n")
        assert p.basis == "hom"
        assert len(p.terms) == 1
