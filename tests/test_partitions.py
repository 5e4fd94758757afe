import inspect
import itertools
import random
import warnings
from fractions import Fraction

import pytest

from conftest import all_graphs_up_to, clique, cycle, path, random_graph, star
from motifcount import graphs, partitions
from motifcount.graphs import (
    ColoredGraph,
    Graph,
    canonical_form,
)
from motifcount.motif import MotifParameter, change_basis
from motifcount.oracle import brute_count
from motifcount.partitions import (
    PARTITION_BUDGET,
    SUPERGRAPH_GUARD,
    SUPERGRAPH_ORDER,
    CapacityError,
    coefficient_row,
    colored_spasm,
    independent_partitions,
    spasm,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877]


class TestEnumeration:
    def test_bell_numbers(self):
        for n in range(8):
            assert sum(1 for _ in independent_partitions(Graph(n))) == BELL[n]

    def test_blocks_partition_the_set(self):
        # sorted blocks in order of least vertex, partitions in the
        # lexicographic order of their restricted-growth strings
        expected = []
        for rgs in itertools.product(range(5), repeat=5):
            if all(rgs[v] <= max(rgs[:v], default=-1) + 1 for v in range(5)):
                blocks = [[] for _ in range(max(rgs) + 1)]
                for v, b in enumerate(rgs):
                    blocks[b].append(v)
                expected.append(blocks)
        assert list(independent_partitions(Graph(5))) == expected

    def test_capacity_guard(self):
        # the budget: exactly PARTITION_BUDGET partitions, then a refusal
        # (the edgeless 13-vertex graph has Bell(13) = 27,644,437)
        it = independent_partitions(Graph(13))
        assert sum(1 for _ in itertools.islice(it, PARTITION_BUDGET)) == PARTITION_BUDGET
        with pytest.raises(CapacityError, match=f"capped at {PARTITION_BUDGET} partitions"):
            next(it)

    def test_independent_partitions_guard_and_warning(self):
        with pytest.raises(CapacityError):
            next(independent_partitions(Graph(21)))
        # no warning: the partition budget bounds the enumeration
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = next(independent_partitions(Graph(15)))
        assert first == [list(range(15))]

    def test_spasm_capacity_guard_fails_fast(self):
        # an edgeless 21-vertex graph would take hours to canonicalise
        with pytest.raises(CapacityError):
            spasm(Graph(21))

    def test_refusal_builds_no_quotient(self, monkeypatch):
        # the 12-vertex path has Bell(11) independent partitions: every plain
        # reader of the tally counts them and refuses before canonicalising
        # any quotient, which P5's tally, within the budget, does
        built = []
        rows_form = partitions._rows_form
        monkeypatch.setattr(partitions, "_rows_form",
                            lambda *a: built.append(a) or rows_form(*a))
        p12 = path(11)
        calls = [lambda: spasm(p12), lambda: coefficient_row("Surj", p12),
                 lambda: coefficient_row("SurjInv", p12),
                 lambda: change_basis(MotifParameter("sub", {p12: 1}), "hom")]
        for call in calls:
            with pytest.raises(CapacityError, match=f"capped at {PARTITION_BUDGET} partitions"):
                call()
        assert built == []
        partitions._quotient_tally.cache_clear()
        assert len(spasm(path(4))) == 8
        assert built

    def test_a_refusal_is_remembered(self, monkeypatch):
        # a second call past the budget raises without enumerating again;
        # the refusal is kept for the budget it was met under
        placed = []
        members = partitions._members
        monkeypatch.setattr(partitions, "_members",
                            lambda row: placed.append(row) or members(row))
        monkeypatch.setattr(partitions, "PARTITION_BUDGET", 14)
        p5 = canonical_form(path(4))  # 15 independent partitions
        partitions._quotient_tally.cache_clear()
        with pytest.raises(CapacityError, match="capped at 14 partitions"):
            partitions._quotient_tally(p5)
        assert placed
        placed.clear()
        with pytest.raises(CapacityError, match="capped at 14 partitions"):
            partitions._quotient_tally(p5)
        assert placed == []
        monkeypatch.setattr(partitions, "PARTITION_BUDGET", 15)
        assert sum(count for _, count, _ in partitions._quotient_tally(p5)) == 15

    def test_one_pass_counts_before_canonicalising(self, monkeypatch):
        # the tally enumerates the partitions once, counting them as it
        # goes: within the budget it canonicalises each distinct labeled
        # quotient once, past it none (P5 has 15 independent partitions,
        # as the edgeless graph on 4 vertices has Bell(4))
        cases = []
        for h, limit in ((Graph(4), 15), (path(4), 15), (path(4), 14)):
            g = canonical_form(h).graph
            quotients = {graphs.quotient(g, rho) for rho in independent_partitions(g)}
            cases.append((h, limit, len(quotients) if limit == 15 else 0))
        assert [forms for _, _, forms in cases] == [4, 11, 0]
        monkeypatch.setattr(partitions, "independent_partitions", None)
        built = []
        rows_form = partitions._rows_form
        monkeypatch.setattr(partitions, "_rows_form",
                            lambda *a: built.append(a) or rows_form(*a))
        for h, limit, forms in cases:
            monkeypatch.setattr(partitions, "PARTITION_BUDGET", limit)
            partitions._quotient_tally.cache_clear()
            built.clear()
            if forms:
                tally = partitions._quotient_tally(canonical_form(h))
                assert sum(count for _, count, _ in tally) == 15
            else:
                with pytest.raises(CapacityError, match="capped at 14 partitions"):
                    partitions._quotient_tally(canonical_form(h))
            assert len(built) == len(set(built)) == forms, (h, limit)

    def test_independent_partitions_of_a_clique(self):
        # only the discrete partition has all blocks independent
        parts = list(independent_partitions(clique(3)))
        assert len(parts) == 1
        assert parts == [[[0], [1], [2]]]


class TestSpasm:
    def test_path4_size_eight(self):
        assert len(spasm(path(4))) == 8

    def test_two_matching_size(self):
        two_matching = Graph(4, [(0, 1), (2, 3)])
        assert len(spasm(two_matching)) == 3

    def test_members_are_homomorphic_images(self):
        h = path(3)
        for cf in spasm(h):
            assert brute_count("surj", h, cf.graph) > 0

    def test_colored_spasm_restricts_to_monochromatic(self):
        # two endpoints of a 2-edge path share a color, the middle differs
        h = ColoredGraph(path(2), (0, 1, 0))
        keys = {canonical_form(cg).key for cg in colored_spasm(h)}
        assert len(keys) == 2  # identity and endpoints merged
        colorful = ColoredGraph(path(2), (0, 1, 2))
        assert len(colored_spasm(colorful)) == 1


class TestOneTally:
    def test_one_color_is_the_plain_tally(self):
        # a ColoredGraph with every colour 0 has the plain tally's classes,
        # partition counts and weights
        rng = random.Random(41)
        graphs_ = [random_graph(rng, rng.randint(0, 7), rng.random()) for _ in range(40)]
        for g in graphs_ + [path(5), cycle(6), star(4), Graph(6)]:
            plain = partitions._quotient_tally(canonical_form(g))
            mono = partitions._quotient_tally(canonical_form(ColoredGraph(g, [0] * g.n)))
            assert [(f.graph, count, w) for f, count, w in plain] == [
                (f.graph.graph, count, w) for f, count, w in mono]
            assert all(f.key[0] == (0,) * f.graph.n and f.key[1] == p.key
                       for (p, _, _), (f, _, _) in zip(plain, mono))
            assert sum(count for _, count, _ in plain) == sum(
                1 for _ in independent_partitions(g))

    def test_plain_entry_points_refuse_colored_patterns(self):
        h = ColoredGraph(path(2), (0, 1, 0))
        for pattern in (h, canonical_form(h)):
            with pytest.raises(ValueError, match="plain pattern is a Graph"):
                MotifParameter("sub", {pattern: 1})
            with pytest.raises(ValueError, match="plain pattern is a Graph"):
                spasm(pattern)
            for kind in partitions.COEFFICIENT_KINDS:
                with pytest.raises(ValueError, match="plain pattern is a Graph"):
                    coefficient_row(kind, pattern)


class TestCoefficients:
    def test_surj_bottom_row(self):
        row = coefficient_row("Surj", path(3))
        assert row == {
            canonical_form(clique(2)): 2,
            canonical_form(path(2)): 4,
            canonical_form(clique(3)): 6,
            canonical_form(path(3)): 2,
        }

    def test_surj_matches_brute(self):
        rng = random.Random(11)
        for _ in range(20):
            h = random_graph(rng, rng.randint(1, 4))
            row = coefficient_row("Surj", h)
            for fc in spasm(h):
                assert row[fc] == brute_count("surj", h, fc.graph)

    def test_surjinv_figure_coefficients(self):
        expected = {
            path(4): Fraction(1, 2),
            path(3): Fraction(-1),
            Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]): Fraction(-1),  # paw
            cycle(4): Fraction(-1, 2),
            star(3): Fraction(-1, 2),
            clique(3): Fraction(3, 2),
            path(2): Fraction(5, 2),
            clique(2): Fraction(-1),
        }
        assert coefficient_row("SurjInv", path(4)) == {
            canonical_form(g): value for g, value in expected.items()
        }

    def test_extinv_same_size_supergraph(self):
        k3 = canonical_form(clique(3))
        # Ext counts subgraph copies on the same vertex count; the inverse
        # carries the sign (-1)^(edge difference)
        assert coefficient_row("Ext", path(2))[k3] == 3
        assert coefficient_row("ExtInv", path(2))[k3] == -3

    def test_ext_matches_definition(self):
        # Ext(H, F) = edge subsets of F forming a copy of H, found as the
        # images of E(H) under all vertex permutations
        classes = [canonical_form(g) for g in [Graph(0)] + all_graphs_up_to(5)]
        pairs = 0
        for hc in classes:
            h = hc.graph
            copies = {
                frozenset(tuple(sorted((s[u], s[v]))) for u, v in h.edges)
                for s in itertools.permutations(range(h.n))
            }
            ext_row = coefficient_row("Ext", hc)
            ext_inv_row = coefficient_row("ExtInv", hc)
            expected = {}
            for fc in classes:
                if fc.graph.n != h.n:
                    continue
                pairs += 1
                ext = sum(1 for c in copies if c <= fc.graph.edges)
                sign = (-1) ** (len(fc.graph.edges) - len(h.edges))
                assert ext_row.get(fc, 0) == ext
                assert ext_inv_row.get(fc, 0) == sign * ext
                if ext:
                    expected[fc] = ext
            assert ext_row == expected
        assert pairs == 1299

    def test_supergraph_guard_fails_fast(self, monkeypatch):
        # past SUPERGRAPH_ORDER vertices and SUPERGRAPH_GUARD non-edges the
        # walk is refused before any supergraph is canonicalised
        built = []
        rows_form = partitions._rows_form
        monkeypatch.setattr(partitions, "_rows_form",
                            lambda *a: built.append(a) or rows_form(*a))
        p9 = canonical_form(path(8))  # 28 non-edges
        with pytest.raises(CapacityError, match="capped at 8 vertices or 16 non-edges"):
            coefficient_row("Ext", p9)
        with pytest.raises(CapacityError):
            change_basis(MotifParameter("indsub", {p9: 1}), "hom")
        # K6 and a 4-edge path through three more vertices: one non-edge too many
        just_above = canonical_form(
            Graph(9, list(clique(6).edges) + [(5, 6), (6, 7), (7, 8), (0, 8)]))
        assert (just_above.graph.n, 36 - 19) == (SUPERGRAPH_ORDER + 1, SUPERGRAPH_GUARD + 1)
        with pytest.raises(CapacityError):
            coefficient_row("ExtInv", just_above)
        assert built == []
        # at most SUPERGRAPH_ORDER vertices, any number of non-edges: a 4-edge
        # path plus two isolated vertices has 17
        tally = partitions._supergraph_tallies(canonical_form(Graph(7, path(4).edges)))
        assert sum(tally.values()) == 2**17

    def test_iso_diagonal(self):
        k3 = canonical_form(clique(3))
        assert coefficient_row("Iso", k3) == {k3: 6}
        assert coefficient_row("IsoInv", k3) == {k3: Fraction(1, 6)}

    def test_each_class_graph_is_searched_once(self, monkeypatch):
        # the automorphism counts come with the canonical forms: from cold
        # caches, a row refines each distinct labeled graph it meets (the
        # pattern, and its labeled quotients, or the canonical graph of each
        # supergraph class below the complete one with one non-edge added)
        # and runs the symmetry search once per miss of the cache keyed by
        # refined relabelings, which those graphs mostly share
        search = inspect.unwrap(graphs._canonical_search)
        refined = graphs._refined
        runs = labeled = 0

        def counted_search(*args):
            nonlocal runs
            runs += 1
            return search(*args)

        def counted_refined(*args):
            nonlocal labeled
            labeled += 1
            return refined(*args)

        monkeypatch.setattr(graphs, "_canonical_search", counted_search)
        monkeypatch.setattr(graphs, "_refined", counted_refined)
        for kind, h, searches, relabelings in (
            ("Ext", path(4), 21, 55),  # P5's 18 supergraph classes
            ("Ext", cycle(5), 9, 19),  # C5's 8
            ("SurjInv", path(6), 36, 100),  # P7's 30 quotient classes
        ):
            for cache in (canonical_form, graphs._rows_form, graphs._searched_form,
                          partitions._quotient_tally, partitions._supergraph_tallies,
                          partitions._augmentations):
                cache.cache_clear()
            runs = labeled = 0
            coefficient_row(kind, h)
            assert runs == graphs._searched_form.cache_info().misses == searches, h
            assert labeled == relabelings, h
            assert canonical_form.cache_info().misses == 1, h


class TestSubToHom:
    def test_cliques_are_single_term(self):
        for k, aut in ((2, 2), (3, 6)):
            vec = coefficient_row("SurjInv", clique(k))
            assert vec == {canonical_form(clique(k)): Fraction(1, aut)}

    def test_returned_rows_are_copies(self):
        h = path(3)
        for kind in ("SurjInv", "Ext"):
            first = coefficient_row(kind, h)
            expected = dict(first)
            first[canonical_form(clique(2))] = Fraction(99)
            first.clear()
            assert coefficient_row(kind, h) == expected

    def test_support_is_spasm(self):
        h = path(3)
        vec = coefficient_row("SurjInv", h)
        assert set(vec) == set(spasm(h))
        assert all(c != 0 for c in vec.values())
