import random
from fractions import Fraction

import pytest

from conftest import clique, path, random_graph
from motifcount.extract import extract_hom_via_oracle, hom_closure
from motifcount.graphs import canonical_form, graph_order_key, tensor_product
from motifcount.homcount import count_hom_dp
from motifcount.motif import MotifParameter, evaluate
from motifcount.partitions import spasm


class TestHomClosure:
    def test_closed_under_spasm(self):
        closed = hom_closure([path(4)])
        keys = {cf.key for cf in closed}
        for cf in closed:
            for fc in spasm(cf.graph):
                assert fc.key in keys

    def test_sorted_by_global_order(self):
        closed = hom_closure([path(4), clique(3)])
        keys = [graph_order_key(cf) for cf in closed]
        assert keys == sorted(keys)


class TestExtraction:
    def _oracle_for(self, alpha):
        def oracle(gprime):
            return evaluate(alpha, gprime)

        calls = []

        def counting(gprime):
            calls.append(gprime)
            return oracle(gprime)

        return counting, calls

    def test_figure_fixture(self):
        # alpha = the Sub-to-Hom expansion of the 4-edge path
        from motifcount.partitions import coefficient_row

        alpha = MotifParameter("hom", coefficient_row("SurjInv", path(4)))
        oracle, calls = self._oracle_for(alpha)
        value = extract_hom_via_oracle(alpha, clique(3), clique(4), oracle)
        assert value == count_hom_dp(clique(3), clique(4)) == 24
        # exactly |S| oracle calls, every query a product with g
        assert len(calls) == len(hom_closure(alpha.support()))

    def test_random_recovery(self):
        rng = random.Random(61)
        pool = [clique(2), path(2), path(3), clique(3)]
        for _ in range(12):
            support = rng.sample(pool, rng.randint(1, 3))
            alpha = MotifParameter(
                "hom",
                {
                    g: Fraction(rng.choice([-2, -1, 1, 2, 3]))
                    for g in support
                },
            )
            g = random_graph(rng, rng.randint(1, 6))
            oracle, _ = self._oracle_for(alpha)
            for cf in alpha.support():
                got = extract_hom_via_oracle(alpha, cf, g, oracle)
                assert got == count_hom_dp(cf.graph, g)

    def test_rejects_unsupported_target(self):
        alpha = MotifParameter("hom", {clique(2): 1})
        with pytest.raises(ValueError):
            extract_hom_via_oracle(alpha, clique(3), clique(3), lambda g: 0)

    def test_rejects_wrong_basis(self):
        alpha = MotifParameter("sub", {clique(2): 1})
        with pytest.raises(ValueError):
            extract_hom_via_oracle(alpha, clique(2), clique(3), lambda g: 0)
