import random

import pytest

from conftest import clique, cycle, path, random_graph
from motifcount.decomp import (
    DecompositionError,
    TreeDecomposition,
    exact_treewidth,
    massage_connected,
    max_spasm_treewidth,
    normalize_width2,
    support_treewidth,
    to_nice,
)
from motifcount.graphs import Graph, adjacency, is_connected
from motifcount.partitions import CapacityError


class TestExactTreewidth:
    def test_known_widths(self):
        assert exact_treewidth(clique(3))[0] == 2
        assert exact_treewidth(clique(4))[0] == 3
        assert exact_treewidth(path(4))[0] == 1
        assert exact_treewidth(cycle(5))[0] == 2
        assert exact_treewidth(Graph(3))[0] == 0

    def test_decomposition_validates(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8))
            w, d = exact_treewidth(g)
            d.validate(g)
            assert d.width() == w

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            exact_treewidth(Graph(25))

    def test_spasm_treewidth(self):
        assert max_spasm_treewidth(path(4)) == 2
        assert max_spasm_treewidth(path(6)) == 2

    def test_support_treewidth(self):
        assert support_treewidth([]) == -1
        assert support_treewidth([Graph(1), path(3), cycle(4)]) == 2
        assert support_treewidth(iter([clique(4), path(2)])) == 3


class TestValidation:
    def test_rejects_missing_edge(self):
        g = clique(2)
        d = TreeDecomposition([None, 0], [frozenset({0}), frozenset({1})], 0)
        with pytest.raises(DecompositionError):
            d.validate(g)

    def test_rejects_broken_trace(self):
        g = Graph(3, [(0, 1), (1, 2)])
        d = TreeDecomposition(
            [None, 0, 1],
            [frozenset({0, 1}), frozenset({1, 2}), frozenset({0})],
            0,
        )
        with pytest.raises(DecompositionError):
            d.validate(g)


class TestNiceForm:
    def test_structure_and_width(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 8))
            w, d = exact_treewidth(g)
            nice = to_nice(d, g)
            nice.validate(g)
            assert nice.width() == max(w, 0) or g.n == 0
            assert nice.bags[nice.root] == frozenset()
            for t in range(nice.node_count()):
                kind = nice.kinds[t]
                assert kind[0] in ("leaf", "intro", "forget", "join")
                if kind[0] == "join":
                    assert len(nice.children[t]) == 2
                    for c in nice.children[t]:
                        assert nice.bags[c] == nice.bags[t]


def connected_width2_graphs(rng, count):
    out = []
    while len(out) < count:
        g = random_graph(rng, rng.randint(3, 8), 0.35)
        if is_connected(g) and exact_treewidth(g)[0] <= 2:
            out.append(g)
    return out


class TestWidth2Normalization:
    def check_normal_form(self, d, g):
        w2, perm = normalize_width2(d, g)
        assert sorted(perm) == list(range(g.n))
        inverse = [0] * g.n
        for new, old in enumerate(perm):
            inverse[old] = new
        gg = g.relabel(inverse)
        w2.validate(gg)
        assert len(w2.bags[w2.root]) == 2
        assert len(w2.children[w2.root]) == 1
        for t in range(w2.node_count()):
            if t != w2.root:
                assert len(w2.bags[t]) == 3
                assert w2.sigma(t) == frozenset(sorted(w2.bags[t])[:2])

    def test_shape_invariants(self):
        for g in connected_width2_graphs(random.Random(21), 20):
            self.check_normal_form(exact_treewidth(g)[1], g)

    def test_nice_and_massaged_inputs(self):
        for g in connected_width2_graphs(random.Random(22), 20):
            d = exact_treewidth(g)[1]
            self.check_normal_form(to_nice(d, g), g)
            self.check_normal_form(massage_connected(d, g)[0], g)

    def test_trees(self):
        rng = random.Random(23)
        for n in range(3, 10):
            g = Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])
            w, d = exact_treewidth(g)
            assert w == 1
            self.check_normal_form(d, g)

    def test_width_three_rejected(self):
        g = clique(4)
        with pytest.raises(DecompositionError, match="width exceeds 2"):
            normalize_width2(exact_treewidth(g)[1], g)

    @pytest.mark.parametrize(
        "g", [Graph(4, [(0, 1), (2, 3)]), path(1), Graph(1)], ids=["disconnected", "K2", "K1"]
    )
    def test_disconnected_or_small_rejected(self, g):
        with pytest.raises(DecompositionError, match="connected graph on >= 3"):
            normalize_width2(exact_treewidth(g)[1], g)


class TestMassage:
    def test_components_connected_and_tight(self):
        rng = random.Random(33)
        done = 0
        while done < 20:
            g = random_graph(rng, rng.randint(2, 8), 0.4)
            if not is_connected(g):
                continue
            w, d = exact_treewidth(g)
            m, fmap = massage_connected(d, g)
            m.validate(g)
            adj = adjacency(g)
            for t in range(m.node_count()):
                alpha = m.alpha(t)
                if alpha:
                    seen = set()
                    start = next(iter(alpha))
                    stack = [start]
                    seen.add(start)
                    while stack:
                        u = stack.pop()
                        for v in adj[u]:
                            if v in alpha and v not in seen:
                                seen.add(v)
                                stack.append(v)
                    assert seen == alpha  # P4: component subtrees connected
                neigh = set()
                for v in alpha:
                    neigh |= adj[v]
                assert m.sigma(t) == frozenset(neigh - alpha)  # P5 tight
                assert m.bags[t] <= m.bags[fmap[t]] | m.sigma(t) or True
            done += 1

    def test_bags_shrink_within_source(self):
        g = cycle(5)
        _, d = exact_treewidth(g)
        m, fmap = massage_connected(d, g)
        for t in range(m.node_count()):
            assert m.bags[t] <= d.bags[fmap[t]]
