import itertools
import random

import pytest

from conftest import clique, cycle, path, prism, random_graph
from motifcount.decomp import (
    DecompositionError,
    TreeDecomposition,
    _degeneracy,
    _reduction,
    elimination_plan,
    exact_treewidth,
    massage_connected,
    support_treewidth,
)
from motifcount.graphs import Graph, adjacency, disjoint_union, is_connected
from motifcount.partitions import CapacityError, spasm


def partial_k_tree(rng: random.Random, n: int, k: int) -> Graph:
    """A random subgraph of a random k-tree on n >= k + 1 vertices, randomly
    labelled: treewidth <= k."""
    edges = set(itertools.combinations(range(k + 1), 2))
    cliques = list(itertools.combinations(range(k + 1), k))
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        edges |= {(u, v) for u in base}
        cliques += [base[:i] + base[i + 1:] + (v,) for i in range(k)]
    label = rng.sample(range(n), n)
    return Graph(n, [(label[u], label[v]) for u, v in edges if rng.random() < 0.8])


def fill_width(g: Graph, order) -> int:
    """Largest number of later neighbours at elimination along `order`, each
    elimination making the eliminated vertex's neighbours a clique."""
    adj = [set(a) for a in adjacency(g)]
    width = -1
    for v in order:
        nb = adj[v]
        width = max(width, len(nb))
        for u in nb:
            adj[u] |= nb
            adj[u] -= {u, v}
    return width


def planner_cases(rng: random.Random, n_max: int) -> list:
    """Random, disconnected, edgeless and complete graphs and random partial
    2- and 3-trees on at most n_max vertices."""
    cases = [Graph(n) for n in range(n_max + 1)] + [clique(n) for n in range(1, n_max + 1)]
    for _ in range(12):
        cases.append(random_graph(rng, rng.randint(1, n_max), rng.choice([0.2, 0.4, 0.6])))
        n = rng.randint(1, n_max - 1)
        cases.append(disjoint_union(random_graph(rng, n), random_graph(rng, rng.randint(1, n_max - n))))
        cases.append(partial_k_tree(rng, rng.randint(3, n_max), 2))
        cases.append(partial_k_tree(rng, rng.randint(4, n_max), 3))
    return cases


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
        # 20 and 22 vertices that no reduction rule removes: one kernel
        # component past TREEWIDTH_GUARD
        for k in (10, 11):
            with pytest.raises(CapacityError):
                exact_treewidth(prism(k))

    def test_empty_graph(self):
        w, d = exact_treewidth(Graph(0))
        assert w == -1
        assert d.node_count() == 1 and d.bags[d.root] == frozenset()

    def test_spasm_treewidth(self):
        for h in (path(4), path(6)):
            assert support_treewidth(cf.graph for cf in spasm(h)) == 2

    def test_support_treewidth(self):
        assert support_treewidth([]) == -1
        assert support_treewidth([Graph(1), path(3), cycle(4)]) == 2
        assert support_treewidth(iter([clique(4), path(2)])) == 3


class TestPlanner:
    def test_width_is_the_least_fill_in_width(self):
        for g in planner_cases(random.Random(41), 7):
            least = min(fill_width(g, order) for order in itertools.permutations(range(g.n)))
            assert elimination_plan(g)[0] == least, g

    def test_order_realises_the_width(self):
        for g in planner_cases(random.Random(42), 12):
            width, order = elimination_plan(g)[:2]
            assert sorted(order) == list(range(g.n))
            assert fill_width(g, order) == width, g

    def test_plan_carries_the_fill_in_scopes(self):
        for g in planner_cases(random.Random(44), 10):
            _, order, later, parent = elimination_plan(g)
            adj = [set(a) for a in adjacency(g)]
            for v in order:
                assert later[v] == tuple(sorted(adj[v])), g
                assert parent[v] == next((u for u in order if u in adj[v]), None), g
                for u in adj[v]:
                    adj[u] |= adj[v]
                    adj[u] -= {u, v}

    def test_rules_clear_a_large_partial_2_tree(self):
        # far past TREEWIDTH_GUARD: only the reduction rules can plan it
        g = partial_k_tree(random.Random(43), 200, 2)
        width, order = elimination_plan(g)[:2]
        assert width <= 2
        assert fill_width(g, order) == width

    def test_almost_simplicial_rule_waits_for_the_lower_bound(self):
        # K4 on 0-3, each matched to a vertex of the 4-cycle 4-7: the K4
        # vertices are almost simplicial of degree 4, the cycle vertices
        # have independent neighbourhoods of size 3
        g = Graph(8, list(itertools.combinations(range(4), 2))
                  + [(4, 5), (5, 6), (6, 7), (4, 7)] + [(i, i + 4) for i in range(4)])
        adj = [set(a) for a in adjacency(g)]
        assert _degeneracy(adj) == 3
        assert _reduction(adj, set(range(8)), 3) is None
        assert _reduction(adj, set(range(8)), 4) == (0, 4)

    def test_edge_cases(self):
        assert elimination_plan(Graph(0)) == (-1, (), (), ())
        assert elimination_plan(Graph(4))[0] == 0


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
                assert m.bags[t] <= d.bags[fmap[t]]  # bags shrink within their source
            done += 1

    def test_bags_shrink_within_source(self):
        g = cycle(5)
        _, d = exact_treewidth(g)
        m, fmap = massage_connected(d, g)
        for t in range(m.node_count()):
            assert m.bags[t] <= d.bags[fmap[t]]
