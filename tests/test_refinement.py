"""Canonical forms through the color-refined relabeling, differentially.

canonical_form searches g's refined relabeling, as adjacency rows and
colors, once per miss of a cache keyed by it.  The relabeling is
isomorphic to g, so the form must equal the search on g's own labelling,
under every relabeling of g.  The cases
include graphs where refinement stops short of discrete, so that the
relabeling still depends on the input's labels: pairs of regular graphs
that refinement cannot tell apart, and twin-rich graphs.
"""

import itertools
import random

import pytest

from conftest import (clique, cycle, matching, path, prism, random_colored, random_graph,
                      relabel, twin_rich)
from motifcount import graphs
from motifcount.graphs import ColoredGraph, Graph, canonical_form, disjoint_union


def k33() -> Graph:
    return Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def wagner() -> Graph:
    """The Moebius ladder on 8 vertices: cubic, like the 3-cube."""
    return Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])


def cube() -> Graph:
    return Graph(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3) if u < u ^ 1 << b])


def two_c3() -> Graph:
    return disjoint_union(clique(3), clique(3))


# non-isomorphic graphs on which refinement stops at one color class (per
# input color): each pair shares its degree sequence and color pattern
UNREFINED_PAIRS = {
    "C6 vs 2C3": (cycle(6), two_c3()),
    "K33 vs prism": (k33(), prism(3)),
    "C8 vs 2C4": (cycle(8), disjoint_union(cycle(4), cycle(4))),
    "C8 vs C5+C3": (cycle(8), disjoint_union(cycle(5), clique(3))),
    "cube vs Wagner": (cube(), wagner()),
    "C7 vs C4+C3": (cycle(7), disjoint_union(cycle(4), clique(3))),
    "M2+C6 vs M2+2C3": (disjoint_union(matching(1), cycle(6)),
                        disjoint_union(matching(1), two_c3())),
    "colored C6 vs 2C3": (ColoredGraph(cycle(6), [0, 0, 1, 0, 0, 1]),
                          ColoredGraph(two_c3(), [0, 0, 1, 0, 0, 1])),
    "colored K33 vs prism": (ColoredGraph(k33(), [0, 1, 2, 0, 1, 2]),
                             ColoredGraph(prism(3), [0, 1, 2, 0, 1, 2])),
}


def rows(g) -> tuple:
    """(adjacency rows, colors) of g, the colors None when g is plain: the
    labelled graph as refinement and the search take it."""
    if isinstance(g, ColoredGraph):
        return graphs._rows(g.graph), g.colors
    return graphs._rows(g), None


def searched(g):
    """(key, aut) of the search on g's own labelling, past every cache."""
    cf = graphs._searched_form.__wrapped__(*rows(g))
    return cf.key, cf.aut


def random_cases(seed: int) -> list:
    rng = random.Random(seed)
    cases = []
    for _ in range(12):
        n = rng.randint(0, 8)
        cases.append(random_graph(rng, n, rng.choice((0.3, 0.5, 0.7))))
        cases.append(random_colored(rng, n, rng.randint(1, 3)))
        cases.append(twin_rich(rng, n, 1).graph)
        cases.append(twin_rich(rng, n, rng.randint(2, 3)))
    return cases


def check_label_independent(g, rng: random.Random, relabelings: int = 6):
    want = searched(g)
    cf = canonical_form(g)
    assert (cf.key, cf.aut) == want, g
    assert searched(cf.graph) == want, g
    for _ in range(relabelings):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        cf = canonical_form(h)
        assert (cf.key, cf.aut) == want, (g, perm)
        assert searched(h) == want, (g, perm)


@pytest.mark.parametrize("pair", UNREFINED_PAIRS.values(), ids=UNREFINED_PAIRS.keys())
def test_unrefined_pairs(pair):
    rng = random.Random(17)
    for g in pair:
        # refinement splits no class beyond degree and input color, so the
        # relabeling only sorts by them
        base, colors = (g.graph, g.colors) if isinstance(g, ColoredGraph) else (g, [0] * g.n)
        degree = [sum(v in e for e in base.edges) for v in range(g.n)]
        order = sorted(range(g.n), key=lambda v: (colors[v], degree[v]))
        at = [0] * g.n
        for i, v in enumerate(order):
            at[v] = i
        assert graphs._refined(*rows(g)) == rows(relabel(g, at))
        check_label_independent(g, rng, relabelings=12)
    a, b = pair
    assert canonical_form(a).key != canonical_form(b).key


@pytest.mark.parametrize("seed", range(4))
def test_random_and_twin_rich(seed):
    rng = random.Random(100 + seed)
    for g in random_cases(seed):
        check_label_independent(g, rng)


def test_discrete_refinement_collapses_relabelings():
    # a spider with legs of 1, 2 and 3 edges has no automorphism, and
    # refinement tells all its vertices apart: every relabeling refines to
    # one graph, one cache entry.  P7's mirrored pairs stay tied, broken by
    # index: its relabelings refine to at most 4 graphs (2 ways to join the
    # end pair to the next pair, 2 to join that to the third)
    spider = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    rng = random.Random(2)
    for g, most in ((spider, 1), (path(6), 4)):
        refined = set()
        for _ in range(30):
            perm = list(range(g.n))
            rng.shuffle(perm)
            refined.add(graphs._refined(*rows(relabel(g, perm))))
        assert 1 <= len(refined) <= most


def networkx_graph(nx, g):
    base, colors = (g.graph, g.colors) if isinstance(g, ColoredGraph) else (g, [0] * g.n)
    out = nx.Graph()
    out.add_nodes_from((v, {"color": c}) for v, c in enumerate(colors))
    out.add_edges_from(base.edges)
    return out


def test_key_equality_is_isomorphism():
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    pairs = list(UNREFINED_PAIRS.values())
    for g in random_cases(7):
        perm = list(range(g.n))
        rng.shuffle(perm)
        pairs.append((g, relabel(g, perm)))
    # unrelated graphs of one order and size, so that some pairs are
    # isomorphic without being built so
    for n, m, colored in itertools.product(range(4, 7), (3, 4), (False, True)):
        edges = list(itertools.combinations(range(n), 2))
        made = []
        for _ in range(6):
            g = Graph(n, rng.sample(edges, m))
            made.append(ColoredGraph(g, [rng.randrange(2) for _ in range(n)]) if colored else g)
        pairs += list(itertools.combinations(made, 2))
    same = 0
    for a, b in pairs:
        iso = nx.is_isomorphic(networkx_graph(nx, a), networkx_graph(nx, b),
                               node_match=lambda x, y: x["color"] == y["color"])
        assert (canonical_form(a).key == canonical_form(b).key) == iso, (a, b)
        same += iso
    assert 0 < same < len(pairs)
