"""Seeded checks of two identities that hold for every pattern and host,
well past the brute-force oracle's reach:

- Hom(F + F', G) = Hom(F, G) * Hom(F', G) for the disjoint union F + F';
- for a connected F, each count of F in G + G' (hom, sub, emb, indsub) is
  its count in G plus its count in G': every image of a connected pattern
  lies inside one component of the host.
"""

import random

import pytest

from conftest import random_colored, random_graph
from motifcount import ColoredGraph, count_pattern
from motifcount.graphs import Graph, disjoint_union, is_connected


def colored_union(a: ColoredGraph, b: ColoredGraph) -> ColoredGraph:
    return ColoredGraph(disjoint_union(a.graph, b.graph), a.colors + b.colors)


def connected_pattern(rng: random.Random, n: int) -> Graph:
    while not is_connected(f := random_graph(rng, n, 0.5)):
        pass
    return f


@pytest.mark.parametrize("seed", range(8))
def test_hom_of_a_disjoint_union_is_the_product(seed):
    rng = random.Random(1000 + seed)
    f, f2 = (random_graph(rng, rng.randint(1, 4), 0.6) for _ in range(2))
    g = random_graph(rng, rng.randint(6, 12), rng.choice([0.3, 0.5, 0.7]))
    product = count_pattern("hom", f, g) * count_pattern("hom", f2, g)
    assert count_pattern("hom", disjoint_union(f, f2), g) == product


def test_colored_hom_of_a_disjoint_union_is_the_product():
    rng = random.Random(1100)
    for _ in range(4):
        f, f2 = (random_colored(rng, rng.randint(1, 4), 2, 0.6) for _ in range(2))
        g = random_colored(rng, rng.randint(6, 12), 2, 0.6)
        product = count_pattern("hom", f, g) * count_pattern("hom", f2, g)
        assert count_pattern("hom", colored_union(f, f2), g) == product


@pytest.mark.parametrize("seed", range(8))
def test_counts_of_a_connected_pattern_add_over_host_components(seed):
    rng = random.Random(1200 + seed)
    f = connected_pattern(rng, rng.randint(3, 5))
    g = random_graph(rng, rng.randint(3, 7), rng.choice([0.3, 0.5, 0.7]))
    g2 = random_graph(rng, rng.randint(3, 12 - g.n), rng.choice([0.3, 0.5, 0.7]))
    union = disjoint_union(g, g2)
    for kind in ("hom", "sub", "emb", "indsub"):
        parts = count_pattern(kind, f, g), count_pattern(kind, f, g2)
        assert count_pattern(kind, f, union) == sum(parts), (kind, f, g, g2)
