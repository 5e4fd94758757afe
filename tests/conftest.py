"""Shared helpers for the test suite."""

import itertools
import random

from motifcount.graphs import ColoredGraph, Graph, canonical_form


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_colored(rng: random.Random, n: int, ncolors: int, p: float = 0.5) -> ColoredGraph:
    return ColoredGraph(
        random_graph(rng, n, p), [rng.randrange(ncolors) for _ in range(n)]
    )


def path(k: int) -> Graph:
    """Path with k edges (k+1 vertices)."""
    return Graph(k + 1, [(i, i + 1) for i in range(k)])


def cycle(k: int) -> Graph:
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def clique(k: int) -> Graph:
    return Graph(k, list(itertools.combinations(range(k), 2)))


def matching(m: int) -> Graph:
    """m disjoint edges."""
    return Graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def all_graphs_up_to(n_max: int):
    """One labeled representative per isomorphism class, for every vertex
    count 1..n_max."""
    classes = {}
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            cf = canonical_form(g)
            classes.setdefault(cf.key, cf.graph)
    return list(classes.values())
