"""The quotient and supergraph tallies against references built from their
definitions.

partitions._quotient_tally and partitions._supergraph_tallies work on
adjacency rows: one enumeration of the blocks tallies the labeled quotients,
and the supergraph classes are walked one added edge at a time, from one
canonical copy per class.  The references here take the long way, through
Graph objects: every independent partition's quotient (graphs.quotient) and
every edge superset, each canonicalised on its own.  The cases are seeded
patterns on up to 8 vertices, plain and colored, twin-rich ones among them,
and every graph on up to 6 vertices.
"""

import itertools
import math
import random

import pytest

from conftest import (all_graphs_up_to, cycle, path, random_colored, random_graph, star,
                      twin_rich)
from motifcount import partitions
from motifcount.graphs import CapacityError, ColoredGraph, Graph, canonical_form, quotient
from motifcount.partitions import independent_partitions


def reference_quotient_tally(h) -> tuple:
    """(F, count, w) per class F of quotients of h in order of key, from
    the partitions one by one: w sums prod_B (-1)^(|B|-1) (|B|-1)!."""
    classes = {}
    for rho in independent_partitions(h):
        if isinstance(h, ColoredGraph):
            f = ColoredGraph(quotient(h.graph, rho), [h.colors[b[0]] for b in rho])
        else:
            f = quotient(h, rho)
        weight = math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in rho)
        count, w = classes.get(canonical_form(f), (0, 0))
        classes[canonical_form(f)] = count + 1, w + weight
    return tuple(sorted(((f, count, w) for f, (count, w) in classes.items()),
                        key=lambda t: t[0].key))


def reference_supergraph_tally(h: Graph) -> dict:
    """{F: the number of edge supersets of E(h) on V(h) isomorphic to F}."""
    missing = [e for e in itertools.combinations(range(h.n), 2) if e not in h.edges]
    tally = {}
    for r in range(len(missing) + 1):
        for extra in itertools.combinations(missing, r):
            f = canonical_form(Graph(h.n, h.edges | set(extra)))
            tally[f] = tally.get(f, 0) + 1
    return tally


def patterns(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(10):
        n = rng.randint(0, 8)
        out.append(random_graph(rng, n, rng.choice((0.2, 0.5, 0.8))))
        out.append(twin_rich(rng, n, 1).graph)
        out.append(random_colored(rng, n, rng.randint(1, 3), rng.choice((0.2, 0.5))))
        out.append(twin_rich(rng, n, rng.randint(2, 3)))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_quotient_tally_matches_the_partitions(seed, monkeypatch):
    budget = partitions.PARTITION_BUDGET
    for h in patterns(200 + seed):
        hc = canonical_form(h)
        want = reference_quotient_tally(hc.graph)
        total = sum(count for _, count, _ in want)
        monkeypatch.setattr(partitions, "PARTITION_BUDGET", total - 1)
        partitions._quotient_tally.cache_clear()
        with pytest.raises(CapacityError):
            partitions._quotient_tally(hc)
        # the budget last, so that the next reference enumerates unhindered
        for limit in (total, total + 1, budget):
            monkeypatch.setattr(partitions, "PARTITION_BUDGET", limit)
            partitions._quotient_tally.cache_clear()
            assert partitions._quotient_tally(hc) == want, (h, limit)


def test_named_quotient_tallies():
    colored = [ColoredGraph(cycle(6), [0, 1, 0, 1, 0, 1]),
               ColoredGraph(star(4), [0, 1, 1, 1, 1]),
               ColoredGraph(path(5), [0, 0, 1, 1, 0, 0])]
    for h in [path(6), cycle(7), star(5), Graph(6), Graph(8, path(3).edges)] + colored:
        hc = canonical_form(h)
        assert partitions._quotient_tally(hc) == reference_quotient_tally(hc.graph), h


@pytest.mark.parametrize("seed", range(3))
def test_supergraph_tally_matches_the_supersets(seed):
    rng = random.Random(300 + seed)
    cases = [h for h in patterns(300 + seed) if isinstance(h, Graph)]
    cases += [twin_rich(rng, 7, 1).graph, cycle(5), path(4)]
    checked = 0
    for h in cases:
        hc = canonical_form(h)
        if h.n * (h.n - 1) // 2 - len(h.edges) > 10:
            continue
        partitions._supergraph_tallies.cache_clear()
        assert partitions._supergraph_tallies(hc) == reference_supergraph_tally(hc.graph), h
        checked += 1
    assert checked >= 10


def test_supergraph_walk_on_every_small_graph():
    # every class on up to 6 vertices, then seeded 7-vertex ones; the
    # per-class steps of the walk stay cached from one pattern to the next,
    # across vertex counts
    rng = random.Random(310)
    sevens = [g for g in (random_graph(rng, 7, 0.7) for _ in range(40))
              if 21 - len(g.edges) <= 10][:8]
    assert len(sevens) == 8
    for h in [Graph(0)] + all_graphs_up_to(6) + sevens:
        hc = canonical_form(h)
        partitions._supergraph_tallies.cache_clear()
        tally = partitions._supergraph_tallies(hc)
        assert sum(tally.values()) == 2 ** (h.n * (h.n - 1) // 2 - len(h.edges)), h
        assert tally == reference_supergraph_tally(hc.graph), h
