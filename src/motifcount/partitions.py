"""Set partitions, spasms, and the change-of-basis coefficient families.

The four nontrivial families (Surj, SurjInv, Ext, ExtInv) mediate every
basis change between homomorphism, subgraph, and induced-subgraph counts.
Each family's row for a pattern is read off one cached tally of that
pattern (its quotients, or its same-size supergraphs); all coefficients are
exact rationals.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from fractions import Fraction
from typing import Iterator, Optional

from .graphs import (
    PRUNED_GUARD,
    CanonicalForm,
    CapacityError,
    ColoredGraph,
    Graph,
    adjacency,
    canonical_form,
    colored_canonical_key,
    graph_order_key,
    quotient,
)

# Spasms canonicalise one quotient per partition, at ~0.3 ms each: the budget
# allows ~40 s, and the spasm of P11 (115,975 partitions) takes 37 s (2-vCPU VM).
PARTITION_BUDGET = 2**17
# Ext rows canonicalise all 2^m supergraphs of a pattern with m non-edges,
# at ~0.5 ms and ~7 KiB of canonical-form cache each: 15-30 s and 0.2-0.4 GiB
# at m = 15-16 (P7 has 15), but ~100 s and ~0.9 GiB at 17 and ~20 min at 21.
SUPERGRAPH_GUARD = 16

COEFFICIENT_KINDS = ("Surj", "SurjInv", "Ext", "ExtInv", "Iso", "IsoInv")


def independent_partitions(h: Graph, colors: Optional[tuple] = None) -> Iterator[list]:
    """Partitions of V(h) whose blocks are independent sets (and, when a
    coloring is given, monochromatic), each as its list of sorted blocks in
    order of least vertex; the partitions come in lexicographic order of
    their restricted-growth strings.  Refuses to yield more than
    PARTITION_BUDGET of them."""
    if h.n > PRUNED_GUARD:
        raise CapacityError(f"pruned partition enumeration capped at n={PRUNED_GUARD}")
    adj = adjacency(h)
    blocks: list = [[] for _ in range(h.n)]

    def rec(v: int, used: int):
        if v == h.n:
            yield [list(b) for b in blocks[:used]]
            return
        for b in range(used + 1):
            if b < used and (not adj[v].isdisjoint(blocks[b]) or (
                    colors is not None and colors[blocks[b][0]] != colors[v])):
                continue
            blocks[b].append(v)
            yield from rec(v + 1, used + (b == used))
            blocks[b].pop()

    for count, rho in enumerate(rec(0, 0)):
        if count == PARTITION_BUDGET:
            raise CapacityError(
                f"pruned partition enumeration capped at {PARTITION_BUDGET} partitions"
            )
        yield rho


def spasm(h: Graph) -> list:
    """Canonical forms of all loop-free quotients of h, sorted by the global
    graph order; read off the cached quotient tallies."""
    counts, _ = _quotient_tallies(_canon(h))
    return sorted(counts, key=graph_order_key)


def colored_spasm(h: ColoredGraph) -> list:
    """Colored variant: quotients over monochromatic independent blocks; each
    block inherits its color.  Deduplicated by color-preserving isomorphism."""
    seen = {}
    for rho in independent_partitions(h.graph, h.colors):
        cg = ColoredGraph(quotient(h.graph, rho), [h.colors[b[0]] for b in rho])
        seen[colored_canonical_key(cg)] = cg
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# coefficient families


def _canon(x) -> CanonicalForm:
    return x if isinstance(x, CanonicalForm) else canonical_form(x)


@lru_cache(maxsize=1024)
def _quotient_tallies(hc: CanonicalForm):
    """Per canonical quotient F of h: (number of partitions with H/rho = F,
    sum over those partitions of prod (|B|-1)!)."""
    counts: dict = {}
    weights: dict = {}
    for rho in independent_partitions(hc.graph):
        f = canonical_form(quotient(hc.graph, rho))
        counts[f] = counts.get(f, 0) + 1
        w = 1
        for b in rho:
            w *= math.factorial(len(b) - 1)
        weights[f] = weights.get(f, 0) + w
    return counts, weights


@lru_cache(maxsize=1024)
def _supergraph_tallies(hc: CanonicalForm) -> dict:
    """Per class F of supergraphs of h on V(h): T(F), the number of edge
    supersets of E(h) on V(h) that are isomorphic to F."""
    h = hc.graph
    missing = [e for e in itertools.combinations(range(h.n), 2) if e not in h.edges]
    if len(missing) > SUPERGRAPH_GUARD:
        raise CapacityError(
            f"supergraph enumeration capped at {SUPERGRAPH_GUARD} non-edges, "
            f"pattern has {len(missing)}"
        )
    tallies: dict = {}
    for r in range(len(missing) + 1):
        for extra in itertools.combinations(missing, r):
            f = canonical_form(Graph(h.n, h.edges.union(extra)))
            tallies[f] = tallies.get(f, 0) + 1
    return tallies


def coefficient_row(kind: str, h) -> dict:
    """Row h of the named change-of-basis matrix: {F: entry} over the
    classes F whose entry is nonzero, as a new dict on every call."""
    if kind not in COEFFICIENT_KINDS:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    hc = _canon(h)
    h = hc.graph
    if kind == "Iso":
        return {hc: Fraction(hc.aut)}
    if kind == "IsoInv":
        return {hc: Fraction(1, hc.aut)}
    if kind == "Surj":
        counts, _ = _quotient_tallies(hc)
        return {f: Fraction(f.aut * c) for f, c in counts.items()}
    if kind == "SurjInv":
        _, weights = _quotient_tallies(hc)
        return {
            f: Fraction((-1) ** (h.n - f.graph.n) * w, hc.aut)
            for f, w in weights.items()
        }
    # Ext(H, F) = T(F) Aut(F) / Aut(H): both sides count the bijections
    # V(H) -> V(F) that map E(H) into E(F)
    sign = -1 if kind == "ExtInv" else 1
    return {
        f: Fraction(sign ** (len(f.graph.edges) - len(h.edges)) * t * f.aut, hc.aut)
        for f, t in _supergraph_tallies(hc).items()
    }
