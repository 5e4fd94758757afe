"""Set partitions, spasms, and the change-of-basis coefficient families.

The four nontrivial families (Surj, SurjInv, Ext, ExtInv) mediate every
basis change between homomorphism, subgraph, and induced-subgraph counts.
Each family's row for a pattern is read off one cached tally of that
pattern (its quotients, or its same-size supergraphs); all coefficients are
exact rationals.  A colored pattern is tallied by the same code, over
monochromatic independent blocks: colored_spasm reads its classes, and the
colored counts its weights (colored embeddings as colored hom counts).  A
plain pattern is the one-color case, and the plain entry points refuse a
ColoredGraph.

The quotient tally enumerates the partitions into independent blocks once
and canonicalises each distinct labeled quotient; a pattern past
PARTITION_BUDGET partitions is refused, and the refusal is cached like a
tally.  The supergraph tally never lists the 2^m labeled supergraphs of a
pattern with m non-edges: it walks their isomorphism classes one added
edge per level, from one canonical copy per class, and each class's
one-edge additions are cached, so patterns that share supergraph classes
(C5's are all P5's) share that work.
"""

from __future__ import annotations

from functools import lru_cache
from fractions import Fraction
from typing import Iterator

from .graphs import (
    CACHE_SIZE,
    PRUNED_GUARD,
    CanonicalForm,
    CapacityError,
    ColoredGraph,
    Graph,
    _members,
    _rows,
    _rows_form,
    adjacency,
    canonical_form,
    graph_order_key,
)

# A spasm enumerates its partitions in one pass and canonicalises each
# distinct labeled quotient (most share a refined relabeling, so few are
# searched): the spasm of P11 (115,975 partitions, 27,634 labeled quotients)
# takes 1.5-2 s (2-vCPU VM), so the budget allows ~2 s.  The value is kept,
# not re-derived.  A pattern past it is refused once the pass has counted
# the budget's partitions, before any canonical form: P12 and the edgeless
# 13-vertex graph in 0.2-0.5 s.
PARTITION_BUDGET = 2**17
# Ext rows walk the supergraph classes of a pattern, so their cost follows
# the classes visited, at most the classes of n-vertex graphs: every
# pattern on SUPERGRAPH_ORDER vertices is admitted, the worst being the
# edgeless one, whose walk visits all 12,346 classes in 8-9 s (64 MiB peak
# RSS), and P8 (21 non-edges, 10,030 classes) takes 6 s.  Past 8 vertices
# the walk is bounded by the non-edges instead: seeded patterns on 9-12
# vertices took 0.9-6.7 s at 14-16 non-edges and 2.9-12.6 s (65-126 MiB)
# at 17 (one process each, 2-vCPU VM).  A pattern past both is refused
# before any canonical form.
SUPERGRAPH_ORDER = 8
SUPERGRAPH_GUARD = 16

COEFFICIENT_KINDS = ("Surj", "SurjInv", "Ext", "ExtInv", "Iso", "IsoInv")


def independent_partitions(h) -> Iterator[list]:
    """Partitions of V(h) whose blocks are independent sets (and, when h is
    a ColoredGraph, monochromatic), each as its list of sorted blocks in
    order of least vertex; the partitions come in lexicographic order of
    their restricted-growth strings.  Refuses to yield more than
    PARTITION_BUDGET of them."""
    if h.n > PRUNED_GUARD:
        raise CapacityError(f"pruned partition enumeration capped at n={PRUNED_GUARD}")
    g, colors = (h.graph, h.colors) if isinstance(h, ColoredGraph) else (h, (0,) * h.n)
    # a block takes v unless it holds a neighbour of v or a vertex of another color
    clash = [adj.union(u for u in range(h.n) if colors[u] != colors[v])
             for v, adj in enumerate(adjacency(g))]
    blocks: list = [[] for _ in range(h.n)]

    def rec(v: int, used: int):
        if v == h.n:
            yield [list(b) for b in blocks[:used]]
            return
        for b in range(used + 1):
            if b < used and not clash[v].isdisjoint(blocks[b]):
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


def _quotient_tally(hc: CanonicalForm) -> tuple:
    """h = hc.graph's quotients, one (F, count, w) per isomorphism class F
    in order of key: count the partitions rho of V(h) into independent (of a
    ColoredGraph, monochromatic) blocks with h/rho in F, each block keeping
    its color, and w the sum over them of prod_B (-1)^(|B|-1) (|B|-1)!.  So
    Surj(h, F) = Aut(F) count, SurjInv(h, F) = w / Aut(h), and
    Emb(h, G) = sum w Hom(F, G).  A class's quotients have one vertex
    count, so its weights share the sign (-1)^(|V(h)|-|V(F)|) and no w is
    zero.  Past PARTITION_BUDGET partitions a CapacityError is raised
    instead; the refusal is cached with the tallies, so a later call
    raises again without enumerating."""
    tally = _tally_or_refusal(hc, PARTITION_BUDGET)
    if isinstance(tally, str):
        raise CapacityError(tally)
    return tally


@lru_cache(maxsize=1024)
def _tally_or_refusal(hc: CanonicalForm, budget: int):
    """_quotient_tally's tuple, or past budget partitions the refusal's
    message, cached per budget: a pattern refused under one budget is
    tallied afresh under a larger one.

    One enumeration places vertices 0..n-1 in turn, each in a block that
    admits it or in a new one, keeping block rows and weights up to date,
    and tallies each leaf's labeled quotient (block rows, then colors).
    Each distinct one is canonicalised after the count, and none once the
    count passes the budget."""
    h = hc.graph
    colored = isinstance(h, ColoredGraph)
    rows = _rows(h.graph if colored else h)
    n, colors = h.n, h.colors if colored else (0,) * h.n
    # a block founded by v admits no neighbour of v and no vertex of another color
    founded = [row | sum(1 << u for u in range(n) if colors[u] != colors[v])
               for v, row in enumerate(rows)]
    # per block: its blocked vertices, member count, adjacency row and color
    block_of, blocked, size, adj, shade = [0] * n, [0] * n, [0] * n, [0] * n, [0] * n
    labeled: dict = {}  # labeled quotient -> (partitions, weight)
    found = 0

    def place(v: int, used: int, weight: int) -> bool:
        # v joins each block that admits it, then a new one; False as soon
        # as more than budget partitions are found
        nonlocal found
        if v == n:
            found += 1
            key = (*adj[:used], *shade[:used])
            count, w = labeled.get(key, (0, 0))
            labeled[key] = count + 1, w + weight
            return found <= budget
        near = 0  # the blocks of v's placed neighbours
        for u in _members(rows[v] & ((1 << v) - 1)):
            near |= 1 << block_of[u]
        for b in range(used + 1):
            before = blocked[b]
            if b == used:
                blocked[b], shade[b], grown = founded[v], colors[v], weight
            elif before >> v & 1:
                continue
            else:  # a block of k members grows to k + 1
                blocked[b], grown = before | rows[v], -size[b] * weight
            new = near & ~adj[b]  # the blocks that v first joins to b
            adj[b] |= new
            for a in _members(new):
                adj[a] |= 1 << b
            block_of[v] = b
            size[b] += 1
            if not place(v + 1, used + (b == used), grown):
                return False  # the state is dropped, not undone
            size[b] -= 1
            blocked[b] = before
            adj[b] ^= new
            for a in _members(new):
                adj[a] ^= 1 << b
        return True

    if not place(0, 0, 1):
        return f"pruned partition enumeration capped at {budget} partitions"
    classes: dict = {}
    for key, (count, w) in labeled.items():
        k = len(key) // 2
        fc = _rows_form(key[:k], key[k:] if colored else None)
        total, weight = classes.get(fc, (0, 0))
        classes[fc] = total + count, weight + w
    return tuple(sorted(((fc, count, w) for fc, (count, w) in classes.items()),
                        key=lambda t: t[0].key))


_quotient_tally.cache_clear = _tally_or_refusal.cache_clear


def spasm(h: Graph) -> list:
    """Canonical forms of all loop-free quotients of h, sorted by the global
    graph order; read off the cached quotient tally."""
    return sorted((f for f, _, _ in _quotient_tally(_canon(h))), key=graph_order_key)


def colored_spasm(h: ColoredGraph) -> list:
    """Colored variant: quotients over monochromatic independent blocks; each
    block inherits its color.  One canonical ColoredGraph per
    color-preserving isomorphism class, in order of canonical key."""
    return [f.graph for f, _, _ in _quotient_tally(canonical_form(h))]


# ---------------------------------------------------------------------------
# coefficient families


def _canon(x) -> CanonicalForm:
    """The canonical form of a plain pattern: a Graph, or its CanonicalForm."""
    g = x.graph if isinstance(x, CanonicalForm) else x
    if not isinstance(g, Graph):
        raise ValueError(f"a plain pattern is a Graph, not a {type(g).__name__}")
    return canonical_form(x) if g is x else x


@lru_cache(maxsize=CACHE_SIZE)
def _augmentations(fc: CanonicalForm) -> tuple:
    """(F, N) per class F of the graphs made by adding one non-edge of
    fc.graph: N counts the non-edges of fc.graph whose addition gives F.
    N is an isomorphism invariant of fc, so one copy per class serves."""
    rows = _rows(fc.graph)
    reached: dict = {}
    for v, row in enumerate(rows):
        for u in _members(~row & ((1 << v) - 1)):
            rs = list(rows)
            rs[u] |= 1 << v
            rs[v] |= 1 << u
            f = _rows_form(tuple(rs), None)
            reached[f] = reached.get(f, 0) + 1
    return tuple(reached.items())


@lru_cache(maxsize=1024)
def _supergraph_tallies(hc: CanonicalForm) -> dict:
    """Per class F of supergraphs of h on V(h): T(F), the number of edge
    supersets of E(h) on V(h) that are isomorphic to F.

    The classes are walked level by level, one added edge per level.  Each
    labeled supergraph with j added edges arises from j with j - 1, one per
    added edge it drops, so j T(F) = sum_F' T(F') N(F' -> F) over the
    classes F' of the level below, N(F' -> F) read off _augmentations(F').
    Every non-edge of a supergraph is a non-edge of h, so the walk stays
    among h's supergraphs."""
    h = hc.graph
    missing = h.n * (h.n - 1) // 2 - len(h.edges)
    if h.n > SUPERGRAPH_ORDER and missing > SUPERGRAPH_GUARD:
        raise CapacityError(
            f"supergraph enumeration capped at {SUPERGRAPH_ORDER} vertices or "
            f"{SUPERGRAPH_GUARD} non-edges, pattern has {h.n} and {missing}"
        )
    level = tallies = {hc: 1}
    for j in range(1, missing + 1):
        reached: dict = {}
        for fc, t in level.items():
            for f, count in _augmentations(fc):
                reached[f] = reached.get(f, 0) + t * count
        level = {f: s // j for f, s in reached.items()}
        tallies.update(level)
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
        return {f: Fraction(f.aut * count) for f, count, _ in _quotient_tally(hc)}
    if kind == "SurjInv":
        return {f: Fraction(w, hc.aut) for f, _, w in _quotient_tally(hc)}
    # Ext(H, F) = T(F) Aut(F) / Aut(H): both sides count the bijections
    # V(H) -> V(F) that map E(H) into E(F)
    sign = -1 if kind == "ExtInv" else 1
    return {
        f: Fraction(sign ** (len(f.graph.edges) - len(h.edges)) * t * f.aut, hc.aut)
        for f, t in _supergraph_tallies(hc).items()
    }
