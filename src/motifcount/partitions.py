"""Set partitions, spasms, and the change-of-basis coefficient families.

The four nontrivial families (Surj, SurjInv, Ext, ExtInv) mediate every
basis change between homomorphism, subgraph, and induced-subgraph counts.
All coefficients are exact rationals and are cached under canonical keys.
"""

from __future__ import annotations

import itertools
import math
import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .graphs import (
    CanonicalForm,
    ColoredGraph,
    Graph,
    adjacency,
    automorphism_count,
    canonical_form,
    colored_canonical_key,
    graph_order_key,
    quotient,
)

PARTITION_GUARD = 14
PRUNED_GUARD = 20

COEFFICIENT_KINDS = ("Surj", "SurjInv", "Ext", "ExtInv", "Iso", "IsoInv")


class CapacityError(RuntimeError):
    pass


@dataclass(frozen=True)
class SetPartition:
    """A partition of {0..n-1}, canonically encoded as a restricted-growth
    string: block indices appear in order of first occurrence."""

    n: int
    assignment: tuple

    def __init__(self, n: int, assignment):
        assignment = tuple(assignment)
        if len(assignment) != n:
            raise ValueError("assignment length must equal n")
        seen = 0
        for a in assignment:
            if a > seen:
                raise ValueError("not a restricted-growth string")
            if a == seen:
                seen += 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "assignment", assignment)

    @staticmethod
    def from_blocks(n: int, blocks) -> "SetPartition":
        block_of = {}
        for i, b in enumerate(blocks):
            for v in b:
                block_of[v] = i
        order = []
        relabel = {}
        assignment = []
        for v in range(n):
            b = block_of[v]
            if b not in relabel:
                relabel[b] = len(order)
                order.append(b)
            assignment.append(relabel[b])
        return SetPartition(n, assignment)

    @property
    def blocks(self) -> list:
        nblocks = max(self.assignment, default=-1) + 1
        out = [[] for _ in range(nblocks)]
        for v, b in enumerate(self.assignment):
            out[b].append(v)
        return out

    def block_count(self) -> int:
        return max(self.assignment, default=-1) + 1


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """All partitions of {0..n-1} in restricted-growth lexicographic order."""
    if n > PARTITION_GUARD:
        raise CapacityError(
            f"unpruned partition enumeration capped at n={PARTITION_GUARD}; "
            "use the independent-blocks (spasm) filter for larger patterns"
        )
    yield from _rgs_stream(n, lambda v, b: True)


def _rgs_stream(n: int, admit) -> Iterator[SetPartition]:
    """Restricted-growth strings, pruned by the admit(vertex, block) test."""
    if n == 0:
        yield SetPartition(0, ())
        return
    assignment = [0] * n
    blocks: list = [[] for _ in range(n)]

    def rec(v: int, used: int):
        if v == n:
            yield SetPartition(n, assignment[:n])
            return
        for b in range(used + 1):
            if b < used and not admit(v, blocks[b]):
                continue
            assignment[v] = b
            blocks[b].append(v)
            yield from rec(v + 1, used + (1 if b == used else 0))
            blocks[b].pop()

    yield from rec(0, 0)


def independent_partitions(
    h: Graph, colors: Optional[tuple] = None
) -> Iterator[SetPartition]:
    """Partitions of V(h) whose blocks are independent sets (and, when a
    coloring is given, monochromatic)."""
    if h.n > PRUNED_GUARD:
        raise CapacityError(f"pruned partition enumeration capped at n={PRUNED_GUARD}")
    if h.n > PARTITION_GUARD:
        warnings.warn(
            f"pruned partition enumeration on {h.n} vertices may be slow",
            stacklevel=2,
        )
    adj = adjacency(h)

    def admit(v: int, block: list) -> bool:
        if colors is not None and block and colors[block[0]] != colors[v]:
            return False
        return all(u not in adj[v] for u in block)

    yield from _rgs_stream(h.n, admit)


def spasm(h: Graph) -> list:
    """Canonical forms of all loop-free quotients of h, sorted by the global
    graph order; read off the cached quotient tallies."""
    counts, _ = _quotient_tallies(h)
    return sorted(counts, key=graph_order_key)


def colored_spasm(h: ColoredGraph) -> list:
    """Colored variant: quotients over monochromatic independent blocks; each
    block inherits its color.  Deduplicated by color-preserving isomorphism."""
    seen = {}
    for rho in independent_partitions(h.graph, h.colors):
        q = quotient(h.graph, rho)
        block_colors = tuple(h.colors[b[0]] for b in rho.blocks)
        cg = ColoredGraph(q.graph, block_colors)
        seen[colored_canonical_key(cg)] = cg
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# coefficient families

_cache_lock = threading.Lock()
_surj_rows: dict = {}
_surjinv_rows: dict = {}
_coefficient_cache: dict = {}


def _canon(x) -> CanonicalForm:
    if isinstance(x, CanonicalForm):
        return x
    return canonical_form(x)


def _quotient_tallies(h: Graph):
    """Per canonical quotient F of h: (number of partitions with H/rho = F,
    sum over those partitions of prod (|B|-1)!)."""
    if h.n > PRUNED_GUARD:  # fail before canonical_form, which has no guard
        raise CapacityError(f"pruned partition enumeration capped at n={PRUNED_GUARD}")
    key = canonical_form(h).key
    with _cache_lock:
        cached = _surj_rows.get(key)
    if cached is not None:
        return cached
    counts: dict = {}
    weights: dict = {}
    hc = canonical_form(h).graph
    for rho in independent_partitions(hc):
        q = quotient(hc, rho)
        f = canonical_form(q.graph)
        counts[f] = counts.get(f, 0) + 1
        w = 1
        for b in rho.blocks:
            w *= math.factorial(len(b) - 1)
        weights[f] = weights.get(f, 0) + w
    result = (counts, weights)
    with _cache_lock:
        _surj_rows[key] = result
    return result


def _count_extensions(h: Graph, f: Graph) -> int:
    """Ext(H,F): subgraph copies of H inside F on the same vertex count,
    i.e. edge subsets of F forming a copy of H, when |V(H)| = |V(F)|."""
    if h.n != f.n:
        return 0
    if len(h.edges) > len(f.edges):
        return 0
    target = canonical_form(h)
    count = 0
    for sub_edges in itertools.combinations(sorted(f.edges), len(h.edges)):
        if canonical_form(Graph(f.n, sub_edges)) == target:
            count += 1
    return count


def coefficient(kind: str, h, f) -> Fraction:
    """The (h, f) entry of the named change-of-basis matrix."""
    if kind not in COEFFICIENT_KINDS:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    hc, fc = _canon(h), _canon(f)
    cache_key = (kind, hc.key, fc.key)
    with _cache_lock:
        if cache_key in _coefficient_cache:
            return _coefficient_cache[cache_key]
    value = _coefficient(kind, hc, fc)
    with _cache_lock:
        _coefficient_cache[cache_key] = value
    return value


def _coefficient(kind: str, hc: CanonicalForm, fc: CanonicalForm) -> Fraction:
    h, f = hc.graph, fc.graph
    if kind == "Surj":
        counts, _ = _quotient_tallies(h)
        return Fraction(automorphism_count(f) * counts.get(fc, 0))
    if kind == "SurjInv":
        _, weights = _quotient_tallies(h)
        w = weights.get(fc, 0)
        sign = -1 if (h.n - f.n) % 2 else 1
        return Fraction(sign * w, automorphism_count(h))
    if kind == "Ext":
        return Fraction(_count_extensions(h, f))
    if kind == "ExtInv":
        ext = _count_extensions(h, f)
        sign = -1 if (len(f.edges) - len(h.edges)) % 2 else 1
        return Fraction(sign * ext)
    if kind == "Iso":
        return Fraction(automorphism_count(h)) if hc == fc else Fraction(0)
    # IsoInv
    return Fraction(1, automorphism_count(h)) if hc == fc else Fraction(0)


def sub_to_hom_vector(h: Graph) -> dict:
    """Expansion of the subgraph count of h over homomorphism counts:
    Sub(h, G) = sum of coeff[F] * Hom(F, G) with support exactly spasm(h)."""
    hc = _canon(h)
    out = {}
    for fc in spasm(hc.graph):
        c = coefficient("SurjInv", hc, fc)
        if c != 0:
            out[fc] = c
    return out
