"""Graph motif parameters: basis-tagged sparse rational vectors over
canonical graphs, basis changes, and evaluation on hosts.

Evaluation always routes through the homomorphism basis, because
cancellation there can shrink the support and with it the exponent of the
running time; that conversion is the core of the whole engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .decomp import support_treewidth
from .graphs import (CapacityError, Graph, GraphFormatError, _content_lines,
                     canonical_form, graph_order_key, parse_graph6)
from .homcount import _hom_sum, _program
from .partitions import _canon, coefficient_row

BASES = ("hom", "sub", "indsub", "emb", "strembed")

TREE_BUILDER_GUARD = 10


@dataclass(frozen=True)
class MotifParameter:
    """A finite rational linear combination of pattern counts in one of the
    five bases.  Zero coefficients are never stored."""

    basis: str
    terms: tuple  # sorted tuple of (CanonicalForm, Fraction)

    def __init__(self, basis: str, terms):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        if isinstance(terms, dict):
            terms = terms.items()
        cleaned = {}
        for graph, coeff in terms:
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            cf = _canon(graph)
            cleaned[cf] = cleaned.get(cf, Fraction(0)) + coeff
        ordered = tuple(
            (cf, c)
            for cf, c in sorted(cleaned.items(), key=lambda kv: graph_order_key(kv[0]))
            if c != 0
        )
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", ordered)
        # hashed once: every memoised basis change and evaluation looks the
        # parameter up, and hashing its Fractions costs ~1 us per term
        object.__setattr__(self, "_hash", hash((basis, ordered)))

    def __hash__(self):
        return self._hash

    def as_dict(self) -> dict:
        return dict(self.terms)

    def support(self) -> list:
        return [cf for cf, _ in self.terms]


# ---------------------------------------------------------------------------
# basis changes


# Every basis change is a chain of coefficient rows through the sub basis:
# each link rewrites c * X(H, *) as sum_F c * row_H[F] * Y(F, *), e.g.
# Hom(H, *) = sum_F Surj(H, F) Sub(F, *).
_TO_SUB = {
    "hom": ("Surj",),
    "sub": (),
    "emb": ("Iso",),
    "indsub": ("ExtInv",),
    "strembed": ("Iso", "ExtInv"),
}
_FROM_SUB = {
    "hom": ("SurjInv",),
    "sub": (),
    "emb": ("IsoInv",),
    "indsub": ("Ext",),
    "strembed": ("Ext", "IsoInv"),
}


@lru_cache(maxsize=256)
def change_basis(p: MotifParameter, target: str) -> MotifParameter:
    """p rewritten in the target basis.  Memoised: the result depends on the
    (immutable) parameter alone, so evaluating one parameter on many hosts
    changes its basis once; guards raise again on every call."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if target == p.basis:
        return p
    terms = p.as_dict()
    for kind in _TO_SUB[p.basis] + _FROM_SUB[target]:
        out: dict = {}
        for cf, c in terms.items():
            for fc, coeff in coefficient_row(kind, cf).items():
                out[fc] = out.get(fc, 0) + c * coeff
        terms = {fc: c for fc, c in out.items() if c != 0}
    return MotifParameter(target, terms)


# ---------------------------------------------------------------------------
# evaluation


def hom_support_treewidth(p: MotifParameter) -> int:
    """Max treewidth over the Hom-basis support: the predicted evaluation
    exponent minus one."""
    hom = change_basis(p, "hom")
    return support_treewidth(cf.graph for cf, _ in hom.terms)


@lru_cache(maxsize=256)
def _integer_terms(hom: MotifParameter) -> tuple:
    """(d, program): the terms over one common denominator d, so that
    evaluation sums Python ints and divides once, compiled into one
    evaluation program (homcount._program)."""
    d = math.lcm(*(c.denominator for _, c in hom.terms))
    return d, _program(tuple((cf.graph, c.numerator * (d // c.denominator))
                             for cf, c in hom.terms))


def evaluate(p: MotifParameter, g: Graph) -> Fraction:
    """Exact value of the parameter on the host, via the Hom basis, its
    terms compiled once into one evaluation program (homcount._hom_sum)."""
    d, program = _integer_terms(change_basis(p, "hom"))
    return Fraction(_hom_sum(program, g), d)


def count_pattern(kind: str, h: Graph, g: Graph) -> int:
    """Convenience counter for a single pattern in any of the five count
    families: a hom count directly, uncanonicalised (of a ColoredGraph into
    a ColoredGraph too); any other kind as the one-term parameter in its own
    basis."""
    if kind == "hom":
        return _hom_sum(_program(((h, 1),)), g)
    value = evaluate(MotifParameter(kind, {h: 1}), g)
    if value.denominator != 1:
        raise AssertionError("pattern count came out non-integral")
    return int(value)


# ---------------------------------------------------------------------------
# tree-count builder


def _all_trees(k: int) -> list:
    """Canonical forms of all unlabeled trees on k vertices, grown by
    attaching leaves."""
    level = {canonical_form(Graph(1))}
    for size in range(2, k + 1):
        nxt = set()
        for cf in level:
            t = cf.graph
            for v in range(t.n):
                bigger = Graph(t.n + 1, list(t.edges) + [(v, t.n)])
                nxt.add(canonical_form(bigger))
        level = nxt
    return sorted(level, key=graph_order_key)


def build_tree_count_parameter(k: int) -> MotifParameter:
    """Sub-basis vector with coefficient 1 on every unlabeled k-vertex
    tree: evaluating it counts all k-vertex tree subgraphs at once."""
    if k > TREE_BUILDER_GUARD:
        raise CapacityError(f"tree-count builder capped at k={TREE_BUILDER_GUARD}")
    if k < 1:
        raise ValueError("k must be positive")
    return MotifParameter("sub", {cf: Fraction(1) for cf in _all_trees(k)})


# ---------------------------------------------------------------------------
# file format


def parse_motif_parameter(text: str) -> MotifParameter:
    """Text format: `basis <name>` then one `<rational> <graph6>` per line.
    `#` starts a comment."""
    basis = None
    terms = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if basis is None:
            if parts[0] != "basis" or len(parts) != 2 or parts[1] not in BASES:
                raise ValueError(f"line {lineno}: expected `basis <{'|'.join(BASES)}>`")
            basis = parts[1]
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected `<rational> <graph6>`")
        try:
            coeff = Fraction(parts[0])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad rational {parts[0]!r}") from exc
        try:
            graph = parse_graph6(parts[1])
        except GraphFormatError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from exc
        terms.append((graph, coeff))
    if basis is None:
        raise ValueError("missing `basis` line")
    return MotifParameter(basis, terms)


def format_motif_parameter(p: MotifParameter) -> str:
    lines = [f"basis {p.basis}"]
    for cf, c in p.terms:
        lines.append(f"{c} {cf.key}")
    return "\n".join(lines) + "\n"
