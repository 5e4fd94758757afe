"""Exact homomorphism counting.

count_hom_dp runs the classic dynamic program over a nice tree
decomposition of the pattern; count_hom_mm is the treewidth-2 variant whose
per-node work is one matrix product.  Counts are arbitrary-precision
integers; the matrix path drops to machine words only when the worst case
provably fits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .decomp import (
    NiceTreeDecomposition,
    Width2Decomposition,
    DecompositionError,
    exact_treewidth,
    normalize_width2,
    to_nice,
)
from .graphs import ColoredGraph, Graph, adjacency, connected_components


def count_hom_dp(h: Graph, g: Graph, host_colors: Optional[tuple] = None,
                 pattern_colors: Optional[tuple] = None) -> int:
    """Number of homomorphisms from h to g (color-preserving when colorings
    are supplied)."""
    if h.n == 0:
        return 1
    if g.n == 0:
        return 0
    _, d = exact_treewidth(h)
    nice = to_nice(d)
    return _run_dp(nice, h, g, host_colors, pattern_colors)


def _run_dp(nice: NiceTreeDecomposition, h: Graph, g: Graph,
            host_colors, pattern_colors) -> int:
    adj_h = adjacency(h)
    adj_g = adjacency(g)
    all_hosts = frozenset(range(g.n))

    def candidates(v: int) -> frozenset:
        if pattern_colors is None:
            return all_hosts
        c = pattern_colors[v]
        return frozenset(x for x in range(g.n) if host_colors[x] == c)

    tables: dict = {}
    for t in reversed(nice.topological_order()):
        kind = nice.kinds[t]
        bag = tuple(sorted(nice.bags[t]))
        if kind[0] == "leaf":
            tables[t] = {(): 1}
        elif kind[0] == "intro":
            v = kind[1]
            (c,) = nice.children[t]
            child = tables.pop(c)
            pos = bag.index(v)
            child_bag = bag[:pos] + bag[pos + 1 :]
            nb_positions = [i for i, u in enumerate(child_bag) if u in adj_h[v]]
            out: dict = {}
            for key, cnt in child.items():
                allowed = candidates(v)
                for i in nb_positions:
                    allowed = allowed & adj_g[key[i]]
                    if not allowed:
                        break
                for x in allowed:
                    out[key[:pos] + (x,) + key[pos:]] = cnt
            tables[t] = out
        elif kind[0] == "forget":
            v = kind[1]
            (c,) = nice.children[t]
            child = tables.pop(c)
            child_bag = tuple(sorted(nice.bags[c]))
            pos = child_bag.index(v)
            out = {}
            for key, cnt in child.items():
                short = key[:pos] + key[pos + 1 :]
                out[short] = out.get(short, 0) + cnt
            tables[t] = out
        else:  # join
            c1, c2 = nice.children[t]
            t1, t2 = tables.pop(c1), tables.pop(c2)
            if len(t2) < len(t1):
                t1, t2 = t2, t1
            out = {}
            for key, cnt in t1.items():
                other = t2.get(key)
                if other is not None:
                    out[key] = cnt * other
            tables[t] = out
    root_table = tables[nice.root]
    return root_table.get((), 0)


def count_colored_hom(h: ColoredGraph, g: ColoredGraph) -> int:
    return count_hom_dp(h.graph, g.graph, host_colors=g.colors,
                        pattern_colors=h.colors)


# ---------------------------------------------------------------------------
# treewidth-2 matrix-multiplication variant


def count_hom_mm(h: Graph, g: Graph) -> int:
    """Homomorphism count for a treewidth-<=2 pattern, one matrix product
    per decomposition node.  Disconnected patterns multiply per component."""
    if h.n == 0:
        return 1
    if g.n == 0:
        return 0
    w, _ = exact_treewidth(h)
    if w > 2:
        raise DecompositionError("count_hom_mm needs treewidth at most 2")
    total = 1
    for comp in connected_components(h):
        total *= _mm_component(h.induced(comp), g)
        if total == 0:
            return 0
    return total


def _mm_component(h: Graph, g: Graph) -> int:
    n = g.n
    if h.n == 1:
        return n
    if h.n == 2:
        return 2 * len(g.edges)

    _, d = exact_treewidth(h)
    w2, perm = normalize_width2(d, h)
    inverse = [0] * h.n
    for new, old in enumerate(perm):
        inverse[old] = new
    hh = h.relabel(inverse)

    # exact integer matrices; stay in machine words when every stored value
    # (bounded by n^(|V(h)|-1), see the cone-size argument) fits in int64
    if n ** max(h.n - 1, 1) < 2**61:
        dtype: object = np.int64
    else:
        dtype = object
    A = np.zeros((n, n), dtype=dtype)
    for u, v in g.edges:
        A[u, v] = 1
        A[v, u] = 1
    ones = np.ones((n, n), dtype=dtype)

    def edge_matrix(u1: int, u2: int):
        return A if hh.has_edge(u1, u2) else ones

    h_tables: dict = {}
    for t in reversed(w2.topological_order()):
        if t == w2.root:
            continue
        u1, u2, u3 = sorted(w2.bags[t])
        groups = {(u1, u2): [], (u1, u3): [], (u2, u3): []}
        for c in w2.children[t]:
            sep = tuple(sorted(w2.sigma(c)))
            groups[sep].append(h_tables.pop(c))
        a12 = edge_matrix(u1, u2).copy()
        a13 = edge_matrix(u1, u3).copy()
        a23 = edge_matrix(u2, u3).copy()
        for m in groups[(u1, u2)]:
            a12 = a12 * m
        for m in groups[(u1, u3)]:
            a13 = a13 * m
        for m in groups[(u2, u3)]:
            a23 = a23 * m
        h_tables[t] = a12 * (a13 @ a23.T)

    (child,) = w2.children[w2.root]
    # final sum in Python ints: it can exceed the per-entry bound
    return sum(int(x) for x in h_tables[child].flat)
