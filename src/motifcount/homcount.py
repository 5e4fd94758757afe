"""Exact homomorphism counting by bucket elimination.

Both engines eliminate the pattern's vertices along the cached optimal
order of decomp.elimination_plan: eliminating v multiplies the factors that
mention v and sums v out, so a pattern of treewidth k costs n^(k+1).
count_hom_dp keeps factors as dicts keyed by host-vertex tuples;
count_hom_mm keeps dense matrices for treewidth <= 2, one matrix product per
vertex, in machine words only when the worst case provably fits.  The order
is the whole plan: neither engine needs decomp's nice or width-2 normal
forms, which serve only `motifcount decompose`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

import numpy as np

from .decomp import DecompositionError, elimination_plan
from .graphs import ColoredGraph, Graph, adjacency, connected_components


def _eliminate(h: Graph, step) -> int:
    """Run bucket elimination over h.  step(v, later, factors) gets v, the
    sorted tuple of its later neighbours and the (scope, table) factors in
    v's bucket, and returns the table over `later`; when `later` is empty
    that is an int, the count for v's connected component."""
    _, order = elimination_plan(h)
    rank = {v: i for i, v in enumerate(order)}
    adj = adjacency(h)
    buckets: list = [[] for _ in range(h.n)]
    total = 1
    for v in order:
        later = {u for u in adj[v] if rank[u] > rank[v]}
        for scope, _ in buckets[v]:
            later.update(scope)
        later.discard(v)
        later = tuple(sorted(later))
        table = step(v, later, buckets[v])
        if later:
            buckets[min(later, key=rank.__getitem__)].append((later, table))
        else:
            total *= table
            if total == 0:
                return 0
    return total


def _projection(positions: list):
    """key -> the tuple of its entries at `positions`."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        i = positions[0]
        return lambda key: (key[i],)
    return lambda key: ()


def count_hom_dp(h: Graph, g: Graph, host_colors: Optional[tuple] = None,
                 pattern_colors: Optional[tuple] = None) -> int:
    """Number of homomorphisms from h to g (color-preserving when colorings
    are supplied)."""
    adj_h = adjacency(h)
    adj_g = adjacency(g)
    if pattern_colors is None:
        candidates = [range(g.n)] * h.n
        neighbours = [adj_g] * h.n
    else:
        # a pattern vertex maps only into its colour class
        classes = {c: frozenset(x for x, cx in enumerate(host_colors) if cx == c)
                   for c in set(pattern_colors)}
        restricted = {c: tuple(a & cls for a in adj_g) for c, cls in classes.items()}
        candidates = [classes[c] for c in pattern_colors]
        neighbours = [restricted[c] for c in pattern_colors]

    def step(v, later, factors):
        # seed from the largest message, then place one vertex at a time and
        # multiply each message in as soon as its vertices are placed
        if factors:
            seed = max(factors, key=lambda f: len(f[1]))
            placed, rows = list(seed[0]), list(seed[1].items())
            waiting = [f for f in factors if f is not seed]
        else:
            placed, rows, waiting = [], [((), 1)], []
        while rows:
            for f in [f for f in waiting if set(f[0]).issubset(placed)]:
                waiting.remove(f)
                scope, table = f
                project = _projection([placed.index(u) for u in scope])
                rows = [(key, cnt * c) for key, cnt in rows
                        if (c := table.get(project(key))) is not None]
            rest = [u for u in (v,) + later if u not in placed]
            if not rest:
                break
            u = max(rest, key=lambda u: len(adj_h[u].intersection(placed)))
            nb = [i for i, w in enumerate(placed) if w in adj_h[u]]
            placed.append(u)
            if not nb:
                rows = [(key + (x,), cnt) for key, cnt in rows for x in candidates[u]]
                continue
            nbr, first, others = neighbours[u], nb[0], nb[1:]
            grown = []
            for key, cnt in rows:
                allowed = nbr[key[first]]
                for i in others:
                    allowed = allowed & nbr[key[i]]
                    if not allowed:
                        break
                grown.extend([(key + (x,), cnt) for x in allowed])
            rows = grown
        out: dict = {}
        if rows:
            project = _projection([placed.index(u) for u in later])
            for key, cnt in rows:
                short = project(key)
                out[short] = out.get(short, 0) + cnt
        return out if later else out.get((), 0)

    return _eliminate(h, step)


def count_colored_hom(h: ColoredGraph, g: ColoredGraph) -> int:
    return count_hom_dp(h.graph, g.graph, host_colors=g.colors,
                        pattern_colors=h.colors)


def count_hom_mm(h: Graph, g: Graph) -> int:
    """Homomorphism count for a treewidth-<=2 pattern with dense matrix
    factors.  Disconnected patterns multiply per component."""
    if h.n and not g.n:
        return 0
    if elimination_plan(h)[0] > 2:
        raise DecompositionError("count_hom_mm needs treewidth at most 2")
    n = g.n
    adj_h = adjacency(h)
    A = np.zeros((n, n), dtype=np.int64)
    for u, v in g.edges:
        A[u, v] = A[v, u] = 1
    # a factor entry of a k-vertex component counts maps of its eliminated
    # vertices with the scope fixed, at most n^(k-1): stay in machine words
    # when that fits in int64
    matrix_of = {}
    for comp in connected_components(h):
        m = A if n ** (len(comp) - 1) < 2**61 else A.astype(object)
        matrix_of.update(dict.fromkeys(comp, m))

    def step(v, later, factors):
        # factors over (v,) multiply into vec; those over (u, v) into mats[u],
        # indexed [x_u, x_v] and C-contiguous so that the product below runs
        # along contiguous rows
        vec = None
        mats = {u: matrix_of[v] for u in later if u in adj_h[v]}
        for scope, t in factors:
            if len(scope) == 1:
                vec = t if vec is None else vec * t
                continue
            u, t = (scope[0], t) if scope[1] == v else (scope[1], np.ascontiguousarray(t.T))
            mats[u] = mats[u] * t if u in mats else t
        if not later:
            # the component's last step sums in Python ints: the total can
            # exceed the per-entry bound
            return n if vec is None else sum(vec.tolist())
        first = mats[later[0]]
        if vec is not None:
            first = first * vec
        if len(later) == 1:
            return first.sum(axis=1)
        return first @ mats[later[1]].T

    return _eliminate(h, step)
