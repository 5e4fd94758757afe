"""Exact homomorphism counting by bucket elimination.

Both engines eliminate the pattern's vertices along the cached optimal
order of decomp.elimination_plan, which also fixes each message's scope and
the bucket it goes to: eliminating v multiplies the factors that mention v
and sums v out, so a pattern of treewidth k costs n^(k+1).
count_hom_dp and count_colored_hom keep factors as dicts keyed by
host-vertex tuples, built by _RowBuilder: rows of host images grown one
pattern vertex at a time through neighbourhoods, restricted to the right
colour when the graphs are ColoredGraphs, each message joined once its
scope is placed (the colored ordered-embedding DP grows its guard rows with
the same builder, and runs _eliminate over its guarded decomposition).
count_hom_mm keeps dense float64 matrices for treewidth <= 2, one BLAS
product per vertex.  Its arithmetic is exact by a certificate: no entry or
partial sum exceeds D^(k-1), D the host's maximum degree and k the largest
pattern component's vertex count.  Below 2^53 one float64 pass is exact;
above, the factors are stacked residues modulo word-size primes (the
FFLAS-FFPACK approach of Dumas, Giorgi and Pernet) rebuilt by Chinese
remaindering in Python ints.  The order is the whole plan: neither engine
builds a tree decomposition of its own.
What count_hom_mm derives from one input alone is built once: per host
(_host_facts) the read-only edge-index arrays and the maximum degree, O(m);
per pattern (_dense_shape) the largest component and the dense layers.  The
n x n adjacency matrix is built on every call, after DENSE_BYTES_GUARD has
passed, and no cache keeps it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .decomp import DecompositionError, elimination_plan
from .graphs import CapacityError, ColoredGraph, Graph, adjacency, connected_components

# count_hom_mm refuses hosts whose dense arrays it estimates above this;
# motif._hom_count then counts that term with the dict DP
DENSE_BYTES_GUARD = 1 << 30
# hosts whose edge arrays and degree count_hom_mm keeps between calls
HOST_CACHE_SIZE = 32
# float64 holds every integer below this exactly
_EXACT = 2**53


def _eliminate(forest: tuple, step) -> int:
    """Run bucket elimination over a forest (order, later, parent) on the
    nodes 0..len(order)-1, children first, such as elimination_plan(h)[1:].
    step(v, later, factors) gets v, its scope later[v] and the (scope,
    table) factors in v's bucket, and returns the table over `later`, which
    goes to the bucket of v's parent; when `later` is empty that is an int,
    the count of v's tree, and the trees' counts multiply."""
    order, later, parent = forest
    buckets: list = [[] for _ in order]
    total = 1
    for v in order:
        factors, buckets[v] = buckets[v], None  # freed once v is eliminated
        table = step(v, later[v], factors)
        if later[v]:
            buckets[parent[v]].append((later[v], table))
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


class _RowBuilder:
    """Rows of host images, grown one pattern vertex at a time.

    A row is (key, count): key holds the images of a prefix of a placement
    order.  A vertex's images are its candidate hosts (`hosts`) or, once
    some pattern neighbour is placed, the common neighbours of their images
    (`neighbours`).  Pattern and host are both Graphs, or both ColoredGraphs,
    and then a vertex's images keep its colour."""

    def __init__(self, h, g):
        if isinstance(h, ColoredGraph):
            adj_g = adjacency(g.graph)
            classes = {c: frozenset(x for x, cx in enumerate(g.colors) if cx == c)
                       for c in set(h.colors)}
            restricted = {c: tuple(a & cls for a in adj_g) for c, cls in classes.items()}
            self.hosts = [classes[c] for c in h.colors]
            self.neighbours = [restricted[c] for c in h.colors]
            h = h.graph
        else:
            self.hosts = [range(g.n)] * h.n
            self.neighbours = [adjacency(g)] * h.n
        self.adj = adjacency(h)

    def order(self, rest, placed=()) -> list:
        """`placed`, then `rest` with the vertex of most placed neighbours
        next (ties: most neighbours still in rest, then first in rest)."""
        order, rest = list(placed), list(rest)
        while rest:
            u = max(rest, key=lambda u: (len(self.adj[u].intersection(order)),
                                         len(self.adj[u].intersection(rest))))
            rest.remove(u)
            order.append(u)
        return order

    def grow(self, rows: list, order: list, start: int, factors: list,
             distinct: bool = False) -> list:
        """Extend rows holding images of order[:start] to images of all of
        `order`.  Each (scope, table) factor multiplies in as soon as its
        scope is placed, and a row whose projection the table lacks dies;
        with `distinct`, a row never reuses an image."""
        pos = {u: i for i, u in enumerate(order)}
        # joins[i]: the factors joined once order[:i] is placed
        joins: list = [[] for _ in range(len(order) + 1)]
        for scope, table in factors:
            at = max(start, max((pos[u] + 1 for u in scope), default=0))
            joins[at].append((_projection([pos[u] for u in scope]), table))
        for i in range(start, len(order) + 1):
            for project, table in joins[i]:
                rows = [(key, cnt * c) for key, cnt in rows
                        if (c := table.get(project(key))) is not None]
            if i == len(order) or not rows:
                return rows
            u = order[i]
            nb = [pos[w] for w in self.adj[u] if pos.get(w, i) < i]
            nbr, others = self.neighbours[u], nb[1:]
            grown = []
            for key, cnt in rows:
                allowed = nbr[key[nb[0]]] if nb else self.hosts[u]
                for j in others:
                    allowed = allowed & nbr[key[j]]
                    if not allowed:
                        break
                if distinct:
                    grown.extend([(key + (x,), cnt) for x in allowed if x not in key])
                else:
                    grown.extend([(key + (x,), cnt) for x in allowed])
            rows = grown


def _count_hom(builder: _RowBuilder, h: Graph) -> int:
    """Homomorphisms from h whose images the builder allows, by elimination
    along h's plan."""

    def step(v, later, factors):
        # seed from the largest message, then grow through the others
        if factors:
            seed = max(factors, key=lambda f: len(f[1]))
            placed, rows = seed[0], list(seed[1].items())
            factors = [f for f in factors if f is not seed]
        else:
            placed, rows = (), [((), 1)]
        order = builder.order([u for u in (v,) + later if u not in placed], placed)
        rows = builder.grow(rows, order, len(placed), factors)
        out: dict = {}
        if rows:
            project = _projection([order.index(u) for u in later])
            for key, cnt in rows:
                short = project(key)
                out[short] = out.get(short, 0) + cnt
        return out if later else out.get((), 0)

    return _eliminate(elimination_plan(h)[1:], step)


def count_hom_dp(h: Graph, g: Graph) -> int:
    """Number of homomorphisms from h to g."""
    return _count_hom(_RowBuilder(h, g), h)


def count_colored_hom(h: ColoredGraph, g: ColoredGraph) -> int:
    """Number of color-preserving homomorphisms from h to g."""
    return _count_hom(_RowBuilder(h, g), h.graph)


@lru_cache(maxsize=256)
def _prime_at_most(p: int) -> int:
    """The largest odd prime not above p, by trial division; memoised, so
    that repeat calls of _word_primes with the same n divide nothing."""
    while not (p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))):
        p -= 1
    return p


def _word_primes(n: int, bound: int) -> list:
    """The largest primes p with n*(p-1)^2 < 2^53, from the top down, until
    their product exceeds bound.  A float64 product of two n x n matrices of
    residues modulo p then sums exact integers below 2^53."""
    primes, product = [], 1
    p = math.isqrt((_EXACT - 1) // n) + 1
    while product <= bound:
        p = _prime_at_most(p)
        primes.append(p)
        product *= p
        p -= 1
    return primes


def _crt_sum(residues: np.ndarray, primes: list) -> int:
    """Sum of the integers below prod(primes) whose residues modulo
    primes[i] are the entries of residues[i] (Chinese remaindering)."""
    modulus = math.prod(primes)
    weights = [(modulus // p) * pow(modulus // p, -1, p) for p in primes]
    # float64 -> int64 is exact for residues; straight to Python objects
    # would give floats
    rows = residues.astype(np.int64).tolist()
    return sum(sum(w * x for w, x in zip(weights, col)) % modulus
               for col in zip(*rows))


@lru_cache(maxsize=1024)
def _dense_shape(h: Graph) -> tuple:
    """(layers, k) for count_hom_mm: k is the vertex count of h's largest
    component, and layers the most n x n arrays per prime held at once
    besides the adjacency matrix: the two-vertex messages waiting in
    buckets, plus four working arrays (two products, the vector-weighted
    copy and the result) in a step that builds any; a step over one later
    vertex with only one-vertex messages builds vectors alone."""
    held = peak = 0

    def step(v, later, factors):
        nonlocal held, peak
        pairs = sum(len(scope) == 2 for scope, _ in factors)
        peak = max(peak, held + 4 * (pairs > 0 or len(later) == 2))
        held += (len(later) == 2) - pairs
        return None if later else 1

    _eliminate(elimination_plan(h)[1:], step)
    return peak, max(map(len, connected_components(h)), default=1)


@lru_cache(maxsize=HOST_CACHE_SIZE)
def _host_facts(g: Graph) -> tuple:
    """(ends, D): the host's edges as a read-only 2 x m index array, and its
    maximum degree.  O(m) per host; the n x n matrix is never kept."""
    ends = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2).T.copy()
    ends.flags.writeable = False
    return ends, int(np.bincount(ends.ravel(), minlength=1).max())


def count_hom_mm(h: Graph, g: Graph) -> int:
    """Homomorphism count for a treewidth-<=2 pattern with dense float64
    factors, exact in one pass under a degree bound and by residues modulo
    word-size primes above it.  Disconnected patterns multiply per
    component."""
    if h.n and not g.n:
        return 0
    if elimination_plan(h)[0] > 2:
        raise DecompositionError("count_hom_mm needs treewidth at most 2")
    n = g.n
    ends, degree = _host_facts(g)
    # Certificate.  A factor entry counts the maps of the pattern vertices
    # eliminated into its message, with the message's scope fixed; every
    # partial sum inside `*`, `.sum` and `@` adds non-negative terms of such
    # an entry, so none exceeds it.  An eliminated vertex's neighbours are
    # eliminated or in the scope, and the eliminated vertices of a message
    # form a connected subgraph (a subtree of the elimination tree) that
    # touches its scope; at a component's last step they are the component
    # less one fixed vertex.  Placed outward from the fixed vertices, each
    # has at most D images once the neighbour it is reached from is placed,
    # D the host's maximum degree, so no value exceeds D^(k-1) for k the
    # largest component's vertex count.  Below 2^53 float64 is exact in any
    # summation order; otherwise work modulo primes whose product exceeds it.
    layers, k = _dense_shape(h)
    bound = degree ** (k - 1)
    primes = _word_primes(n, bound) if bound >= _EXACT else []
    # the adjacency matrix is one layer, broadcast over the primes
    need = (1 + layers * max(len(primes), 1)) * n * n * 8
    if need > DENSE_BYTES_GUARD:
        raise CapacityError(
            f"dense factors need ~{need >> 20} MiB, capped at "
            f"{DENSE_BYTES_GUARD >> 20} MiB"
        )
    adj_h = adjacency(h)
    A = np.zeros((1, n, n))
    A[0, ends[0], ends[1]] = A[0, ends[1], ends[0]] = 1
    if primes:
        A = np.broadcast_to(A, (len(primes), n, n))
        moduli = np.array(primes, dtype=np.float64)
        by_rank = {2: moduli[:, None], 3: moduli[:, None, None]}

        def reduce(x):
            return np.fmod(x, by_rank[x.ndim], out=x)
    else:
        def reduce(x):
            return x

    def step(v, later, factors):
        # factors are stacked over the primes (one layer without them); those
        # over (v,) multiply into vec, those over (u, v) into mats[u], indexed
        # [., x_u, x_v] and C-contiguous so that products run along rows
        vec = None
        mats = {u: A for u in later if u in adj_h[v]}
        for scope, t in factors:
            if len(scope) == 1:
                vec = t if vec is None else reduce(vec * t)
                continue
            if scope[1] == v:
                u = scope[0]
            else:
                u, t = scope[1], np.ascontiguousarray(t.swapaxes(1, 2))
            mats[u] = reduce(mats[u] * t) if u in mats else t
        if not later:
            # the component's last vector goes to Python ints before its sum,
            # which can exceed the per-entry bound
            if vec is None:
                return n
            if primes:
                return _crt_sum(vec, primes)
            return sum(vec[0].astype(np.int64).tolist())
        first = mats[later[0]]
        if len(later) == 1:
            if vec is None:
                return reduce(first.sum(axis=2))
            return reduce(np.matmul(first, vec[:, :, None])[:, :, 0])
        if vec is not None:
            first = reduce(first * vec[:, None, :])
        return reduce(first @ mats[later[1]].swapaxes(1, 2))

    return _eliminate(elimination_plan(h)[1:], step)
