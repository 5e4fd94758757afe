"""Exact homomorphism counting by bucket elimination.

Both engines eliminate the pattern's vertices along the cached optimal
order of decomp.elimination_plan, which also fixes each message's scope and
the bucket it goes to: eliminating v multiplies the factors that mention v
and sums v out, so a pattern of treewidth k costs n^(k+1).
count_hom_dp keeps factors as dicts keyed by host-vertex tuples, built by
_RowBuilder: rows of host images grown one pattern vertex at a time
through neighbourhoods, restricted to the right colour when the graphs
are ColoredGraphs, each message joined once its scope is placed (the
colored ordered-embedding DP grows its guard rows with the same builder,
and runs _eliminate over its guarded decomposition).
count_hom_mm keeps dense float64 arrays for treewidth <= 3: n x n
matrices with one BLAS product per vertex while scopes hold at most two
vertices, and n x n x n arrays for a three-vertex scope, each sum over x_v
a batched BLAS product of two of them, or the slices of one.  It counts
colour-preserving maps between ColoredGraphs with the same steps: each
vertex's host colour-class indicator is one more factor over that vertex
alone, multiplied into its vector in a step of rank <= 2 and folded into a
wider group in a rank-3 step.  Its arithmetic is exact by a certificate
that holds for scopes of any size: no entry or partial sum exceeds
D^(k-1), D the host's maximum degree and k the largest pattern component's
vertex count.  Below 2^53 one float64 pass is exact; above, the factors are
stacked residues modulo word-size primes (the FFLAS-FFPACK approach of
Dumas, Giorgi and Pernet), reduced after every product of two, and rebuilt
by Chinese remaindering in Python ints.  The order is the whole plan:
neither engine builds a tree decomposition of its own.
What the dense kernel derives from one input alone is built once: per
host (_host_facts) the read-only edge-index arrays and the maximum degree,
O(m); per pattern (_dense_shape) the plan, the largest component, the step
sizes and colours that _predicted_work prices both kernels by, and a
structural key per message, which holds the colour of each eliminated
vertex, so that only identically coloured subtrees share a table.  The hom
terms of one evaluation are quotients of the same patterns, so their
elimination forests repeat subtrees: equal keys give equal tables.  Per
hom form, _program compiles one evaluation program, the FAQ approach of
Abo Khamis, Ngo and Rudra: its nodes are the distinct keys, each one
elimination step however many terms, or vertices of one term, send it.
count_hom_mm is a one-term program.  Per host, _run groups the terms by
arithmetic regime, checks each regime's tables (_schedule) against
DENSE_BYTES_GUARD before it builds the n x n adjacency matrix, and runs
each node once over one value table, freeing each table after its last
reader; no cache keeps any of them.
_hom_sum is the one kernel route: it prices each term on the host and
runs the cheap dense ones in the program, the rest on the dict DP.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import suppress
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .decomp import DecompositionError, elimination_plan
from .graphs import CapacityError, ColoredGraph, Graph, adjacency, connected_components

# the dense kernel refuses hosts whose tables it estimates above this (_run);
# _hom_sum then runs the program's dense terms one at a time, and a term
# refused alone on the dict DP
DENSE_BYTES_GUARD = 1 << 30
# hosts whose edge arrays and degree count_hom_mm keeps between calls
HOST_CACHE_SIZE = 32
# float64 holds every integer below this exactly
_EXACT = 2**53
# rows per slice in a rank-3 step that multiplies three arrays
_SLICE = 8
# The kernel route (_hom_sum): a hom term of treewidth <= 3 runs dense when
# _predicted_work puts the dense kernel's work within DENSE_WORK_RATIO of the
# dict DP's rows.  _RANK3_WORK weighs the n^4 of a step over three later
# vertices, which runs as slices of batched products and elementwise passes,
# slower per n^4 than one BLAS product per n^3.  Both were set from timings
# of both kernels on 107 (term, host) pairs, 50 of them of treewidth 3: K4,
# K4 with a pendant path, C4, C5, the 3x3 grid, and hom terms of Sub(P7) and
# of IndSub(P5) + IndSub(C5), on G(n, m) and G(n, p) hosts of 40 to 4,500
# vertices (2-vCPU VM, numpy with OpenBLAS).  Treewidth-2 terms ran faster
# dense up to a ratio of 20,000 (C4 on G(2000, 8000), 1.09x) and 5x faster
# on the dict DP at 124,000 (C4 on G(4500, 13500)); treewidth-3 terms ran
# faster dense up to 7,200 (1.02-104x) and faster on the dict DP from 2,000
# (1.0-234x).  At 8,000, 7 of the 107 took the slower kernel, by at most
# 1.48x (K4 on G(40, 117)).
DENSE_WORK_RATIO = 8000
_RANK3_WORK = 3


def _eliminate(forest: tuple, step) -> int:
    """Run bucket elimination over a forest (order, later, parent) on the
    nodes 0..len(later)-1, children first, such as elimination_plan(h)[1:].
    step(v, later, factors) gets v, its scope later[v] and the (scope,
    table) factors in v's bucket, and returns the table over `later`, which
    goes to the bucket of v's parent; when `later` is empty that is an int,
    the count of v's tree, and the trees' counts multiply."""
    order, later, parent = forest
    buckets: list = [[] for _ in later]
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


def _same_kind(h, g) -> None:
    """Refuse a pattern and host of which one is a ColoredGraph and one not."""
    if isinstance(h, ColoredGraph) != isinstance(g, ColoredGraph):
        raise ValueError("pattern and host must both be Graphs or both ColoredGraphs")


def count_hom_dp(h, g) -> int:
    """Number of homomorphisms from h to g, by elimination along h's plan
    with dict factors: both Graphs, or both ColoredGraphs for
    colour-preserving maps."""
    _same_kind(h, g)
    builder = _RowBuilder(h, g)
    if isinstance(h, ColoredGraph):
        h = h.graph

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


def _reducer(primes):
    """x -> x reduced in place modulo the primes, x a float64 array of
    integers in [0, 2^53) stacked over them (the identity without primes),
    as r = x - q*p for q = floor(x*c), c = fl((1 - 2^-50)/p): six passes
    over x, 9 ns per element against 140 for np.fmod (2-vCPU VM).  Exact
    for p > 16: with u = 2^-53, c is (1 - 8u)/p within a factor 1 +- u, and
    x*c rounds within 1 +- u more, so x*c lies in [Q(1 - 16u), Q) for
    Q = x/p, and 16uQ < 16/p < 1.  So q is floor(Q) or one less, never
    more: q*p <= x < 2^53 is exact, and so is r, in [0, 2p), from which one
    subtraction of p where r >= p leaves the residue."""
    if not primes:
        return lambda x: x
    moduli = np.array(primes, dtype=np.float64)
    by_rank = {d: (moduli.reshape(shape), ((1 - 2.0**-50) / moduli).reshape(shape))
               for d in (2, 3, 4) for shape in [(-1,) + (1,) * (d - 1)]}

    def reduce(x):
        p, c = by_rank[x.ndim]
        q = np.multiply(x, c)
        x -= np.multiply(np.floor(q, out=q), p, out=q)
        return np.subtract(x, p, out=x, where=x >= p)

    return reduce


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


class _DenseShape(NamedTuple):
    """What the evaluation program and the kernel route derive from a
    pattern alone."""

    forest: tuple  # (order, later, parent) of h's elimination plan
    width: int
    k: int  # vertex count of h's largest component
    steps: tuple  # (s, e, f, colours, count): see _dense_shape
    keys: tuple  # per vertex, the structural key of its message: see _dense_shape


@lru_cache(maxsize=1024)
def _dense_shape(h) -> _DenseShape:
    """h's plan, largest component, step sizes and message keys, memoised
    per pattern, a Graph or a ColoredGraph.  `steps` counts the elimination
    steps by their size s = |{v} + later[v]|, the number e of h's edges
    among those vertices, the number f of other pairs of them that a
    message into the step joins, and the sorted colours of those vertices
    (None for a Graph).  The key of v's message is (len(later[v]), the
    slots adjacent to v, the sorted (key, slots of its scope) of each
    message v takes in, v's colour or None), where the slots number
    (v,) + later[v] from 0: the same key is the same sum of products over
    the same host, so the same table, by induction."""
    colors = h.colors if isinstance(h, ColoredGraph) else None
    if colors is not None:
        h = h.graph
    width, *forest = elimination_plan(h)
    adj = adjacency(h)
    steps, keys = {}, [None] * h.n

    def step(v, later, factors):
        members = sorted((v,) + later)
        edges = {(a, b) for a, b in combinations(members, 2) if b in adj[a]}
        joined = {p for scope, _ in factors for p in combinations(scope, 2)} - edges
        key = (len(members), len(edges), len(joined),
               None if colors is None else tuple(sorted(colors[u] for u in members)))
        steps[key] = steps.get(key, 0) + 1
        slots = (v,) + later
        keys[v] = (len(later), tuple(i for i, u in enumerate(slots) if u in adj[v]),
                   tuple(sorted((k, tuple(map(slots.index, scope))) for scope, k in factors)),
                   None if colors is None else colors[v])
        return keys[v] if later else 1

    if width <= 3:  # the dense kernel takes no wider pattern
        _eliminate(tuple(forest), step)
    return _DenseShape(tuple(forest), width, max(map(len, connected_components(h)), default=1),
                       tuple(key + (m,) for key, m in steps.items()), tuple(keys))


class _Term(NamedTuple):
    """A hom term c * Hom(f, *) of a program."""

    f: object  # a Graph, or a ColoredGraph
    c: int
    shape: _DenseShape
    roots: tuple  # the nodes of its components' last steps


class _Program:
    """A hom form compiled once (_program); hashed by identity, so that
    _schedule memoises per program without hashing its nodes."""

    def __init__(self, nodes: tuple, terms: tuple):
        self.nodes = nodes  # per node (r, adjacent slots, ((node, slots), ...), colour)
        self.terms = terms  # per term a _Term


@lru_cache(maxsize=256)
def _program(terms: tuple) -> _Program:
    """The hom terms ((f, c), ...) compiled into one evaluation program.
    Its nodes are the distinct message keys of the terms' forests
    (_dense_shape), children first, each the key with every input's key
    replaced by that input's node: equal subtrees, in one term or across
    terms, are one node.  A term's roots are the nodes of its components'
    last steps, whose counts multiply (none above treewidth 3, which the
    dense kernel refuses)."""
    index, nodes, compiled = {}, [], []
    for f, c in terms:
        shape = _dense_shape(f)
        order, later, _ = shape.forest
        for v in order if shape.width <= 3 else ():
            if (key := shape.keys[v]) not in index:
                index[key] = len(nodes)
                nodes.append((key[0], key[1], tuple((index[k], s) for k, s in key[2]), key[3]))
        roots = tuple(index[shape.keys[v]] for v in order if not later[v] and shape.width <= 3)
        compiled.append(_Term(f, c, shape, roots))
    return _Program(tuple(nodes), tuple(compiled))


@lru_cache(maxsize=1024)
def _schedule(program: _Program, chosen: tuple) -> tuple:
    """(steps, profiles) that run the chosen terms of program over one value
    table.  steps, one per node that their roots read, directly or not, in
    node order: (node index, node, rank3, shared, last), rank3 when a
    three-vertex scope goes in or out, shared when more than one step reads
    the node's table (which is then read-only), last the inputs that no
    later step reads, freed after this one.  profiles: per step, the arrays
    alive while it runs, as counts of n x n and n x n x n arrays per prime
    (vectors are not counted): the tables not yet freed, its own, and what
    it builds besides: up to five n x n arrays (two products, a
    vector-weighted copy, the result and the quotient array of a modular
    reduction), or in a rank-3 step two slices of _SLICE layers and, where
    a three-vertex message goes into a step over three later vertices, two
    n x n x n arrays."""
    nodes = program.nodes
    reads, need = [0] * len(nodes), {x for t in chosen for x in program.terms[t].roots}
    for i in range(len(nodes) - 1, -1, -1):
        if i in need:
            for j, _ in nodes[i][2]:
                need.add(j)
                reads[j] += 1
    steps, profiles, live, left = [], set(), [0] * 4, reads.copy()
    for i in sorted(need):
        r, _, inputs, _ = node = nodes[i]
        wide = max((len(slots) for _, slots in inputs), default=0)
        if r == 3 or wide == 3:
            build = (2 * _SLICE + 2, 2 if r == wide == 3 else 0)
        else:
            build = (5 if max(r, wide) == 2 else 0, 0)
        profiles.add((live[2] + build[0] + (r == 2), live[3] + build[1] + (r == 3)))
        live[r] += 1
        last = []
        for j, _ in inputs:
            left[j] -= 1
            if not left[j]:
                last.append(j)
                live[nodes[j][0]] -= 1
        steps.append((i, node, r == 3 or wide == 3, reads[i] > 1, tuple(last)))
    return tuple(steps), tuple(profiles)


@lru_cache(maxsize=HOST_CACHE_SIZE)
def _host_facts(g: Graph) -> tuple:
    """(ends, D): the host's edges as a read-only 2 x m index array, and its
    maximum degree.  O(m) per host; the n x n matrix is never kept."""
    ends = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2).T.copy()
    ends.flags.writeable = False
    return ends, int(np.bincount(ends.ravel(), minlength=1).max())


def _predicted_work(program: _Program, g) -> list:
    """Per term of program, (dense, rows) when it has treewidth <= 3: the
    work of the dense kernel, the sum of n^s over its elimination steps on s
    vertices (_RANK3_WORK n^4 on four), and the rows of count_hom_dp, the
    sum of n^s (D/n)^e min(1, D^2/n)^f over the same steps, D the host's
    maximum degree (e and f as in _dense_shape).  A row extends through
    host neighbourhoods and dies where a message has no entry, so a pair
    joined by an edge keeps about D of the n images, and a pair joined only
    by a message, through a path of two edges or more, about D^2.  For
    ColoredGraphs a vertex's images are its host colour class, so a step's
    n^s in the rows is the product of its vertices' class sizes; the dense
    work does not shrink."""
    if isinstance(g, ColoredGraph):
        sizes, g = Counter(g.colors), g.graph
    n, degree = g.n, _host_facts(g)[1]
    if not n:
        return [(0, 0)] * len(program.terms)
    edge, message = degree / n, min(1, degree**2 / n)
    work = []
    for term in program.terms:
        dense = rows = 0
        for s, e, f, colours, m in term.shape.steps:
            dense += m * n**s * (_RANK3_WORK if s == 4 else 1)
            images = n**s if colours is None else math.prod(sizes[c] for c in colours)
            rows += m * images * edge**e * message**f
        work.append((dense, rows))
    return work


def _run(program: _Program, chosen: tuple, g) -> dict:
    """{t: Hom(f, g)} for the chosen terms t of program, each of
    treewidth <= 3, with dense float64 tables.  The terms are grouped by
    arithmetic regime, each regime's nodes run over one value table
    (_schedule), and each table is freed after its last reader.  Raises
    CapacityError, before allocating, when one regime's tables and the
    n x n adjacency matrix would pass DENSE_BYTES_GUARD.

    Certificate.  A table entry counts the maps of the pattern vertices
    eliminated into its message, with the message's scope fixed, and a
    product of the factors a step multiplies counts the maps of the union of
    theirs, with the step's scope fixed; every partial sum inside `*`,
    `.sum` and `@` adds non-negative terms of such an entry, so none exceeds
    it.  This holds for scopes of any size.  An eliminated vertex's
    neighbours are eliminated or in the scope, and the eliminated vertices
    of a message form a connected subgraph (a subtree of the elimination
    tree) that touches its scope; at a component's last step they are the
    component less one fixed vertex.  Placed outward from the fixed
    vertices, each has at most D images once the neighbour it is reached
    from is placed, D the host's maximum degree, so no value exceeds
    D^(k-1) for k the term's largest component's vertex count.  Below 2^53
    float64 is exact in any summation order; otherwise work modulo primes
    whose product exceeds it.  A colour mask only zeroes terms, so the bound
    holds for colour-preserving maps too."""
    colors = None
    if isinstance(g, ColoredGraph):
        colors, g = np.array(g.colors), g.graph
    n = g.n
    if not n or not chosen:
        return {t: int(not program.terms[t].f.n) for t in chosen}
    ends, degree = _host_facts(g)
    regimes: dict = {}
    for t in chosen:
        bound = degree ** (program.terms[t].shape.k - 1)
        regimes.setdefault(tuple(_word_primes(n, bound)) if bound >= _EXACT else (), []).append(t)
    runs = [(primes, terms, _schedule(program, tuple(terms))) for primes, terms in regimes.items()]
    need = 8 * n * n * max((1 + max(len(primes), 1) * max(a + b * n for a, b in profiles)
                            for primes, _, (_, profiles) in runs if profiles), default=0)
    if need > DENSE_BYTES_GUARD:
        raise CapacityError(
            f"dense factors need ~{need >> 20} MiB, capped at "
            f"{DENSE_BYTES_GUARD >> 20} MiB"
        )
    A = np.zeros((1, n, n))
    A[0, ends[0], ends[1]] = A[0, ends[1], ends[0]] = 1
    counts = {}
    for primes, terms, (steps, _) in runs:
        layers = max(len(primes), 1)
        # per pattern colour, the indicator of its host colour class, over the
        # primes as a step's one-vertex factors are, so that a component of
        # one vertex sums it to its class size like any last vector
        masks = None if colors is None else {
            c: np.broadcast_to((colors == c).astype(np.float64), (layers, n))
            for c in {node[3] for _, node, *_ in steps}}
        host = (np.broadcast_to(A, (layers, n, n)), masks, _reducer(primes), primes)
        values = [None] * len(program.nodes)
        for i, node, rank3, shared, last in steps:
            table = (_step3 if rank3 else _step)(node, [values[j] for j, _ in node[2]], host)
            if shared:
                table.flags.writeable = False
            values[i] = table
            for j in last:
                values[j] = None
        for t in terms:
            counts[t] = math.prod(values[x] for x in program.terms[t].roots)
    return counts


def count_hom_mm(h, g) -> int:
    """Homomorphism count for a treewidth-<=3 pattern with dense float64
    factors, exact in one pass under a degree bound and by residues modulo
    word-size primes above it: h as a one-term program (_run).  Disconnected
    patterns multiply per component.  Pattern and host are both Graphs, or
    both ColoredGraphs, and then each vertex's images keep its colour: the
    indicator vector of its host colour class multiplies in as one more
    factor over that vertex alone."""
    _same_kind(h, g)
    program = _program(((h, 1),))
    if program.terms[0].shape.width > 3:
        raise DecompositionError("count_hom_mm needs treewidth at most 3")
    return _run(program, (0,), g)[0]


def _hom_sum(program: _Program, g) -> int:
    """The sum of c * Hom(f, g) over the (f, c) terms of a compiled program
    (_program), c integers.  f and g are both Graphs, or both ColoredGraphs
    for colour-preserving maps.  A term of treewidth <= 3 whose work
    _predicted_work puts within DENSE_WORK_RATIO of the dict DP's rows runs
    in the program (_run), and every other term on the dict DP.  A program
    whose tables would pass DENSE_BYTES_GUARD runs its dense terms one at a
    time, each over its own nodes of the same program, and a term refused
    alone goes to the dict DP too."""
    for term in program.terms:
        _same_kind(term.f, g)
    dense = tuple(t for t, (term, (work, rows))
                  in enumerate(zip(program.terms, _predicted_work(program, g)))
                  if term.shape.width <= 3 and work <= DENSE_WORK_RATIO * rows)
    try:
        counts = _run(program, dense, g)
    except CapacityError:  # refused before allocating: the dict factors need no n x n
        counts = {}
        for t in dense:
            with suppress(CapacityError):
                counts.update(_run(program, (t,), g))
    return sum(term.c * (counts[t] if t in counts else count_hom_dp(term.f, g))
               for t, term in enumerate(program.terms))


def _step(node, tables: list, host: tuple):
    """The table of a step of rank <= 2 (_run): node (r, adjacent slots,
    inputs, colour) sums slot 0 out of the product of the adjacency matrix
    at each adjacent slot, the input tables and its colour mask.  Tables are
    stacked over the primes (one layer without them); those over (0,)
    multiply into vec, those over (0, u) into mats[u], indexed [., x_u, x_0]
    and C-contiguous so that products run along rows."""
    A, masks, reduce, primes = host
    r, adj, inputs, colour = node
    vec = None if masks is None else masks[colour]
    mats = {u: A for u in adj}
    for (_, slots), t in zip(inputs, tables):
        if len(slots) == 1:
            vec = t if vec is None else reduce(vec * t)
            continue
        u = slots[0] or slots[1]
        if slots[1]:
            t = np.ascontiguousarray(t.swapaxes(1, 2))
        mats[u] = reduce(mats[u] * t) if u in mats else t
    if not r:
        # the component's last vector goes to Python ints before its sum,
        # which can exceed the per-entry bound
        if vec is None:
            return A.shape[-1]
        if primes:
            return _crt_sum(vec, primes)
        return sum(vec[0].astype(np.int64).tolist())
    first = mats[1]
    if r == 1:
        if vec is None:
            return reduce(first.sum(axis=2))
        return reduce(np.matmul(first, vec[:, :, None])[:, :, 0])
    if vec is not None:
        first = reduce(first * vec[:, None, :])
    return reduce(first @ mats[2].swapaxes(1, 2))


def _step3(node, tables: list, host: tuple):
    """The table of a step with a three-vertex scope in or out (_run).  Each
    input is viewed as [., *rest, x_0], rest its other slots, beside the
    adjacency matrix at each adjacent slot and the colour mask.  Over two
    later slots their product is summed over x_0 in slices.  Over three,
    each factor multiplies into the group of its rest, and each group into
    one group whose rest contains its own.  A group is `owned` when this
    step may overwrite it: an input is, unless another step reads it too
    (then it is read-only), and the adjacency matrix and masks never are."""
    A, masks, reduce, _ = host
    r, adj, inputs, colour = node
    factors = [(slots[:i] + slots[i + 1:], np.moveaxis(t, i + 1, -1), t.flags.writeable)
               for (_, slots), t in zip(inputs, tables) for i in [slots.index(0)]]
    factors += [((u,), A, False) for u in adj]
    if masks is not None:
        factors.append(((), masks[colour], False))
    if r == 2:
        # a three-vertex message goes in: every factor as [., x_1, x_2, x_0],
        # multiplied in slices of _SLICE rows of x_1, so that no
        # n x n x n array is built
        out = np.empty(A.shape)
        wide = [(1 in rest, _widen(t, rest, (1, 2))) for rest, t, _ in factors]
        for lo in range(0, A.shape[-1], _SLICE):
            rows = slice(lo, lo + _SLICE)
            block = None
            for sliced, t in wide:
                t = t[:, rows] if sliced else t
                block = t if block is None else reduce(block * t)
            out[:, rows] = reduce(block.sum(axis=-1))
        return out
    groups: dict = {}
    for rest, t, owned in factors:
        _fold(groups, rest, t, owned, reduce)
    for rest in sorted(groups, key=len):
        supersets = [w for w in groups if w != rest and set(rest) <= set(w)]
        if supersets:
            w = max(supersets, key=lambda w: groups[w][1])  # owned first
            _fold(groups, w, _widen(groups.pop(rest)[0], rest, w), False, reduce)
    out = np.empty(A.shape + A.shape[-1:])
    _contract3({rest: t for rest, (t, _) in groups.items()}, (1, 2, 3), reduce, out)
    return out


def _fold(groups: dict, rest: tuple, t, owned: bool, reduce) -> None:
    """Multiply the array t (indexed [., *rest, x_v]) into groups[rest], a
    pair [array, owned], overwriting an owned array in place."""
    if rest not in groups:
        groups[rest] = [t, owned]
        return
    x, x_owned = groups[rest]
    if not x_owned and owned and t.shape == np.broadcast_shapes(t.shape, x.shape):
        x, t, x_owned = t, x, True
    if x_owned:
        reduce(np.multiply(x, t, out=x))
    else:
        x, x_owned = reduce(x * t), True
    groups[rest] = [x, x_owned]


def _widen(t, rest: tuple, wider: tuple):
    """t, indexed [., *rest, x_v], as a view broadcast over `wider`, a tuple
    holding rest in the same order."""
    return t[(slice(None),) + tuple(slice(None) if u in rest else None for u in wider)]


def _contract3(factors: dict, later: tuple, reduce, out) -> None:
    """Write into out, an n x n x n array [., *later], the sum over x_v of
    the product of the arrays factors[rest], each indexed [., *rest, x_v]:
    the rests cover the three later vertices, none holds another, and each
    has at most two.  Every sum runs over x_v alone, of products of two
    arrays reduced as they are built, and out is filled in slices of _SLICE
    rows, so that no array spans four vertices and the slices are the only
    other arrays built."""
    n = out.shape[-1]

    def view(t, rest, axes):
        # t as [., *axes, x_v], with a unit axis for a vertex not in rest
        wider = tuple(sorted(axes))
        return _widen(t, rest, wider).transpose(
            (0,) + tuple(1 + wider.index(u) for u in axes) + (len(axes) + 1,))

    if len(factors) == 2:
        # out[w, r, q] = sum_v X[w, r, v] Y[w, q, v], batched over w: the
        # vertex the two share, or else the first of the pair
        (rx, x), (ry, y) = sorted(factors.items(), key=lambda f: -len(f[0]))
        w = next((u for u in rx if u in ry), rx[0])
        (r,) = [u for u in rx if u != w]
        (q,) = [u for u in ry if u != w]
        target = out.transpose((0,) + tuple(1 + later.index(u) for u in (w, r, q)))
        left, right = view(x, rx, (w, r)), view(y, ry, (w, q)).swapaxes(-1, -2)
        for lo in range(0, n, _SLICE):
            rows = slice(lo, lo + _SLICE)
            target[:, rows] = reduce(left[:, rows] @ (right[:, rows] if w in ry else right))
    elif all(len(rest) == 1 for rest in factors):
        # out[a, b, c] = sum_v A[a, v] B[b, v] C[c, v]
        fa, fb, fc = (factors[u,] for u in later)
        right = fc.swapaxes(-1, -2)[:, None]
        for lo in range(0, n, _SLICE):
            rows = slice(lo, lo + _SLICE)
            out[:, rows] = reduce(reduce(fa[:, rows, None, :] * fb[:, None, :, :]) @ right)
    else:
        # three pairs: out[a, b, c] = sum_v X[a, b, v] Y[a, c, v] Z[b, c, v],
        # in slices of b at each a; the sum runs over products of two
        # residues, (X Y) reduced and Z
        a, b, c = later
        x, y, z = factors[a, b], factors[a, c], factors[b, c]
        for i in range(n):
            for lo in range(0, n, _SLICE):
                rows = slice(lo, lo + _SLICE)
                part = reduce(x[:, i, rows, None, :] * y[:, i, None, :, :])
                out[:, i, rows] = reduce(np.multiply(part, z[:, rows], out=part).sum(axis=-1))
