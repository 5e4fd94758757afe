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
What count_hom_mm derives from one input alone is built once: per host
(_host_facts) the read-only edge-index arrays and the maximum degree, O(m);
per pattern (_dense_shape) the plan, the adjacency, the largest component,
the dense layers, the step sizes and colours that _predicted_work prices
both kernels by, and a structural key per message, which holds the colour
of each eliminated vertex, so that only identically coloured subtrees share
a table.  The hom terms of one evaluation are quotients of the same
patterns, so their elimination forests repeat subtrees: equal keys give
equal tables.  A store (_Messages) that lives for one evaluate call on one
host holds, read-only and per arithmetic regime, each message over one or
two vertices whose key more than one term sends (_shared_keys), and a
term reads the topmost held messages of its forest instead of eliminating
their subtrees.  The store also holds the n x n adjacency matrix, built
after DENSE_BYTES_GUARD has passed, once per evaluation (once per call
without a store); its tables count against the guard, and no cache keeps
any of them.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

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
# rows per slice in a rank-3 step that multiplies three arrays
_SLICE = 8
# _predicted_work's weight on n^4, the work of a step over three later
# vertices: it runs as slices of batched products and elementwise passes,
# slower per n^4 than one BLAS product per n^3 (set with
# motif.DENSE_WORK_RATIO, from the same timings)
_RANK3_WORK = 3


def _eliminate(forest: tuple, step, given: dict = None) -> int:
    """Run bucket elimination over a forest (order, later, parent) on the
    nodes 0..len(later)-1, children first, such as elimination_plan(h)[1:].
    step(v, later, factors) gets v, its scope later[v] and the (scope,
    table) factors in v's bucket, and returns the table over `later`, which
    goes to the bucket of v's parent; when `later` is empty that is an int,
    the count of v's tree, and the trees' counts multiply.  `given` maps a
    node that order leaves out, with its subtree, to its table."""
    order, later, parent = forest
    buckets: list = [[] for _ in later]
    for v, table in (given or {}).items():
        buckets[parent[v]].append((later[v], table))
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


def count_hom_dp(h, g) -> int:
    """Number of homomorphisms from h to g, by elimination along h's plan
    with dict factors: both Graphs, or both ColoredGraphs for
    colour-preserving maps."""
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
    """What count_hom_mm and the kernel route derive from a pattern alone."""

    forest: tuple  # (order, later, parent) of h's elimination plan
    width: int
    adj: tuple  # h's neighbour sets
    k: int  # vertex count of h's largest component
    layers: tuple  # (a, b): a step holds at most a + b*n arrays n x n per prime
    steps: tuple  # (s, e, f, colours, count): see _dense_shape
    keys: tuple  # per vertex, the structural key of its message: see _dense_shape
    colors: tuple  # a ColoredGraph's colours, None for a Graph


def _rank3(later, factors) -> bool:
    """Does this step need rank-3 arrays (a three-vertex scope in or out)?"""
    return len(later) == 3 or any(len(scope) == 3 for scope, _ in factors)


@lru_cache(maxsize=1024)
def _dense_shape(h) -> _DenseShape:
    """h's plan, adjacency, largest component, dense memory and work,
    memoised per pattern, a Graph or a ColoredGraph.  `layers` bounds the
    n x n arrays per prime held at once besides the adjacency matrix, an
    n x n x n array counting n: the messages waiting in buckets, plus the
    arrays a step builds.  A step of rank <= 2 builds four (two products,
    the vector-weighted copy and the result), or none over one later vertex
    with only one-vertex messages; a rank-3 step builds its result and one
    vector-weighted copy of the adjacency matrix, and over three later
    vertices two slices of _SLICE layers, its result multiplying into a
    waiting message over the same scope if there is one.  `steps` counts the
    elimination steps by their size s = |{v} + later[v]|, the number e of
    h's edges among those vertices, the number f of other pairs of them that
    a message into the step joins, and the sorted colours of those vertices
    (None for a Graph).  The key of v's message is (len(later[v]), the slots
    of later[v] adjacent to v, the sorted (key, slots of its scope in
    (v,) + later[v]) of each message v takes in, v's colour or None): the
    same key is the same sum of products over the same host, so the same
    table, by induction."""
    colors = h.colors if isinstance(h, ColoredGraph) else None
    if colors is not None:
        h = h.graph
    width, *forest = elimination_plan(h)
    adj, parent = adjacency(h), forest[2]
    held = [0, 0]  # waiting messages over two and over three vertices
    waiting = set()  # (vertex, scope) of each three-vertex message sent
    layers, steps, keys = {(0, 0)}, {}, [None] * h.n

    def step(v, later, factors):
        members = sorted((v,) + later)
        edges = {(a, b) for a, b in combinations(members, 2) if b in adj[a]}
        joined = {p for scope, _ in factors for p in combinations(scope, 2)} - edges
        key = (len(members), len(edges), len(joined),
               None if colors is None else tuple(sorted(colors[u] for u in members)))
        steps[key] = steps.get(key, 0) + 1
        new = len(later) == 3 and (parent[v], later) not in waiting
        if len(later) == 3:
            waiting.add((parent[v], later))
            layers.add((held[0] + 2 * _SLICE + 1, held[1] + new))
        elif _rank3(later, factors):
            layers.add((held[0] + 2, held[1]))
        elif len(later) == 2 or any(len(scope) == 2 for scope, _ in factors):
            layers.add((held[0] + 4, held[1]))
        for scope, (built, _) in factors:
            if built:
                held[len(scope) - 2] -= 1
        held[0] += len(later) == 2
        held[1] += new
        slots = (v,) + later
        keys[v] = (len(later), tuple(i for i, u in enumerate(later) if u in adj[v]),
                   tuple(sorted((k, tuple(map(slots.index, scope))) for scope, (_, k) in factors)),
                   None if colors is None else colors[v])
        # the table: whether the message is an array of its own, n x n or
        # more, and its key
        return (len(later) == 2 or new, keys[v]) if later else 1

    if width <= 3:  # count_hom_mm refuses wider patterns
        _eliminate(tuple(forest), step)
    return _DenseShape(tuple(forest), width, adj,
                       max(map(len, connected_components(h)), default=1),
                       tuple(layers), tuple(key + (m,) for key, m in steps.items()),
                       tuple(keys), colors)


def _shared_keys(patterns) -> frozenset:
    """The keys of the messages over one or two vertices that more than one
    of these hom terms sends: the messages that one evaluation's store holds
    (_Messages).  Three-vertex messages are never shared: a step multiplies
    them in place."""
    sent = Counter()
    for h in patterns:  # keys are None above treewidth 3
        sent.update({k for k in _dense_shape(h).keys if k and 1 <= k[0] <= 2})
    return frozenset(key for key, terms in sent.items() if terms > 1)


class _Messages:
    """What the hom terms of one evaluate call share on one host in
    count_hom_mm: the adjacency layer, built once, and the tables of the
    messages whose keys are in `shared`, read-only, per key and tuple of
    the primes their residues are taken modulo (empty in the float64
    regime), so that no table crosses regimes."""

    def __init__(self, shared: frozenset = frozenset()):
        self.shared = shared
        self.layer = None
        self.tables: dict = {}  # (key, primes) -> table
        self.nbytes = 0  # held by the tables

    def reuse(self, shape: _DenseShape, primes: tuple, room: int, step) -> tuple:
        """(forest, step, given) for the elimination of shape's pattern:
        given maps each topmost vertex of its forest whose message is held
        over these primes to that table, the forest leaves out their
        subtrees, and step holds each message whose key is shared while the
        tables take at most room bytes."""
        order, later, parent = shape.forest
        given, skip = {}, set()
        for v in reversed(order):  # parents first
            if parent[v] in skip:
                skip.add(v)
            elif (table := self.tables.get((shape.keys[v], primes))) is not None:
                given[v] = table
                skip.add(v)

        def run(v, later, factors):
            table = step(v, later, factors)
            if shape.keys[v] in self.shared:
                self.hold(shape.keys[v], primes, table, room)
            return table

        return (tuple(v for v in order if v not in skip), later, parent), run, given

    def hold(self, key: tuple, primes: tuple, table, room: int) -> None:
        """Hold table as message key over these primes, unless one is held
        or it would take the tables past room bytes."""
        if (key, primes) not in self.tables and self.nbytes + table.nbytes <= room:
            table.flags.writeable = False  # no step writes into a held table
            self.tables[key, primes] = table
            self.nbytes += table.nbytes

    def clear(self) -> None:
        self.tables.clear()
        self.nbytes = 0


@lru_cache(maxsize=HOST_CACHE_SIZE)
def _host_facts(g: Graph) -> tuple:
    """(ends, D): the host's edges as a read-only 2 x m index array, and its
    maximum degree.  O(m) per host; the n x n matrix is never kept."""
    ends = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2).T.copy()
    ends.flags.writeable = False
    return ends, int(np.bincount(ends.ravel(), minlength=1).max())


def _predicted_work(h, g) -> tuple:
    """(dense, rows) for a pattern of treewidth <= 3: the work of
    count_hom_mm, the sum of n^s over h's elimination steps on s vertices
    (_RANK3_WORK n^4 on four), and the rows of count_hom_dp, the sum of
    n^s (D/n)^e min(1, D^2/n)^f over the same steps, D the host's maximum
    degree (e and f as in _dense_shape).  A row extends through host
    neighbourhoods and dies where a message has no entry, so a pair joined
    by an edge keeps about D of the n images, and a pair joined only by a
    message, through a path of two edges or more, about D^2.  For
    ColoredGraphs a vertex's images are its host colour class, so a step's
    n^s in the rows is the product of its vertices' class sizes; the dense
    work does not shrink."""
    shape = _dense_shape(h)
    if shape.colors is not None:
        sizes, g = Counter(g.colors), g.graph
    n, degree = g.n, _host_facts(g)[1]
    dense = rows = 0
    if n:
        edge, message = degree / n, min(1, degree**2 / n)
        for s, e, f, colours, m in shape.steps:
            dense += m * n**s * (_RANK3_WORK if s == 4 else 1)
            images = n**s if colours is None else math.prod(sizes[c] for c in colours)
            rows += m * images * edge**e * message**f
    return dense, rows


def count_hom_mm(h, g, messages: _Messages = None) -> int:
    """Homomorphism count for a treewidth-<=3 pattern with dense float64
    factors, exact in one pass under a degree bound and by residues modulo
    word-size primes above it.  Disconnected patterns multiply per
    component.  Pattern and host are both Graphs, or both ColoredGraphs, and
    then each vertex's images keep its colour: the indicator vector of its
    host colour class multiplies in as one more factor over that vertex
    alone.  `messages` holds what the hom terms of one evaluation share on g
    (_Messages)."""
    shape = _dense_shape(h)
    if shape.colors is not None:
        h, host_colors, g = h.graph, g.colors, g.graph
    if h.n and not g.n:
        return 0
    if shape.width > 3:
        raise DecompositionError("count_hom_mm needs treewidth at most 3")
    n = g.n
    ends, degree = _host_facts(g)
    # Certificate.  A factor entry counts the maps of the pattern vertices
    # eliminated into its message, with the message's scope fixed, and a
    # product of the factors a step multiplies counts the maps of the union
    # of theirs, with the step's scope fixed; every partial sum inside `*`,
    # `.sum` and `@` adds non-negative terms of such an entry, so none
    # exceeds it.  This holds for scopes of any size.  An eliminated
    # vertex's neighbours are eliminated or in the scope, and the eliminated
    # vertices of a message form a connected subgraph (a subtree of the
    # elimination tree) that touches its scope; at a component's last step
    # they are the component less one fixed vertex.  Placed outward from the
    # fixed vertices, each has at most D images once the neighbour it is
    # reached from is placed, D the host's maximum degree, so no value
    # exceeds D^(k-1) for k the largest component's vertex count.  Below
    # 2^53 float64 is exact in any summation order; otherwise work modulo
    # primes whose product exceeds it.  A colour mask only zeroes terms, so
    # the bound holds for colour-preserving maps too.
    bound = degree ** (shape.k - 1)
    primes = _word_primes(n, bound) if bound >= _EXACT else []
    # the adjacency matrix is one layer, broadcast over the primes; the
    # tables that messages holds count too, and make way for the term's own
    layers = max(a + b * n for a, b in shape.layers)
    need = (1 + layers * max(len(primes), 1)) * n * n * 8
    if need > DENSE_BYTES_GUARD:
        raise CapacityError(
            f"dense factors need ~{need >> 20} MiB, capped at "
            f"{DENSE_BYTES_GUARD >> 20} MiB"
        )
    if messages is None:
        messages = _Messages()
    elif need + messages.nbytes > DENSE_BYTES_GUARD:
        messages.clear()
    if messages.layer is None:
        A = np.zeros((1, n, n))
        A[0, ends[0], ends[1]] = A[0, ends[1], ends[0]] = 1
        A.flags.writeable = False
        messages.layer = A
    A = messages.layer
    adj_h = shape.adj
    # masks[v]: the indicator of v's host colour class, over the primes as
    # a step's one-vertex factors are, so that a component of one vertex sums
    # it to its class size like any last vector
    masks = None
    if shape.colors is not None:
        host_colors = np.array(host_colors)
        in_class = {c: np.broadcast_to((host_colors == c).astype(np.float64),
                                       (max(len(primes), 1), n))
                    for c in set(shape.colors)}
        masks = [in_class[c] for c in shape.colors]
    if primes:
        A = np.broadcast_to(A, (len(primes), n, n))
        moduli = np.array(primes, dtype=np.float64)
        by_rank = {2: moduli[:, None], 3: moduli[:, None, None],
                   4: moduli[:, None, None, None]}

        def reduce(x):
            return np.fmod(x, by_rank[x.ndim], out=x)
    else:
        def reduce(x):
            return x

    def step(v, later, factors):
        # factors are stacked over the primes (one layer without them); those
        # over (v,) multiply into vec, those over (u, v) into mats[u], indexed
        # [., x_u, x_v] and C-contiguous so that products run along rows
        vec = None if masks is None else masks[v]
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

    # waiting[u][scope]: the three-vertex message over scope in u's bucket;
    # another one bound there multiplies into it instead of taking n^3 more
    waiting: dict = {}
    parent = shape.forest[2]

    def step3(v, later, factors):
        # A step with a three-vertex scope in or out.  Each factor is viewed
        # as [., *rest, x_v], rest its scope's later vertices, and multiplied
        # into the group of its rest; each group then multiplies into one
        # group whose rest contains its own.  A group is `owned` when this
        # step may overwrite it: a message is, unless it is held for other
        # terms (read-only), and A never is.
        waiting.pop(v, None)
        groups: dict = {}
        for scope, t in factors:
            if t is not None:  # None: multiplied into a message over its scope
                i = scope.index(v)
                _fold(groups, scope[:i] + scope[i + 1:], np.moveaxis(t, i + 1, -1),
                      t.flags.writeable, reduce)
        for u in later:
            if u in adj_h[v]:
                _fold(groups, (u,), A, False, reduce)
        if masks is not None:
            _fold(groups, (), masks[v], False, reduce)
        for rest in sorted(groups, key=len):
            supersets = [r for r in groups if r != rest and set(rest) <= set(r)]
            if supersets:
                r = max(supersets, key=lambda r: groups[r][1])  # owned first
                _fold(groups, r, _widen(groups.pop(rest)[0], rest, r), False, reduce)
        if len(later) == 2:
            # a three-vertex message over (v, *later) took in every factor
            return reduce(groups[later][0].sum(axis=-1))
        sent = waiting.setdefault(parent[v], {})
        fresh = later not in sent
        if fresh:
            sent[later] = np.empty((max(len(primes), 1), n, n, n))
        _contract3({rest: t for rest, (t, _) in groups.items()}, later, reduce, sent[later],
                   fresh)
        return sent[later] if fresh else None

    if shape.width <= 2:
        run = step
    else:
        def run(v, later, factors):
            return (step3 if _rank3(later, factors) else step)(v, later, factors)

    return _eliminate(*messages.reuse(shape, tuple(primes), DENSE_BYTES_GUARD - need, run))


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


def _contract3(factors: dict, later: tuple, reduce, out, fresh: bool) -> None:
    """Write (fresh) or multiply into out, an n x n x n array [., *later],
    the sum over x_v of the product of the arrays factors[rest], each
    indexed [., *rest, x_v]: the rests cover the three later vertices, none
    holds another, and each has at most two.  Every sum runs over x_v alone,
    of products of two arrays reduced as they are built, and out is filled
    in slices of _SLICE rows, so that no array spans four vertices and the
    slices are the only other arrays built."""
    n = out.shape[-1]

    def put(target, block):
        if fresh:
            target[...] = reduce(block)
        else:
            reduce(np.multiply(target, reduce(block), out=target))

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
            put(target[:, rows], left[:, rows] @ (right[:, rows] if w in ry else right))
    elif all(len(rest) == 1 for rest in factors):
        # out[a, b, c] = sum_v A[a, v] B[b, v] C[c, v]
        fa, fb, fc = (factors[u,] for u in later)
        right = fc.swapaxes(-1, -2)[:, None]
        for lo in range(0, n, _SLICE):
            rows = slice(lo, lo + _SLICE)
            put(out[:, rows], reduce(fa[:, rows, None, :] * fb[:, None, :, :]) @ right)
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
                put(out[:, i, rows], np.multiply(part, z[:, rows], out=part).sum(axis=-1))
