"""Shared helpers for the test suite."""

import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import motifcount
from motifcount import homcount
from motifcount.decomp import elimination_plan
from motifcount.graphs import ColoredGraph, Graph, adjacency, canonical_form

CLI_MAIN = "import sys; from motifcount.cli import main; sys.exit(main(sys.argv[1:]))"


def run_isolated(code: str, *argv, timeout: float = 60) -> subprocess.CompletedProcess:
    """`python -c code *argv` in a separate process that can import
    motifcount and these helpers, so that a hang fails the test at its
    timeout (in seconds)."""
    paths = [str(Path(motifcount.__file__).parents[1]), str(Path(__file__).parent)]
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )


def word_primes_bounds(monkeypatch) -> list:
    """The certificate bound of every call of _word_primes from now on: empty
    while count_hom_mm stays in one float64 pass."""
    bounds = []
    word_primes = homcount._word_primes
    monkeypatch.setattr(
        homcount,
        "_word_primes",
        lambda n, bound: bounds.append(bound) or word_primes(n, bound),
    )
    return bounds


def relabel(g, perm):
    """g with vertex v renamed perm[v], the colors of a ColoredGraph carried
    along."""
    if isinstance(g, ColoredGraph):
        colors = [0] * g.n
        for v in range(g.n):
            colors[perm[v]] = g.colors[v]
        return ColoredGraph(relabel(g.graph, perm), colors)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_colored(rng: random.Random, n: int, ncolors: int, p: float = 0.5) -> ColoredGraph:
    return ColoredGraph(
        random_graph(rng, n, p), [rng.randrange(ncolors) for _ in range(n)]
    )


def twin_rich(rng: random.Random, n: int, ncolors: int) -> ColoredGraph:
    """A random graph on at most 3 vertices, grown to n vertices by copying
    random vertices as true twins (adjacent to the original) or false twins
    (not adjacent); a copy mostly keeps its original's color.  Vertices are
    then shuffled."""
    base = rng.randint(1, min(n, 3)) if n else 0
    adj = [set() for _ in range(n)]
    for u, v in itertools.combinations(range(base), 2):
        if rng.random() < 0.5:
            adj[u].add(v)
            adj[v].add(u)
    colors = [rng.randrange(ncolors) for _ in range(base)]
    for w in range(base, n):
        v = rng.randrange(w)
        for u in adj[v] | ({v} if rng.random() < 0.5 else set()):
            adj[u].add(w)
            adj[w].add(u)
        colors.append(colors[v] if rng.random() < 0.8 else rng.randrange(ncolors))
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u in range(n) for v in adj[u] if u < v]
    shuffled = [0] * n
    for v in range(n):
        shuffled[perm[v]] = colors[v]
    return ColoredGraph(Graph(n, edges), shuffled)


def path(k: int) -> Graph:
    """Path with k edges (k+1 vertices)."""
    return Graph(k + 1, [(i, i + 1) for i in range(k)])


def cycle(k: int) -> Graph:
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def clique(k: int) -> Graph:
    return Graph(k, list(itertools.combinations(range(k), 2)))


def matching(m: int) -> Graph:
    """m disjoint edges."""
    return Graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def prism(k: int) -> Graph:
    """C_k x K2 on 2k vertices: cubic, and triangle-free for k >= 4."""
    return Graph(
        2 * k,
        [(i, (i + 1) % k) for i in range(k)]
        + [(k + i, k + (i + 1) % k) for i in range(k)]
        + [(i, k + i) for i in range(k)],
    )


def all_graphs_up_to(n_max: int):
    """One labeled representative per isomorphism class, for every vertex
    count 1..n_max."""
    return list(_graph_classes(n_max))


@functools.lru_cache(maxsize=8)
def _graph_classes(n_max: int) -> tuple:
    classes = {}
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            cf = canonical_form(g)
            classes.setdefault(cf.key, cf.graph)
    return tuple(classes.values())


def has_a_path(g: Graph, a: set, removed) -> bool:
    """Does some component of g - removed hold two a-vertices?"""
    adj = adjacency(g)
    seen = set(removed)
    for s in range(g.n):
        if s in seen:
            continue
        seen.add(s)
        stack, hits = [s], 0
        while stack:
            u = stack.pop()
            hits += u in a
            for w in adj[u] - seen:
                seen.add(w)
                stack.append(w)
        if hits >= 2:
            return True
    return False


def brute_attachment(g: Graph, v: int, a: frozenset) -> int:
    """Maximum v-A path system sharing only v, by exhaustive search."""
    adj = adjacency(g)
    paths = []
    stack = [(v, (v,))]
    while stack:
        u, p = stack.pop()
        for w in sorted(adj[u]):
            if w in p:
                continue
            if w in a and w != v:
                paths.append(p + (w,))
            else:
                stack.append((w, p + (w,)))
    best = 0

    def rec(idx, count, used):
        nonlocal best
        best = max(best, count)
        for j in range(idx, len(paths)):
            body = frozenset(paths[j]) - {v}
            if used & body:
                continue
            rec(j + 1, count + 1, used | body)

    rec(0, 0, frozenset())
    return best


def reference_hom_dp(h, g) -> int:
    """Hom(h, g) by elimination along h's plan with dict factors keyed by
    host-vertex tuples: h and g both Graphs, or both ColoredGraphs.  This
    is the dict DP that count_hom_dp ran before its row tables, kept as
    their reference: each step seeds its rows from its largest message,
    grows them one pattern vertex at a time through host neighbourhoods
    (each image of its vertex's colour), joins each other message once
    its scope is placed, and sums the rows over its scope."""
    if isinstance(h, ColoredGraph):
        classes = {c: frozenset(x for x, cx in enumerate(g.colors) if cx == c)
                   for c in set(h.colors)}
        restricted = {c: tuple(a & cls for a in adjacency(g.graph)) for c, cls in classes.items()}
        hosts = [classes[c] for c in h.colors]
        neighbours = [restricted[c] for c in h.colors]
        h = h.graph
    else:
        hosts, neighbours = [range(g.n)] * h.n, [adjacency(g)] * h.n
    adj = adjacency(h)

    def growth_order(rest, placed):
        order, rest = list(placed), list(rest)
        while rest:
            u = max(rest, key=lambda u: (len(adj[u].intersection(order)),
                                         len(adj[u].intersection(rest))))
            rest.remove(u)
            order.append(u)
        return order

    def grow(rows, order, start, factors):
        pos = {u: i for i, u in enumerate(order)}
        joins = [[] for _ in range(len(order) + 1)]
        for scope, table in factors:
            at = max(start, max(pos[u] + 1 for u in scope))
            joins[at].append(([pos[u] for u in scope], table))
        for i in range(start, len(order) + 1):
            for at, table in joins[i]:
                rows = [(key, cnt * c) for key, cnt in rows
                        if (c := table.get(tuple(key[j] for j in at))) is not None]
            if i == len(order) or not rows:
                return rows
            u = order[i]
            nb = [pos[w] for w in adj[u] if pos.get(w, i) < i]
            grown = []
            for key, cnt in rows:
                allowed = neighbours[u][key[nb[0]]] if nb else hosts[u]
                for j in nb[1:]:
                    allowed = allowed & neighbours[u][key[j]]
                grown.extend((key + (x,), cnt) for x in allowed)
            rows = grown

    def step(v, later, factors):
        if factors:
            seed = max(factors, key=lambda f: len(f[1]))
            placed, rows = seed[0], list(seed[1].items())
            factors = [f for f in factors if f is not seed]
        else:
            placed, rows = (), [((), 1)]
        order = growth_order([u for u in (v,) + later if u not in placed], placed)
        out = {}
        for key, cnt in grow(rows, order, len(placed), factors):
            short = tuple(key[order.index(u)] for u in later)
            out[short] = out.get(short, 0) + cnt
        return out if later else out.get((), 0)

    return homcount._eliminate(elimination_plan(h)[1:], step)
