"""Shared helpers for the test suite."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import motifcount
from motifcount.graphs import ColoredGraph, Graph, adjacency, canonical_form

CLI_MAIN = "import sys; from motifcount.cli import main; sys.exit(main(sys.argv[1:]))"


def run_isolated(code: str, *argv) -> subprocess.CompletedProcess:
    """`python -c code *argv` in a separate process that can import
    motifcount and these helpers, so that a hang fails the test at its
    timeout."""
    paths = [str(Path(motifcount.__file__).parents[1]), str(Path(__file__).parent)]
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )


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
    classes = {}
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            cf = canonical_form(g)
            classes.setdefault(cf.key, cf.graph)
    return list(classes.values())


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
