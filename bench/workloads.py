"""The benchmark's workloads: seeded inputs, the queries one query process
issues, and the references its answers are checked against.

Every host is G(n, m): n vertices and exactly m edges drawn uniformly, so
that hosts of different seeds do the same amount of work.  The program sees
only the files written here: graph6 for plain hosts and patterns, the
edge-list format with ``c`` lines for colored ones, and a motif-parameter
file for ``eval``.  Each workload also has a small "twin" host from the same
seed, on which the brute-force oracle checks the very same query path.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# graphs as (n, sorted edge list); written without the code under test


def gnm(rng: random.Random, n: int, m: int) -> tuple:
    pairs = list(itertools.combinations(range(n), 2))
    return n, sorted(rng.sample(pairs, m))


def colored_gnm(rng: random.Random, n: int, m: int) -> tuple:
    """Three equal colour classes in random positions, and m edges spread
    over the colour-pair blocks in proportion to their sizes (rounded), so
    that the colored DP does about the same work for every seed."""
    colors = [v % 3 for v in range(n)]
    rng.shuffle(colors)
    members = [[v for v in range(n) if colors[v] == c] for c in range(3)]
    blocks = []
    for a in range(3):
        blocks.append(list(itertools.combinations(members[a], 2)))
        for b in range(a + 1, 3):
            blocks.append([(min(u, v), max(u, v)) for u in members[a] for v in members[b]])
    total = n * (n - 1) // 2
    edges = [e for block in blocks for e in rng.sample(block, round(m * len(block) / total))]
    return (n, sorted(edges)), colors


def path(vertices: int) -> tuple:
    return vertices, [(i, i + 1) for i in range(vertices - 1)]


def cycle(k: int) -> tuple:
    return k, sorted((min(i, (i + 1) % k), max(i, (i + 1) % k)) for i in range(k))


# The six unlabelled trees on six vertices.
TREES6 = [
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],  # path
    [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],  # spine of 5, leaf on the middle
    [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)],  # spine of 5, leaf on the second
    [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5)],  # spine of 4, two leaves on one end
    [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)],  # spine of 4, a leaf on each inner
    [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],  # star
]


def graph6(graph: tuple) -> str:
    n, edges = graph
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~"] + [chr(((n >> s) & 63) + 63) for s in (12, 6, 0)]
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def edge_list(graph: tuple, colors) -> str:
    n, edges = graph
    lines = [f"n {n}"] + [f"e {u} {v}" for u, v in edges]
    lines += [f"c {v} {c}" for v, c in enumerate(colors)]
    return "\n".join(lines) + "\n"


def adjacency_matrix(graph: tuple) -> np.ndarray:
    n, edges = graph
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    return a


def closed_walks(a: np.ndarray, k: int) -> int:
    """tr(A^k) in int64, under the bound n * maxdeg^k < 2^63 on every entry
    sum; equals Hom(C_k, G) for k >= 3."""
    n = a.shape[0]
    maxdeg = int(a.sum(axis=1).max()) if n else 0
    if n * maxdeg**k >= 2**63:
        raise OverflowError(f"tr(A^{k}) may overflow int64 (n={n}, maxdeg={maxdeg})")
    return int(np.trace(np.linalg.matrix_power(a, k)))


def alternating_c6_homs(a: np.ndarray, colors) -> int:
    """Colored Hom of C6 coloured (0,1,0,1,0,1): closed walks of length 6
    that alternate between colour 0 and colour 1, tr((B B^T)^3)."""
    zero = [v for v, c in enumerate(colors) if c == 0]
    one = [v for v, c in enumerate(colors) if c == 1]
    b = a[np.ix_(zero, one)]
    m = b @ b.T
    maxdeg = int(m.sum(axis=1).max()) if len(zero) else 0
    if len(zero) * maxdeg**3 >= 2**63:
        raise OverflowError("tr((B B^T)^3) may overflow int64")
    return int(np.trace(m @ m @ m))


def colored_automorphisms(graph: tuple, colors) -> int:
    n, edges = graph
    present = set(edges)
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(colors[perm[v]] == colors[v] for v in range(n)) and all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in present for u, v in edges
        ):
            count += 1
    return count


# ---------------------------------------------------------------------------
# workloads


class QueryFailed(RuntimeError):
    pass


def run_cli(args: list) -> str:
    """One ``motifcount`` CLI call in this process; returns what it prints."""
    from motifcount import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    if code != 0:
        raise QueryFailed(f"motifcount {args[0]} exited with {code}")
    return out.getvalue().strip()


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict   # size parameters of the timed host
    twin: dict   # size parameters of the oracle-checked twin


P7 = path(7)
P5, C5 = path(5), cycle(5)
P6, C6 = path(6), cycle(6)
P6_COLORS = (0, 1, 2, 0, 1, 2)
C6_COLORS = (0, 1, 0, 1, 0, 1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-tw2",
            full={"n": 120, "m": 900, "cycle": 10},
            twin={"n": 9, "m": 18, "cycle": 10},
        ),
        Workload(
            "indsub-sparse",
            full={"n": 50, "m": 245},
            twin={"n": 9, "m": 18},
        ),
        Workload(
            "many-hosts",
            full={"n": 40, "m": 117, "hosts": 20},
            twin={"n": 8, "m": 16, "hosts": 2},
        ),
        Workload(
            "colored",
            full={"n": 100, "m": 450},
            twin={"n": 8, "m": 18},
        ),
    )
}


def make_inputs(name: str, seed: int, directory: str, twin: bool) -> dict:
    """Write the workload's files for this seed; returns what the parent
    needs for its references (hosts as (n, edges), colourings)."""
    w = WORKLOADS[name]
    size = w.twin if twin else w.full
    rng = random.Random(f"{name}:{seed}:{'twin' if twin else 'full'}")
    os.makedirs(directory, exist_ok=True)

    def write(fname: str, text: str) -> None:
        with open(os.path.join(directory, fname), "w", encoding="ascii") as fh:
            fh.write(text)

    if name == "many-hosts":
        hosts = [gnm(rng, size["n"], size["m"]) for _ in range(size["hosts"])]
        write("hosts.g6", "".join(graph6(h) + "\n" for h in hosts))
        return {"hosts": hosts}

    if name == "colored":
        host, colors = colored_gnm(rng, size["n"], size["m"])
        write("host.txt", edge_list(host, colors))
        write("p6.txt", edge_list(P6, P6_COLORS))
        write("c6.txt", edge_list(C6, C6_COLORS))
        return {"host": host, "colors": colors}
    host = gnm(rng, size["n"], size["m"])
    write("host.g6", graph6(host) + "\n")
    if name == "dense-tw2":
        write("p7.g6", graph6(P7) + "\n")
        write("cycle.g6", graph6(cycle(size["cycle"])) + "\n")
        return {"host": host, "cycle": size["cycle"]}
    write("param.motif", f"basis indsub\n1 {graph6(P5)}\n1 {graph6(C5)}\n")
    return {"host": host}


def queries(name: str, directory: str):
    """The workload's queries in a fixed order, as (label, thunk) pairs;
    every answer comes back as a string.  Runs in the query process."""
    f = lambda fname: os.path.join(directory, fname)  # noqa: E731
    if name == "dense-tw2":
        yield "sub-P7", lambda: run_cli(
            ["count", "--kind", "sub", "--pattern", "@" + f("p7.g6"), "--host", "@" + f("host.g6")])
        yield "hom-cycle", lambda: run_cli(
            ["count", "--kind", "hom", "--pattern", "@" + f("cycle.g6"), "--host", "@" + f("host.g6")])
    elif name == "indsub-sparse":
        yield "eval-indsub", lambda: run_cli(
            ["eval", "--param", f("param.motif"), "--host", "@" + f("host.g6")])
    elif name == "many-hosts":
        from motifcount import build_tree_count_parameter, evaluate, parse_graph6

        param = build_tree_count_parameter(6)
        with open(f("hosts.g6"), encoding="ascii") as fh:
            lines = fh.read().split()
        for i, line in enumerate(lines):
            yield f"trees6-host{i}", lambda line=line: str(evaluate(param, parse_graph6(line)))
    elif name == "colored":
        for label, kind, pattern in (("sub-P6", "sub", "p6.txt"), ("sub-C6", "sub", "c6.txt"),
                                     ("hom-C6", "hom", "c6.txt")):
            yield label, lambda kind=kind, pattern=pattern: run_cli(
                ["colored-count", "--kind", kind, "--pattern", "@" + f(pattern),
                 "--host", "@" + f("host.txt")])
    else:
        raise KeyError(name)


def independent_references(name: str, inputs: dict) -> list:
    """Answers computed without the engine, one per query, None where the
    full-size host has no cheap independent count."""
    if name == "dense-tw2":
        return [None, str(closed_walks(adjacency_matrix(inputs["host"]), inputs["cycle"]))]
    if name == "colored":
        a = adjacency_matrix(inputs["host"])
        return [None, None, str(alternating_c6_homs(a, inputs["colors"]))]
    if name == "many-hosts":
        return [None] * len(inputs["hosts"])
    return [None]


def oracle_answers(name: str, inputs: dict) -> list:
    """Brute-force answers for the twin inputs, via motifcount.oracle."""
    from motifcount.graphs import ColoredGraph, Graph
    from motifcount.oracle import brute_count

    def g(graph):
        return Graph(graph[0], graph[1])

    if name == "dense-tw2":
        host = inputs["host"]
        return [str(brute_count("sub", g(P7), g(host))),
                str(closed_walks(adjacency_matrix(host), inputs["cycle"]))]
    if name == "indsub-sparse":
        host = g(inputs["host"])
        return [str(brute_count("indsub", g(P5), host) + brute_count("indsub", g(C5), host))]
    if name == "many-hosts":
        return [str(sum(brute_count("sub", Graph(6, t), g(h)) for t in TREES6))
                for h in inputs["hosts"]]
    host = ColoredGraph(g(inputs["host"]), inputs["colors"])
    out = []
    for pattern, colors in ((P6, P6_COLORS), (C6, C6_COLORS)):
        emb = brute_count("colored-emb", ColoredGraph(g(pattern), colors), host)
        out.append(str(emb // colored_automorphisms(pattern, colors)))
    out.append(str(brute_count("colored-hom", ColoredGraph(g(C6), C6_COLORS), host)))
    return out
