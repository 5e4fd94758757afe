"""Loop-free simple graphs, colored graphs, canonical labeling, graph6 and
edge-list I/O.

One backtracking search yields canonical forms, automorphism counts and
colored isomorphism; plain graphs are searched with the all-zero coloring.
It refuses graphs above PRUNED_GUARD vertices, whichever entry point calls it.
A plain graph's search runs once per canonical_form cache miss, and its
CanonicalForm keeps the automorphism count; a colored graph's search is not
cached.

Vertices are dense integers 0..n-1.  All values are immutable after
construction, so everything here is safe to share between threads and to use
as dictionary keys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

# Bound of the per-graph caches, which would otherwise keep every host and
# every canonicalised supergraph for the life of the process.
CACHE_SIZE = 4096
# largest graph the canonical search accepts
PRUNED_GUARD = 20


class CapacityError(RuntimeError):
    pass


class GraphFormatError(ValueError):
    """Raised for malformed graph6 or edge-list input."""


def _normalize_edges(n: int, edges: Iterable) -> frozenset:
    out = set()
    for e in edges:
        u, v = e
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
        out.add((u, v) if u < v else (v, u))
    return frozenset(out)


@dataclass(frozen=True)
class Graph:
    """A finite, undirected, simple graph without loops."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges: Iterable = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", _normalize_edges(n, edges))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def relabel(self, perm) -> "Graph":
        """Apply the vertex map v -> perm[v]."""
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    def induced(self, vertices) -> "Graph":
        """Induced subgraph; vertices renumbered 0..k-1 in sorted order."""
        vs = sorted(vertices)
        idx = {v: i for i, v in enumerate(vs)}
        edges = [(idx[u], idx[v]) for u, v in self.edges if u in idx and v in idx]
        return Graph(len(vs), edges)

    def __repr__(self):
        return f"Graph({self.n}, {sorted(self.edges)})"


@dataclass(frozen=True)
class ColoredGraph:
    """A graph with one small-integer color per vertex.  The coloring need
    not be proper; color ids are significant and never canonicalized."""

    graph: Graph
    colors: tuple

    def __init__(self, graph: Graph, colors: Iterable):
        colors = tuple(colors)
        if len(colors) != graph.n:
            raise ValueError("need exactly one color per vertex")
        if any(c < 0 for c in colors):
            raise ValueError("colors must be nonnegative")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "colors", colors)

    @property
    def n(self) -> int:
        return self.graph.n

    def color_classes(self) -> dict:
        classes: dict = {}
        for v, c in enumerate(self.colors):
            classes.setdefault(c, []).append(v)
        return classes

    def color_ids(self) -> list:
        return sorted(set(self.colors))


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical representative of an isomorphism class.

    Two graphs are isomorphic iff their canonical forms are equal.  The key
    is the graph6 string of the representative, so keys are compact and
    printable; aut is the class's automorphism count.
    """

    graph: Graph
    key: str
    aut: int

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, CanonicalForm) and self.key == other.key

    def __repr__(self):
        return f"CanonicalForm({self.key!r})"


@lru_cache(maxsize=CACHE_SIZE)
def adjacency(g: Graph) -> tuple:
    """Neighbor sets, indexed by vertex."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return tuple(frozenset(s) for s in adj)


def _upper_triangle_bits(g: Graph) -> tuple:
    """Adjacency bits in graph6 order: columns j=1..n-1, rows i=0..j-1."""
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if (i, j) in g.edges else 0)
    return tuple(bits)


def _canonical_search(g: Graph, colors: tuple) -> tuple:
    """(perm, aut): perm maps canonical position -> original vertex, aut
    counts the color-preserving automorphisms of g.

    Canonical positions are filled one at a time; position k contributes
    (colors[v], adjacency of v to positions 0..k-1), packed into one integer
    as the color followed by k bits, and a labeling's key is the sequence of
    these.  perm is a labeling with the least key.  A branch is abandoned
    only when its key prefix exceeds the best complete key found so far, so
    no labeling reaching the final minimum is ever cut off.  Those labelings
    form one coset of the automorphism group; aut is their number.

    Twins (same color, and the same open or the same closed neighborhood)
    are placed once: swapping two unplaced twins is an automorphism fixing
    the placed prefix, so only the least unplaced member of a twin class is
    tried, its ties counting once per unplaced member.  The skipped subtrees
    repeat its keys later in the search, so perm and aut do not change.
    """
    n = g.n
    if n > PRUNED_GUARD:
        raise CapacityError(f"patterns are capped at n={PRUNED_GUARD}")
    adj = adjacency(g)
    # v's least twin: no vertex has twins of both kinds, so classes partition V
    twin = [next(u for u in range(v + 1) if colors[u] == colors[v]
                 and (adj[u] == adj[v] or adj[u] | {u} == adj[v] | {v}))
            for v in range(n)]
    best_key: Optional[tuple] = None
    best_perm: tuple = ()
    ties = 0

    def extend(assigned, used, key, weight):
        nonlocal best_key, best_perm, ties
        k = len(assigned)
        if k == n:
            # pruning below guarantees key <= best_key here
            if best_key is None or key < best_key:
                best_key, best_perm, ties = key, tuple(assigned), weight
            else:
                ties += weight
            return
        unplaced: dict = {}  # twin class -> its unplaced members
        for v in range(n):
            if v not in used:
                unplaced.setdefault(twin[v], []).append(v)
        candidates = []
        for members in unplaced.values():
            v = members[0]
            part = colors[v]
            for u in assigned:
                part = part << 1 | (u in adj[v])
            candidates.append((part, v, len(members)))
        for part, v, size in sorted(candidates):
            new_key = key + (part,)
            if best_key is not None and new_key > best_key[: k + 1]:
                continue
            assigned.append(v)
            used.add(v)
            extend(assigned, used, new_key, weight * size)
            assigned.pop()
            used.remove(v)

    extend([], set(), (), 1)
    return best_perm, ties


def _relabel_canonical(g: Graph, perm: tuple) -> Graph:
    """g with vertex perm[pos] renamed pos."""
    return g.relabel({v: pos for pos, v in enumerate(perm)})


@lru_cache(maxsize=CACHE_SIZE)
def canonical_form(g: Graph) -> CanonicalForm:
    """The lexicographically first graph isomorphic to g, with its graph6
    string as key and its automorphism count."""
    perm, aut = _canonical_search(g, (0,) * g.n)
    cg = _relabel_canonical(g, perm)
    return CanonicalForm(cg, encode_graph6(cg), aut)


def automorphism_count(g: Graph) -> int:
    """Number of vertex permutations preserving the edge set."""
    return canonical_form(g).aut


def tensor_product(g: Graph, x: Graph) -> Graph:
    """Categorical product: (v,w)(v',w') is an edge iff vv' and ww' are."""
    m = x.n
    edges = []
    for u, v in g.edges:
        for a, b in x.edges:
            edges.append((u * m + a, v * m + b))
            edges.append((u * m + b, v * m + a))
    return Graph(g.n * m, edges)


def quotient(h: Graph, blocks) -> Graph:
    """Contract each block of a partition of V(h), a sequence of vertex
    collections, to the vertex numbered by its position.  Edges inside a
    block vanish; parallel edges between blocks are collapsed."""
    block_of = {}
    for i, b in enumerate(blocks):
        for v in b:
            block_of[v] = i
    if sorted(block_of) != list(range(h.n)):
        raise ValueError("partition does not cover the vertex set exactly")
    return Graph(len(blocks), {(block_of[u], block_of[v]) for u, v in h.edges
                               if block_of[u] != block_of[v]})


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges]
    return Graph(g.n + h.n, edges)


def connected_components(g: Graph) -> list:
    """Vertex sets of connected components, each sorted."""
    adj = adjacency(g)
    seen = set()
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


# ---------------------------------------------------------------------------
# colored isomorphism


def colored_canonical_key(h: ColoredGraph):
    """Hashable key equal for two colored graphs iff they are
    color-preserving isomorphic: the colors in canonical order and the graph6
    string of the canonically relabeled graph."""
    perm, _ = _canonical_search(h.graph, h.colors)
    cols = tuple(h.colors[v] for v in perm)
    return cols, encode_graph6(_relabel_canonical(h.graph, perm))


def colored_automorphism_count(h: ColoredGraph) -> int:
    return _canonical_search(h.graph, h.colors)[1]


# ---------------------------------------------------------------------------
# graph6


def _g6_size_prefix(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise ValueError("graph too large for supported graph6 sizes")


def encode_graph6(g: Graph) -> str:
    """Bit-exact graph6: size prefix, then upper-triangle bits column-major,
    packed big-endian into 6-bit characters offset by 63."""
    bits = _upper_triangle_bits(g)
    out = [_g6_size_prefix(g.n)]
    for i in range(0, len(bits), 6):
        chunk = bits[i : i + 6]
        val = 0
        for b in chunk:
            val = (val << 1) | b
        val <<= 6 - len(chunk)
        out.append(chr(val + 63))
    return "".join(out)


# a character outside graph6's range 63..126 ('?'..'~')
_G6_OUTSIDE = re.compile(r"[^?-~]")
# graph6 character -> its six bits, most significant first
_G6_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string; errors name the offending byte offset."""
    if not text:
        raise GraphFormatError("empty graph6 string")
    if bad := _G6_OUTSIDE.search(text):
        raise GraphFormatError(
            f"byte offset {bad.start()}: character {bad.group()!r} outside graph6 range 63..126"
        )
    if text[0] == "~":
        if len(text) < 4:
            raise GraphFormatError("byte offset 0: truncated multi-byte size prefix")
        if text[1] == "~":
            raise GraphFormatError("byte offset 1: 36-bit sizes not supported")
        n = 0
        for ch in text[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = text[4:]
        body_off = 4
    else:
        n = ord(text[0]) - 63
        body = text[1:]
        body_off = 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise GraphFormatError(
            f"byte offset {body_off + min(len(body), need)}: expected {need} "
            f"data bytes for {n} vertices, got {len(body)}"
        )
    # the body as one string of '0'/'1'; column j holds rows 0..j-1
    bits = body.translate(_G6_BITS)
    if (k := bits.find("1", nbits)) >= 0:
        raise GraphFormatError(
            f"byte offset {body_off + k // 6}: nonzero trailing padding bit"
        )
    edges = []
    start = 0
    for j in range(1, n):
        end = start + j
        k = bits.find("1", start, end)
        while k >= 0:
            edges.append((k - start, j))
            k = bits.find("1", k + 1, end)
        start = end
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# edge-list text format


def _content_lines(text: str):
    """(line number, stripped line) of every line that is neither blank nor
    a `#` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_graph_file(text: str):
    """A graph file: the edge-list format when its first content line is an
    `n` line, else graph6 on that line."""
    first = next((line for _, line in _content_lines(text)), "")
    if first.split()[:1] == ["n"]:
        return parse_edge_list(text)
    return parse_graph6(first)


def parse_edge_list(text: str):
    """Parse the edge-list format: one `n <count>`, `e <u> <v>` and at most
    one `c <v> <color>` per vertex, `#` comments.  Returns a Graph, or a
    ColoredGraph when any color line is present; errors name the line."""
    n, edges, colors = None, {}, {}  # line -> (u, v); v -> (line, color)
    for lineno, line in _content_lines(text):
        parts = line.split()
        try:
            if parts[0] == "n" and len(parts) == 2:
                if n is not None:
                    raise ValueError("second `n` line")
                if (n := int(parts[1])) < 0:
                    raise ValueError("vertex count must be nonnegative")
            elif parts[0] == "e" and len(parts) == 3:
                u, v = edges[lineno] = (int(parts[1]), int(parts[2]))
                if u == v:
                    raise ValueError(f"loop at vertex {u} not allowed")
            elif parts[0] == "c" and len(parts) == 3:
                v, c = int(parts[1]), int(parts[2])
                if v in colors:
                    raise ValueError(f"second color for vertex {v}")
                if c < 0:
                    raise ValueError("colors must be nonnegative")
                colors[v] = (lineno, c)
            else:
                raise ValueError("unrecognized directive")
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise GraphFormatError("missing `n <count>` line")
    bad = [line for line, (u, v) in edges.items() if not (0 <= u < n and 0 <= v < n)]
    bad += [line for v, (line, _) in colors.items() if not 0 <= v < n]
    if bad:
        raise GraphFormatError(f"line {min(bad)}: vertex out of range for {n} vertices")
    g = Graph(n, edges.values())
    if colors:
        return ColoredGraph(g, tuple(colors[v][1] if v in colors else 0 for v in range(n)))
    return g


def format_edge_list(g) -> str:
    lines = []
    base = g.graph if isinstance(g, ColoredGraph) else g
    lines.append(f"n {base.n}")
    for u, v in sorted(base.edges):
        lines.append(f"e {u} {v}")
    if isinstance(g, ColoredGraph):
        for v, c in enumerate(g.colors):
            lines.append(f"c {v} {c}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the global order on canonical forms


def graph_order_key(cf: CanonicalForm):
    """Total order on isomorphism classes respecting total size
    |V| + |E|; ties broken by the graph6 string of the canonical form."""
    g = cf.graph
    return (g.n + len(g.edges), cf.key)
