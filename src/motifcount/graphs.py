"""Loop-free simple graphs, colored graphs, canonical labeling, graph6 and
edge-list I/O.

One backtracking search, pruned by twins and by the automorphisms it finds,
yields the canonical forms of plain and colored graphs alike; a plain graph
is searched with the all-zero coloring.  canonical_form refuses graphs above
PRUNED_GUARD vertices before any other work, whichever entry point calls it.
It relabels a graph by color refinement, an isomorphism-invariant order that
most relabelings of one graph share, and the search runs once per miss of a
cache keyed by that relabeling.  Refinement, search and cache work on
adjacency rows (bit u of row v set for the edge uv) and colors, so the
tallies of partitions canonicalise their labeled quotients and supergraphs
as rows (_rows_form), building no Graph for them; a cache keyed by the
labeled rows and colors refines each labeled graph once, however many
tallies meet it.  The CanonicalForm, built
straight from the search's least key, keeps the automorphism count.

Vertices are dense integers 0..n-1.  All values are immutable after
construction, so everything here is safe to share between threads and to use
as dictionary keys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

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

    @classmethod
    def _trusted(cls, n: int, edges: Iterable) -> "Graph":
        """The graph on n vertices with these edges, each (u, v) with
        0 <= u < v < n, distinct: no check, for builders that produce them so."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", frozenset(edges))
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

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
    printable; aut is the class's automorphism count.  The form of a
    ColoredGraph is a ColoredGraph, its key the colors in canonical order
    and the graph6 string, so no colored key equals a plain one.
    """

    graph: Graph  # or a ColoredGraph
    key: object  # str, or (colors, str)
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


def _rows(g: Graph) -> tuple:
    """The adjacency rows of g: bit u of row v is set iff uv is an edge."""
    rows = [0] * g.n
    for u, v in g.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


@lru_cache(maxsize=CACHE_SIZE)
def _members(row: int) -> tuple:
    """The set bits of row, least first."""
    out = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return tuple(out)


def _canonical_search(mask: tuple, colors: tuple) -> tuple:
    """(parts, aut): parts is the least key over labelings of the graph with
    adjacency rows mask, aut counts its color-preserving automorphisms.

    Canonical positions are filled one at a time.  The vertex placed at
    position k contributes its part, (colors[v], adjacency of v to positions
    0..k-1) packed into one integer as the color followed by k bits, and a
    labeling's key is the sequence of parts.  The labelings reaching the
    least key form one coset of the automorphism group, and aut is their
    number.  Parts are kept up to date as vertices are placed.  Only
    candidates with the least part can lead to the least key, so only they
    are expanded, and a node is abandoned once that part exceeds the best
    key's at its position.

    Symmetry prunes the search without changing parts or aut.  Twins (same
    color, and the same open or the same closed neighborhood) are placed
    once: swapping two unplaced twins is an automorphism fixing the placed
    prefix, so only the least unplaced member of a twin class is tried, its
    ties counting once per unplaced member.  A leaf that ties the best key
    gives the automorphism mapping the best labeling onto it.  Those found
    so far that fix a node's placed prefix pointwise carry a candidate's
    subtree, keys and all, onto the subtree of each candidate in its orbit,
    so one candidate per orbit is expanded (McKay and Piperno, Practical
    Graph Isomorphism II, 2014); a skipped one counts the ties of its
    expanded orbit-mate, or none if the best key has changed since.
    """
    n = len(mask)
    # twin classes (no vertex has twins of both kinds, so they partition V),
    # keyed by their greatest member u, least_of[u] their least: members are
    # placed in increasing order, after[v] after v, left[v] counts v and later
    after, left, least_of, twin = [-1] * n, [1] * n, {}, {}
    for v in reversed(range(n)):
        u = twin.setdefault((colors[v], mask[v]), v)  # open twins
        if u == v:
            u = twin.setdefault((colors[v], ~(mask[v] | 1 << v)), v)  # closed
        if u != v:
            after[v] = least_of[u]
            left[v] += left[after[v]]
        least_of[u] = v
    best, best_perm = [], ()  # the least key found, and a labeling reaching it
    ties = version = 0  # version counts the changes of best
    auts = []  # (fixed-point mask, map) of each automorphism found
    key, perm = [], []

    def extend(parts, placed, weight, tight):
        # parts: each unplaced class's least member -> its part; tight: the
        # placed prefix's key equals best's, else it is smaller
        nonlocal best, best_perm, ties, version
        k = len(perm)
        least = min(parts.values())
        if tight and least != best[k]:
            if least > best[k]:
                return
            tight = False
        key.append(least)
        done = []  # (candidate, its ties, version after it) of each expanded one
        orbit = None  # orbit labels under the automorphisms that fix the prefix
        for c, part in parts.items():
            if part != least:
                continue
            if done and auts:
                if orbit is None:
                    orbit, seen = list(range(n)), 0
                for fixed, gamma in auts[seen:]:
                    if fixed & placed == placed:
                        for v, w in enumerate(gamma):
                            if orbit[v] != orbit[w]:
                                a, b = orbit[v], orbit[w]
                                orbit = [a if o == b else o for o in orbit]
                seen = len(auts)
                mate = next((d for d in done if orbit[d[0]] == orbit[c]), None)
                if mate is not None:
                    ties += mate[1] if mate[2] == version else 0
                    continue
            perm.append(c)
            before, then = ties, version
            if k + 1 < n:
                m = mask[c]
                child = {d: p << 1 | (m >> d & 1) for d, p in parts.items() if d != c}
                if after[c] >= 0:  # c's twins share its part
                    child[after[c]] = part << 1 | (m >> after[c] & 1)
                extend(child, placed | 1 << c, weight * left[c], tight)
            elif tight:  # a leaf that ties best
                ties += weight
                gamma, fixed = [0] * n, 0
                for b, p in zip(best_perm, perm):
                    gamma[b] = p
                    fixed |= (b == p) << b
                auts.append((fixed, gamma))
            else:
                best, best_perm, ties, version = key[:], tuple(perm), weight, version + 1
            perm.pop()
            done.append((c, ties - (before if version == then else 0), version))
            tight = True  # the first candidate's subtree set best's prefix
        key.pop()

    if not n:
        return (), 1
    extend({v: colors[v] for v in sorted(least_of.values())}, 0, 1, False)
    return tuple(best), ties


def _refined(rows: tuple, colors) -> tuple:
    """(rows, colors) relabeled by color refinement: the rows and colors
    (None for a plain graph) of an isomorphic copy in which relabelings of
    the graph mostly coincide, so that they share a cache entry.

    Vertices start from the ranks of their colors (of their degrees when
    plain: the first round from all-equal colors).  A round gives each
    vertex the rank of its color together with the multiset of its
    neighbors' colors, until a round splits no color class.  The multiset
    is one integer, the sum over neighbors of 1 << (color * bit_length(n)):
    exact, since no count reaches n.  Both are invariant under isomorphism,
    so each vertex's final color is too; vertices are renumbered in order
    of final color, ties (left only where refinement stops short of
    discrete) by index."""
    n = len(rows)
    neighbors = list(map(_members, rows))
    start = colors or list(map(len, neighbors))  # a plain graph's first round: degrees
    rank = {c: r for r, c in enumerate(sorted(set(start)))}
    color = list(map(rank.__getitem__, start))
    cells, shift = len(rank), n.bit_length()
    top = n * shift  # above every multiset
    while cells < n:
        unit = [1 << c * shift for c in color]
        signature = [(c << top) + sum(map(unit.__getitem__, ns))
                     for c, ns in zip(color, neighbors)]
        split = sorted(set(signature))
        if len(split) == cells:
            break
        rank = {s: r for r, s in enumerate(split)}
        color = list(map(rank.__getitem__, signature))
        cells = len(split)
    order = sorted(range(n), key=color.__getitem__)
    if order == list(range(n)):
        return rows, colors
    bit = [0] * n
    for i, v in enumerate(order):
        bit[v] = 1 << i
    rows = tuple([sum(map(bit.__getitem__, neighbors[v])) for v in order])
    return rows, None if colors is None else tuple([colors[v] for v in order])


def _form(parts: tuple, aut: int, colored: bool) -> CanonicalForm:
    """The CanonicalForm of a search's least key.  Position j's part is its
    color followed by j bits, its adjacency to positions 0..j-1 with
    position 0 first: column j of the canonical graph's graph6 bits."""
    cg = Graph._trusted(len(parts), [(i, j) for j, part in enumerate(parts)
                                     for i in range(j) if part >> (j - 1 - i) & 1])
    g6 = encode_graph6(cg)
    if not colored:
        return CanonicalForm(cg, g6, aut)
    colors = tuple(part >> j for j, part in enumerate(parts))
    return CanonicalForm(ColoredGraph(cg, colors), (colors, g6), aut)


@lru_cache(maxsize=CACHE_SIZE)
def _searched_form(rows: tuple, colors) -> CanonicalForm:
    """The canonical form of the graph with these adjacency rows (and
    colors, None for a plain graph), by one symmetry search."""
    return _form(*_canonical_search(rows, colors or (0,) * len(rows)), colors is not None)


@lru_cache(maxsize=CACHE_SIZE)
def _rows_form(rows: tuple, colors) -> CanonicalForm:
    """The canonical form of the graph with these adjacency rows (and
    colors, None for a plain graph).  Cached by the labeled rows, so a
    labeled graph met again is not refined again; refined, it is searched
    once per miss of the cache keyed by its refined relabeling."""
    return _searched_form(*_refined(rows, colors))


@lru_cache(maxsize=CACHE_SIZE)
def canonical_form(g) -> CanonicalForm:
    """The lexicographically first graph isomorphic to g, with its graph6
    string as key and its automorphism count.  For a ColoredGraph: the
    first colored graph by (colors, graph6) over color-preserving
    relabelings, and its color-preserving automorphism count.  A graph
    above PRUNED_GUARD vertices is refused before any other work."""
    if g.n > PRUNED_GUARD:
        raise CapacityError(f"patterns are capped at n={PRUNED_GUARD}")
    if isinstance(g, ColoredGraph):
        return _rows_form(_rows(g.graph), g.colors)
    return _rows_form(_rows(g), None)


def automorphism_count(g) -> int:
    """Number of vertex permutations preserving the edge set (and, of a
    ColoredGraph, the colors)."""
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
    return Graph._trusted(len(blocks), {(a, b) if a < b else (b, a) for u, v in h.edges
                                        if (a := block_of[u]) != (b := block_of[v])})


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
    body = [0] * ((g.n * (g.n - 1) // 2 + 5) // 6)
    for i, j in g.edges:  # (i, j), i < j, is bit j(j-1)/2 + i
        k = j * (j - 1) // 2 + i
        body[k // 6] |= 32 >> k % 6
    return _g6_size_prefix(g.n) + "".join(chr(b + 63) for b in body)


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
    # each edge is (i, j) with i < j < n, once: nothing to normalise
    return Graph._trusted(n, edges)


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
