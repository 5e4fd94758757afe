"""Vertex-colored pattern counting.

Colored embedding and subgraph counts peel off the pattern's isolated
vertices, a falling factorial per colour, and count the rest as a colored
motif parameter: the Moebius-weighted sum of colour-preserving hom counts
over its colored spasm, compiled into one evaluation program whose terms
homcount._hom_sum routes as it routes plain hom terms.  Where
canonical_form or the partition budget refuses the spasm, as they refuse
plain patterns, the guarded DP below counts them.

The guarded pipeline: contract color classes and decompose the contracted
graph; bound the flowers by one maximum packing of disjoint A-paths per
class, in the pattern with every other class clique-saturated; grow bags
and guards from attachment sets; massage the decomposition until
components are connected and separators tight; then run a two-layer
dynamic program counting ordered embeddings, from which embedding and
subgraph counts follow by the similarity factorials.

Every A-path question is answered from one enumeration of the minimal
A-paths that are induced paths (no internal vertex in A, no chord):
packings are disjoint families of them, and a cover is a least vertex set
meeting all of them.

The outer layer grows each node's guard assignments with the dict DP's row
builder (homcount._RowBuilder), built on the coloured pattern and host so
that every image keeps its colour, joining the plain children's tables as
factors and keeping images distinct.  The inner layer places the free bag
vertices of each surviving row from the same host tables: its state holds
one count per similarity class, the number of the class's members placed
so far, and it sweeps only the hosts that some class can take.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Optional

from .decomp import (DecompositionError, cones, exact_treewidth, massage_connected, separators,
                     validate_decomposition)
from .graphs import (
    CapacityError,
    ColoredGraph,
    Graph,
    adjacency,
    automorphism_count,
    canonical_form,
    connected_components,
    is_connected,
    quotient,
)
from .homcount import _eliminate, _hom_sum, _program, _projection, _RowBuilder
from .partitions import _quotient_tally

FLOWER_CAP = 16


class FlowerCapExceeded(CapacityError):
    pass


@dataclass(frozen=True)
class Flower:
    """Vertex-disjoint paths with both endpoints in the center class, inside
    the pattern with every other class saturated."""

    center_class: int
    paths: tuple

    def __init__(self, center_class: int, paths):
        object.__setattr__(self, "center_class", center_class)
        object.__setattr__(self, "paths", tuple(tuple(p) for p in paths))


# ---------------------------------------------------------------------------
# contraction and saturation


def contract_colors(h: ColoredGraph) -> Graph:
    """One vertex per color class (in sorted class-id order); an edge iff
    some cross-class edge exists."""
    classes = h.color_classes()
    return quotient(h.graph, [classes[c] for c in h.color_ids()])


def clique_saturate(h: ColoredGraph, keep=()) -> Graph:
    """The pattern with each color class made a clique, except the classes
    whose ids are in the collection keep."""
    if unknown := set(keep) - set(h.colors):
        raise ValueError(f"unknown class id {min(unknown)}")
    edges = set(h.graph.edges)
    for c, members in h.color_classes().items():
        if c not in keep:
            edges.update(itertools.combinations(members, 2))
    return Graph(h.n, edges)


# ---------------------------------------------------------------------------
# A-paths


def _minimal_a_paths(g: Graph, a: frozenset) -> tuple:
    """All induced paths with both (distinct) endpoints in a and no internal
    vertex in a, and the vertex set of each.  A path with a chord contains
    such a path on a subset of its vertices, so packing sizes and covers are
    those of all A-paths."""
    adj = adjacency(g)
    paths = []
    for start in sorted(a):
        stack = [(start, (start,))]
        while stack:
            u, path = stack.pop()
            for w in sorted(adj[u]):
                if w in path or len(adj[w].intersection(path)) > 1:
                    continue
                if w in a:
                    if w > start:  # each path once, by endpoint order
                        paths.append(path + (w,))
                else:
                    stack.append((w, path + (w,)))
    return paths, [frozenset(p) for p in paths]


def _max_disjoint(paths: list, sets: list, k: int) -> list:
    """Up to k pairwise vertex-disjoint paths (sets[i] holds the vertices of
    paths[i]); maximum via branch and bound, stopping as soon as k are
    found."""
    if k < 1:
        raise ValueError("k must be positive")
    best: list = []

    def rec(idx: int, chosen: list, used: frozenset):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(best) >= k or idx == len(paths):
            return
        if len(chosen) + (len(paths) - idx) <= len(best):
            return
        for j in range(idx, len(paths)):
            if not used.isdisjoint(sets[j]):
                continue
            chosen.append(paths[j])
            rec(j + 1, chosen, used | sets[j])
            chosen.pop()
            if len(best) >= k:
                return

    rec(0, [], frozenset())
    return best


def _meets_all(sets: list, s) -> bool:
    """Does the vertex set s meet every minimal induced A-path?  Exactly
    then g - s has no A-path: the segment of an A-path between its first
    two A-vertices contains one on a subset of its vertices."""
    return all(not p.isdisjoint(s) for p in sets)


def _packing_or_cover(paths: list, sets: list, k: int):
    """k disjoint paths among the minimal A-paths, or a least vertex set
    meeting them all (Gallai: at most 2k-2 vertices)."""
    packing = _max_disjoint(paths, sets, k)
    if len(packing) >= k:
        return ("paths", packing)
    vertices = sorted(set().union(*sets))

    def pick(i: int, chosen: list, size: int):
        # the least cover of this size extending chosen, lexicographically
        # first; a path whose largest vertex is already behind us stays unhit
        unhit = [p for p in sets if p.isdisjoint(chosen)]
        if not unhit:
            return set(chosen)
        if len(chosen) == size:
            return None
        last = min(max(p) for p in unhit)
        for j in range(i, len(vertices)):
            if vertices[j] > last:
                break
            if (cover := pick(j + 1, chosen + [vertices[j]], size)) is not None:
                return cover
        return None

    # each packed path needs a cover vertex of its own
    for size in range(len(packing), 2 * k - 1):
        if (cover := pick(0, [], size)) is not None:
            return ("cover", cover)
    raise AssertionError("no small cover despite small packing")


def _vertex_set(g: Graph, vertices) -> frozenset:
    """The vertices as a frozenset; ValueError for any outside 0..g.n-1."""
    out = frozenset(vertices)
    if unknown := out - set(range(g.n)):
        raise ValueError(f"unknown vertex {min(unknown)}")
    return out


def a_path_packing(g: Graph, a, k: int):
    """Either k vertex-disjoint A-paths or a minimum cover, of size at most
    2k-2.

    Returns ("paths", [...]) or ("cover", set).  Removing the cover leaves
    no A-path.
    """
    return _packing_or_cover(*_minimal_a_paths(g, _vertex_set(g, a)), k)


def _attachment_flow(g: Graph, v: int, a: frozenset) -> int:
    """Maximum number of v-A paths of length >= 1 sharing only v
    (unit-capacity augmenting paths with split vertices)."""
    targets = a - {v}
    if not targets:
        return 0
    # nodes: ('in', u) / ('out', u) for u != v; 'src'; 'snk'; residual
    # capacities kept per node
    res: dict = {"src": {}}

    def add(x, y):
        out = res.setdefault(x, {})
        out[y] = out.get(y, 0) + 1
        res.setdefault(y, {}).setdefault(x, 0)

    for u in range(g.n):
        if u == v:
            continue
        add(("in", u), "snk" if u in targets else ("out", u))
    for x, y in g.edges:
        for p, q in ((x, y), (y, x)):
            if p == v:
                add("src", ("in", q))
            elif q == v or p in targets:
                continue  # never back into v; paths stop at their first a-vertex
            else:
                add(("out", p), ("in", q))
    flow = 0
    while True:
        # BFS for an augmenting path
        prev = {"src": None}
        queue = deque(["src"])
        while queue and "snk" not in prev:
            x = queue.popleft()
            for q, c in res[x].items():
                if c > 0 and q not in prev:
                    prev[q] = x
                    queue.append(q)
        if "snk" not in prev:
            return flow
        node = "snk"
        while (p := prev[node]) is not None:
            res[p][node] -= 1
            res[node][p] += 1
            node = p
        flow += 1


def is_l_attached(g: Graph, v: int, a, l: int) -> bool:
    if l < 1:
        raise ValueError("l must be positive")
    _vertex_set(g, [v])
    return _attachment_flow(g, v, _vertex_set(g, a)) >= l


def a_path_packing_restricted(g: Graph, a, k: int, l: int):
    """Either k disjoint A-paths, or ("cover", A*, S*) with A* a set of at
    most (2k-2)*l class vertices, S* exactly the l-attached vertices, and
    g - (A* + S*) free of A-paths."""
    if l < 2 * k:
        raise ValueError("need l >= 2k")
    if not is_connected(g):
        raise ValueError("a_path_packing_restricted needs a connected graph")
    a = _vertex_set(g, a)
    paths, sets = _minimal_a_paths(g, a)
    result = _packing_or_cover(paths, sets, k)
    if result[0] == "paths":
        return result
    s_cover = result[1]
    s_star = {v for v in range(g.n) if _attachment_flow(g, v, a) >= l}
    if not s_star <= s_cover:
        raise AssertionError("l-attached vertex escaped the cover")
    a_star = set()
    adj = adjacency(g)
    for v in s_cover - s_star:
        # vertices of a seen by v: reachable avoiding the rest of the cover;
        # an a-vertex in the cover sees itself
        if v in a:
            a_star.add(v)
        blocked = s_cover - {v}
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in blocked or w in seen:
                    continue
                seen.add(w)
                if w in a:
                    a_star.add(w)
                    continue  # paths stop at their first a-vertex
                stack.append(w)
    if len(a_star) > (2 * k - 2) * l or len(s_star) > 2 * k - 2:
        raise AssertionError("restricted cover size bounds violated")
    if not _meets_all(sets, s_star | a_star):
        raise AssertionError("restricted cover leaves an A-path")
    return ("cover", a_star, s_star)


def _class_paths(h: ColoredGraph, class_i: int) -> tuple:
    """The minimal A-paths for A the class, in the pattern with every other
    class saturated, and their vertex sets."""
    members = frozenset(v for v in range(h.n) if h.colors[v] == class_i)
    if not members:
        raise ValueError(f"unknown class id {class_i}")
    return _minimal_a_paths(clique_saturate(h, keep={class_i}), members)


def find_flower(h: ColoredGraph, class_i: int, c: int) -> Optional[Flower]:
    """A c-flower centered at the class: c disjoint A-paths in the pattern
    with every other class saturated."""
    packing = _max_disjoint(*_class_paths(h, class_i), c)
    return Flower(class_i, packing) if len(packing) >= c else None


# ---------------------------------------------------------------------------
# guarded cutvertex decompositions


class GuardedCutvertexDecomposition:
    """A tree decomposition (parents, bags) of the saturated pattern with
    per-node guard sets covering the sparse bag subgraph."""

    def __init__(self, h: ColoredGraph, parents, bags, guards: list):
        self.h = h
        self.parents = tuple(parents)
        self.bags = tuple(bags)
        self.guards = [frozenset(gd) for gd in guards]
        self.validate()

    def validate(self) -> None:
        validate_decomposition(clique_saturate(self.h), self.parents, self.bags)
        adj_h = adjacency(self.h.graph)
        for t, (bag, sigma) in enumerate(zip(self.bags, separators(self.parents, self.bags))):
            gset = self.guards[t]
            if not sigma <= gset <= bag:
                raise DecompositionError("guards must sit between separator and bag")
            for u, v in itertools.combinations(sorted(bag), 2):
                if v in adj_h[u] and u not in gset and v not in gset:
                    raise DecompositionError("guard set is not a vertex cover of the bag")
            if t and len(sigma - self.guards[self.parents[t]]) > 1:
                raise DecompositionError("child separator leaves >1 unguarded vertex")

    def hanging(self, t: int) -> dict:
        """Map v -> children whose separator's unguarded vertex is v."""
        out: dict = {}
        for c in range(t + 1, len(self.bags)):
            extra = self.bags[c] & self.bags[t] - self.guards[t]
            if self.parents[c] == t and len(extra) == 1:
                out.setdefault(min(extra), []).append(c)
        return out

    def similarity_partition(self) -> list:
        """The partition used by the ordered-embedding count: per node,
        the vertices outside guards and hanging points grouped by color and
        open neighborhood; everything else in singleton classes."""
        adj_h = adjacency(self.h.graph)
        class_of: dict = {}
        classes: list = []
        for t, bag in enumerate(self.bags):
            free = bag.difference(self.guards[t], self.hanging(t))
            groups: dict = {}
            for v in sorted(free):
                groups.setdefault((self.h.colors[v], adj_h[v]), []).append(v)
            for members in groups.values():
                if len(members) >= 2:
                    for v in members:
                        if v in class_of:
                            raise DecompositionError(
                                "similarity classes overlap between nodes"
                            )
                        class_of[v] = len(classes)
                    classes.append(members)
        for v in range(self.h.n):
            if v not in class_of:
                class_of[v] = len(classes)
                classes.append([v])
        return classes

    def dump(self) -> str:
        lines = []
        for t, p in enumerate(self.parents):
            bag = ",".join(str(v) for v in sorted(self.bags[t]))
            guard = ",".join(str(v) for v in sorted(self.guards[t]))
            lines.append(
                f"{t} parent={'-' if p is None else p} bag={{{bag}}} guard={{{guard}}}"
            )
        return "\n".join(lines) + "\n"


def _restricted_cover(g: Graph, a: frozenset, k: int, l: int):
    """Second arm of the restricted packing, applied per connected
    component (attachment and A-paths never cross components)."""
    a_star: set = set()
    s_star: set = set()
    for comp in connected_components(g):
        sub = g.induced(comp)
        local_a = [i for i, v in enumerate(comp) if v in a]
        if len(local_a) == 0:
            continue
        res = a_path_packing_restricted(sub, local_a, k, l)
        if res[0] == "paths":
            raise AssertionError("found a large A-path packing where none should exist")
        _, comp_a, comp_s = res
        a_star |= {comp[i] for i in comp_a}
        s_star |= {comp[i] for i in comp_s}
    return a_star, s_star


def _component_pipeline(hc: ColoredGraph, c: int):
    """Bag-and-guard construction on one connected saturated component:
    returns (parents, bags, guards) in the component's local labels."""
    hdot = clique_saturate(hc)
    ids = hc.color_ids()
    w, parents, hat_bags = exact_treewidth(contract_colors(hc))
    classes = hc.color_classes()

    # blow the contracted decomposition up to class unions
    beta0 = [frozenset(v for i in bag for v in classes[ids[i]]) for bag in hat_bags]
    validate_decomposition(hdot, parents, beta0)

    k = (2 * c + w) * (w + 1)
    l = 2 * k
    beta1 = []
    guard1 = []
    for t, cone in enumerate(cones(parents, beta0)):
        hat_bag = {ids[i] for i in hat_bags[t]}
        saturated = clique_saturate(hc, keep=hat_bag)
        a_star, s_star = _restricted_cover(saturated, beta0[t], k, l)
        inside = s_star & cone
        beta1.append(beta0[t] | inside)
        guard1.append(inside | a_star)
    # massage_connected validates the grown decomposition
    parents, bags, fmap = massage_connected(hdot, parents, beta1)
    # the separator must always be guarded
    guards = [guard1[fmap[t]] & bag | sigma
              for t, (bag, sigma) in enumerate(zip(bags, separators(parents, bags)))]
    return parents, bags, guards


def build_guarded_decomposition(h: ColoredGraph) -> GuardedCutvertexDecomposition:
    """Full pipeline: the flower bound, per-component construction,
    reassembly, validation."""
    if h.n == 0:
        return GuardedCutvertexDecomposition(h, [None], [frozenset()], [frozenset()])
    # the flower bound: the least power of two above every class's largest
    # packing of disjoint A-paths
    largest = 0
    for i in h.color_ids():
        packing = _max_disjoint(*_class_paths(h, i), FLOWER_CAP)
        if len(packing) >= FLOWER_CAP:
            raise FlowerCapExceeded(
                f"class {i} still carries a {FLOWER_CAP}-flower; "
                "pattern is outside the tractable regime"
            )
        largest = max(largest, len(packing))
    c = 1 << largest.bit_length()

    hdot = clique_saturate(h)
    comps = connected_components(hdot)
    # merge the component trees: the first root is the global root, other
    # component roots attach below it (their separators are empty)
    parents: list = []
    bags: list = []
    guards: list = []
    for comp in comps:
        hc = ColoredGraph(h.graph.induced(comp), [h.colors[v] for v in comp])
        parents_c, bags_c, guards_c = _component_pipeline(hc, c)
        offset = len(bags)
        parents.extend(p + offset if p is not None else 0 if offset else None
                       for p in parents_c)
        bags.extend(frozenset(comp[v] for v in b) for b in bags_c)
        guards.extend(frozenset(comp[v] for v in gd) for gd in guards_c)
    return GuardedCutvertexDecomposition(h, parents, bags, guards)


# ---------------------------------------------------------------------------
# the two-layer ordered-embedding dynamic program


def count_ordered_embeddings(gcd: GuardedCutvertexDecomposition, g: ColoredGraph) -> int:
    """Number of color-preserving embeddings of the decomposed pattern
    gcd.h into g that are monotone (in host vertex order) on each
    similarity class.

    homcount._eliminate runs the DP over the decomposition's nodes, children
    first, each sending its table over its sorted separator.  A node's guard
    assignments are the rows of homcount._RowBuilder, with distinct images:
    the tables of children with guarded separators are its factors, and a
    row carries the product of their counts.  Rows are grown in one batch
    per image of the first guard vertex, so live rows stay few.

    A surviving row then places the free bag vertices.  Members of a
    similarity class share colour and neighbours, so the state counts the
    placed members of each class (its first ones, at increasing hosts).
    Each class's candidate hosts are computed once per row, and only their
    union is swept, each host taking at most one vertex; a child whose
    separator has one unguarded vertex weighs the host that vertex takes."""
    builder = _RowBuilder(gcd.h, g)
    class_of = {v: ci for ci, members in enumerate(gcd.similarity_partition())
                for v in members}

    def step(t, sigma, factors):
        guard_set = gcd.guards[t]
        order = builder.order(sorted(guard_set))
        pos = {u: i for i, u in enumerate(order)}
        # a child's table joins the guard rows when its separator is guarded;
        # else it hangs at the separator's one unguarded vertex (separator
        # slots, None for that vertex)
        plain, hung_at = [], {}
        for scope, table in factors:
            loose = [u for u in scope if u not in guard_set]
            if loose:
                hung_at.setdefault(loose[0], []).append(([pos.get(u) for u in scope], table))
            else:
                plain.append((scope, table))
        # one batch of guard rows per image of the first guard vertex, so
        # that live rows stay few
        seeds = [((x,), 1) for x in builder.hosts[order[0]]] if order else [((), 1)]
        batches = (builder.grow([seed], order, len(seed[0]), plain, distinct=True)
                   for seed in seeds)
        # the free bag vertices by similarity class: its size, its first
        # member (whose host tables all members share), the row positions
        # of its guard neighbours and the children hanging at it
        free: dict = {}
        for v in sorted(gcd.bags[t] - guard_set):
            free.setdefault(class_of[v], []).append(v)
        kinds = []
        for members in free.values():
            v = members[0]
            kinds.append((len(members), v, [pos[u] for u in builder.adj[v] & guard_set],
                          hung_at.get(v, ())))
        empty, full = (0,) * len(kinds), tuple(size for size, *_ in kinds)
        sigma_key = _projection([pos[u] for u in sigma])
        w_t: dict = {}

        for row, base in itertools.chain.from_iterable(batches):
            # state: how many members of each class are placed (its first
            # ones, at increasing hosts); the empty state carries the row
            cur = {empty: base}
            if kinds:
                taken = set(row)
                at: dict = {}  # host -> [(class, weight of placing it there)]
                for k, (_, v, nb, hung) in enumerate(kinds):
                    if nb:
                        nbr = builder.neighbours[v]
                        cands = nbr[row[nb[0]]].intersection(*[nbr[row[j]] for j in nb[1:]])
                    else:
                        cands = builder.hosts[v]
                    for x in cands:
                        if x in taken:
                            continue
                        weight = 1
                        for slots, table in hung:
                            key = tuple(x if j is None else row[j] for j in slots)
                            if not (weight := weight * table.get(key, 0)):
                                break
                        if weight:
                            at.setdefault(x, []).append((k, weight))
                for x in sorted(at):
                    nxt = dict(cur)
                    for state, cnt in cur.items():
                        for k, weight in at[x]:
                            if state[k] < full[k]:
                                up = state[:k] + (state[k] + 1,) + state[k + 1:]
                                nxt[up] = nxt.get(up, 0) + cnt * weight
                    cur = nxt
            total = cur.get(full, 0)
            if total:
                key = sigma_key(row)
                w_t[key] = w_t.get(key, 0) + total
        return w_t if sigma else w_t.get((), 0)

    return _eliminate((reversed(range(len(gcd.bags))),
                       [tuple(sorted(s)) for s in separators(gcd.parents, gcd.bags)],
                       gcd.parents), step)


def _spasm_embeddings(h: ColoredGraph, g: ColoredGraph) -> Optional[int]:
    """Color-preserving embeddings of h in g as the sum of w * Hom_col(F, g)
    over h's colored spasm (partitions._quotient_tally), its terms compiled
    into one evaluation program (homcount._program, homcount._hom_sum); None,
    before any quotient is canonicalised, when canonical_form or the tally
    refuses h: more than PRUNED_GUARD vertices, or more than
    PARTITION_BUDGET partitions into monochromatic independent blocks."""
    try:
        tally = _quotient_tally(canonical_form(h))
    except CapacityError:
        return None
    return _hom_sum(_program(tuple((f.graph, w) for f, _, w in tally)), g)


def count_colored_embeddings(h: ColoredGraph, g: ColoredGraph) -> int:
    """Color-preserving embedding count.  Isolated vertices peel off: with
    h' the rest of h, Emb(h, g) = Emb(h', g) prod_c perm(n_c - h'_c, m_c),
    n_c and h'_c the colour-c vertices of g and of h', m_c the isolated
    ones of h.  h' is counted over its colored spasm (_spasm_embeddings),
    else by the guarded DP and the similarity factorials."""
    adj, factor = adjacency(h.graph), 1
    if not all(adj):
        kept = [v for v in range(h.n) if adj[v]]
        free = Counter(g.colors)
        free.subtract(h.colors[v] for v in kept)
        for c, m in Counter(h.colors[v] for v in range(h.n) if not adj[v]).items():
            factor *= math.perm(max(free[c], 0), m)
        h = ColoredGraph(h.graph.induced(kept), [h.colors[v] for v in kept])
    emb = _spasm_embeddings(h, g) if factor else 0
    if emb is None:
        gcd = build_guarded_decomposition(h)
        emb = count_ordered_embeddings(gcd, g) * math.prod(
            math.factorial(len(members)) for members in gcd.similarity_partition())
    return emb * factor


def count_colored_sub(h: ColoredGraph, g: ColoredGraph) -> int:
    aut = automorphism_count(h)
    emb = count_colored_embeddings(h, g)
    if emb % aut:
        raise AssertionError("embedding count not divisible by automorphisms")
    return emb // aut


# ---------------------------------------------------------------------------
# colorful counting by inclusion-exclusion


def count_colorful_subgraphs_ie(f_pattern: Graph, g: Graph, coloring) -> int:
    """Subgraphs of g isomorphic to f_pattern picking exactly one vertex per
    color class, where coloring maps host vertices to pattern vertices and
    must be a homomorphism."""
    coloring = list(coloring)
    if len(coloring) != g.n:
        raise ValueError("need one color per host vertex")
    for u, v in g.edges:
        if not f_pattern.has_edge(coloring[u], coloring[v]):
            raise ValueError("coloring is not a homomorphism into the pattern")
    aut = automorphism_count(f_pattern)  # before the 2^|V(F)| loop: fails fast
    program = _program(((f_pattern, 1),))
    total = 0
    for r in range(f_pattern.n + 1):
        for dropped in itertools.combinations(range(f_pattern.n), r):
            keep = [v for v in range(g.n) if coloring[v] not in dropped]
            sign = -1 if r % 2 else 1
            total += sign * _hom_sum(program, g.induced(keep))
    if total % aut:
        raise AssertionError("inclusion-exclusion sum not divisible by Aut")
    return total // aut
