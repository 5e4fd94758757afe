"""Tree decompositions for small pattern graphs.

Provides the cached elimination plan (exact treewidth, an optimal
elimination order and its message scopes) that the homomorphism counters
eliminate along: safe reduction rules eliminate simplicial and
almost-simplicial vertices, and dynamic programming over vertex subsets
plans each connected component of what they leave; format_plan prints it
for `motifcount decompose`.  Also the rooted tree decompositions built from
the plan and the connectivity massaging that makes every separator the
exact neighborhood of its component, both for the colored pipeline.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

from .graphs import CapacityError, Graph, adjacency, connected_components, is_connected

# largest kernel component the subset DP plans: 39 s for an irreducible
# 19-vertex component, 70-77 s at 20 vertices (2-vCPU VM, Python 3.11)
TREEWIDTH_GUARD = 19


class DecompositionError(ValueError):
    pass


class TreeDecomposition:
    """A rooted tree decomposition.

    Nodes are integers 0..len(bags)-1; parent[root] is None.  The derived
    maps sigma/gamma/alpha follow the usual rooted conventions: sigma(t) is
    the bag intersection with the parent bag, gamma(t) the union of bags in
    the subtree, alpha(t) = gamma(t) minus sigma(t).
    """

    def __init__(self, parents: list, bags: list, root: int):
        self.parents = list(parents)
        self.bags = [frozenset(b) for b in bags]
        self.root = root
        if len(self.parents) != len(self.bags):
            raise DecompositionError("parent and bag lists differ in length")
        if self.parents[root] is not None:
            raise DecompositionError("root must have no parent")
        self.children: list = [[] for _ in self.bags]
        seen_root = 0
        for t, p in enumerate(self.parents):
            if p is None:
                seen_root += 1
                if t != root:
                    raise DecompositionError("multiple parentless nodes")
            else:
                self.children[p].append(t)
        if seen_root != 1:
            raise DecompositionError("exactly one root required")
        # reject cycles / disconnected node sets
        order = self.topological_order()
        if len(order) != len(self.bags):
            raise DecompositionError("parent map is not a tree")
        self._gamma: Optional[list] = None

    def node_count(self) -> int:
        return len(self.bags)

    def topological_order(self) -> list:
        """Nodes in preorder (parents before children)."""
        order = []
        stack = [self.root]
        while stack:
            t = stack.pop()
            order.append(t)
            stack.extend(reversed(self.children[t]))
        return order

    def sigma(self, t: int) -> frozenset:
        p = self.parents[t]
        if p is None:
            return frozenset()
        return self.bags[t] & self.bags[p]

    def gamma(self, t: int) -> frozenset:
        if self._gamma is None:
            gamma = [None] * len(self.bags)
            for t2 in reversed(self.topological_order()):
                acc = set(self.bags[t2])
                for c in self.children[t2]:
                    acc |= gamma[c]
                gamma[t2] = frozenset(acc)
            self._gamma = gamma
        return self._gamma[t]

    def alpha(self, t: int) -> frozenset:
        return self.gamma(t) - self.sigma(t)

    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def validate(self, g: Graph) -> None:
        """Raise DecompositionError unless this is a valid rooted tree
        decomposition of g (edge coverage, connected vertex traces, and the
        derived separator/cone/component conditions)."""
        covered = set()
        for b in self.bags:
            for v in b:
                if not (0 <= v < g.n):
                    raise DecompositionError(f"bag vertex {v} out of range")
            covered |= b
        if covered != set(range(g.n)):
            raise DecompositionError("some vertex appears in no bag")
        for u, v in g.edges:
            if not any(u in b and v in b for b in self.bags):
                raise DecompositionError(f"edge ({u},{v}) not inside any bag")
        # connected traces: the nodes containing v induce a subtree
        for v in range(g.n):
            nodes = [t for t, b in enumerate(self.bags) if v in b]
            tops = [t for t in nodes if self.parents[t] is None or v not in self.bags[self.parents[t]]]
            if len(tops) != 1:
                raise DecompositionError(f"trace of vertex {v} is disconnected")
        # neighborhood containment: N(alpha(t)) inside sigma(t)
        adj = adjacency(g)
        for t in range(len(self.bags)):
            alpha = self.alpha(t)
            if alpha & self.sigma(t):
                raise DecompositionError("alpha and sigma intersect")
            outside = set(range(g.n)) - alpha
            boundary = set()
            for v in alpha:
                boundary |= adj[v] & outside
            if not boundary <= self.sigma(t):
                raise DecompositionError(f"N(alpha({t})) escapes sigma({t})")
        if self.alpha(self.root) != frozenset(range(g.n)):
            raise DecompositionError("root component must be the whole vertex set")


# ---------------------------------------------------------------------------
# exact treewidth


def _degeneracy(adj: list) -> int:
    """Largest degree at which a least-degree vertex is removed, removing
    them one by one: a lower bound on treewidth."""
    degree = {v: len(a) for v, a in enumerate(adj)}
    low = 0
    while degree:
        v = min(degree, key=degree.__getitem__)
        low = max(low, degree.pop(v))
        for u in adj[v]:
            if u in degree:
                degree[u] -= 1
    return low


def _reduction(adj: list, alive: set, low: int):
    """(v, low) for the first vertex of `alive`, by degree then label, that
    a reduction rule eliminates: a simplicial v raises the lower bound to
    its degree, an almost-simplicial v needs degree <= low.  None when no
    rule applies."""
    for v in sorted(alive, key=lambda u: (len(adj[u]), u)):
        nb = adj[v]
        missing = [{a, b} for a, b in itertools.combinations(nb, 2) if b not in adj[a]]
        if not missing:
            return v, max(low, len(nb))
        # all but one neighbour form a clique: one vertex is in every missing edge
        if len(nb) <= low and set.intersection(*missing):
            return v, low
    return None


def _reachable_neighbors(adj_masks: list, inside: int, v: int) -> int:
    """Bitmask of vertices outside `inside` + {v} reachable from v through
    `inside`; these all end up in v's bag when the `inside` set is
    eliminated before v."""
    seen = 1 << v
    stack = [v]
    out = 0
    while stack:
        u = stack.pop()
        for w_mask in _bits(adj_masks[u] & ~seen):
            w = w_mask.bit_length() - 1
            seen |= w_mask
            if (inside >> w) & 1:
                stack.append(w)
            else:
                out |= w_mask
    return out


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _subset_plan(adj: list, vertices: list) -> list:
    """An optimal elimination order of the graph that `adj` induces on
    `vertices`, a connected component, by dynamic programming over
    elimination prefixes: 2^len(vertices) states."""
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    adj_masks = [sum(1 << index[u] for u in adj[v]) for v in vertices]

    full = (1 << n) - 1
    cost = [-1] * (1 << n)
    choice = [0] * (1 << n)
    # in integer order every predecessor s ^ vm < s is already done
    for s in range(1, 1 << n):
        best = None
        for vm in _bits(s):
            v = vm.bit_length() - 1
            prev = s ^ vm
            val = max(cost[prev], _reachable_neighbors(adj_masks, prev, v).bit_count())
            if best is None or val < best:
                best, choice[s] = val, v
        cost[s] = best

    order = []
    s = full
    while s:
        v = choice[s]
        order.append(vertices[v])
        s ^= 1 << v
    order.reverse()
    return order


@lru_cache(maxsize=1024)
def elimination_plan(g: Graph) -> tuple:
    """(width, order, later, parent): g's treewidth (the largest scope, -1
    for the empty graph), an optimal elimination order listing the
    first-eliminated vertex first, and per vertex v the
    sorted tuple of its later neighbours after fill-in (the scope of the
    message v sends) and the first of them in the order (its parent in the
    elimination tree), or None.  Cached, so every pattern is planned once.

    The safe reduction rules of Bodlaender, Koster and van den Eijkhof
    eliminate vertices first, each filling in its neighbourhood, with the
    lower bound started at g's degeneracy; they clear every graph of
    treewidth <= 2.  The subset DP then plans each connected component of
    what is left, with its fill edges, and TREEWIDTH_GUARD caps those
    components, not g."""
    adj = [set(a) for a in adjacency(g)]
    alive = set(range(g.n))
    low, order = _degeneracy(adj), []
    while (step := _reduction(adj, alive, low)) is not None:
        v, low = step
        nb = adj[v]
        order.append(v)
        alive.remove(v)
        for u in nb:
            adj[u] |= nb
            adj[u] -= {u, v}
    kernel = Graph(g.n, [(u, w) for u in alive for w in adj[u] if u < w])
    for comp in connected_components(kernel):
        if comp[0] not in alive:
            continue  # an eliminated vertex, isolated in the kernel
        if len(comp) > TREEWIDTH_GUARD:
            raise CapacityError(
                f"exact treewidth capped at {TREEWIDTH_GUARD} vertices per kernel component"
            )
        order.extend(_subset_plan(adj, comp))
    later = _fill_in(g, order)
    rank = {v: i for i, v in enumerate(order)}
    parent = tuple(min(nb, key=rank.__getitem__, default=None) for nb in later)
    return max(map(len, later), default=-1), tuple(order), later, parent


def format_plan(plan: tuple) -> str:
    """An elimination plan as text: `width=W order=v1,v2,...`, then per
    vertex in elimination order `v scope={a,b} parent=p` (`-` for none)."""
    width, order, later, parent = plan
    lines = [f"width={width} order={','.join(map(str, order))}"]
    for v in order:
        p = "-" if parent[v] is None else parent[v]
        lines.append(f"{v} scope={{{','.join(map(str, later[v]))}}} parent={p}")
    return "\n".join(lines) + "\n"


def exact_treewidth(g: Graph):
    """Minimum treewidth and an optimal rooted tree decomposition along the
    elimination plan: eliminating v yields the bag {v} + later[v], which
    hangs below its parent's bag, or below the last bag for a component's
    last vertex."""
    width, order, later, parent = elimination_plan(g)
    if g.n == 0:
        return width, TreeDecomposition([None], [frozenset()], 0)
    node = {v: i for i, v in enumerate(order)}
    root = g.n - 1
    parents = [None if i == root else node.get(parent[v], root) for i, v in enumerate(order)]
    return width, TreeDecomposition(parents, [later[v] + (v,) for v in order], root)


def _fill_in(g: Graph, order) -> tuple:
    """Per vertex v, the sorted tuple of its later neighbors in g filled
    along order: eliminating v makes its remaining neighbors a clique."""
    adj = [set(a) for a in adjacency(g)]
    later = [()] * g.n
    for v in order:
        nb = adj[v]
        later[v] = tuple(sorted(nb))
        for u in nb:
            adj[u] |= nb
            adj[u] -= {u, v}
    return tuple(later)


def support_treewidth(graphs) -> int:
    """Max treewidth over an iterable of graphs (a hom-basis support), -1
    when it is empty."""
    return max((elimination_plan(f)[0] for f in graphs), default=-1)


# ---------------------------------------------------------------------------
# connectivity massaging


def massage_connected(d: TreeDecomposition, g: Graph):
    """Refine a decomposition of a connected graph so that each node's
    component induces a connected subgraph and each separator is exactly the
    neighborhood of its component.  Returns (TreeDecomposition, f) where f
    maps new nodes to the old nodes their bags came from.

    The root node and its bag are preserved, bags only shrink (within the
    f-image), and the node count stays below node_count * |V(g)|.
    """
    if not is_connected(g):
        raise DecompositionError("massage_connected needs a connected graph")
    if not d.bags[d.root]:
        raise DecompositionError("massage_connected needs a nonempty root bag")
    d.validate(g)
    adj = adjacency(g)

    parents: list = []
    bags: list = []
    fmap: list = []

    def new_node(parent, bag, source) -> int:
        parents.append(parent)
        bags.append(frozenset(bag))
        fmap.append(source)
        return len(bags) - 1

    def recurse(r: int, vertices: frozenset, parent_new: Optional[int]) -> None:
        """Process the sub-decomposition (restricted to `vertices`) rooted
        at r; attach the result under parent_new."""
        root_bag = d.bags[r] & vertices
        r2 = new_node(parent_new, root_bag, r)
        # components of G[vertices] - root bag
        rest = sorted(vertices - root_bag)
        for local in connected_components(g.induced(rest)):
            comp = {rest[i] for i in local}
            boundary = set()
            for v in comp:
                boundary |= adj[v] - comp
            boundary &= vertices
            # the child of r whose subtree carries the component
            carrier = next((c for c in d.children[r] if comp & d.gamma(c)), None)
            if carrier is None:
                raise DecompositionError("component not found under any child")
            recurse(carrier, frozenset(comp | boundary), r2)

    recurse(d.root, frozenset(range(g.n)), None)
    out = TreeDecomposition(parents, bags, 0)
    out.validate(g)
    return out, fmap
