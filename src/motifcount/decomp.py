"""Tree decompositions for small pattern graphs.

Provides the cached elimination plan (exact treewidth, an optimal
elimination order and its message scopes) that the homomorphism counters
eliminate along: safe reduction rules eliminate simplicial and
almost-simplicial vertices, and dynamic programming over vertex subsets
plans each connected component of what they leave; format_plan prints it
for `motifcount decompose`.

A rooted tree decomposition is two parallel sequences, parents and bags
(frozensets): node 0 is the root (parent None) and every other node's
parent is numbered before it, so reversed(range(len(bags))) visits children
before parents.  exact_treewidth builds one from the plan; the validator,
the separator and cone sweeps and the connectivity massaging that makes
every separator the exact neighborhood of its component read it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import CapacityError, Graph, adjacency, connected_components, is_connected

# largest kernel component the subset DP plans: 39 s for an irreducible
# 19-vertex component, 70-77 s at 20 vertices (2-vCPU VM, Python 3.11)
TREEWIDTH_GUARD = 19


class DecompositionError(ValueError):
    pass


def separators(parents, bags) -> list:
    """Per node, its bag's intersection with its parent's bag (empty at the
    root)."""
    return [frozenset() if p is None else bags[t] & bags[p] for t, p in enumerate(parents)]


def cones(parents, bags) -> list:
    """Per node, the union of the bags in its subtree, by one sweep from the
    last node up."""
    cone = [set(b) for b in bags]
    for t in range(len(bags) - 1, 0, -1):
        cone[parents[t]] |= cone[t]
    return [frozenset(c) for c in cone]


def validate_decomposition(g: Graph, parents, bags) -> None:
    """Raise DecompositionError unless (parents, bags) is a rooted tree
    decomposition of g in the format exact_treewidth builds: node 0 is the
    root, every other node's parent is numbered before it, and the bags
    cover the edges, trace connected subtrees and separate each node's cone
    minus its separator from the rest of g."""
    if len(parents) != len(bags):
        raise DecompositionError("parent and bag lists differ in length")
    if not bags or parents[0] is not None:
        raise DecompositionError("node 0 must be the root")
    for t in range(1, len(parents)):
        if parents[t] not in range(t):
            raise DecompositionError(f"parent of node {t} is not numbered before it")
    covered = frozenset().union(*bags)
    if outside := covered - set(range(g.n)):
        raise DecompositionError(f"bag vertex {min(outside)} out of range")
    if len(covered) != g.n:
        raise DecompositionError("some vertex appears in no bag")
    for u, v in g.edges:
        if not any(u in b and v in b for b in bags):
            raise DecompositionError(f"edge ({u},{v}) not inside any bag")
    # connected traces: the nodes containing v induce a subtree
    for v in range(g.n):
        tops = [t for t, b in enumerate(bags) if v in b and (t == 0 or v not in bags[parents[t]])]
        if len(tops) != 1:
            raise DecompositionError(f"trace of vertex {v} is disconnected")
    # neighborhood containment: N(alpha(t)) inside sigma(t), where alpha(t)
    # is the cone minus the separator sigma(t); at the root alpha is all of
    # g, since every node descends from node 0 and the bags cover g
    adj = adjacency(g)
    for t, (cone, sigma) in enumerate(zip(cones(parents, bags), separators(parents, bags))):
        alpha = cone - sigma
        if not set().union(*(adj[v] for v in alpha)) - alpha <= sigma:
            raise DecompositionError(f"N(alpha({t})) escapes sigma({t})")


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
    low, order, later = _degeneracy(adj), [], [()] * g.n

    def eliminate(v):
        # v's scope is its remaining neighbourhood, which it fills in
        nb = adj[v]
        order.append(v)
        alive.remove(v)
        later[v] = tuple(sorted(nb))
        for u in nb:
            adj[u] |= nb
            adj[u] -= {u, v}

    while (step := _reduction(adj, alive, low)) is not None:
        v, low = step
        eliminate(v)
    kernel = Graph(g.n, [(u, w) for u in alive for w in adj[u] if u < w])
    # the kernel's components share no edges: eliminating one leaves the
    # others' adjacency as the subset DP planned it
    for comp in connected_components(kernel):
        if comp[0] not in alive:
            continue  # an eliminated vertex, isolated in the kernel
        if len(comp) > TREEWIDTH_GUARD:
            raise CapacityError(
                f"exact treewidth capped at {TREEWIDTH_GUARD} vertices per kernel component"
            )
        for v in _subset_plan(adj, comp):
            eliminate(v)
    rank = {v: i for i, v in enumerate(order)}
    parent = tuple(min(nb, key=rank.__getitem__, default=None) for nb in later)
    return max(map(len, later), default=-1), tuple(order), tuple(later), parent


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
    """(width, parents, bags): g's treewidth and an optimal rooted tree
    decomposition, the elimination tree of elimination_plan(g) numbered from
    the last-eliminated vertex.  Eliminating v yields the bag {v} + later[v],
    which hangs below its parent's bag, or below node 0 for a component's
    last vertex; the empty graph has one empty bag."""
    width, order, later, parent = elimination_plan(g)
    if g.n == 0:
        return width, (None,), (frozenset(),)
    top = order[::-1]
    node = {v: t for t, v in enumerate(top)}
    parents = tuple(None if t == 0 else node.get(parent[v], 0) for t, v in enumerate(top))
    return width, parents, tuple(frozenset(later[v] + (v,)) for v in top)


def support_treewidth(graphs) -> int:
    """Max treewidth over an iterable of graphs (a hom-basis support), -1
    when it is empty."""
    return max((elimination_plan(f)[0] for f in graphs), default=-1)


# ---------------------------------------------------------------------------
# connectivity massaging


def massage_connected(g: Graph, parents, bags):
    """Refine a decomposition of a connected graph so that each node's
    component induces a connected subgraph and each separator is exactly the
    neighborhood of its component.  Returns (parents, bags, f) in preorder,
    where f maps new nodes to the old nodes their bags came from.

    The root node and its bag are preserved, bags only shrink (within the
    f-image), and the node count stays below len(bags) * |V(g)|.
    """
    if not is_connected(g):
        raise DecompositionError("massage_connected needs a connected graph")
    if not bags or not bags[0]:
        raise DecompositionError("massage_connected needs a nonempty root bag")
    validate_decomposition(g, parents, bags)
    adj = adjacency(g)
    cone = cones(parents, bags)
    nodes: list = []  # (parent, bag, source node) in preorder

    def recurse(r: int, vertices: frozenset, parent_new: int | None) -> None:
        """Process the sub-decomposition (restricted to `vertices`) rooted
        at r; attach the result under parent_new."""
        root_bag = bags[r] & vertices
        r2 = len(nodes)
        nodes.append((parent_new, root_bag, r))
        # components of G[vertices] - root bag
        rest = sorted(vertices - root_bag)
        for local in connected_components(g.induced(rest)):
            comp = {rest[i] for i in local}
            boundary = set().union(*(adj[v] for v in comp)) - comp & vertices
            # the child of r whose subtree carries the component: in a valid
            # decomposition comp lies in exactly one child's cone
            carrier = next(c for c in range(r + 1, len(bags))
                           if parents[c] == r and comp & cone[c])
            recurse(carrier, frozenset(comp | boundary), r2)

    recurse(0, frozenset(range(g.n)), None)
    out_parents, out_bags, fmap = zip(*nodes)
    validate_decomposition(g, out_parents, out_bags)
    return out_parents, out_bags, fmap
