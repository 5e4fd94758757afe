"""Brute-force reference counters.

Everything here enumerates candidate maps directly from the definitions and
is deliberately naive; the fast counting paths share no code with this
module.  No count enumerates more than DEFAULT_BUDGET candidate maps; a
larger one raises BudgetExceeded before it starts.
"""

from __future__ import annotations

import itertools

from .graphs import CapacityError, ColoredGraph, Graph

COUNT_KINDS = (
    "hom",
    "emb",
    "strembed",
    "sub",
    "indsub",
    "surj",
    "colored-hom",
    "colored-emb",
    "colorful-partitioned",
)

DEFAULT_BUDGET = 10**9


class BudgetExceeded(CapacityError):
    pass


def _check_budget(nh: int, ng: int):
    if ng == 0:
        return
    if ng**nh > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"{ng}^{nh} candidate maps exceed the brute-force budget of {DEFAULT_BUDGET:,}"
        )


def _plain(x):
    return x.graph if isinstance(x, ColoredGraph) else x


def _is_hom(h: Graph, g: Graph, phi) -> bool:
    return all(g.has_edge(phi[u], phi[v]) for u, v in h.edges)


def _is_strong(h: Graph, g: Graph, phi) -> bool:
    for u, v in itertools.combinations(range(h.n), 2):
        if g.has_edge(phi[u], phi[v]) != h.has_edge(u, v):
            return False
    return True


def _count_maps(h: Graph, g: Graph, pred) -> int:
    return sum(1 for phi in itertools.product(range(g.n), repeat=h.n) if pred(phi))


def _count_injections(h: Graph, g: Graph, pred) -> int:
    return sum(1 for phi in itertools.permutations(range(g.n), h.n) if pred(phi))


def _count_surjective(h: Graph, f: Graph) -> int:
    count = 0
    all_f_edges = set(f.edges)
    for phi in itertools.product(range(f.n), repeat=h.n):
        if not _is_hom(h, f, phi):
            continue
        if set(phi) != set(range(f.n)):
            continue
        image_edges = {tuple(sorted((phi[u], phi[v]))) for u, v in h.edges}
        if image_edges == all_f_edges:
            count += 1
    return count


def brute_count(kind: str, h, g) -> int:
    """Count maps of the given kind from pattern h into host g by plain
    enumeration."""
    if kind not in COUNT_KINDS:
        raise ValueError(f"unknown count kind {kind!r}")
    ph, pg = _plain(h), _plain(g)
    _check_budget(ph.n, pg.n)

    if kind == "hom":
        return _count_maps(ph, pg, lambda phi: _is_hom(ph, pg, phi))
    if kind == "emb":
        return _count_injections(ph, pg, lambda phi: _is_hom(ph, pg, phi))
    if kind == "strembed":
        return _count_injections(ph, pg, lambda phi: _is_strong(ph, pg, phi))
    if kind == "sub":
        return _count_subgraph_copies(ph, pg, induced=False)
    if kind == "indsub":
        return _count_subgraph_copies(ph, pg, induced=True)
    if kind == "surj":
        return _count_surjective(ph, pg)

    if kind in ("colored-hom", "colored-emb"):
        if not isinstance(h, ColoredGraph) or not isinstance(g, ColoredGraph):
            raise ValueError(f"{kind} needs colored pattern and host")
        ok_color = lambda phi: all(
            g.colors[phi[v]] == h.colors[v] for v in range(ph.n)
        )
        pred = lambda phi: ok_color(phi) and _is_hom(ph, pg, phi)
        if kind == "colored-hom":
            return _count_maps(ph, pg, pred)
        return _count_injections(ph, pg, pred)

    # colorful-partitioned: h is the pattern F, g is an F-colored host given
    # as a ColoredGraph whose colors are vertices of F.  Count subgraph
    # copies of F in g picking exactly one host vertex per color class.
    if not isinstance(g, ColoredGraph):
        raise ValueError("colorful-partitioned needs a colored host")
    return _count_colorful(ph, g)


def _count_subgraph_copies(h: Graph, g: Graph, induced: bool) -> int:
    """Subgraph copies counted as vertex subsets with a matching edge
    subset, i.e. Emb / Aut computed without reference to either."""
    count = 0
    for subset in itertools.combinations(range(g.n), h.n):
        seen = set()
        for phi in itertools.permutations(subset):
            if not _is_hom(h, g, phi):
                continue
            if induced and not _is_strong(h, g, phi):
                continue
            edge_set = frozenset(
                tuple(sorted((phi[u], phi[v]))) for u, v in h.edges
            )
            seen.add(edge_set)
        count += len(seen)
    return count


def _count_colorful(f: Graph, g: ColoredGraph) -> int:
    classes = [[] for _ in range(f.n)]
    for v, c in enumerate(g.colors):
        if not (0 <= c < f.n):
            raise ValueError("host color outside pattern vertex range")
        classes[c].append(v)
    if any(not cl for cl in classes):
        return 0
    total = 1
    for cl in classes:
        total *= len(cl)
    if total > DEFAULT_BUDGET:
        raise BudgetExceeded("colorful enumeration exceeds budget")
    count = 0
    for choice in itertools.product(*classes):
        # choice[c] is the host vertex standing in for pattern vertex c
        if all(g.graph.has_edge(choice[u], choice[v]) for u, v in f.edges):
            count += 1
    return count
