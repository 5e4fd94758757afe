"""Command-line front end.

Subcommands: count, colored-count, spasm, basis, eval, decompose, selftest.
Graphs are given inline as graph6 or as @file paths; files hold either a
graph6 line or the edge-list format, the latter optionally carrying vertex
colors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .colored import (
    FlowerCapExceeded,
    build_guarded_decomposition,
    count_colored_embeddings,
    count_colored_sub,
)
from .decomp import DecompositionError, elimination_plan, format_plan
from .graphs import (
    CapacityError,
    ColoredGraph,
    Graph,
    GraphFormatError,
    canonical_form,
    colored_automorphism_count,
    parse_graph6,
    parse_graph_file,
)
# count_hom_mm is re-exported: the benchmark's self-test checks that its span
# recorder wraps this import site
from .homcount import count_colored_hom, count_hom_dp, count_hom_mm  # noqa: F401
from .motif import (
    BASES,
    MotifParameter,
    change_basis,
    count_pattern,
    evaluate,
    format_motif_parameter,
    parse_motif_parameter,
)
from .oracle import BudgetExceeded, brute_count
from .partitions import coefficient_row

USAGE_EXIT = 2
DOMAIN_EXIT = 1
# auto: the planner picks each term's kernel; brute: the reference oracle alone
ENGINES = ("auto", "brute")


class UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load_source(src: str):
    """Inline graph6, or @path to a file holding graph6 or an edge list.  A
    bare @ is the graph6 of the one-vertex graph."""
    if src.startswith("@") and src != "@":
        return parse_graph_file(_read_text(src[1:]))
    return parse_graph6(src)


def _load_plain(src: str) -> Graph:
    g = _load_source(src)
    if isinstance(g, ColoredGraph):
        raise UsageError(
            f"{src} is coloured; count it with colored-count or decompose it with "
            "decompose --guarded"
        )
    return g


def _load_colored(src: str) -> ColoredGraph:
    g = _load_source(src)
    return g if isinstance(g, ColoredGraph) else ColoredGraph(g, [0] * g.n)


def _cmd_count(args) -> int:
    h = _load_plain(args.pattern)
    g = _load_plain(args.host)
    if args.engine == "brute":
        print(brute_count(args.kind, h, g))
    else:
        print(count_pattern(args.kind, h, g))
    return 0


def _cmd_colored_count(args) -> int:
    h = _load_colored(args.pattern)
    g = _load_colored(args.host)
    if args.kind == "hom":
        if args.engine == "brute":
            value = brute_count("colored-hom", h, g)
        else:
            value = count_colored_hom(h, g)
    elif args.kind in ("emb", "sub"):
        if args.engine == "brute":
            value = brute_count("colored-emb", h, g)
            if args.kind == "sub":
                value //= colored_automorphism_count(h)
        elif args.kind == "emb":
            value = count_colored_embeddings(h, g)
        else:
            value = count_colored_sub(h, g)
    else:
        raise UsageError(f"colored-count does not support kind {args.kind!r}")
    print(value)
    return 0


def _cmd_spasm(args) -> int:
    h = _load_plain(args.graph)
    for cf, coeff in sorted(
        coefficient_row("SurjInv", h).items(), key=lambda kv: kv[0].key
    ):
        print(f"{cf.key} {coeff}")
    return 0


def _cmd_basis(args) -> int:
    p = parse_motif_parameter(_read_text(args.input))
    if args.source_basis and p.basis != args.source_basis:
        raise UsageError(
            f"input file is in basis {p.basis!r}, not {args.source_basis!r}"
        )
    sys.stdout.write(format_motif_parameter(change_basis(p, args.target_basis)))
    return 0


def _cmd_eval(args) -> int:
    p = parse_motif_parameter(_read_text(args.param))
    g = _load_plain(args.host)
    if args.engine == "brute":
        # the oracle on the parameter's own terms: no basis change, no kernel
        print(sum(c * brute_count(p.basis, cf.graph, g) for cf, c in p.terms))
    else:
        print(evaluate(p, g))
    return 0


def _cmd_decompose(args) -> int:
    if args.guarded is not None:
        if args.graph is not None:
            raise UsageError("decompose --guarded takes no graph argument")
        h = _load_colored(args.guarded)
        gcd = build_guarded_decomposition(h)
        sys.stdout.write(gcd.dump())
        return 0
    if args.graph is None:
        raise UsageError("decompose needs a graph argument")
    g = _load_plain(args.graph)
    sys.stdout.write(format_plan(elimination_plan(g)))
    return 0


# ---------------------------------------------------------------------------
# selftest fixtures

_FIXTURE_BASIS = ["A_", "BW", "Bw", "CR"]  # K2, 2-edge path, K3, 3-edge path
_FIXTURE_HOM = [[2, 4, 6, 6], [2, 6, 12, 10], [0, 0, 6, 0], [2, 8, 24, 16]]
_FIXTURE_SURJ = [[2, 0, 0, 0], [2, 2, 0, 0], [0, 0, 6, 0], [2, 4, 6, 2]]
_FIXTURE_SUB = [[1, 2, 3, 3], [0, 1, 3, 2], [0, 0, 1, 0], [0, 0, 0, 1]]

# Sub-to-Hom expansion of the 4-edge path, keyed by canonical graph6
_FIXTURE_4PATH_EXPANSION = {
    "DBg": Fraction(1, 2),   # 4-edge path
    "CL": Fraction(-1),      # 3-edge path
    "CN": Fraction(-1),      # paw
    "C]": Fraction(-1, 2),   # C4
    "CF": Fraction(-1, 2),   # K13
    "Bw": Fraction(3, 2),    # K3
    "BW": Fraction(5, 2),    # 2-edge path
    "A_": Fraction(-1),      # K2
}

# Emb-basis combination that collapses to a single Hom term (walk counting)
_FIXTURE_WALK_VECTOR = [
    ("DBg", 1),  # 4-edge path
    ("C]", 1),   # C4
    ("CF", 1),   # K13
    ("CN", 2),   # paw
    ("CL", 2),   # 3-edge path
    ("Bw", 3),   # K3
    ("BW", 4),   # 2-edge path
    ("A_", 1),   # K2
]


def _fixture_matrices() -> bool:
    graphs = [parse_graph6(s) for s in _FIXTURE_BASIS]
    cfs = [canonical_form(g) for g in graphs]
    hom = [[count_hom_dp(a, b) for b in graphs] for a in graphs]
    rows = [coefficient_row("Surj", ca) for ca in cfs]
    surj = [[int(row.get(cb, 0)) for cb in cfs] for row in rows]
    sub = [[count_pattern("sub", a, b) for b in graphs] for a in graphs]
    product = [
        [sum(surj[i][k] * sub[k][j] for k in range(4)) for j in range(4)]
        for i in range(4)
    ]
    return (
        hom == _FIXTURE_HOM
        and surj == _FIXTURE_SURJ
        and sub == _FIXTURE_SUB
        and product == hom
    )


def _fixture_expansion() -> bool:
    vec = coefficient_row("SurjInv", parse_graph6("DBg"))
    got = {cf.key: coeff for cf, coeff in vec.items()}
    return got == _FIXTURE_4PATH_EXPANSION


def _fixture_walks() -> bool:
    p = MotifParameter(
        "emb", [(parse_graph6(k), c) for k, c in _FIXTURE_WALK_VECTOR]
    )
    hom = change_basis(p, "hom")
    path4 = canonical_form(parse_graph6("DBg"))
    if hom.as_dict() != {path4: Fraction(1)}:
        return False
    # walk counts on two hand-checkable hosts
    k3 = parse_graph6("Bw")
    c4 = parse_graph6("C]")
    return evaluate(p, k3) == 48 and evaluate(p, c4) == 64


def _fixture_oracle() -> bool:
    instances = [
        ("hom", "BW", "CL", 10),
        ("hom", "Bw", "CL", 0),
        ("hom", "CL", "Bw", 24),
        ("sub", "A_", "Bw", 3),
        ("indsub", "BW", "CL", 2),
        ("surj", "CL", "Bw", 6),
    ]
    for kind, hs, gs, want in instances:
        h, g = parse_graph6(hs), parse_graph6(gs)
        if brute_count(kind, h, g) != want:
            return False
        if kind in ("hom", "sub", "indsub") and count_pattern(kind, h, g) != want:
            return False
    return True


def _cmd_selftest(_args) -> int:
    fixtures = [
        ("hom-surj-sub-matrices", _fixture_matrices),
        ("4-path-expansion", _fixture_expansion),
        ("walk-cancellation", _fixture_walks),
        ("oracle-crosscheck", _fixture_oracle),
    ]
    failed = 0
    for name, fn in fixtures:
        ok = fn()
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failed += 1
    return DOMAIN_EXIT if failed else 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifcount", description="Exact small-pattern counting engine."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func in (("count", _cmd_count), ("colored-count", _cmd_colored_count)):
        p = sub.add_parser(name, help="count pattern occurrences in a host")
        p.add_argument("--kind", required=True, choices=BASES)
        p.add_argument("--pattern", required=True, metavar="G6|@FILE")
        p.add_argument("--host", required=True, metavar="G6|@FILE")
        p.add_argument("--engine", default="auto", choices=ENGINES)
        p.set_defaults(func=func)

    p = sub.add_parser("spasm", help="spasm of a pattern with Sub-to-Hom coefficients")
    p.add_argument("graph", metavar="G6|@FILE")
    p.set_defaults(func=_cmd_spasm)

    p = sub.add_parser("basis", help="convert a motif-parameter file between bases")
    p.add_argument("--from", dest="source_basis", choices=BASES)
    p.add_argument("--to", dest="target_basis", required=True, choices=BASES)
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("eval", help="evaluate a motif-parameter file on a host")
    p.add_argument("--param", required=True)
    p.add_argument("--host", required=True, metavar="G6|@FILE")
    p.add_argument("--engine", default="auto", choices=ENGINES)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "decompose", help="print a pattern's elimination plan or a guarded decomposition"
    )
    p.add_argument("graph", nargs="?", metavar="G6|@FILE")
    p.add_argument("--guarded", metavar="@COLOREDFILE")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("selftest", help="run the embedded fixtures")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (
        CapacityError,
        BudgetExceeded,
        DecompositionError,
        GraphFormatError,
        FlowerCapExceeded,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except (AssertionError, MemoryError, RecursionError) as exc:
        # a failed internal check or an exhausted resource: one line, no
        # traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
