"""Recovering a single homomorphism count from oracle access to a linear
combination, via tensor products.

The oracle is queried only on products g x X for X in the spasm closure S
of the support; multiplicativity of Hom over the categorical product turns
the answers into a linear system with matrix Hom_S, which is invertible
because S is spasm-closed.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import CanonicalForm, Graph, canonical_form, graph_order_key, tensor_product
from .homcount import count_hom_dp
from .motif import MotifParameter
from .partitions import spasm


def hom_closure(support) -> list:
    """Minimal spasm-closed superset, sorted by the global graph order: the
    union of the members' spasms, since a quotient of a quotient of H is a
    quotient of H."""
    return sorted({f for s in support for f in spasm(s)}, key=graph_order_key)


def _solve_exact(matrix, rhs):
    """Gaussian elimination over the rationals with partial pivoting by
    nonzero entry; raises on a singular system."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise AssertionError("singular system; index set not spasm-closed?")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def extract_hom_via_oracle(alpha: MotifParameter, f, g: Graph, oracle) -> int:
    """Recover Hom(f, g) from an oracle for G' -> sum_H alpha_H Hom(H, G').

    Makes exactly |S| oracle calls, each on the product of g with a member
    of the spasm closure S of the support.
    """
    if alpha.basis != "hom":
        raise ValueError("alpha must be in the hom basis")
    fc = f if isinstance(f, CanonicalForm) else canonical_form(f)
    coeffs = alpha.as_dict()
    if fc not in coeffs or coeffs[fc] == 0:
        raise ValueError("f must carry a nonzero coefficient in alpha")
    index = hom_closure(alpha.support())
    # row per query X, column per unknown y_H = alpha_H * Hom(H, g):
    # b_X = sum_H Hom(H, X) * y_H by product multiplicativity
    matrix = [
        [count_hom_dp(hc.graph, xc.graph) for hc in index] for xc in index
    ]
    rhs = [Fraction(oracle(tensor_product(g, xc.graph))) for xc in index]
    x = _solve_exact(matrix, rhs)
    pos = index.index(fc)
    value = x[pos] / coeffs[fc]
    if value.denominator != 1:
        raise AssertionError("extracted count is not an integer")
    return int(value)
