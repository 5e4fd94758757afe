"""Input checks that no other test reaches: each call raises its exception
type, exactly, with a message that names what is wrong."""

import re

import pytest

from conftest import clique, path
from motifcount.colored import (
    a_path_packing_restricted,
    clique_saturate,
    count_colorful_subgraphs_ie,
    find_flower,
    is_l_attached,
)
from motifcount.graphs import ColoredGraph, Graph, GraphFormatError, parse_edge_list, quotient
from motifcount.motif import (
    MotifParameter,
    build_tree_count_parameter,
    change_basis,
    parse_motif_parameter,
)
from motifcount.partitions import coefficient_row

P3 = path(2)
TWO_COLOURS = ColoredGraph(P3, [0, 1, 0])

CHECKS = {
    "graph-loop": (lambda: Graph(3, [(1, 1)]), ValueError, "loop at vertex 1 not allowed"),
    "graph-edge-out-of-range": (lambda: Graph(3, [(0, 3)]), ValueError,
                                "edge (0,3) out of range for 3 vertices"),
    "graph-negative-n": (lambda: Graph(-1), ValueError, "vertex count must be nonnegative"),
    "colored-too-few-colours": (lambda: ColoredGraph(P3, [0, 1]), ValueError,
                                "need exactly one color per vertex"),
    "colored-negative-colour": (lambda: ColoredGraph(P3, [0, -1, 0]), ValueError,
                                "colors must be nonnegative"),
    "quotient-not-a-partition": (lambda: quotient(P3, [[0, 1]]), ValueError,
                                 "partition does not cover the vertex set exactly"),
    "edge-list-unknown-directive": (lambda: parse_edge_list("n 2\nx 0 1\n"), GraphFormatError,
                                    "line 2: unrecognized directive"),
    "edge-list-missing-n": (lambda: parse_edge_list("e 0 1\n"), GraphFormatError,
                            "missing `n <count>` line"),
    "saturate-unknown-class": (lambda: clique_saturate(TWO_COLOURS, keep={2}), ValueError,
                               "unknown class id 2"),
    "flower-unknown-class": (lambda: find_flower(TWO_COLOURS, 5, 1), ValueError,
                             "unknown class id 5"),
    "attached-l-zero": (lambda: is_l_attached(P3, 1, [0, 2], 0), ValueError,
                        "l must be positive"),
    "restricted-small-l": (lambda: a_path_packing_restricted(P3, [0, 2], 2, 3), ValueError,
                           "need l >= 2k"),
    "restricted-disconnected": (lambda: a_path_packing_restricted(Graph(2), [0, 1], 1, 2),
                                ValueError, "needs a connected graph"),
    "coefficient-unknown-kind": (lambda: coefficient_row("Inj", P3), ValueError,
                                 "unknown coefficient kind 'Inj'"),
    "basis-unknown-target": (lambda: change_basis(MotifParameter("sub", {P3: 1}), "walk"),
                             ValueError, "unknown basis 'walk'"),
    "tree-builder-zero": (lambda: build_tree_count_parameter(0), ValueError,
                          "k must be positive"),
    "motif-bad-term-line": (lambda: parse_motif_parameter("basis sub\n1 A_ extra\n"), ValueError,
                            "line 2: expected `<rational> <graph6>`"),
    "motif-missing-basis": (lambda: parse_motif_parameter("# only a comment\n"), ValueError,
                            "missing `basis` line"),
    "colorful-short-colouring": (lambda: count_colorful_subgraphs_ie(clique(3), clique(3), [0, 1]),
                                 ValueError, "need one color per host vertex"),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_input_check(name):
    call, exc_type, fragment = CHECKS[name]
    with pytest.raises(exc_type, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is exc_type
