"""Exact counting of small graph patterns over the homomorphism basis."""

from .graphs import (
    CanonicalForm,
    CapacityError,
    ColoredGraph,
    Graph,
    GraphFormatError,
    automorphism_count,
    canonical_form,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
    quotient,
    tensor_product,
)
from .partitions import coefficient_row, colored_spasm, spasm
from .decomp import TreeDecomposition, exact_treewidth, massage_connected
from .homcount import count_hom_dp, count_hom_mm
from .motif import (
    MotifParameter,
    build_tree_count_parameter,
    change_basis,
    count_pattern,
    evaluate,
    format_motif_parameter,
    parse_motif_parameter,
)
from .extract import extract_hom_via_oracle, hom_closure
from .colored import (
    GuardedCutvertexDecomposition,
    a_path_packing,
    a_path_packing_restricted,
    build_guarded_decomposition,
    clique_saturate,
    contract_colors,
    count_colored_embeddings,
    count_colored_sub,
    count_colorful_subgraphs_ie,
    count_ordered_embeddings,
    find_flower,
    is_l_attached,
)
from .oracle import BudgetExceeded, brute_count

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
