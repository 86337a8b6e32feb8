"""Genus of commuting graphs of finite non-abelian groups."""

from .engine import (
    CommutingGraphReport,
    HeawoodBounds,
    check_bounds_against_group,
    commuting_graph,
    commuting_graph_of,
    family_genus,
    genus_of_graph,
    heawood_bounds,
    heawood_clique_bound,
    report_to_json,
)
from .fields import FieldContext, Mat2
from .graphs import (
    GenusResult,
    SimpleGraph,
    disjoint_clique_lower_bound,
    genus_complete,
    genus_complete_bipartite,
    genus_lower_bound_euler,
    genus_oracle,
    genus_upper_bound_betti,
    max_clique,
)
from .groups import (
    FiniteGroup,
    direct_product,
    group_from_file_text,
    group_from_matrices,
    group_from_operation,
    group_from_permutations,
)

__all__ = [
    "CommutingGraphReport",
    "FieldContext",
    "FiniteGroup",
    "GenusResult",
    "HeawoodBounds",
    "Mat2",
    "SimpleGraph",
    "check_bounds_against_group",
    "commuting_graph",
    "commuting_graph_of",
    "direct_product",
    "disjoint_clique_lower_bound",
    "family_genus",
    "genus_complete",
    "genus_complete_bipartite",
    "genus_lower_bound_euler",
    "genus_of_graph",
    "genus_oracle",
    "genus_upper_bound_betti",
    "group_from_file_text",
    "group_from_matrices",
    "group_from_operation",
    "group_from_permutations",
    "heawood_bounds",
    "heawood_clique_bound",
    "max_clique",
    "report_to_json",
]
