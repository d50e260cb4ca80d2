"""Exact flag vectors of graphs at desk scale.

A graph's flag vector comes in three linearly equivalent forms: verbose
(indexed by words over a and b), concise (indexed by partitions of the
vertex count) and subgraph (partition-indexed, weighted by acyclic shelling
numbers).  This package computes all three exactly, proves the equivalences
constructively on concrete inputs, and analyses the span of the flag
vectors of all n-vertex graphs for n up to 7 and their convex hull for n up
to 6.

All values are immutable and all operations pure, so independent inputs may
safely be evaluated in parallel.
"""

from .errors import GraphParseError, SizeLimitError
from .exactlin import LPResult, RationalMatrix, kernel_basis, lp_feasible, rank
from .flagvectors import (
    anchor_word,
    basis_graph,
    complement_transform,
    component_scale,
    concise_flag_vector,
    concise_from_verbose,
    edge_flag_vector,
    optional_path,
    optional_tripod,
    scale_subgraph_to_concise,
    shuffle,
    subgraph_flag_vector,
    total_flag_vector,
    total_word_coefficient,
    verbose_flag_vector,
    verbose_from_concise,
)
from .graphs import (
    Graph,
    GraphSum,
    OptionalGraph,
    canonical_form,
    complement,
    connected_partition,
    enumerate_graphs,
    expand,
    pair_order,
    parse_graph,
)
from .partitions import Partition, enumerate_partitions, multinomial, partition_count
from .polytope import (
    HullReport,
    NullspaceReport,
    class_concise_points,
    hull_facets,
    hull_report,
    nullspace_report,
    span_dimension,
)
from .shellings import (
    Shelling,
    acyclic_shelling_number,
    count_semiconcise_flags,
    enumerate_shellings,
    tree_shelling_number,
    verbose_contribution,
)
from .vectors import ConciseVector, EdgeWordVector, VerboseVector

__version__ = "0.1.0"

__all__ = [
    "ConciseVector",
    "EdgeWordVector",
    "Graph",
    "GraphParseError",
    "GraphSum",
    "HullReport",
    "LPResult",
    "NullspaceReport",
    "OptionalGraph",
    "Partition",
    "RationalMatrix",
    "Shelling",
    "SizeLimitError",
    "VerboseVector",
    "acyclic_shelling_number",
    "anchor_word",
    "basis_graph",
    "canonical_form",
    "class_concise_points",
    "complement",
    "complement_transform",
    "component_scale",
    "concise_flag_vector",
    "concise_from_verbose",
    "connected_partition",
    "count_semiconcise_flags",
    "edge_flag_vector",
    "enumerate_graphs",
    "enumerate_partitions",
    "enumerate_shellings",
    "expand",
    "hull_facets",
    "hull_report",
    "kernel_basis",
    "lp_feasible",
    "multinomial",
    "nullspace_report",
    "optional_path",
    "optional_tripod",
    "pair_order",
    "parse_graph",
    "partition_count",
    "rank",
    "scale_subgraph_to_concise",
    "shuffle",
    "span_dimension",
    "subgraph_flag_vector",
    "total_flag_vector",
    "total_word_coefficient",
    "tree_shelling_number",
    "verbose_contribution",
    "verbose_flag_vector",
    "verbose_from_concise",
]
