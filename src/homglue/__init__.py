"""Entropy-coupling machinery for graph homomorphism distributions:
Markov-tree gluing of exact finite distributions, recursive strong tree
decompositions, and desk-scale Sidorenko bound checks.
"""

from .graphs import (
    Graph,
    enumerate_homs,
    find_isomorphism_pinned,
    hom_count,
    induced_subgraph,
    is_forest,
    max_degree,
)
from .markov import (
    MarkovTree,
    TreeDecomposition,
    bags_containing,
    helly_intersection,
    line_graph_markov_tree,
    minimum_covering_subfamily,
    retraction,
    validate_markov_tree,
    validate_tree_decomposition,
)
from .strong import (
    StrongDecomposition,
    SubDecomposition,
    minimum_subdecomposition,
    strong_isomorphism,
    validate_document,
    validate_strong,
    zero_strong,
)
from .dists import (
    SparseDistribution,
    check_marginal_consistency,
    entropy,
    glue_markov_tree,
    glue_pair,
    junction_factorization,
    marginal,
)
from .sidorenko import (
    AssociatedDistribution,
    BoundReport,
    InvariantViolation,
    associated_distribution,
    bound_report,
    brw_distribution,
    degree_condition,
    entropy_bound_report,
    forest_hom_bound_check,
    isomorphism_transport_check,
    projection_consistency_check,
    sidorenko_check,
)

__version__ = "0.1.0"
