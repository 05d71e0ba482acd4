"""walkrank: walk-based centrality, PageRank, and ranking-sweep analysis.

The package revolves around one observation: parameterized walk-counting
centralities (Katz, subgraph/total communicability, PageRank) interpolate
between two parameter-free limits — degree-like rankings as the parameter
goes to 0 and eigenvector-like rankings at the feasible endpoint. The
:mod:`walkrank.ranking` module measures where on that path a given parameter
actually sits.
"""

from .datasets import karate, six_node_digraph
from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    FormatError,
    GraphParseError,
    UnsupportedOperationError,
    ValidationError,
    WalkrankError,
)
from .graph import (
    Graph,
    clustering_coefficient,
    degrees,
    dump_edge_list,
    dumps_edge_list,
    is_connected,
    is_strongly_connected,
    largest_scc,
    load_edge_list,
    load_matrix_market,
    triangle_counts,
)
from .measures import (
    CentralityVector,
    degree_centrality,
    eigenvector_centrality,
    exp_subgraph,
    hits,
    katz,
    resolvent_subgraph,
    total_communicability,
)
from .pagerank import (
    GoogleModel,
    build_model,
    heat_kernel_rowsums,
    pagerank_linear,
    pagerank_power,
    small_alpha_limit,
)
from .ranking import (
    ConvergenceReport,
    Ranking,
    SweepResult,
    convergence_report,
    equal_modulo_ties,
    intersection_distance,
    limit_sweep,
    rank,
)
from .series import (
    EXPONENTIAL,
    RESOLVENT,
    SeriesFunction,
    dense_limit,
    exp_action,
    fa_diagonal,
    feasible_interval,
    resolvent_solve,
)
from .spectral import (
    SpectralInfo,
    dominant_eigenpair,
    second_eigenvalue,
    spectral_gap,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graph
    "Graph", "load_edge_list", "load_matrix_market", "dump_edge_list",
    "dumps_edge_list",
    "degrees", "largest_scc", "triangle_counts", "clustering_coefficient",
    "is_connected", "is_strongly_connected",
    # spectral
    "SpectralInfo", "dominant_eigenpair", "second_eigenvalue", "spectral_gap",
    # series
    "SeriesFunction", "EXPONENTIAL", "RESOLVENT", "feasible_interval",
    "exp_action", "resolvent_solve", "fa_diagonal", "dense_limit",
    # measures
    "CentralityVector", "degree_centrality", "eigenvector_centrality",
    "katz", "resolvent_subgraph", "exp_subgraph", "total_communicability",
    "hits",
    # pagerank
    "GoogleModel", "build_model", "pagerank_power", "pagerank_linear",
    "small_alpha_limit", "heat_kernel_rowsums",
    # ranking
    "Ranking", "SweepResult", "ConvergenceReport", "rank",
    "intersection_distance", "equal_modulo_ties", "limit_sweep",
    "convergence_report",
    # errors
    "WalkrankError", "GraphParseError", "FormatError", "ValidationError",
    "DomainError", "CapacityError", "UnsupportedOperationError",
    "ConvergenceError",
    # bundled fixtures
    "karate", "six_node_digraph",
]
