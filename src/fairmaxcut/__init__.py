"""Exact maximin-fair Max-Cut objectives, solvers, and claim checkers.

The six objectives (utilitarian, static-fair, and dynamic-fair, each in value
and per-capita form) are computed exactly over rationals by cut enumeration
and an exact simplex LP with a strong-duality certificate.  Heuristics
(separate per-group solving, the naive uniform random cut, flip local search,
and Goemans-Williamson hyperplane rounding) can be scored exactly against
the optimal lottery.
"""

from .errors import (
    DegreeZeroError,
    FairMaxCutError,
    GeneratorParameterError,
    InstanceParseError,
    ModelMismatchError,
    TooLargeError,
)
from .exact import (
    DEFAULT_ENUMERATION_LIMIT,
    Mode,
    PayoffMatrix,
    build_payoff_matrix,
    max_proportion,
    max_value,
    static_fair,
)
from .graphs import (
    Cut,
    Graph,
    GroupPartition,
    PartitionKind,
    cut_value,
    edge_groups,
    is_bipartite,
    max_degree,
    node_groups,
)
from .heuristics import (
    CutDistribution,
    DistributionScore,
    GroupRandomStats,
    OracleResult,
    SampleStats,
    UnitVectorEmbedding,
    default_group_oracle,
    evaluate_distribution,
    gw_round,
    gw_sdp_solve,
    local_search_cut,
    naive_random_sample,
    naive_random_stats,
    sdp_objective,
    separate_solve,
)
from .maximin import MaximinSolution, df_fair, maximin_value, solve_maximin
from .utility import UtilityModel

__version__ = "0.1.0"
