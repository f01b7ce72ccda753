"""Negative-type classification and exact gap constants for finite metric
spaces.

The public surface is re-exported here; the modules group as

  linalg        symmetric matrices and the LAPACK wrappers
  metric        metric validation, graphs, generators, power matrices
  negtype       classification, the LDL^T of A (three LAPACK calls) and
                the corrected matrices B and C
  gap           exact sign-vector maximization, witnesses, branch-and-bound
  closed_forms  closed-form gamma and beta for discrete spaces, cycles,
                and trees
  cli           command-line front end
"""

from . import errors
from .closed_forms import OracleResult, gamma_cycle, gamma_discrete, gamma_tree
from .gap import (
    MAX_ENUM_N,
    BnbResult,
    GapInequalityReport,
    GapResult,
    beta_binary,
    beta_hypercube,
    beta_opnorm,
    branch_and_bound,
    make_witness,
    solve_gap,
    verify_gap_inequality,
)
from .linalg import SymMatrix
from .metric import (
    MetricSpace,
    NegTypeMatrix,
    WeightedGraph,
    gen_cycle,
    gen_discrete,
    gen_path,
    gen_random_tree,
    gen_tree,
    is_tree,
    path_metric,
    power_matrix,
    validate_metric,
)
from .negtype import (
    NEGATIVE_TYPE_NON_STRICT,
    NOT_NEGATIVE_TYPE,
    STRICT_NEGATIVE_TYPE,
    NegTypeReport,
    build_B,
    classify,
    oscillation,
    project_to_F,
)

__version__ = "0.1.0"

__all__ = [
    "BnbResult",
    "GapInequalityReport",
    "GapResult",
    "MAX_ENUM_N",
    "MetricSpace",
    "NEGATIVE_TYPE_NON_STRICT",
    "NOT_NEGATIVE_TYPE",
    "NegTypeMatrix",
    "NegTypeReport",
    "OracleResult",
    "STRICT_NEGATIVE_TYPE",
    "SymMatrix",
    "WeightedGraph",
    "beta_binary",
    "beta_hypercube",
    "beta_opnorm",
    "branch_and_bound",
    "build_B",
    "classify",
    "errors",
    "gamma_cycle",
    "gamma_discrete",
    "gamma_tree",
    "gen_cycle",
    "gen_discrete",
    "gen_path",
    "gen_random_tree",
    "gen_tree",
    "is_tree",
    "make_witness",
    "oscillation",
    "path_metric",
    "power_matrix",
    "project_to_F",
    "solve_gap",
    "validate_metric",
    "verify_gap_inequality",
]
