"""Exact predictive-multiplicity measurement for linear binary classifiers."""

__version__ = "0.1.0"

from .branch_bound import MipModel, SolveBudget, SolveResult, check_feasible, solve
from .core import (
    Dataset,
    Example,
    LinearClassifier,
    RiskReport,
    conflict_count,
    empirical_risk,
    oversample_minority,
    predict,
)
from .formulations import (
    build_baseline_mip,
    build_disc_mip,
    build_flip_mip,
    classifier_from_solution,
    compute_big_m,
    export_mps,
)
from .pool import PenaltyGrid, Pool, PoolModel, adhoc_measures, fit_pool
from .profiles import (
    ClassifierBank,
    EpsilonGrid,
    Measures,
    MeasureValue,
    MultiplicityProfile,
    PathologicalPool,
    ambiguity_path,
    discrepancy_path,
)
from .simplex import LinearProgram, LpSolution, solve_lp, solve_lp_with_fixings

__all__ = [
    "Dataset",
    "Example",
    "LinearClassifier",
    "RiskReport",
    "predict",
    "empirical_risk",
    "conflict_count",
    "oversample_minority",
    "LinearProgram",
    "LpSolution",
    "solve_lp",
    "solve_lp_with_fixings",
    "MipModel",
    "SolveBudget",
    "SolveResult",
    "solve",
    "check_feasible",
    "compute_big_m",
    "build_baseline_mip",
    "build_disc_mip",
    "build_flip_mip",
    "classifier_from_solution",
    "export_mps",
    "ClassifierBank",
    "EpsilonGrid",
    "Measures",
    "MeasureValue",
    "MultiplicityProfile",
    "PathologicalPool",
    "discrepancy_path",
    "ambiguity_path",
    "PenaltyGrid",
    "Pool",
    "PoolModel",
    "fit_pool",
    "adhoc_measures",
    "__version__",
]
