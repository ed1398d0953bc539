"""Sparse-grid combination technique with multivariate extrapolation.

Solves the d-dimensional Poisson problem with homogeneous Dirichlet data by
second-order finite differences on anisotropic tensor grids, combines the
grid solutions with exact rational weights (classical and higher-order
plans), and ships a CLI harness for convergence studies plus exact checks of
the weight identities.
"""

from .grid import (
    GridFunction,
    LevelIndex,
    Point,
    enumerate_nodes,
    multilinear_eval,
)
from .pde import (
    DegenerateGridError,
    ProblemSpec,
    SolverConvergenceError,
    SolverReport,
    apply_operator,
    builtin_sine_problem,
    solve_at_points,
    solve_poisson,
)
from .combine import (
    DEFAULT_NODE_BUDGET,
    STUDY_METHODS,
    BudgetExceededError,
    CombinationPlan,
    ConvergenceRecord,
    EvaluationResult,
    GridCache,
    PlanEvaluationError,
    default_eval_point,
    evaluate_plan,
    extrapolation_plan,
    extrapolation_weights,
    hierarchical_surplus_study,
    ho_plan,
    method_plan,
    observed_order,
    per_level_mass,
    plan_dof,
    plan_to_dict,
    projected_dof_total,
    standard_plan,
    surplus_order,
    write_plan_json,
)
from .verify import (
    IdentityReport,
    SyntheticExpansion,
    check_cancellation_system,
    check_lemma_cancel,
    check_normalization,
    extrapolated_value,
    model_value,
    random_expansion,
    residual_bound,
    synthetic_expansion_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grid
    "LevelIndex",
    "GridFunction",
    "Point",
    "enumerate_nodes",
    "multilinear_eval",
    # pde
    "ProblemSpec",
    "SolverReport",
    "DegenerateGridError",
    "SolverConvergenceError",
    "builtin_sine_problem",
    "solve_poisson",
    "solve_at_points",
    "apply_operator",
    # combine
    "CombinationPlan",
    "EvaluationResult",
    "ConvergenceRecord",
    "GridCache",
    "BudgetExceededError",
    "PlanEvaluationError",
    "DEFAULT_NODE_BUDGET",
    "STUDY_METHODS",
    "standard_plan",
    "extrapolation_weights",
    "extrapolation_plan",
    "ho_plan",
    "method_plan",
    "evaluate_plan",
    "hierarchical_surplus_study",
    "plan_dof",
    "per_level_mass",
    "plan_to_dict",
    "write_plan_json",
    "projected_dof_total",
    "observed_order",
    "surplus_order",
    "default_eval_point",
    # verify
    "IdentityReport",
    "SyntheticExpansion",
    "check_normalization",
    "check_cancellation_system",
    "check_lemma_cancel",
    "model_value",
    "extrapolated_value",
    "synthetic_expansion_check",
    "residual_bound",
    "random_expansion",
]
