"""Workload factories: the paper's §5 settings and stress families."""

from .amt import (
    AMT_VOTE_ATTRACTIVENESS,
    AMT_VOTE_PROCESSING_SECONDS,
    amt_market,
    amt_pricing_model,
    amt_task_type,
    amt_worker_pool,
)
from .families import (
    ProblemFamily,
    available_families,
    get_family_builder,
    heterogeneous_family,
    homogeneity_family,
    register_family,
    repetition_family,
    scenario_family,
)
from .generators import many_groups_problem, random_problem, skewed_repetition_problem
from .scenarios import (
    PAPER_BUDGETS,
    heterogeneous_tasks,
    heterogeneous_workload,
    homogeneity_tasks,
    homogeneity_workload,
    repetition_tasks,
    repetition_workload,
    scenario_workload,
)

__all__ = [
    "AMT_VOTE_ATTRACTIVENESS",
    "AMT_VOTE_PROCESSING_SECONDS",
    "PAPER_BUDGETS",
    "ProblemFamily",
    "amt_market",
    "amt_pricing_model",
    "amt_task_type",
    "amt_worker_pool",
    "available_families",
    "get_family_builder",
    "heterogeneous_family",
    "heterogeneous_tasks",
    "heterogeneous_workload",
    "homogeneity_family",
    "homogeneity_tasks",
    "homogeneity_workload",
    "many_groups_problem",
    "random_problem",
    "register_family",
    "repetition_family",
    "repetition_tasks",
    "repetition_workload",
    "scenario_family",
    "scenario_workload",
    "skewed_repetition_problem",
]
