"""Experiment harness regenerating every table/figure of the paper."""

from .figures import (
    FIG2_STRATEGIES,
    Fig3Result,
    Fig4Result,
    Fig5abResult,
    Fig5cResult,
    MotivationResult,
    motivation_example_1,
    motivation_example_2,
)
from .pareto import (
    BudgetLatencyFrontier,
    DeadlineCostFrontier,
    DeadlineFrontierPoint,
    FrontierPoint,
    budget_latency_frontier,
    deadline_cost_frontier,
    min_budget_for_latency,
)
from .reporting import format_kv, format_series, format_table
from .runner import (
    DeadlineSweepResult,
    SweepResult,
    evaluate_allocation,
    evaluate_allocation_with_ci,
    run_budget_sweep,
    run_deadline_sweep,
)

__all__ = [
    "BudgetLatencyFrontier",
    "DeadlineCostFrontier",
    "DeadlineFrontierPoint",
    "DeadlineSweepResult",
    "FIG2_STRATEGIES",
    "FrontierPoint",
    "Fig3Result",
    "Fig4Result",
    "Fig5abResult",
    "Fig5cResult",
    "MotivationResult",
    "SweepResult",
    "deadline_cost_frontier",
    "evaluate_allocation",
    "evaluate_allocation_with_ci",
    "budget_latency_frontier",
    "format_kv",
    "format_series",
    "format_table",
    "min_budget_for_latency",
    "motivation_example_1",
    "motivation_example_2",
    "run_budget_sweep",
    "run_deadline_sweep",
]
