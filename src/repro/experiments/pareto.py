"""Budget–latency trade-off exploration (both directions).

The H-Tuning problem fixes the budget and minimizes latency; a
requester deciding *how much* to spend needs the whole frontier.
:func:`budget_latency_frontier` sweeps budgets, tunes each, and scores
the expected job latency, producing the curve a practitioner reads off
before committing money — plus the "knee" heuristic (max curvature
point) that marks where extra spend stops paying.

The deadline-constrained relative [29] asks the dual question:
:func:`deadline_cost_frontier` sweeps a deadline grid and reports the
cheapest spend meeting each deadline at a target confidence — the
curve [29]'s requester reads before committing to an SLA.  The sweep
resolves its comparator through the :mod:`repro.perf.deadline`
registry; both builtin names bind one grid solver, which shares
ladders and profile tables across the whole grid.

:func:`min_budget_for_latency` bridges the two framings: the cheapest
budget whose *tuned expected latency* meets a target.

All three take the fixed task set as a
:class:`~repro.workloads.families.ProblemFamily`, the one workload
shape of every sweep; the two budget-axis functions read its members
through :meth:`~repro.workloads.families.ProblemFamily.problem_at`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..core.latency import expected_job_latency
from ..core.tuner import Tuner, tune_budget_sweep
from ..errors import InfeasibleAllocationError, ModelError
from ..workloads.families import ProblemFamily, _require_family

__all__ = [
    "FrontierPoint",
    "BudgetLatencyFrontier",
    "budget_latency_frontier",
    "DeadlineFrontierPoint",
    "DeadlineCostFrontier",
    "deadline_cost_frontier",
    "min_budget_for_latency",
]


def _knee_index(x: Sequence[float], y: Sequence[float]) -> int:
    """Index of the diminishing-returns point of the curve ``(x, y)``:
    the max vertical distance below the chord between the endpoints
    (the classic 'kneedle' shape).  Curves under three points have no
    interior, so their knee is the last point."""
    if len(x) < 3:
        return len(x) - 1
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_n = (x - x[0]) / max(x[-1] - x[0], 1e-12)
    y_n = (y - y[-1]) / max(y[0] - y[-1], 1e-12)
    chord = y_n[0] + (y_n[-1] - y_n[0]) * x_n
    return int(np.argmax(chord - y_n))


@dataclass(frozen=True)
class FrontierPoint:
    """One (budget, tuned expected latency) point."""

    budget: int
    latency: float
    strategy: str


@dataclass(frozen=True)
class BudgetLatencyFrontier:
    """A swept budget–latency curve."""

    points: tuple[FrontierPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ModelError("frontier needs at least one point")

    @property
    def budgets(self) -> tuple[int, ...]:
        return tuple(p.budget for p in self.points)

    @property
    def latencies(self) -> tuple[float, ...]:
        return tuple(p.latency for p in self.points)

    def is_monotone(self, tolerance: float = 1e-9) -> bool:
        """Latency should never increase with budget."""
        lats = self.latencies
        return all(a >= b - tolerance for a, b in zip(lats, lats[1:]))

    def knee(self) -> FrontierPoint:
        """Heuristic diminishing-returns point (see :func:`_knee_index`)."""
        return self.points[_knee_index(self.budgets, self.latencies)]


def budget_latency_frontier(
    family: ProblemFamily,
    budgets: Sequence[int],
    tuner: Optional[Tuner] = None,
    include_processing: bool = True,
) -> BudgetLatencyFrontier:
    """Tune each budget of *family* and score the exact expected job
    latency.

    The tuner's strategy is resolved once and — when it has a one-pass
    sweep (:data:`~repro.core.tuner.SWEEP_STRATEGIES`) — every budget
    is tuned in a single DP pass, with allocations bit-identical to
    per-budget tuning.
    """
    _require_family(family, "budget_latency_frontier")
    if not budgets:
        raise ModelError("need at least one budget")
    budgets = sorted(int(b) for b in budgets)
    tuner = tuner or Tuner(seed=0)
    # Same tasks at every budget -> same resolved strategy; None when
    # that strategy has no one-pass sweep.
    resolved = tuner.resolve_strategy(family.problem_at(budgets[0]))
    swept = tune_budget_sweep(family, budgets, resolved)

    points = []
    for budget in budgets:
        problem = family.problem_at(budget)
        if swept is None:
            allocation = tuner.tune(problem)
        else:
            allocation = swept[budget]
            problem.validate_allocation(allocation)
        latency = expected_job_latency(
            problem, allocation, include_processing=include_processing
        )
        points.append(
            FrontierPoint(
                budget=budget,
                latency=float(latency),
                strategy=tuner.resolve_strategy(problem),
            )
        )
    return BudgetLatencyFrontier(points=tuple(points))


@dataclass(frozen=True)
class DeadlineFrontierPoint:
    """One (deadline, cheapest cost) point of the dual frontier."""

    deadline: float
    cost: int
    achieved_probability: float
    feasible: bool
    group_prices: dict = None


@dataclass(frozen=True)
class DeadlineCostFrontier:
    """A swept deadline–cost curve (the [29] dual of the budget curve)."""

    points: tuple[DeadlineFrontierPoint, ...]
    confidence: float

    def __post_init__(self) -> None:
        if not self.points:
            raise ModelError("frontier needs at least one point")

    @property
    def deadlines(self) -> tuple[float, ...]:
        return tuple(p.deadline for p in self.points)

    @property
    def costs(self) -> tuple[int, ...]:
        return tuple(p.cost for p in self.points)

    def feasible_points(self) -> tuple[DeadlineFrontierPoint, ...]:
        return tuple(p for p in self.points if p.feasible)

    def is_monotone(self) -> bool:
        """Cost should never increase with a looser deadline (checked
        over the feasible region — infeasible points report the
        floor allocation, not a price)."""
        costs = [p.cost for p in self.feasible_points()]
        return all(a >= b for a, b in zip(costs, costs[1:]))

    def cheapest_feasible(self) -> Optional[DeadlineFrontierPoint]:
        """The tightest deadline worth buying: the first feasible point."""
        feasible = self.feasible_points()
        return feasible[0] if feasible else None

    def knee(self) -> DeadlineFrontierPoint:
        """Diminishing-returns deadline (the budget frontier's chord
        rule, :func:`_knee_index`, on the feasible region)."""
        feasible = self.feasible_points()
        if not feasible:
            return self.points[-1]
        return feasible[
            _knee_index(
                [p.deadline for p in feasible], [p.cost for p in feasible]
            )
        ]


def deadline_cost_frontier(
    family: ProblemFamily,
    deadlines: Sequence[float],
    confidence: float = 0.9,
    max_price: int = 1_000,
    include_processing: bool = True,
    comparator: Union[str, None, object] = None,
) -> DeadlineCostFrontier:
    """Cheapest spend per deadline — the dual of the budget frontier.

    Prices *family*'s task set; the budget axis is the output here.

    ``comparator`` resolves through the
    :func:`repro.perf.deadline.get_deadline_comparator` registry — a
    registered name (``"batched"``, ``"reference"``, or anything added
    via :func:`~repro.perf.deadline.register_deadline_comparator`),
    ``None`` for the default, or a :class:`repro.api.RunConfig`.  The
    resolved solver tunes the whole grid in one call (the builtins
    share ladders and profile tables across deadlines); each point is
    bit-identical to a single-deadline solve.
    """
    from ..perf.deadline import get_deadline_comparator

    _require_family(family, "deadline_cost_frontier")
    if len(deadlines) == 0:
        raise ModelError("need at least one deadline")
    grid = sorted(float(d) for d in deadlines)
    by_deadline = get_deadline_comparator(comparator)(
        family.tasks,
        grid,
        confidence=confidence,
        max_price=max_price,
        include_processing=include_processing,
    )
    results = [by_deadline[d] for d in grid]
    points = tuple(
        DeadlineFrontierPoint(
            deadline=d,
            cost=result.cost,
            achieved_probability=result.achieved_probability,
            feasible=result.feasible,
            group_prices=result.group_prices,
        )
        for d, result in zip(grid, results)
    )
    return DeadlineCostFrontier(points=points, confidence=confidence)


def min_budget_for_latency(
    family: ProblemFamily,
    target_latency: float,
    budget_lo: int,
    budget_hi: int,
    tuner: Optional[Tuner] = None,
    include_processing: bool = True,
) -> Optional[int]:
    """Cheapest budget in [lo, hi] of *family* whose tuned latency <=
    target.

    Binary search — valid because the tuned latency is non-increasing
    in the budget (more money never hurts an optimal tuner; certified
    by tests).  Returns ``None`` when even *budget_hi* misses the
    target.
    """
    _require_family(family, "min_budget_for_latency")
    if target_latency <= 0:
        raise ModelError(f"target_latency must be positive, got {target_latency}")
    if budget_lo > budget_hi:
        raise ModelError("budget_lo must be <= budget_hi")
    tuner = tuner or Tuner(seed=0)

    def latency_at(budget: int) -> float:
        problem = family.problem_at(budget)
        allocation = tuner.tune(problem)
        return expected_job_latency(
            problem, allocation, include_processing=include_processing
        )

    if latency_at(budget_hi) > target_latency:
        return None
    lo, hi = budget_lo, budget_hi
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            ok = latency_at(mid) <= target_latency
        except InfeasibleAllocationError:
            ok = False  # infeasible mid (below the one-unit floor)
        if ok:
            hi = mid
        else:
            lo = mid + 1
    return hi
