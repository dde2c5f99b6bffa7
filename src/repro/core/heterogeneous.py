"""Algorithm 3 — Heterogeneous Algorithm (HA) for Scenario III (§4.4).

HA runs the same budget-indexed DP as Algorithm 2, but the quantity it
drives down is the **closeness to the utopia point**
``CL(P) = |O1(P) − O1*| + |O2(P) − O2*|`` instead of the raw phase-1
surrogate.  Since feasible points dominate the utopia point
coordinate-wise, minimizing CL is equivalent to minimizing
``O1(P) + O2(P)``: the group phase-1 surrogate plus the
most-difficult-group total latency.  The O2 term is the penalty that
stops the optimizer from starving a group whose phase-2 latency
already dominates the job (the paper's "most difficult task"
discussion).

As in Algorithm 2, the state at budget level ``x`` carries the price
vector achieving ``CL(x)``; candidates at ``x`` are "spend nothing
new" (state ``x−1``) or "complete one increment of group i" (state
``x−u_i`` with ``p_i`` bumped).

HA has one body, a sweep over a list of budgets: one start-cost
check, one set of utopia points, one set of phase-2 expectations and
dense phase-1 tables, and one
:func:`~repro.perf.dp.heterogeneous_closeness_sweep`.
:func:`heterogeneous_algorithm` runs it over ``[problem.budget]`` on
the problem's own groups (its ``return_details`` read the same
tables); :func:`heterogeneous_algorithm_sweep` runs it over a
family's budgets.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import InfeasibleAllocationError
from .latency import group_onhold_latency
from .objectives import ObjectivePoint, _phase2, _utopia_points
from .problem import Allocation, HTuningProblem

__all__ = [
    "heterogeneous_algorithm",
    "heterogeneous_algorithm_sweep",
    "HAResult",
]


class HAResult:
    """Rich result of Algorithm 3: allocation + objective diagnostics."""

    def __init__(
        self,
        allocation: Allocation,
        group_prices: dict[tuple, int],
        utopia: ObjectivePoint,
        achieved: ObjectivePoint,
    ) -> None:
        self.allocation = allocation
        self.group_prices = group_prices
        self.utopia = utopia
        self.achieved = achieved

    @property
    def closeness(self) -> float:
        return self.achieved.l1_distance(self.utopia)

    def __repr__(self) -> str:
        return (
            f"HAResult(closeness={self.closeness:.4f}, "
            f"achieved=({self.achieved.o1:.4f}, {self.achieved.o2:.4f}), "
            f"utopia=({self.utopia.o1:.4f}, {self.utopia.o2:.4f}))"
        )


def _ha_sweep(groups, budgets: list[int]):
    """Algorithm 3's one body: every budget of *budgets* over *groups*.

    Shares every ingredient across the budgets: the dense phase-1
    tables (built once at the largest budget, and read by both the
    utopia points' O1 DP and the closeness scan), the utopia points
    (one multi-budget DP + one greedy walk), the price-independent
    phase-2 expectations, and — via
    :func:`~repro.perf.dp.heterogeneous_closeness_sweep` — the
    closeness scan itself.  Returns ``(finals, utopias, phase2,
    tables)``: the final price tuple per budget (in *budgets* order),
    the ``budget -> ObjectivePoint`` utopia map, and the two tables
    the diagnostics read.
    """
    from ..perf.dp import _cost_tables, heterogeneous_closeness_sweep

    unit_costs = tuple(g.unit_cost for g in groups)
    start_cost = sum(unit_costs)
    for b in budgets:
        if b < start_cost:
            raise InfeasibleAllocationError(b, start_cost)

    phase2 = _phase2(groups)
    tables = _cost_tables(
        groups, max(budgets) - start_cost, unit_costs, group_onhold_latency
    )
    utopias = _utopia_points(groups, budgets, phase2, tables)
    finals = heterogeneous_closeness_sweep(
        groups,
        [b - start_cost for b in budgets],
        unit_costs,
        group_onhold_latency,
        phase2,
        [(utopias[b].o1, utopias[b].o2) for b in budgets],
        phase1_tables=tables,
    )
    return finals, utopias, phase2, tables


def _group_allocation(problem: HTuningProblem, final) -> tuple[dict, Allocation]:
    groups = problem.groups()
    group_prices = {g.key: final[i] for i, g in enumerate(groups)}
    allocation = Allocation.from_group_prices(problem, group_prices)
    problem.validate_allocation(allocation)
    return group_prices, allocation


def heterogeneous_algorithm(
    problem: HTuningProblem,
    return_details: bool = False,
):
    """Run Algorithm 3 (HA) on *problem*.

    Works on any instance (Scenario III is its target; on Scenario I/II
    instances the O2 penalty is uniform across groups and HA degrades
    gracefully toward RA's behaviour).  This is
    :func:`heterogeneous_algorithm_sweep`'s body over the one budget
    ``problem.budget``.

    Parameters
    ----------
    problem:
        The H-Tuning instance.
    return_details:
        When true, return an :class:`HAResult` carrying the utopia
        point and achieved objective point; otherwise just the
        :class:`~repro.core.problem.Allocation`.

    Raises
    ------
    InfeasibleAllocationError
        If the budget cannot give every repetition one unit.
    """
    budget = problem.budget
    (final,), utopias, phase2, tables = _ha_sweep(problem.groups(), [budget])
    group_prices, allocation = _group_allocation(problem, final)
    if not return_details:
        return allocation
    p1 = [float(t[p - 1]) for t, p in zip(tables, final)]
    achieved = ObjectivePoint(
        o1=sum(p1),
        o2=max(v + ph2 for v, ph2 in zip(p1, phase2)),
    )
    return HAResult(allocation, group_prices, utopias[budget], achieved)


def heterogeneous_algorithm_sweep(
    family,
    budgets: Sequence[int],
) -> dict[int, Allocation]:
    """Run Algorithm 3 (HA) for every budget of a sweep in one pass.

    *family* is a :class:`~repro.workloads.families.ProblemFamily`.
    The closeness scan walks one shared trajectory that evaluates each
    candidate's raw objective once per budget level; only the cheap
    per-budget closeness comparison (against budget-specific utopia
    coordinates) replays per budget.  A budget whose last-ulp tie
    breaks differently forks into a private seed-exact continuation.
    Each returned allocation equals
    ``heterogeneous_algorithm(family.problem_at(b))`` by construction:
    both run this one body.
    """
    budgets = [int(b) for b in budgets]
    finals, _, _, _ = _ha_sweep(family.groups, budgets)
    return {
        b: _group_allocation(family.problem_at(b), final)[1]
        for b, final in zip(budgets, finals)
    }
