"""Scenario III objectives: O1, O2, utopia point and closeness (§4.4).

Heterogeneous task sets break the Scenario II reasoning because phase-2
latencies differ across groups; a "most difficult task" can dominate
the job latency however the budget moves phase 1.  The paper therefore
minimizes two objectives simultaneously:

* ``O1 = Σ_i E[L1(g_i)]`` — the phase-1 group-sum surrogate (same as
  Scenario II);
* ``O2 = max_i (E[L1(g_i)] + E[L2(g_i)])`` — the expected latency of
  the most difficult group, both phases included (Definition of O2).

The compromise solution minimizes the **closeness**
``CL = ‖OP − UP‖₁`` (Definition 6, "first order distance"), where the
**utopia point** ``UP = (O1*, O2*)`` collects each objective's
independent optimum under the budget (Definition 4).

The utopia point has one body, a sweep over a list of budgets: O1*
reads Algorithm 2's one-pass DP
(:func:`repro.perf.dp.budget_indexed_dp_sweep`) and O2* one greedy
minimax walk.  :func:`utopia_point` runs it over ``[problem.budget]``
and :func:`utopia_point_sweep` over a family's budgets, so the two
agree by construction.  The seed per-budget greedy survives only as
the oracle :func:`repro.perf.reference.reference_minimize_o2_prices`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import InfeasibleAllocationError
from .latency import group_onhold_latency, group_processing_latency
from .problem import HTuningProblem

__all__ = [
    "objective_o1",
    "objective_o2",
    "ObjectivePoint",
    "utopia_point",
    "utopia_point_sweep",
    "closeness",
]


def objective_o1(problem: HTuningProblem, group_prices: Mapping[tuple, int]) -> float:
    """``O1 = Σ_i E[L1(g_i)]`` at the given group prices."""
    return sum(
        group_onhold_latency(g, group_prices[g.key]) for g in problem.groups()
    )


def objective_o2(problem: HTuningProblem, group_prices: Mapping[tuple, int]) -> float:
    """``O2 = max_i (E[L1(g_i)] + E[L2(g_i)])`` at the given prices."""
    return max(
        group_onhold_latency(g, group_prices[g.key]) + group_processing_latency(g)
        for g in problem.groups()
    )


@dataclass(frozen=True)
class ObjectivePoint:
    """A point in (O1, O2) objective space (Definition 5)."""

    o1: float
    o2: float

    def l1_distance(self, other: "ObjectivePoint") -> float:
        return abs(self.o1 - other.o1) + abs(self.o2 - other.o2)


def _phase2(groups) -> list[float]:
    """Each group's price-independent ``E[L2(g_i)]``."""
    return [group_processing_latency(g) for g in groups]


def _min_o2_sweep(groups, budgets: list[int], phase2) -> dict[int, float]:
    """O2* of every budget: the greedy minimax allocation, one walk.

    Greedy minimax: every affordable unit of budget goes to the group
    currently attaining the maximum (raising any other group's price
    cannot lower the max).  Each step strictly lowers the argmax
    group's latency, so the procedure reaches the minimax optimum for
    decreasing per-group latencies.  When the argmax group is
    unaffordable the greedy stops, even if another group still is: any
    other spend leaves O2 unchanged.

    The bump sequence depends only on its own history, never on the
    budget — the budget only decides where the walk *stops*.  So one
    walk serves every budget: each budget's O2* is the max group total
    at the first bump it cannot afford.
    """
    unit_costs = [g.unit_cost for g in groups]
    start_cost = sum(unit_costs)
    for b in budgets:
        if b < start_cost:
            raise InfeasibleAllocationError(b, start_cost)
    totals = [group_onhold_latency(g, 1) + t for g, t in zip(groups, phase2)]
    prices = [1] * len(groups)
    pending = sorted(set(budgets), reverse=True)  # smallest budget last
    out: dict[int, float] = {}
    spent = 0
    while True:
        top = max(totals)
        worst = totals.index(top)  # first group attaining the max
        while pending and start_cost + spent + unit_costs[worst] > pending[-1]:
            out[pending.pop()] = top
        if not pending:
            break
        prices[worst] += 1
        totals[worst] = (
            group_onhold_latency(groups[worst], prices[worst]) + phase2[worst]
        )
        spent += unit_costs[worst]
    return out


def _utopia_points(
    groups, budgets: list[int], phase2, tables=None
) -> dict[int, ObjectivePoint]:
    """The utopia point of every budget over one grouping, in one pass.

    *tables* are the groups' dense phase-1 tables for ``max(budgets)``
    when the caller already holds them (HA does); the O1 DP builds
    them otherwise.
    """
    from ..perf.dp import _dp_sweep

    o1_prices = _dp_sweep(groups, budgets, group_onhold_latency, tables)
    o2 = _min_o2_sweep(groups, budgets, phase2)
    return {
        b: ObjectivePoint(
            o1=sum(group_onhold_latency(g, o1_prices[b][g.key]) for g in groups),
            o2=o2[b],
        )
        for b in budgets
    }


def utopia_point(problem: HTuningProblem) -> ObjectivePoint:
    """``UP = (O1*, O2*)`` — each objective optimized independently.

    O1* reuses Algorithm 2's DP (the O1 objective *is* the Scenario II
    objective); O2* uses the greedy minimax allocation.  This is
    :func:`utopia_point_sweep`'s body over the one budget
    ``problem.budget``.
    """
    groups = problem.groups()
    budget = problem.budget
    return _utopia_points(groups, [budget], _phase2(groups))[budget]


def utopia_point_sweep(family, budgets) -> dict[int, ObjectivePoint]:
    """:func:`utopia_point` for every budget of a sweep, in one pass.

    O1* comes from a single multi-budget DP
    (:func:`repro.perf.dp.budget_indexed_dp_sweep`); O2* from a single
    greedy walk.  Each entry equals
    ``utopia_point(family.problem_at(b))`` by construction: both run
    this one body.
    """
    groups = family.groups
    return _utopia_points(groups, [int(b) for b in budgets], _phase2(groups))


def closeness(
    problem: HTuningProblem,
    group_prices: Mapping[tuple, int],
    utopia: ObjectivePoint,
) -> float:
    """``CL = ‖OP − UP‖₁`` (Definition 6).

    Both objectives are bounded below by their utopia coordinates, so
    the absolute values never flip sign for feasible allocations; we
    keep the |·| form anyway to match the definition verbatim.
    """
    point = ObjectivePoint(
        o1=objective_o1(problem, group_prices),
        o2=objective_o2(problem, group_prices),
    )
    return point.l1_distance(utopia)
