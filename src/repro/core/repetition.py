"""Algorithm 2 — Repetition Algorithm (RA) for Scenario II (paper §4.3).

Tasks share one difficulty type but need different repetition counts.
Tasks are grouped by repetitions; the objective is the group-sum
surrogate  ``min Σ_i E[L1(g_i)]``  s.t. ``Σ_i b_i <= B``  where
``E[L1(g_i)] = M(n_i, k_i) / λ_o(p_i)`` is the expected within-group
maximum at uniform per-repetition price ``p_i``.

The paper's dynamic program (Algorithm 2), implemented verbatim:

* every group starts at ``p_i = 1`` (cost ``u_i = n_i · k_i`` each);
* the remaining budget ``B' = B − Σ u_i`` is processed one unit at a
  time; the state at budget level ``x`` carries the objective value
  ``E0(x)`` *and* the price vector ``p(x)`` that achieved it;
* ``E0(x) = min( E0(x−1),
                 min_i { E0(x−u_i) − [E_i(p_i(x−u_i)) − E_i(p_i(x−u_i)+1)] | u_i <= x } )``

The per-state price vectors make this a genuine DP (unlike a pure
greedy, states reached through different group-increment orders
compete), and under the convex decreasing group latencies of the
linear pricing hypothesis it attains the separable optimum — tests
certify this against :func:`repro.core.exhaustive.exact_group_dp`.

RA has one body: :func:`repetition_algorithm` and
:func:`repetition_algorithm_sweep` both read the levels they need off
one :func:`repro.perf.dp.budget_indexed_dp_sweep` pass (over
``[problem.budget]`` for a single problem).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..errors import InfeasibleAllocationError, ModelError
from .latency import group_onhold_latency
from .problem import Allocation, HTuningProblem, Scenario, TaskGroup

__all__ = [
    "repetition_algorithm",
    "repetition_algorithm_sweep",
    "budget_indexed_dp",
    "greedy_marginal_allocation",
]


def _check_scenario(problem: HTuningProblem, strict: bool) -> None:
    if strict and problem.scenario() is Scenario.HETEROGENEOUS:
        raise ModelError(
            "RA expects Scenario I/II (single difficulty type); instance is "
            "III-heterogeneous. Use heterogeneous_algorithm, or pass "
            "strict_scenario=False to optimize the phase-1 surrogate anyway."
        )


def budget_indexed_dp(
    groups: tuple[TaskGroup, ...],
    budget: int,
    group_cost_fn: Callable[[TaskGroup, int], float],
) -> dict[tuple, int]:
    """Algorithm 2's budget-indexed DP, generic in the group objective.

    ``group_cost_fn(group, price)`` must be decreasing in *price*.
    Returns the per-group uniform repetition price vector of the best
    terminal state.

    Implementation notes: the state at budget ``x`` is
    ``(E0(x), prices(x))``; price vectors are tuples shared
    structurally between states, so memory stays ``O(B'·n)``.  The
    sweep itself runs on :mod:`repro.perf.dp`'s precomputed cost
    tables — bit-identical price vectors to the seed scan (certified
    against :func:`repro.perf.reference.reference_budget_indexed_dp`)
    and several times faster; it is one level of
    :func:`repro.perf.dp.budget_indexed_dp_sweep`.
    """
    from ..perf.dp import budget_indexed_dp_fast

    return budget_indexed_dp_fast(groups, budget, group_cost_fn)


def greedy_marginal_allocation(
    groups: tuple[TaskGroup, ...],
    budget: int,
    group_cost_fn: Callable[[TaskGroup, int], float],
) -> dict[tuple, int]:
    """Single-path greedy variant (best marginal gain per increment).

    Faster than the full DP (``O(ΣΔp · n)`` instead of ``O(B'·n)``)
    and optimal when all unit costs are equal.  No solver calls it: it
    is an ablation reference for the tests and
    ``benchmarks/bench_ablation_optimality.py``.
    """
    if not groups:
        raise ModelError("need at least one group")
    unit_costs = [g.unit_cost for g in groups]
    start_cost = sum(unit_costs)
    if budget < start_cost:
        raise InfeasibleAllocationError(budget, start_cost)

    prices = {g.key: 1 for g in groups}
    residual = budget - start_cost
    current = {g.key: group_cost_fn(g, 1) for g in groups}
    spent = 0
    while spent < residual:
        best_gain = 0.0
        best_group: Optional[TaskGroup] = None
        best_next = 0.0
        remaining = residual - spent
        for g, u in zip(groups, unit_costs):
            if u > remaining:
                continue
            nxt = group_cost_fn(g, prices[g.key] + 1)
            gain = (current[g.key] - nxt) / u
            if best_group is None or gain > best_gain + 1e-15:
                best_gain = gain
                best_group = g
                best_next = nxt
        if best_group is None or best_gain <= 0.0:
            break
        prices[best_group.key] += 1
        current[best_group.key] = best_next
        spent += best_group.unit_cost
    return prices


def _ra_sweep(groups, budgets: list[int], problem_at) -> dict[int, Allocation]:
    """Algorithm 2's one body: read every budget off one DP pass.

    ``problem_at(budget)`` names the problem each allocation is built
    and validated against.
    """
    from ..perf.dp import budget_indexed_dp_sweep

    prices_by_budget = budget_indexed_dp_sweep(
        groups, budgets, group_onhold_latency
    )
    out: dict[int, Allocation] = {}
    for budget in budgets:
        problem = problem_at(budget)
        allocation = Allocation.from_group_prices(
            problem, prices_by_budget[budget]
        )
        problem.validate_allocation(allocation)
        out[budget] = allocation
    return out


def repetition_algorithm(
    problem: HTuningProblem,
    strict_scenario: bool = True,
) -> Allocation:
    """Run Algorithm 2 (RA) on *problem*.

    Returns an allocation with a uniform per-repetition price inside
    each repetition group, minimizing ``Σ_i E[L1(g_i)]`` within budget.
    This is :func:`repetition_algorithm_sweep`'s body over the one
    budget ``problem.budget``.

    Raises
    ------
    InfeasibleAllocationError
        If the budget cannot give every repetition one unit.
    ModelError
        If ``strict_scenario`` and the instance is Scenario III.
    """
    _check_scenario(problem, strict_scenario)
    budget = problem.budget
    return _ra_sweep(problem.groups(), [budget], lambda _b: problem)[budget]


def repetition_algorithm_sweep(
    family,
    budgets: Sequence[int],
) -> dict[int, Allocation]:
    """Run Algorithm 2 (RA) for every budget of a sweep in one DP pass.

    *family* is a :class:`~repro.workloads.families.ProblemFamily` (any
    object exposing ``groups`` and ``problem_at(budget)`` works).  The
    DP state at budget level ``x`` never depends on the terminal
    budget, so one pass to ``max(budgets)`` serves every budget
    (:func:`repro.perf.dp.budget_indexed_dp_sweep`); each returned
    allocation equals
    ``repetition_algorithm(family.problem_at(b), strict_scenario=False)``
    by construction: both run this one body.
    """
    budgets = [int(b) for b in budgets]
    return _ra_sweep(family.groups, budgets, family.problem_at)
