"""Deadline-constrained pricing — the related-work [29] problem.

Gao & Parameswaran ("Finish Them!", VLDB 2014) study the dual of the
H-Tuning problem: **minimize total cost subject to finishing by a
deadline (with target probability)**, under a single-phase acceptance
model.  The paper positions H-Tuning against that work (§2), so a
faithful reproduction needs the comparator:

* :func:`min_cost_for_deadline` — cheapest group-uniform allocation
  whose job latency meets the deadline with probability >= target,
  found by binary search on a uniform price plus marginal refinement
  (the completion probability is monotone in every price, making the
  search exact on the group-uniform lattice up to one unit).
* :func:`min_cost_for_deadline_sweep` — the same over a whole
  deadline grid; :func:`min_cost_for_deadline` is its one-deadline
  case.
* :func:`completion_probability` — ``P(job latency <= deadline)``
  evaluated exactly as the product of the groups' completion terms.
* :func:`latency_quantile` — inverse: the deadline achievable at a
  given confidence under a given allocation;
  :func:`latency_quantile_batch` evaluates a whole confidence vector
  in one array bisection.

Together with :mod:`repro.core.repetition` this exposes the paper's
framing: [29] fixes the deadline and spends; H-Tuning fixes the spend
and races.

Every completion term — a group's ``P(all n members finish by t)`` —
comes from the one batched helper of :mod:`repro.perf.deadline`
(:func:`~repro.perf.deadline.completion_terms` over the process-level
shared weight ladders): the solver memoizes them per (group, price),
its candidate scan is one array op per step, and quantile bisection
is array-shaped.  Results are **bit-identical** to the seed scalar
comparator, which is preserved as
:func:`repro.perf.reference.reference_min_cost_for_deadline` and
certified equal in ``tests/perf/test_deadline_kernel.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ModelError
from .problem import Allocation, HTuningProblem

__all__ = [
    "completion_probability",
    "latency_quantile",
    "latency_quantile_batch",
    "DeadlineResult",
    "min_cost_for_deadline",
    "min_cost_for_deadline_sweep",
]


def completion_probability(
    problem: HTuningProblem,
    group_prices: dict[tuple, int],
    deadline: float,
    include_processing: bool = True,
) -> float:
    """Exact ``P(job latency <= deadline)`` at group-uniform prices.

    The product of every group's completion term, all evaluated in one
    :func:`repro.perf.deadline.completion_terms` call.
    """
    from ..perf.deadline import completion_terms, group_rate_row

    if deadline < 0:
        raise ModelError(f"deadline must be >= 0, got {deadline}")
    groups = problem.groups()
    return math.prod(
        completion_terms(
            [
                group_rate_row(g, group_prices[g.key], include_processing)
                for g in groups
            ],
            [g.size for g in groups],
            deadline,
        )
    )


def latency_quantile(
    problem: HTuningProblem,
    group_prices: dict[tuple, int],
    confidence: float,
    include_processing: bool = True,
) -> float:
    """Smallest deadline met with probability >= *confidence*.

    Routed through the array bisection of
    :func:`repro.perf.deadline.deadline_quantile_bisection` with a
    length-1 confidence vector, which follows the exact float path of
    the seed scalar bisection — same bracket doubling, same midpoint
    sequence, bit-identical result — while sharing the per-group
    weight ladders across every probe.
    """
    if not 0.0 < confidence < 1.0:
        raise ModelError(f"confidence must be in (0,1), got {confidence}")
    return float(
        latency_quantile_batch(
            problem, group_prices, [confidence], include_processing
        )[0]
    )


def latency_quantile_batch(
    problem: HTuningProblem,
    group_prices: dict[tuple, int],
    confidences: Sequence[float],
    include_processing: bool = True,
) -> np.ndarray:
    """Latency quantiles for a whole confidence vector at once.

    One array bisection: each iteration evaluates every group's sf on
    the full midpoint vector (one midpoint per confidence), so the
    kernel cost per iteration is one array call per group regardless
    of how many confidences are requested.  Every entry is **bitwise**
    equal to evaluating its confidence alone through
    :func:`latency_quantile` (see
    :func:`repro.perf.deadline.deadline_quantile_bisection`).
    """
    from ..perf.deadline import deadline_quantile_bisection

    return deadline_quantile_bisection(
        problem.groups(), group_prices, confidences, include_processing
    )


@dataclass(frozen=True)
class DeadlineResult:
    """Outcome of the min-cost-for-deadline optimization."""

    allocation: Allocation
    group_prices: dict[tuple, int]
    cost: int
    achieved_probability: float
    deadline: float
    confidence: float

    @property
    def feasible(self) -> bool:
        return self.achieved_probability >= self.confidence


def min_cost_for_deadline(
    problem_tasks,
    deadline: float,
    confidence: float = 0.9,
    max_price: int = 1_000,
    include_processing: bool = True,
) -> DeadlineResult:
    """Cheapest group-uniform allocation meeting *deadline* at *confidence*.

    Parameters
    ----------
    problem_tasks:
        The task list (an :class:`HTuningProblem` is built internally
        with an effectively unlimited budget — this is the dual
        problem, cost is the output).
    deadline / confidence:
        Target ``P(latency <= deadline) >= confidence``.
    max_price:
        Safety cap on the per-repetition price search.

    Algorithm: start every group at price 1; while the completion
    probability misses the target, raise the price of the group whose
    +1 increment buys the largest probability gain per budget unit.
    Completion probability is the product of per-group terms, each
    increasing and component-wise independent in its own price, so the
    greedy ascent terminates at a price vector from which no single
    decrement stays feasible — a minimal feasible point; tests compare
    it against exhaustive search on small instances.

    A sweep over the one-deadline grid
    (:func:`min_cost_for_deadline_sweep`): the ascent runs on a
    :class:`repro.perf.deadline.DeadlineKernel`, whose every
    ``(group, price)`` completion term is computed once and whose
    candidate scan scores all groups' increments in one array op.  The
    greedy trajectory, the trim, and every returned number are
    bit-identical to the seed scalar comparator
    (:func:`repro.perf.reference.reference_min_cost_for_deadline`).
    """
    (result,) = min_cost_for_deadline_sweep(
        problem_tasks, [deadline], confidence, max_price, include_processing
    ).values()
    return result


def min_cost_for_deadline_sweep(
    problem_tasks,
    deadlines: Sequence[float],
    confidence: float = 0.9,
    max_price: int = 1_000,
    include_processing: bool = True,
) -> dict[float, DeadlineResult]:
    """:func:`min_cost_for_deadline` over a whole deadline grid.

    Each deadline's result is the greedy ascent + trim at that deadline
    alone; what is shared across the grid is everything that does not
    depend on the deadline — the problem/group construction, the
    per-(group, price) rate-profile table, one batched pass for every
    feasibility ceiling, and (via the process-level cache) the
    uniformization weight ladders, which dominate a cold comparator
    run.  Deadlines are processed largest-first so the
    ladders are sized once at their widest need instead of being
    rebuilt as the grid tightens; the returned dict is keyed by the
    requested deadlines in their given order.
    """
    from ..perf.deadline import DeadlineKernel, processing_ceilings
    from ..resilience.faults import site_check

    site_check("comparator.min_cost", comparator="batched")
    if not 0.0 < confidence < 1.0:
        raise ModelError(f"confidence must be in (0,1), got {confidence}")
    deadlines = [float(d) for d in deadlines]
    if not deadlines:
        raise ModelError("need at least one deadline")
    grid = sorted(set(deadlines), reverse=True)
    if grid[-1] <= 0:
        raise ModelError(f"deadline must be positive, got {grid[-1]}")
    problem, groups = _deadline_problem(problem_tasks, max_price)
    profile_table: dict = {}
    ceilings = (
        processing_ceilings(groups, grid) if include_processing else {}
    )
    results: dict[float, DeadlineResult] = {}
    for deadline in grid:
        kernel = DeadlineKernel(
            groups,
            deadline,
            include_processing,
            price_cap=max_price,
            profile_table=profile_table,
            ceiling=ceilings.get(deadline),
        )
        results[deadline] = _min_cost_with_kernel(
            problem, groups, kernel, confidence, max_price
        )
    return {d: results[d] for d in deadlines}


def _deadline_problem(problem_tasks, max_price: int):
    """The dual problem's host instance: budget = every rep at max_price."""
    tasks = list(problem_tasks)
    if not tasks:
        raise ModelError("need at least one task")
    total_reps = sum(t.repetitions for t in tasks)
    problem = HTuningProblem(tasks, budget=total_reps * max_price)
    return problem, problem.groups()


def _min_cost_with_kernel(
    problem: HTuningProblem,
    groups,
    kernel,
    confidence: float,
    max_price: int,
) -> DeadlineResult:
    """The greedy ascent + trim, driven by one :class:`DeadlineKernel`."""
    deadline = kernel.deadline
    include_processing = kernel.include_processing
    prices = np.ones(len(groups), dtype=np.int64)

    def result_at(price_vec: np.ndarray) -> DeadlineResult:
        group_prices = {
            g.key: int(price_vec[i]) for i, g in enumerate(groups)
        }
        achieved = kernel.completion_probability(price_vec)
        allocation = Allocation.from_group_prices(problem, group_prices)
        return DeadlineResult(
            allocation=allocation,
            group_prices=group_prices,
            cost=allocation.total_cost,
            achieved_probability=achieved,
            deadline=deadline,
            confidence=confidence,
        )

    if include_processing:
        # Feasibility ceiling: with infinitely fast acceptance the job
        # still needs its processing phases.  If even that misses the
        # target, no price vector is feasible — report immediately
        # instead of climbing the price ladder chasing vanishing gains.
        if kernel.processing_ceiling() < confidence:
            return result_at(prices)

    kernel.prewarm(prices)
    cur_terms = kernel.log_terms(prices)
    target_log = math.log(confidence)

    # `sum` over a python list matches the seed's left-to-right dict
    # accumulation (numpy's pairwise reduction would not).
    while sum(cur_terms.tolist()) < target_log:
        best, best_gain, best_new = kernel.best_increment(
            prices, cur_terms, max_price
        )
        if best < 0 or best_gain <= 1e-15:
            # No increment helps measurably: further spend chases a
            # vanishing tail (acceptance already effectively instant).
            break
        prices[best] += 1
        cur_terms[best] = best_new

    # Trim: drop any unit whose removal keeps feasibility (makes the
    # greedy point minimal).  Every probe is a memo lookup.
    improved = True
    while improved:
        improved = False
        for gi in range(len(groups)):
            p = int(prices[gi])
            if p <= 1:
                continue
            if (
                kernel.completion_probability(prices, override=(gi, p - 1))
                >= confidence
            ):
                prices[gi] = p - 1
                cur_terms[gi] = kernel.log_term(gi, p - 1)
                improved = True

    return result_at(prices)


# Every comparator name binds the sweep solver.  Bound here rather than
# in repro.perf.deadline so that kernel module imports no core module;
# ``import repro`` always runs this.
from ..perf.deadline import register_deadline_comparator  # noqa: E402

register_deadline_comparator("batched", min_cost_for_deadline_sweep)
register_deadline_comparator("reference", min_cost_for_deadline_sweep)
