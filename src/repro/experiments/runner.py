"""Experiment runner: evaluate allocation strategies over budget sweeps.

The Fig. 2 experiments all have the same shape — for each budget in a
sweep, build the workload, run each strategy, and score the resulting
allocation's expected job latency.  Two scoring backends:

* ``"mc"`` — Monte-Carlo sampling from the aggregate model (what the
  paper's simulation does), with a seed per (budget, strategy) cell so
  curves are smooth and reproducible;
* ``"numeric"`` — the exact numeric expectation
  (:func:`repro.core.latency.expected_job_latency`); noise-free, used
  by tests to check orderings without Monte-Carlo tolerance.

Sweeps take their workload either as a
:class:`~repro.workloads.families.ProblemFamily` (preferred — specs,
pricing and groups are shared across budgets, and rng-free DP
strategies are tuned for *all* budgets in one DP pass) or as a legacy
``budget -> HTuningProblem`` closure (kept for workloads whose task
set genuinely varies with the budget).  Both paths produce
byte-identical results; the family path is just faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from ..core.latency import expected_job_latency, simulate_job_latency
from ..core.problem import Allocation, HTuningProblem
from ..core.tuner import STRATEGIES, tune_budget_sweep
from ..errors import ModelError
from ..stats.rng import RandomState, ensure_rng
from ..workloads.families import ProblemFamily, as_problem_family

__all__ = [
    "SweepResult",
    "DeadlineSweepResult",
    "run_budget_sweep",
    "run_deadline_sweep",
    "evaluate_allocation",
    "evaluate_allocation_with_ci",
]


@dataclass
class SweepResult:
    """Latency series per strategy over a budget sweep."""

    budgets: tuple[int, ...]
    series: dict[str, tuple[float, ...]]
    scoring: str
    label: str = ""

    def best_strategy_at(self, budget: int) -> str:
        """Strategy with the lowest latency at *budget*."""
        idx = self.budgets.index(budget)
        return min(self.series, key=lambda s: self.series[s][idx])

    def dominates(self, winner: str, loser: str, slack: float = 0.0) -> bool:
        """True if *winner*'s curve is <= *loser*'s at every budget
        (within additive *slack*, to absorb Monte-Carlo noise)."""
        w = self.series[winner]
        l = self.series[loser]
        return all(wv <= lv + slack for wv, lv in zip(w, l))

    def as_rows(self) -> list[tuple]:
        """Rows (budget, latency-per-strategy...) for reporting."""
        names = sorted(self.series)
        rows = []
        for i, b in enumerate(self.budgets):
            rows.append((b, *(self.series[n][i] for n in names)))
        return rows


@dataclass
class DeadlineSweepResult:
    """Cost series per confidence over a deadline sweep (the [29] dual).

    ``series`` maps a confidence label (``f"p{confidence:g}"``) to the
    per-deadline cheapest costs; ``feasible`` carries the matching
    feasibility flags (an infeasible cell reports the floor allocation
    cost, not an attainable price).
    """

    deadlines: tuple[float, ...]
    series: dict[str, tuple[int, ...]]
    feasible: dict[str, tuple[bool, ...]]
    comparator: str
    label: str = ""

    def best_deadline_at(self, budget: int, confidence_label: str) -> float:
        """Tightest feasible deadline affordable within *budget*."""
        for deadline, cost, ok in zip(
            self.deadlines,
            self.series[confidence_label],
            self.feasible[confidence_label],
        ):
            if ok and cost <= budget:
                return deadline
        raise ModelError(
            f"no feasible deadline within budget {budget} for "
            f"{confidence_label}"
        )

    def as_rows(self) -> list[tuple]:
        """Rows (deadline, cost-per-confidence...) for reporting."""
        names = sorted(self.series)
        rows = []
        for i, d in enumerate(self.deadlines):
            rows.append((d, *(self.series[n][i] for n in names)))
        return rows


def run_deadline_sweep(
    workload,
    deadlines: Sequence[float],
    confidences: Sequence[float] = (0.9,),
    max_price: int = 1_000,
    include_processing: bool = True,
    comparator=None,
    label: str = "",
) -> DeadlineSweepResult:
    """Run the deadline–cost comparator over a deadline grid.

    The dual of :func:`run_budget_sweep`: instead of tuning strategies
    at fixed budgets and scoring latency, it fixes deadlines (one
    curve per target *confidence*) and reports the cheapest spend
    meeting each ([29]'s problem).  ``comparator`` is a registered
    deadline-comparator name, ``None`` for the default, or a config,
    resolved exactly as engine strings are (see
    :func:`repro.perf.deadline.get_deadline_comparator`); the result
    echoes the name.  Every builtin name runs the one grid solver,
    which shares kernels across the whole grid.
    """
    from ..perf.deadline import _COMPARATORS
    from .pareto import deadline_cost_frontier

    if not deadlines:
        raise ModelError("deadline sweep needs at least one deadline")
    if not confidences:
        raise ModelError("deadline sweep needs at least one confidence")
    _COMPARATORS.resolve(comparator)  # fail fast on unknown names
    comparator_name = _COMPARATORS.unwrap(comparator) or _COMPARATORS.default
    grid = tuple(sorted(float(d) for d in deadlines))
    series: dict[str, tuple[int, ...]] = {}
    feasible: dict[str, tuple[bool, ...]] = {}
    for confidence in confidences:
        name = f"p{float(confidence):g}"
        if name in series:
            raise ModelError(
                f"duplicate confidence label {name!r}: confidences must "
                "be distinct at %g precision"
            )
        frontier = deadline_cost_frontier(
            workload,
            grid,
            confidence=float(confidence),
            max_price=max_price,
            include_processing=include_processing,
            comparator=comparator,
        )
        series[name] = frontier.costs
        feasible[name] = tuple(p.feasible for p in frontier.points)
    return DeadlineSweepResult(
        deadlines=grid,
        series=series,
        feasible=feasible,
        comparator=comparator_name,
        label=label,
    )


def evaluate_allocation(
    problem: HTuningProblem,
    allocation: Allocation,
    scoring: str = "mc",
    n_samples: int = 2000,
    rng: RandomState = None,
    include_processing: bool = True,
    engine=None,
) -> float:
    """Score one allocation's expected job latency.

    ``engine`` is a registered name (``"scalar"``, ``"batch"``,
    ``"chunked-batch"``, ``"agent-batch"``) or an
    :class:`repro.perf.engine.EvaluationEngine` instance.  Every name
    runs the same row-blocked Monte-Carlo sampler, so the score is the
    same whichever is picked.  Numeric scoring ignores the engine (it
    is already kernel-cached).
    """
    if scoring == "mc":
        return simulate_job_latency(
            problem,
            allocation,
            n_samples=n_samples,
            rng=rng,
            include_processing=include_processing,
            engine=engine,
        )
    if scoring == "numeric":
        return expected_job_latency(
            problem, allocation, include_processing=include_processing
        )
    raise ModelError(f"unknown scoring {scoring!r}; expected 'mc' or 'numeric'")


def evaluate_allocation_with_ci(
    problem: HTuningProblem,
    allocation: Allocation,
    n_samples: int = 2000,
    rng: RandomState = None,
    include_processing: bool = True,
    confidence: float = 0.95,
    engine=None,
) -> tuple[float, float, float]:
    """Monte-Carlo latency estimate with a normal-approximation CI.

    Returns ``(mean, ci_low, ci_high)``.  The CLT applies comfortably
    at the default sample counts (job latencies are light-tailed
    maxima of phase-type sums).  The replication fan-out goes through
    the engine registry: ``engine`` is a registered name or an
    :class:`~repro.perf.engine.EvaluationEngine`, and every name runs
    the same sampler, so the interval is byte-identical whichever is
    picked.
    """
    from scipy import stats as sps

    from ..core.latency import sample_job_latencies

    if not 0.0 < confidence < 1.0:
        raise ModelError(f"confidence must be in (0,1), got {confidence}")
    draws = sample_job_latencies(
        problem, allocation, n_samples, rng, include_processing,
        engine=engine,
    )
    mean = float(draws.mean())
    sem = float(draws.std(ddof=1) / np.sqrt(len(draws)))
    z = float(sps.norm.ppf(0.5 + confidence / 2.0))
    return mean, mean - z * sem, mean + z * sem


def run_budget_sweep(
    workload: Union[ProblemFamily, Callable[[int], HTuningProblem]],
    budgets: Sequence[int],
    strategies: Sequence[str],
    scoring: str = "mc",
    n_samples: int = 2000,
    seed: RandomState = 0,
    include_processing: bool = True,
    label: str = "",
    engine=None,
) -> SweepResult:
    """Run *strategies* over *budgets* and collect latency curves.

    Parameters
    ----------
    workload:
        A :class:`~repro.workloads.families.ProblemFamily` (preferred)
        or a legacy ``budget -> HTuningProblem`` closure.  With a
        family, specs/pricing/groups are shared across budgets and the
        rng-free DP strategies (``ra``, ``ha``) are tuned for every
        budget in **one** DP pass
        (:func:`repro.core.tuner.tune_budget_sweep`); the curves are
        byte-identical to the per-budget closure path either way.
    strategies:
        Names from :data:`repro.core.tuner.STRATEGIES`.
    scoring / n_samples:
        Latency scoring backend; ``n_samples`` only applies to ``mc``.
    seed:
        Base seed; each (budget, strategy) cell gets a derived
        substream so curves are independent yet reproducible.
    engine:
        Monte-Carlo sampling engine — a registered name or an
        :class:`~repro.perf.engine.EvaluationEngine`; see
        :func:`evaluate_allocation`.  Curves are identical for every
        engine.
    """
    for name in strategies:
        STRATEGIES.lookup(name)
    if not budgets:
        raise ModelError("budget sweep needs at least one budget")
    builder, family = as_problem_family(workload)
    base = ensure_rng(seed)
    cell_seed = base.integers(0, 2**62)

    # One-pass tuning: strategies whose allocation is a pure function
    # of (groups, budget) get all budgets from a single DP sweep.  The
    # rng-consuming strategies keep their per-cell generator below, so
    # the cell RNG protocol (and hence every curve) is unchanged.
    swept: dict[str, dict[int, Allocation]] = {}
    if family is not None:
        for name in strategies:
            allocations = tune_budget_sweep(
                family, [int(b) for b in budgets], name
            )
            if allocations is not None:
                swept[name] = allocations

    series: dict[str, list[float]] = {s: [] for s in strategies}
    for bi, budget in enumerate(budgets):
        problem = builder(int(budget))
        for si, name in enumerate(strategies):
            strat_rng = np.random.default_rng(
                int(cell_seed) + 1_000_003 * bi + 7919 * si
            )
            if name in swept:
                allocation = swept[name][int(budget)]
            else:
                allocation = STRATEGIES[name](problem, strat_rng)
            latency = evaluate_allocation(
                problem,
                allocation,
                scoring=scoring,
                n_samples=n_samples,
                rng=strat_rng,
                include_processing=include_processing,
                engine=engine,
            )
            series[name].append(latency)
    return SweepResult(
        budgets=tuple(int(b) for b in budgets),
        series={k: tuple(v) for k, v in series.items()},
        scoring=scoring,
        label=label,
    )
