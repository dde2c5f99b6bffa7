"""Expected-latency engine for H-Tuning instances.

Three evaluation routes, trading exactness for generality:

1. **Group surrogate** (:func:`group_onhold_latency`,
   :func:`surrogate_onhold_objective`) — the paper's approximation:
   the job's phase-1 latency is bounded by the sum over groups of the
   within-group expected maximum, each ``E[max of n Erl(k, λ_o(p))]``.
   This is the objective Algorithms 2 and 3 minimize.
2. **Numeric job latency** (:func:`expected_job_latency`) — exact
   ``E[max over tasks]`` including both phases, by building each
   task's full-latency cdf (numeric convolution of its repetition
   phases) and integrating ``1 − Π cdf`` on a shared grid.  Used to
   score allocations from *any* strategy, uniform-price or not.
3. **Monte Carlo** (:func:`simulate_job_latency`) — sampling from the
   aggregate model; the experiment harness uses it to produce the
   Fig. 2 curves with realistic noise.

Erlang scaling fact used throughout: ``Erl(k, λ) = Erl(k, 1)/λ``, so
``E[max of n iid Erl(k, λ)] = M(n, k)/λ`` with a λ-independent constant
``M(n, k)``.  This makes group latencies exactly inverse-proportional
to the on-hold rate and is why convexity of the DP objective holds for
increasing λ_o(c).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping

import numpy as np

from ..errors import ModelError
from ..stats.order_statistics import expected_max_erlang_iid
from ..stats.rng import RandomState
from .problem import Allocation, HTuningProblem, TaskGroup

__all__ = [
    "erlang_max_constant",
    "group_onhold_latency",
    "group_processing_latency",
    "surrogate_onhold_objective",
    "expected_job_latency",
    "simulate_job_latency",
    "sample_job_latencies",
]


@lru_cache(maxsize=65536)
def erlang_max_constant(n: int, k: int) -> float:
    """``M(n, k) = E[max of n iid Erlang(k, 1)]``.

    Group latencies are ``M(n, k) / λ`` by the Erlang scaling property;
    caching M makes DP sweeps over thousands of prices cheap.
    """
    return expected_max_erlang_iid(n, k, 1.0)


def group_onhold_latency(group: TaskGroup, price: int) -> float:
    """Expected phase-1 latency of *group* at uniform repetition *price*.

    ``E[L1(g)] = M(n, k) / λ_o(price)`` — the expectation of the max of
    n iid Erlang(k, λ_o) variables (§4.3.1).
    """
    if int(price) != price or price < 1:
        raise ModelError(f"price must be a positive integer, got {price}")
    rate = group.onhold_rate(int(price))
    return erlang_max_constant(group.size, group.repetitions) / rate


def group_processing_latency(group: TaskGroup) -> float:
    """Expected phase-2 latency of *group* (price-independent).

    ``E[L2(g)] = M(n, k) / λ_p`` — max across members of the Erlang
    processing chain.
    """
    return erlang_max_constant(group.size, group.repetitions) / group.processing_rate


def surrogate_onhold_objective(
    problem: HTuningProblem, group_prices: dict[tuple, int]
) -> float:
    """The paper's Scenario II objective: ``Σ_i E[L1(g_i)]``.

    Upper-bounds the true phase-1 job latency (max <= sum of maxima)
    and decreases whenever any group's latency decreases.
    """
    total = 0.0
    for group in problem.groups():
        total += group_onhold_latency(group, group_prices[group.key])
    return total


# ---------------------------------------------------------------------------
# exact numeric job latency
# ---------------------------------------------------------------------------


def _task_chain_rates(
    onhold_rates: tuple[float, ...],
    processing_rate: float,
    include_processing: bool,
) -> list[float]:
    """Phase rates of one task's latency chain.

    The task's latency is the sum of ``Exp(rate)`` phases: one on-hold
    phase per repetition (rates may differ when the allocation is not
    uniform) plus, optionally, one ``Exp(λ_p)`` per repetition.
    """
    rates = list(onhold_rates)
    if include_processing:
        rates.extend([processing_rate] * len(onhold_rates))
    return rates


def expected_job_latency(
    problem: HTuningProblem,
    allocation: Allocation,
    include_processing: bool = True,
    grid_points: int = 2048,
    repetition_mode: str = "sequential",
) -> float:
    """Exact (numeric) expected job latency ``E[max_i L(t_i)]``.

    Works for arbitrary allocations.  Distinct (rates, λ_p) profiles
    share one cdf computation, so homogeneous problems cost a single
    convolution regardless of task count.

    ``repetition_mode``: ``"sequential"`` (the paper's model — a task's
    latency is the *sum* of its repetition chains) or ``"parallel"``
    (multi-assignment HITs — the *max* of independent single-repetition
    chains).
    """
    if repetition_mode not in ("sequential", "parallel"):
        raise ModelError(
            f"repetition_mode must be 'sequential' or 'parallel', got "
            f"{repetition_mode!r}"
        )
    problem.validate_allocation(allocation)
    profiles = _rate_profiles(problem, allocation)
    upper = _grid_upper(profiles, problem.num_tasks, include_processing)
    grid = np.linspace(0.0, upper, grid_points)
    return _expected_max_on_grid(
        profiles, grid, include_processing, repetition_mode
    )


def _rate_profiles(
    problem: HTuningProblem, allocation: Allocation
) -> dict[tuple, int]:
    """Distinct (onhold-rates, processing-rate) profiles with counts."""
    profiles: dict[tuple, int] = {}
    for task in problem.tasks:
        onhold = tuple(
            task.onhold_rate(p) for p in allocation[task.task_id]
        )
        key = (onhold, task.processing_rate)
        profiles[key] = profiles.get(key, 0) + 1
    return profiles


def _grid_upper(
    profiles: Mapping[tuple, int], n_tasks: int, include_processing: bool
) -> float:
    """Grid width for the slowest profile (the sequential mean is an
    upper bound for the parallel one)."""
    worst_mean = 0.0
    for (onhold, proc), _count in profiles.items():
        mean = sum(1.0 / r for r in onhold)
        if include_processing:
            mean += len(onhold) / proc
        worst_mean = max(worst_mean, mean)
    return worst_mean * (6.0 + 1.5 * math.log1p(n_tasks)) + 1e-9


def _expected_max_on_grid(
    profiles: Mapping[tuple, int],
    grid: np.ndarray,
    include_processing: bool,
    repetition_mode: str,
) -> float:
    """``E[max over tasks]`` by integrating ``1 − Π cdf`` on *grid*.

    Shared by :func:`expected_job_latency` and the multi-allocation
    scorer :func:`repro.perf.batch.evaluate_allocations`, so the
    integration semantics (grid heuristic, log-product clamping) live
    in exactly one place.
    """
    from ..perf.cache import cached_hypoexponential_sf_many

    # Every chain the profiles need, evaluated in one cached pass: the
    # phase-type cdfs are exact by uniformization, chains sharing a
    # uniformization rate share its Poisson blocks, and repeated chains
    # (sweeps, Pareto fronts, exhaustive searches) are computed once.
    if repetition_mode == "sequential":
        chains = [
            [_task_chain_rates(onhold, proc, include_processing)]
            for onhold, proc in profiles
        ]
    else:
        # Task cdf = product over repetitions of the single-rep chain
        # cdfs (max of independent chains).
        chains = [
            [
                _task_chain_rates((rate,), proc, include_processing)
                for rate in onhold
            ]
            for onhold, proc in profiles
        ]
    sfs = iter(
        cached_hypoexponential_sf_many(
            [rates for chain in chains for rates in chain], grid
        )
    )
    log_prod = np.zeros_like(grid)
    for chain, count in zip(chains, profiles.values()):
        cdf = 1.0 - next(sfs)
        for _ in chain[1:]:
            cdf = cdf * (1.0 - next(sfs))
        with np.errstate(divide="ignore"):
            log_cdf = np.log(np.where(cdf > 0.0, cdf, 1.0))
            log_cdf = np.where(cdf > 0.0, log_cdf, -np.inf)
        log_prod = log_prod + count * log_cdf
    survival = 1.0 - np.exp(log_prod)
    return float(np.trapezoid(survival, grid))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def sample_job_latencies(
    problem: HTuningProblem,
    allocation: Allocation,
    n_samples: int,
    rng: RandomState = None,
    include_processing: bool = True,
    engine=None,
) -> np.ndarray:
    """Draw *n_samples* iid realizations of the job latency.

    ``engine`` is an :class:`repro.perf.engine.EvaluationEngine`
    instance or a registered name (``"scalar"``, ``"batch"``,
    ``"chunked-batch"``, ``"agent-batch"``); ``None`` uses the default.
    Every registered name runs the same row-blocked sampler
    (:func:`repro.perf.batch.sample_job_latencies_batch`), so the name
    never changes the draws; it only labels the ``engine.sample``
    fault site (see :mod:`repro.perf.engine`).
    """
    from ..perf.engine import resolve_engine

    return resolve_engine(engine).sample(
        problem, allocation, n_samples, rng, include_processing
    )


def simulate_job_latency(
    problem: HTuningProblem,
    allocation: Allocation,
    n_samples: int = 1000,
    rng: RandomState = None,
    include_processing: bool = True,
    engine=None,
) -> float:
    """Monte-Carlo estimate of the expected job latency."""
    draws = sample_job_latencies(
        problem, allocation, n_samples, rng, include_processing, engine=engine
    )
    return float(draws.mean())
