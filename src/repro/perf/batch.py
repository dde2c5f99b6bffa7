"""Batched Monte-Carlo and numeric evaluation of job latencies.

Three entry points, all array-shaped where the seed code was
loop-shaped:

* :func:`sample_job_latencies_batch` — the Monte-Carlo sampler behind
  :func:`repro.core.latency.sample_job_latencies` and every registered
  evaluation engine.  All phases of all tasks form one
  ``(n_phases, n_samples)`` standard-exponential matrix, drawn in
  bounded row blocks, scaled per phase and reduced per task.  The
  matrix rows are laid out in exactly the order the seed's task-by-task
  sampler consumed the stream, so results are **bit-identical to it
  seed-for-seed**.
* :func:`sample_makespans` — batch counterpart of
  :class:`repro.market.simulator.AggregateSimulator` for latency
  studies: one ``(n_samples, n_phases)`` matrix, drawn in bounded
  sample blocks, replaces ``n_samples`` event-by-event ``run_job``
  calls (again stream-compatible, so sample ``j`` equals the ``j``-th
  scalar ``run_job`` makespan bit-for-bit).
* :func:`evaluate_allocations` — score many candidate allocations of
  one problem in a single call; the numeric backend shares one
  evaluation grid across all candidates so the process-level kernel
  cache (:mod:`repro.perf.cache`) collapses repeated rate profiles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.problem import Allocation, HTuningProblem
from ..errors import ModelError, SimulationError
from ..stats.rng import RandomState, ensure_rng

__all__ = [
    "sample_job_latencies_batch",
    "sample_makespans",
    "evaluate_allocations",
]


def _segment_sum_sequential(
    matrix: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Per-segment column sums accumulated strictly left-to-right.

    ``np.add.reduceat`` reassociates (pairwise/SIMD) and so drifts from
    the seed simulator's ``total += phase`` accumulation in the last
    ulp; adding the ``k``-th column of every segment at step ``k``
    keeps each segment's additions in column order (batch results stay
    bit-identical) while vectorizing across samples and segments.
    Segments of one length are gathered into one ``(samples, length,
    segments)`` array, so each step is one plain array add.
    """
    lengths = np.diff(np.append(starts, matrix.shape[1]))
    widths = sorted(set(lengths.tolist()))
    if len(widths) == 1 and widths[0] * len(starts) == matrix.shape[1]:
        # Equal segments back to back: split the columns, no gather.
        split = matrix.reshape(len(matrix), len(starts), widths[0])
        grouped = [(slice(None), split.transpose(0, 2, 1))]
    else:
        grouped = []
        for width in widths:
            which = np.flatnonzero(lengths == width)
            columns = starts[which] + np.arange(width)[:, None]
            grouped.append((which, matrix[:, columns]))
    out = np.empty((len(matrix), len(starts)))
    for which, cols in grouped:
        acc = cols[:, 0].copy()
        for k in range(1, cols.shape[1]):
            acc += cols[:, k]
        out[:, which] = acc
    return out


def _allocation_phase_layout(
    problem: HTuningProblem,
    allocation: Allocation,
    include_processing: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase scales (1/rate) in scalar draw order + task row starts.

    Each distinct ``(pricing curve, price)`` is priced once.
    """
    scales: list[float] = []
    starts: list[int] = []
    onhold: dict[tuple[int, int], float] = {}
    for task in problem.tasks:
        starts.append(len(scales))
        curve = id(task.pricing)
        for price in allocation[task.task_id]:
            scale = onhold.get((curve, price))
            if scale is None:
                scale = onhold[curve, price] = 1.0 / task.onhold_rate(price)
            scales.append(scale)
            if include_processing:
                scales.append(1.0 / task.processing_rate)
    return np.asarray(scales), np.asarray(starts)


#: Doubles per drawn block of the phase matrix (512 KiB): the samplers
#: draw ``max(1, _BLOCK_DOUBLES // row_length)`` rows at a time (the job
#: sampler rounds down to whole tasks, and draws a task longer than that
#: alone), so peak memory stays bounded whatever the job size.
_BLOCK_DOUBLES = 1 << 16


def sample_job_latencies_batch(
    problem: HTuningProblem,
    allocation: Allocation,
    n_samples: int,
    rng: RandomState = None,
    include_processing: bool = True,
) -> np.ndarray:
    """Draw *n_samples* iid job-latency realizations.

    The sampler behind every registered evaluation engine.  The
    ``(n_phases, n_samples)`` standard-exponential phase matrix is
    drawn in row blocks of whole tasks, at most :data:`_BLOCK_DOUBLES`
    doubles unless one task alone is longer, scaled per phase, summed
    per task strictly left to right and reduced by a running max over
    tasks.
    The generator fills the matrix row-major, so drawing row blocks in
    order consumes the stream exactly as the seed's task-by-task loop
    (:func:`repro.perf.reference.reference_sample_job_latencies`)
    does: results are **bit-identical to it seed-for-seed**, for every
    block size.
    """
    if n_samples < 1:
        raise ModelError(f"n_samples must be >= 1, got {n_samples}")
    problem.validate_allocation(allocation)
    gen = ensure_rng(rng)
    scales, starts = _allocation_phase_layout(
        problem, allocation, include_processing
    )
    block_rows = max(1, _BLOCK_DOUBLES // n_samples)
    bounds = np.append(starts, len(scales))
    job = np.full(n_samples, -np.inf)
    t0 = 0
    while t0 < len(starts):
        # The most whole tasks that fit in block_rows rows, at least one.
        t1 = max(
            t0 + 1,
            int(np.searchsorted(bounds, bounds[t0] + block_rows, "right")) - 1,
        )
        r0, r1 = bounds[t0], bounds[t1]
        block = gen.standard_exponential((r1 - r0, n_samples))
        block *= scales[r0:r1, None]
        totals = _segment_sum_sequential(block.T, starts[t0:t1] - r0)
        np.maximum(job, totals.max(axis=1), out=job)
        t0 = t1
    return job


def _order_layout(market, orders) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase scales (1/rate) of *orders* in scalar draw order —
    on-hold then processing per repetition — plus task column starts."""
    scales: list[float] = []
    starts: list[int] = []
    for order in orders:
        if order.payload is not None and hasattr(
            order.payload, "sample_answer"
        ):
            raise SimulationError(
                "sample_makespans is latency-only; payloads with "
                "sample_answer need AggregateSimulator"
            )
        starts.append(len(scales))
        rate_p = order.task_type.processing_rate
        for price in order.prices:
            scales.append(1.0 / market.onhold_rate(order.task_type, price))
            scales.append(1.0 / rate_p)
    return np.asarray(scales), np.asarray(starts)


def sample_makespans(
    market,
    orders: Sequence,
    n_samples: int,
    rng: RandomState = None,
    repetition_mode: str = "sequential",
) -> np.ndarray:
    """*n_samples* iid job makespans of *orders* on the aggregate model.

    The vectorized replication sampler for
    :class:`~repro.market.simulator.AggregateSimulator`: one row per
    simulated job and one column per (repetition × phase), in exactly
    the order the scalar simulator consumes its stream, so with equal
    seeds sample ``j`` is **bit-identical** to the ``j``-th
    ``AggregateSimulator(market, seed).run_job(orders).makespan``.
    The matrix is drawn in sample-major blocks of
    ``max(1, _BLOCK_DOUBLES // n_phases)`` rows; the generator fills
    rows in order, so every block size consumes the stream alike.

    Latency only: per-repetition answer sampling (payloads exposing
    ``sample_answer``) would interleave with the phase draws in the
    scalar stream and is rejected.
    """
    if repetition_mode not in ("sequential", "parallel"):
        raise SimulationError(
            f"repetition_mode must be 'sequential' or 'parallel', got "
            f"{repetition_mode!r}"
        )
    orders = list(orders)
    if not orders:
        raise SimulationError("job must contain at least one atomic task")
    if n_samples < 1:
        raise SimulationError(f"n_samples must be >= 1, got {n_samples}")
    gen = ensure_rng(rng)
    scales, starts = _order_layout(market, orders)
    block = max(1, _BLOCK_DOUBLES // len(scales))
    out = np.empty(n_samples)
    for s0 in range(0, n_samples, block):
        s1 = min(s0 + block, n_samples)
        draws = gen.standard_exponential((s1 - s0, len(scales)))
        draws *= scales[None, :]
        if repetition_mode == "sequential":
            # A repetition publishes when the previous one finishes, so
            # the task completes at the sum of its phase draws.
            totals = _segment_sum_sequential(draws, starts)
        else:
            # All repetitions run at once; each chain is onhold +
            # processing and the task completes at the max chain.
            chains = draws[:, 0::2] + draws[:, 1::2]
            totals = np.maximum.reduceat(chains, starts // 2, axis=1)
        out[s0:s1] = totals.max(axis=1)
    return out


def evaluate_allocations(
    problem: HTuningProblem,
    allocations: Sequence[Allocation],
    scoring: str = "mc",
    n_samples: int = 2000,
    rng: RandomState = None,
    include_processing: bool = True,
    grid_points: int = 2048,
    repetition_mode: str = "sequential",
) -> np.ndarray:
    """Score many candidate *allocations* of one problem at once.

    ``scoring="mc"`` draws each allocation's batch from one generator
    (deterministic given a seed).  ``scoring="numeric"`` integrates the
    exact survival function of every allocation **on one shared grid**
    wide enough for the slowest candidate, which lets the process-level
    cdf cache collapse every repeated (rates, grid) profile across the
    whole candidate set — the shape of an exhaustive/Pareto sweep.

    Returns an array of expected job latencies, one per allocation.
    Note the shared grid means numeric scores can differ from
    per-allocation :func:`~repro.core.latency.expected_job_latency`
    calls (which size their grid per allocation) by the integration
    error, not by model semantics.
    """
    from ..core.latency import (
        _expected_max_on_grid,
        _grid_upper,
        _rate_profiles,
    )

    allocations = list(allocations)
    if not allocations:
        raise ModelError("need at least one allocation to evaluate")
    if scoring not in ("mc", "numeric"):
        raise ModelError(
            f"unknown scoring {scoring!r}; expected 'mc' or 'numeric'"
        )
    if repetition_mode not in ("sequential", "parallel"):
        raise ModelError(
            f"repetition_mode must be 'sequential' or 'parallel', got "
            f"{repetition_mode!r}"
        )
    if scoring == "mc":
        if repetition_mode != "sequential":
            raise ModelError(
                "mc scoring models sequential repetitions only; use "
                "sample_makespans for parallel repetition batches"
            )
        gen = ensure_rng(rng)
        return np.array(
            [
                sample_job_latencies_batch(
                    problem, alloc, n_samples, gen, include_processing
                ).mean()
                for alloc in allocations
            ]
        )

    per_alloc_profiles = []
    upper = 0.0
    for alloc in allocations:
        problem.validate_allocation(alloc)
        profiles = _rate_profiles(problem, alloc)
        per_alloc_profiles.append(profiles)
        upper = max(
            upper,
            _grid_upper(profiles, problem.num_tasks, include_processing),
        )
    grid = np.linspace(0.0, upper, grid_points)

    return np.array(
        [
            _expected_max_on_grid(
                profiles, grid, include_processing, repetition_mode
            )
            for profiles in per_alloc_profiles
        ]
    )
