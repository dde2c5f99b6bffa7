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
* :class:`BatchAggregateSimulator` — batch counterpart of
  :class:`repro.market.simulator.AggregateSimulator` for latency
  studies: one ``(n_samples, n_phases)`` matrix replaces ``n_samples``
  event-by-event ``run_job`` calls (again stream-compatible, so sample
  ``j`` equals the ``j``-th scalar ``run_job`` makespan bit-for-bit).
* :func:`evaluate_allocations` — score many candidate allocations of
  one problem in a single call; the numeric backend shares one
  evaluation grid across all candidates so the process-level kernel
  cache (:mod:`repro.perf.cache`) collapses repeated rate profiles.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from ..core.problem import Allocation, HTuningProblem
from ..errors import ModelError, SimulationError
from ..stats.rng import RandomState, ensure_rng

__all__ = [
    "sample_job_latencies_batch",
    "BatchAggregateSimulator",
    "evaluate_allocations",
]


def _segment_sum_sequential(
    matrix: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Per-segment column sums accumulated strictly left-to-right.

    ``np.add.reduceat`` reassociates (pairwise/SIMD) and so drifts from
    the seed simulator's ``total += phase`` accumulation in the last
    ulp; summing one phase column at a time keeps the batch results
    bit-identical while staying vectorized across samples.
    """
    bounds = list(starts) + [matrix.shape[1]]
    out = np.empty((matrix.shape[0], len(starts)))
    for k in range(len(starts)):
        acc = matrix[:, bounds[k]].copy()
        for c in range(bounds[k] + 1, bounds[k + 1]):
            acc += matrix[:, c]
        out[:, k] = acc
    return out


def _allocation_phase_layout(
    problem: HTuningProblem,
    allocation: Allocation,
    include_processing: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase scales (1/rate) in scalar draw order + task row starts."""
    scales: list[float] = []
    starts: list[int] = []
    for task in problem.tasks:
        starts.append(len(scales))
        for price in allocation[task.task_id]:
            scales.append(1.0 / task.onhold_rate(price))
            if include_processing:
                scales.append(1.0 / task.processing_rate)
    return np.asarray(scales), np.asarray(starts)


#: Doubles per drawn block of the phase matrix (512 KiB): the sampler
#: draws ``max(1, _BLOCK_DOUBLES // n_samples)`` phase rows at a time,
#: so peak memory stays bounded whatever the job size.
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
    drawn in row blocks of at most :data:`_BLOCK_DOUBLES` doubles,
    scaled per phase, summed per task strictly left to right (a task
    may straddle a block edge) and reduced by a running max over tasks.
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
    n_rows = len(scales)
    block_rows = max(1, _BLOCK_DOUBLES // n_samples)
    is_start = np.zeros(n_rows, dtype=bool)
    is_start[starts] = True
    job = np.full(n_samples, -np.inf)
    acc: Optional[np.ndarray] = None
    for r0 in range(0, n_rows, block_rows):
        r1 = min(r0 + block_rows, n_rows)
        block = gen.standard_exponential((r1 - r0, n_samples))
        block *= scales[r0:r1, None]
        for row, first in zip(block, is_start[r0:r1].tolist()):
            if first:
                if acc is not None:
                    np.maximum(job, acc, out=job)
                acc = row.copy()
            else:
                acc += row
    np.maximum(job, acc, out=job)
    return job


class BatchAggregateSimulator:
    """Vectorized replication engine for the aggregate (HPU) model.

    Samples whole replication batches of a job at once: the phase
    matrix has one row per simulated job and one column per
    (repetition × phase), so ``n_samples`` makespans cost one
    ``standard_exponential`` call instead of ``n_samples`` event-loop
    runs.  The column layout mirrors the order in which
    :class:`~repro.market.simulator.AggregateSimulator` consumes its
    RNG stream, so with equal seeds sample ``j`` is bit-identical to
    the ``j``-th scalar ``run_job`` makespan.

    The replication sampler (:meth:`sample_makespans`) is a *latency*
    engine: per-repetition answer sampling (payloads exposing
    ``sample_answer``) would interleave with the phase draws in the
    scalar stream and is rejected there.  :meth:`run_job` is the
    answer-capable single-realization entry point: it draws every
    phase of the job as one vector, then samples answers in task
    order, so crowd-DB queries and quality-aware payloads can leave
    the scalar event loop (its RNG stream layout is its own — it is
    deterministic seed-for-seed but not stream-compatible with
    :class:`~repro.market.simulator.AggregateSimulator`).
    """

    def __init__(self, market, seed: RandomState = None) -> None:
        self.market = market
        self._rng = ensure_rng(seed)

    def _order_layout(
        self, orders, allow_payloads: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        scales: list[float] = []
        starts: list[int] = []
        for order in orders:
            payload = order.payload
            if (
                not allow_payloads
                and payload is not None
                and hasattr(payload, "sample_answer")
            ):
                raise SimulationError(
                    "sample_makespans is latency-only; payloads with "
                    "sample_answer need AggregateSimulator or "
                    "BatchAggregateSimulator.run_job"
                )
            starts.append(len(scales))
            rate_p = order.task_type.processing_rate
            for price in order.prices:
                rate_o = self.market.onhold_rate(order.task_type, price)
                scales.append(1.0 / rate_o)
                scales.append(1.0 / rate_p)
        return np.asarray(scales), np.asarray(starts)

    def sample_makespans(
        self,
        orders: Sequence,
        n_samples: int,
        repetition_mode: str = "sequential",
        chunk_samples: Optional[int] = None,
    ) -> np.ndarray:
        """*n_samples* iid job makespans for *orders* (one matrix draw).

        ``chunk_samples`` streams the replication matrix in blocks of
        at most that many samples (rows), capping memory at
        ``chunk_samples × n_phases`` doubles.  Rows are filled in
        sample-major order, so chunking consumes the RNG stream
        identically — makespans are bit-identical to the unchunked
        draw for every chunk size.
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
        if chunk_samples is not None and chunk_samples < 1:
            raise SimulationError(
                f"chunk_samples must be >= 1, got {chunk_samples}"
            )
        scales, starts = self._order_layout(orders)
        if chunk_samples is None or chunk_samples >= n_samples:
            return self._makespan_block(
                scales, starts, n_samples, repetition_mode
            )
        out = np.empty(n_samples)
        for s0 in range(0, n_samples, chunk_samples):
            s1 = min(s0 + chunk_samples, n_samples)
            out[s0:s1] = self._makespan_block(
                scales, starts, s1 - s0, repetition_mode
            )
        return out

    def _makespan_block(
        self,
        scales: np.ndarray,
        starts: np.ndarray,
        n_samples: int,
        repetition_mode: str,
    ) -> np.ndarray:
        draws = self._rng.standard_exponential((n_samples, len(scales)))
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
        return totals.max(axis=1)

    def run_job(
        self,
        orders: Sequence,
        recorder=None,
        start_time: float = 0.0,
        repetition_mode: str = "sequential",
    ):
        """Run one realization of a job, answers included.

        Drop-in counterpart of
        :meth:`repro.market.simulator.AggregateSimulator.run_job`: all
        phase latencies are drawn as one vector, then answers are
        sampled per repetition in task order (through each payload's
        ``sample_answer`` at the task type's accuracy).  Deterministic
        given the simulator seed, but the stream layout differs from
        the scalar simulator's per-repetition interleaving, so the two
        engines' realizations are *statistically* (not bitwise)
        equivalent.
        """
        return self._run_job_with_rng(
            orders, self._rng, recorder, start_time, repetition_mode
        )

    def run_replications(
        self,
        orders: Sequence,
        n_replications=None,
        *,
        seeds=None,
        recorders=None,
        start_time: float = 0.0,
        repetition_mode: str = "sequential",
        engine=None,
    ) -> list:
        """Run *orders* as R independent seeded replications.

        Same protocol as
        :meth:`repro.market.simulator.AgentSimulator.run_replications`;
        each replication draws its phase vector from its own stream
        (this engine's own layout — deterministic per seed).
        """
        from ..market.simulator import (
            _resolve_replication_recorders,
            _resolve_replication_seeds,
        )
        from .engine import resolve_engine

        seeds = _resolve_replication_seeds(self._rng, n_replications, seeds)
        recorders = _resolve_replication_recorders(recorders, len(seeds))
        return resolve_engine(engine).run_replications(
            self, orders, seeds, recorders, start_time,
            repetition_mode=repetition_mode,
        )

    def _run_job_with_rng(
        self,
        orders: Sequence,
        rng,
        recorder=None,
        start_time: float = 0.0,
        repetition_mode: str = "sequential",
    ):
        """The :meth:`run_job` body against an explicit generator."""
        from ..market.simulator import JobResult, _draw_answer
        from ..market.task import PublishedTask
        from ..market.trace import TraceRecorder

        if repetition_mode not in ("sequential", "parallel"):
            raise SimulationError(
                f"repetition_mode must be 'sequential' or 'parallel', got "
                f"{repetition_mode!r}"
            )
        orders = list(orders)
        if not orders:
            raise SimulationError("job must contain at least one atomic task")
        scales, starts = self._order_layout(orders, allow_payloads=True)
        draws = rng.standard_exponential(len(scales))
        draws *= scales

        trace = recorder if recorder is not None else TraceRecorder()
        record = not getattr(trace, "is_null", False)
        per_atomic: dict[int, float] = {}
        answers: dict[int, list[Any]] = {}
        total_paid = 0
        for i, order in enumerate(orders):
            row = int(starts[i])
            collected: list[Any] = []
            clock = float(start_time)
            finish = float(start_time)
            for rep_index, price in enumerate(order.prices):
                onhold = float(draws[row])
                processing = float(draws[row + 1])
                row += 2
                publish_at = (
                    clock if repetition_mode == "sequential" else float(start_time)
                )
                answer = _draw_answer(order, rng, order.task_type.accuracy)
                done = publish_at + onhold + processing
                if record:
                    task = PublishedTask(
                        task_type=order.task_type,
                        price=price,
                        atomic_task_id=order.atomic_task_id,
                        repetition_index=rep_index,
                        payload=order.payload,
                    )
                    task.mark_published(publish_at)
                    task.mark_accepted(publish_at + onhold)
                    task.mark_completed(done, answer=answer)
                    trace.on_task_done(task)
                collected.append(answer)
                total_paid += price
                clock = done
                finish = max(finish, done)
            per_atomic[order.atomic_task_id] = (
                clock if repetition_mode == "sequential" else finish
            )
            answers[order.atomic_task_id] = collected
        makespan = max(per_atomic.values()) - float(start_time)
        return JobResult(
            trace=trace,
            makespan=makespan,
            per_atomic_completion=per_atomic,
            answers=answers,
            total_paid=total_paid,
        )

    def mean_latency(
        self,
        orders: Sequence,
        n_samples: int,
        repetition_mode: str = "sequential",
    ) -> float:
        """Monte-Carlo mean job latency over *n_samples* replications."""
        return float(
            self.sample_makespans(orders, n_samples, repetition_mode).mean()
        )


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
                "BatchAggregateSimulator.sample_makespans for parallel "
                "repetition batches"
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
