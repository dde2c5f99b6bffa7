"""Crowd-market simulators — the repo's Amazon-Mechanical-Turk substitute.

Two engines share one job description and one trace format:

* :class:`AggregateSimulator` implements the paper's stochastic model
  directly: each repetition's on-hold phase is ``Exp(λ_o(price))`` and
  its processing phase ``Exp(λ_p)``, independent (§3.2).  It is the
  ground truth against which the tuning theory's predictions are exact.
* :class:`AgentSimulator` simulates individual workers: a Poisson
  arrival stream (§3.1.1), a task-preference choice model (§3.1.2), and
  busy/free worker states.  Its aggregate behaviour converges to the
  exponential model — reproducing the paper's empirical claim that AMT
  acceptance is a Poisson process — and tests verify the agreement.

Repetitions of one atomic task are *sequential* (a repetition is
published only after the previous one completes; §2: "submitted one
after another"), while distinct atomic tasks run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from ..errors import ModelError, SimulationError
from ..resilience.faults import abandonment_hook
from ..stats.rng import RandomState, ensure_rng, spawn
from .events import Event, EventKind, EventQueue
from .pricing import PricingModel
from .task import PublishedTask, TaskState, TaskType
from .trace import TraceRecorder
from .worker import WorkerPool

__all__ = [
    "AtomicTaskOrder",
    "JobResult",
    "MarketModel",
    "AggregateSimulator",
    "AgentSimulator",
]


@dataclass(frozen=True)
class AtomicTaskOrder:
    """One atomic task to run on the market: a type, per-repetition
    prices (sequential repetitions), and an optional payload.

    If ``payload`` exposes ``sample_answer(rng, accuracy)`` the
    simulator uses it to draw each repetition's (possibly wrong)
    answer; otherwise answers are ``None`` and only latency matters.
    """

    task_type: TaskType
    prices: tuple[int, ...]
    atomic_task_id: int
    payload: Any = None

    def __post_init__(self) -> None:
        if not self.prices:
            raise ModelError("an atomic task needs at least one repetition price")
        for p in self.prices:
            if int(p) != p or p < 1:
                raise ModelError(f"prices must be positive integers, got {self.prices}")
        object.__setattr__(self, "prices", tuple(int(p) for p in self.prices))

    @property
    def repetitions(self) -> int:
        return len(self.prices)


@dataclass
class JobResult:
    """Outcome of running a job on a simulator."""

    trace: TraceRecorder
    makespan: float
    per_atomic_completion: dict[int, float]
    answers: dict[int, list[Any]]
    total_paid: int

    @property
    def latency(self) -> float:
        """Job latency — the paper's L* = completion time of the
        longest atomic task (all tasks are published at time 0)."""
        return self.makespan


class MarketModel:
    """Market-wide parameters shared by both engines.

    Parameters
    ----------
    pricing:
        Either one :class:`PricingModel` applied to every task type, or
        a mapping ``type name -> PricingModel`` (heterogeneous
        difficulty changes the uptake rate; Fig. 5(a)).
    default_pricing:
        Fallback model when ``pricing`` is a mapping without the type.
    """

    def __init__(
        self,
        pricing: PricingModel | Mapping[str, PricingModel],
        default_pricing: Optional[PricingModel] = None,
    ) -> None:
        if isinstance(pricing, PricingModel):
            self._table: dict[str, PricingModel] = {}
            self._default: Optional[PricingModel] = pricing
        elif isinstance(pricing, Mapping):
            for model in pricing.values():
                if not isinstance(model, PricingModel):
                    raise ModelError(f"not a PricingModel: {model!r}")
            self._table = dict(pricing)
            self._default = default_pricing
        else:
            raise ModelError(
                "pricing must be a PricingModel or a mapping of type name to model"
            )

    def onhold_rate(self, task_type: TaskType, price: int) -> float:
        """λ_o for *task_type* at unit *price*.

        When the type has no dedicated curve, the default curve is
        scaled by the type's attractiveness, so harder (less
        attractive) tasks are accepted more slowly, matching Fig. 5(a).
        """
        model = self._table.get(task_type.name)
        if model is not None:
            return model(price)
        if self._default is None:
            raise ModelError(
                f"no pricing model for task type {task_type.name!r} "
                "and no default provided"
            )
        return self._default(price) * task_type.attractiveness


def _draw_answer(order: AtomicTaskOrder, rng: np.random.Generator, accuracy: float):
    payload = order.payload
    if payload is not None and hasattr(payload, "sample_answer"):
        return payload.sample_answer(rng, accuracy)
    return None


def _resolve_replication_seeds(
    rng: np.random.Generator,
    n_replications: Optional[int],
    seeds,
) -> list:
    """Normalize a ``run_replications`` seed specification.

    ``seeds=None`` derives one independent substream per replication
    from the simulator's own generator (:func:`repro.stats.rng.spawn`)
    — the same protocol for every engine, so swapping engines never
    changes which streams the replications consume.
    """
    if seeds is None:
        if n_replications is None:
            raise SimulationError(
                "run_replications needs n_replications or an explicit "
                "seeds sequence"
            )
        if n_replications < 1:
            raise SimulationError(
                f"n_replications must be >= 1, got {n_replications}"
            )
        return spawn(rng, int(n_replications))
    seeds = list(seeds)
    if not seeds:
        raise SimulationError("run_replications needs at least one seed")
    if n_replications is not None and int(n_replications) != len(seeds):
        raise SimulationError(
            f"n_replications={n_replications} does not match "
            f"{len(seeds)} seeds"
        )
    return seeds


def _resolve_replication_recorders(recorders, n: int) -> list:
    """Normalize a ``run_replications`` recorder specification.

    ``None`` gives every replication its own fresh
    :class:`~repro.market.trace.TraceRecorder`; a single null recorder
    (``is_null``) is shared by all replications (it is stateless); a
    sequence supplies one recorder per replication.  Sharing one
    *stateful* recorder between replications is rejected: engines may
    process replications in different orders, so an interleaved trace
    would depend on the engine and break the byte-identity contract.
    """
    if recorders is None:
        return [None] * n
    if getattr(recorders, "is_null", False):
        return [recorders] * n
    if isinstance(recorders, TraceRecorder):
        raise SimulationError(
            "run_replications needs one recorder per replication (or a "
            "shared null recorder such as NULL_RECORDER); got a single "
            "stateful TraceRecorder"
        )
    recorders = list(recorders)
    if len(recorders) != n:
        raise SimulationError(
            f"got {len(recorders)} recorders for {n} replications"
        )
    seen: dict[int, int] = {}
    for rec in recorders:
        if rec is None or getattr(rec, "is_null", False):
            continue
        key = id(rec)
        if key in seen:
            raise SimulationError(
                "the same stateful recorder appears for multiple "
                "replications; replication traces must not share a "
                "recorder (engine execution order would leak into it)"
            )
        seen[key] = 1
    return recorders


class AggregateSimulator:
    """Engine sampling each phase directly from the HPU model.

    This is an exact sampler of the paper's generative process, so the
    analytic expected latencies in :mod:`repro.core.latency` are its
    ground-truth means.
    """

    def __init__(self, market: MarketModel, seed: RandomState = None) -> None:
        self.market = market
        self._rng = ensure_rng(seed)

    def run_job(
        self,
        orders: Sequence[AtomicTaskOrder],
        recorder: Optional[TraceRecorder] = None,
        start_time: float = 0.0,
        repetition_mode: str = "sequential",
    ) -> JobResult:
        """Run all *orders* in parallel.

        ``repetition_mode`` selects how one atomic task's repetitions
        run (§2): ``"sequential"`` — the paper's default, answers
        submitted one after another — or ``"parallel"`` — all
        repetitions published at once (AMT's multi-assignment HITs);
        the task completes when its last repetition does.
        """
        return self._run_job_with_rng(
            orders, self._rng, recorder, start_time, repetition_mode
        )

    def run_replications(
        self,
        orders: Sequence[AtomicTaskOrder],
        n_replications: Optional[int] = None,
        *,
        seeds=None,
        recorders=None,
        start_time: float = 0.0,
        repetition_mode: str = "sequential",
        engine=None,
    ) -> list[JobResult]:
        """Run *orders* as R independent seeded replications.

        ``seeds`` gives one :data:`~repro.stats.rng.RandomState` per
        replication; when omitted, ``n_replications`` substreams are
        spawned from the simulator's own generator.  ``engine``
        resolves through the :mod:`repro.perf.engine` registry; the
        aggregate model has no lock-step fast path, so every name runs
        the sequential reference fan-out here.
        """
        from ..perf.engine import resolve_engine

        seeds = _resolve_replication_seeds(self._rng, n_replications, seeds)
        recorders = _resolve_replication_recorders(recorders, len(seeds))
        return resolve_engine(engine).run_replications(
            self, orders, seeds, recorders, start_time,
            repetition_mode=repetition_mode,
        )

    def _run_job_with_rng(
        self,
        orders: Sequence[AtomicTaskOrder],
        rng: np.random.Generator,
        recorder: Optional[TraceRecorder] = None,
        start_time: float = 0.0,
        repetition_mode: str = "sequential",
    ) -> JobResult:
        """The :meth:`run_job` body against an explicit generator."""
        if repetition_mode not in ("sequential", "parallel"):
            raise SimulationError(
                f"repetition_mode must be 'sequential' or 'parallel', got "
                f"{repetition_mode!r}"
            )
        orders = list(orders)
        if not orders:
            raise SimulationError("job must contain at least one atomic task")
        trace = recorder if recorder is not None else TraceRecorder()
        record = not getattr(trace, "is_null", False)
        per_atomic: dict[int, float] = {}
        answers: dict[int, list[Any]] = {}
        total_paid = 0
        for order in orders:
            collected: list[Any] = []
            if repetition_mode == "sequential":
                clock = float(start_time)
                for rep_index, price in enumerate(order.prices):
                    clock = self._run_repetition(
                        order, rep_index, price, clock, rng,
                        trace if record else None, collected,
                    )
                    total_paid += price
                per_atomic[order.atomic_task_id] = clock
            else:
                finish = float(start_time)
                for rep_index, price in enumerate(order.prices):
                    done = self._run_repetition(
                        order, rep_index, price, float(start_time), rng,
                        trace if record else None, collected,
                    )
                    finish = max(finish, done)
                    total_paid += price
                per_atomic[order.atomic_task_id] = finish
            answers[order.atomic_task_id] = collected
        makespan = max(per_atomic.values()) - float(start_time)
        return JobResult(
            trace=trace,
            makespan=makespan,
            per_atomic_completion=per_atomic,
            answers=answers,
            total_paid=total_paid,
        )

    def _run_repetition(
        self,
        order: AtomicTaskOrder,
        rep_index: int,
        price: int,
        publish_at: float,
        rng: np.random.Generator,
        trace: Optional[TraceRecorder],
        collected: list,
    ) -> float:
        """Sample one repetition's two phases; returns its finish time.

        ``trace=None`` is the null-recorder fast path: the phase draws
        and the answer draw are identical, but no
        :class:`~repro.market.task.PublishedTask` is materialized.
        """
        rate_o = self.market.onhold_rate(order.task_type, price)
        rate_p = order.task_type.processing_rate
        onhold = float(rng.exponential(1.0 / rate_o))
        processing = float(rng.exponential(1.0 / rate_p))
        answer_at = publish_at + onhold + processing
        if trace is None:
            answer = _draw_answer(order, rng, order.task_type.accuracy)
            collected.append(answer)
            return answer_at
        task = PublishedTask(
            task_type=order.task_type,
            price=price,
            atomic_task_id=order.atomic_task_id,
            repetition_index=rep_index,
            payload=order.payload,
        )
        task.mark_published(publish_at)
        task.mark_accepted(publish_at + onhold)
        answer = _draw_answer(order, rng, order.task_type.accuracy)
        task.mark_completed(answer_at, answer=answer)
        trace.on_task_done(task)
        collected.append(answer)
        return answer_at


class AgentSimulator:
    """Engine with explicit workers arriving by a Poisson process.

    Every arriving worker inspects the open repetitions and picks one
    according to the pool's choice model (or leaves).  A worker who
    takes a task is busy for an ``Exp(λ_p)`` processing time, then the
    next repetition of that atomic task (if any) is published.

    The market's pricing model is *not* used to clock acceptances here
    — acceptance timing is an emergent property of arrivals + choices —
    which is exactly what makes engine agreement a meaningful check of
    the paper's modelling assumption.
    """

    def __init__(
        self,
        pool: WorkerPool,
        seed: RandomState = None,
        max_sim_time: float = 1e7,
    ) -> None:
        if max_sim_time <= 0:
            raise ModelError(f"max_sim_time must be positive, got {max_sim_time}")
        self.pool = pool
        self._rng = ensure_rng(seed)
        self.max_sim_time = float(max_sim_time)

    def run_job(
        self,
        orders: Sequence[AtomicTaskOrder],
        recorder: Optional[TraceRecorder] = None,
        start_time: float = 0.0,
    ) -> JobResult:
        return self._run_job_with_rng(orders, self._rng, recorder, start_time)

    def run_replications(
        self,
        orders: Sequence[AtomicTaskOrder],
        n_replications: Optional[int] = None,
        *,
        seeds=None,
        recorders=None,
        start_time: float = 0.0,
        engine=None,
    ) -> list[JobResult]:
        """Run *orders* as R independent seeded replications.

        Replication ensembles are the agent engine's hot path
        (figure experiments, engine-agreement checks, CI estimation):
        R independent worlds of the same job, one RNG stream each.

        Parameters
        ----------
        n_replications / seeds:
            Either a replication count (one substream per replication
            is spawned from the simulator's own generator) or an
            explicit sequence with one
            :data:`~repro.stats.rng.RandomState` per replication —
            e.g. integers, ``SeedSequence`` children, or counter-based
            ``Philox`` generators for reproducible distributed splits.
        recorders:
            ``None`` (fresh :class:`~repro.market.trace.TraceRecorder`
            per replication), a shared null recorder
            (:data:`~repro.market.trace.NULL_RECORDER` — skips all
            event/record construction), or one recorder per
            replication.
        engine:
            An :class:`~repro.perf.engine.EvaluationEngine` or
            registered name.  Every name advances the replications in
            lock-step through the structure-of-arrays kernel
            (:mod:`repro.perf.market`) when the pool uses a built-in
            choice model and the base-class arrival/accuracy hooks
            and the atomic ids are unique; any other job runs the
            replications one after another.  Both paths produce
            bit-identical trajectories for the same seeds.

        Worker ids keep incrementing across replications (exactly as
        sequential :meth:`run_job` calls against one pool would), and
        each replication's generator is advanced past every draw its
        trajectory consumed.
        """
        from ..perf.engine import resolve_engine

        seeds = _resolve_replication_seeds(self._rng, n_replications, seeds)
        recorders = _resolve_replication_recorders(recorders, len(seeds))
        return resolve_engine(engine).run_replications(
            self, orders, seeds, recorders, start_time
        )

    def _run_job_with_rng(
        self,
        orders: Sequence[AtomicTaskOrder],
        rng: np.random.Generator,
        recorder: Optional[TraceRecorder] = None,
        start_time: float = 0.0,
    ) -> JobResult:
        """The :meth:`run_job` event loop against an explicit generator."""
        orders = list(orders)
        if not orders:
            raise SimulationError("job must contain at least one atomic task")
        # Resolved once per run: None (zero per-acceptance cost) unless
        # an active fault plan injects worker abandonment.
        abandon = abandonment_hook()
        trace = recorder if recorder is not None else TraceRecorder()
        record = not getattr(trace, "is_null", False)
        queue = EventQueue()
        # Incremental open-task index: the choice model keeps its own
        # structure (a Fenwick weight tree for the built-in weighted
        # models, a heap for greedy) in sync with publishes/removals,
        # so an arrival costs O(log n) instead of materializing and
        # scanning the whole open-task list.  Custom models without an
        # index fall back to the insertion-ordered linear pool, which
        # sees tasks exactly as the historical list did.
        open_tasks = self.pool.choice_model.make_index()
        order_by_id = {o.atomic_task_id: o for o in orders}
        next_rep: dict[int, int] = {o.atomic_task_id: 0 for o in orders}
        answers: dict[int, list[Any]] = {o.atomic_task_id: [] for o in orders}
        per_atomic: dict[int, float] = {}
        total_paid = 0
        remaining = sum(o.repetitions for o in orders)

        def publish(order: AtomicTaskOrder, now: float) -> None:
            rep = next_rep[order.atomic_task_id]
            task = PublishedTask(
                task_type=order.task_type,
                price=order.prices[rep],
                atomic_task_id=order.atomic_task_id,
                repetition_index=rep,
                payload=order.payload,
            )
            task.mark_published(now)
            next_rep[order.atomic_task_id] += 1
            open_tasks.add(task)
            if record:
                trace.on_event(
                    Event(now, EventKind.TASK_PUBLISHED, payload=task)
                )

        for order in orders:
            publish(order, float(start_time))

        queue.push(
            Event(
                float(start_time) + self.pool.next_arrival_delay(rng),
                EventKind.WORKER_ARRIVED,
            )
        )

        while remaining > 0:
            if not queue:
                raise SimulationError("event queue drained before job completion")
            event = queue.pop()
            now = event.time
            if now > self.max_sim_time:
                raise SimulationError(
                    f"simulation exceeded max_sim_time={self.max_sim_time}; "
                    "the market is too slow for this job (rates too small?)"
                )
            if event.kind is EventKind.WORKER_ARRIVED:
                if record:
                    trace.on_event(event)
                # Schedule the next arrival regardless of what this
                # worker does — the stream is exogenous.
                queue.push(
                    Event(
                        now + self.pool.next_arrival_delay(rng),
                        EventKind.WORKER_ARRIVED,
                    )
                )
                chosen = open_tasks.choose(rng)
                if chosen is None:
                    continue
                if abandon is not None and abandon():
                    # Injected abandonment (the ``market.abandon``
                    # fault site): the worker walks away from the task
                    # they chose.  The task stays open for a later
                    # arrival; no worker id is consumed and no
                    # processing time is drawn, so the remaining RNG
                    # stream is untouched — the lock-step engine skips
                    # its acceptance identically.
                    continue
                open_tasks.discard(chosen)
                worker_id = self.pool.new_worker_id()
                chosen.mark_accepted(now, worker_id=worker_id)
                processing = float(
                    rng.exponential(1.0 / chosen.task_type.processing_rate)
                )
                queue.push(
                    Event(now + processing, EventKind.TASK_COMPLETED, payload=chosen)
                )
            elif event.kind is EventKind.TASK_COMPLETED:
                task: PublishedTask = event.payload
                order = order_by_id[task.atomic_task_id]
                accuracy = self.pool.worker_accuracy(
                    task.task_type.accuracy, rng
                )
                answer = _draw_answer(order, rng, accuracy)
                task.mark_completed(now, answer=answer)
                if record:
                    trace.on_event(event)
                    trace.on_task_done(task)
                answers[task.atomic_task_id].append(answer)
                total_paid += task.price
                remaining -= 1
                if next_rep[task.atomic_task_id] < order.repetitions:
                    publish(order, now)
                else:
                    per_atomic[task.atomic_task_id] = now
            else:  # pragma: no cover - no other kinds are scheduled
                raise SimulationError(f"unexpected event kind {event.kind}")

        makespan = max(per_atomic.values()) - float(start_time)
        return JobResult(
            trace=trace,
            makespan=makespan,
            per_atomic_completion=per_atomic,
            answers=answers,
            total_paid=total_paid,
        )
