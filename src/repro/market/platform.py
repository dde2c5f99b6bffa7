"""High-level crowdsourcing platform facade.

:class:`CrowdPlatform` is the requester-facing API: publish a batch of
atomic tasks with an allocation of unit payments, wait for completion,
collect answers and latency measurements.  It hides which engine
(aggregate or agent) backs the market, which is how the rest of the
library stays engine-agnostic — the crowd-DB operators and the
experiment harness both talk only to this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..errors import ModelError, SimulationError
from ..stats.rng import RandomState, ensure_rng
from .simulator import (
    AggregateSimulator,
    AgentSimulator,
    AtomicTaskOrder,
    JobResult,
    MarketModel,
)
from .task import TaskType
from .trace import TraceRecorder
from .worker import WorkerPool

__all__ = ["CrowdPlatform", "PublishRequest"]


@dataclass(frozen=True)
class PublishRequest:
    """A requester's description of one atomic task to publish.

    ``prices`` must contain one positive integer unit payment per
    repetition; the platform enforces the total against the requester's
    remaining budget if one was configured.
    """

    task_type: TaskType
    prices: Sequence[int]
    payload: Any = None


class CrowdPlatform:
    """Requester-facing entry point to the simulated market.

    Parameters
    ----------
    market:
        Pricing environment (used by the aggregate engine).
    engine:
        ``"aggregate"`` (default — the paper's model sampled exactly)
        or ``"agent"`` (explicit worker stream; requires *pool*).
        Latency-only replication batches of the aggregate model go
        through :func:`repro.perf.batch.sample_makespans`.
    pool:
        Worker pool for the agent engine.
    budget:
        Optional hard budget in payment units; publishing beyond it
        raises.  ``None`` disables enforcement.
    seed:
        Reproducibility seed for everything the platform samples.
    """

    def __init__(
        self,
        market: MarketModel,
        engine: str = "aggregate",
        pool: Optional[WorkerPool] = None,
        budget: Optional[int] = None,
        seed: RandomState = None,
    ) -> None:
        if engine not in ("aggregate", "agent"):
            raise ModelError(
                f"engine must be 'aggregate' or 'agent', got {engine!r}"
            )
        if engine == "agent" and pool is None:
            raise ModelError("the agent engine requires a WorkerPool")
        if budget is not None and (int(budget) != budget or budget < 0):
            raise ModelError(f"budget must be a non-negative integer, got {budget}")
        self.market = market
        self.engine_name = engine
        self._rng = ensure_rng(seed)
        self._pool = pool
        self.budget = None if budget is None else int(budget)
        self.spent = 0
        self._next_atomic_id = 0
        if engine == "aggregate":
            self._engine: Any = AggregateSimulator(market, seed=self._rng)
        else:
            self._engine = AgentSimulator(pool, seed=self._rng)

    # -- budget accounting -------------------------------------------

    @property
    def remaining_budget(self) -> Optional[int]:
        if self.budget is None:
            return None
        return self.budget - self.spent

    def _charge(self, amount: int) -> None:
        if self.budget is not None and self.spent + amount > self.budget:
            raise SimulationError(
                f"publishing would spend {self.spent + amount} of a "
                f"{self.budget}-unit budget"
            )
        self.spent += amount

    # -- publishing ---------------------------------------------------

    def _to_order(self, request: PublishRequest) -> AtomicTaskOrder:
        atomic_id = self._next_atomic_id
        self._next_atomic_id += 1
        return AtomicTaskOrder(
            task_type=request.task_type,
            prices=tuple(int(p) for p in request.prices),
            atomic_task_id=atomic_id,
            payload=request.payload,
        )

    def run_batch(
        self,
        requests: Sequence[PublishRequest],
        recorder: Optional[TraceRecorder] = None,
    ) -> JobResult:
        """Publish all *requests* simultaneously and run to completion.

        Returns the engine's :class:`JobResult`; its ``answers`` dict is
        keyed by the order the requests were given (atomic task ids are
        assigned sequentially).
        """
        if not requests:
            raise SimulationError("run_batch needs at least one request")
        orders = [self._to_order(r) for r in requests]
        cost = sum(sum(o.prices) for o in orders)
        self._charge(cost)
        return self._engine.run_job(orders, recorder=recorder)

    def run_replications(
        self,
        requests: Sequence[PublishRequest],
        n_replications: Optional[int] = None,
        *,
        seeds=None,
        recorders=None,
        engine=None,
    ) -> list[JobResult]:
        """Run one batch of *requests* as R independent replications.

        A measurement fan-out, not R separate purchases: the batch is
        published once (one set of atomic task ids, one budget charge)
        and simulated in R independent worlds — the shape of every
        replication study (latency CIs, engine-agreement checks, the
        figure harnesses).  ``seeds``/``recorders``/``engine`` are the
        :meth:`AgentSimulator.run_replications
        <repro.market.simulator.AgentSimulator.run_replications>`
        parameters: agent-market replications advance in lock-step
        whenever :mod:`repro.perf.market` can drive the pool, and
        every engine name returns replication-for-replication
        identical results.
        """
        if not requests:
            raise SimulationError("run_replications needs at least one request")
        orders = [self._to_order(r) for r in requests]
        cost = sum(sum(o.prices) for o in orders)
        self._charge(cost)
        return self._engine.run_replications(
            orders,
            n_replications,
            seeds=seeds,
            recorders=recorders,
            engine=engine,
        )

    # -- convenience --------------------------------------------------

    @classmethod
    def with_linear_market(
        cls,
        slope: float,
        intercept: float,
        engine: str = "aggregate",
        arrival_rate: float | None = None,
        budget: Optional[int] = None,
        seed: RandomState = None,
    ) -> "CrowdPlatform":
        """Build a platform over a single linear pricing curve.

        For the agent engine, *arrival_rate* sets the Poisson worker
        stream rate Λ.
        """
        from .pricing import LinearPricing

        market = MarketModel(LinearPricing(slope=slope, intercept=intercept))
        pool = None
        if engine == "agent":
            if arrival_rate is None:
                raise ModelError("agent engine needs arrival_rate")
            pool = WorkerPool(arrival_rate=arrival_rate)
        return cls(market, engine=engine, pool=pool, budget=budget, seed=seed)
