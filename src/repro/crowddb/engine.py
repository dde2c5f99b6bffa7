"""Crowd-query execution engine.

Ties the whole reproduction together, end to end:

1. the operator plans its atomic questions;
2. the planner builds an :class:`~repro.core.problem.HTuningProblem`;
3. the :class:`~repro.core.tuner.Tuner` allocates the budget (EA/RA/HA
   by scenario);
4. the priced tasks are published on the
   :class:`~repro.market.platform.CrowdPlatform`;
5. answers flow back into the operator's ``collect``.

This is the "crowd-powered database with primitive tuning ability"
the paper's conclusion describes.

The platform decides which market engine serves the query
(``"aggregate"`` or ``"agent"``); :class:`QueryOutcome` records which
one ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..core.problem import Allocation
from ..core.tuner import Tuner
from ..errors import PlanError
from ..market.platform import CrowdPlatform
from ..market.pricing import PricingModel
from ..market.simulator import JobResult
from .planner import CrowdQuery, PlannedQuestion

__all__ = ["QueryOutcome", "CrowdQueryEngine"]


@dataclass
class QueryOutcome:
    """Everything a requester gets back from one crowd query."""

    result: Any
    allocation: Allocation
    job: JobResult
    strategy: str
    #: Market engine that served the query ("aggregate"/"agent").
    engine: str = "aggregate"

    @property
    def latency(self) -> float:
        return self.job.latency

    @property
    def total_paid(self) -> int:
        return self.job.total_paid


class CrowdQueryEngine:
    """Executes crowd operators against a platform with tuned budgets.

    Parameters
    ----------
    platform:
        The (simulated) crowdsourcing market.
    pricing:
        ``type name -> PricingModel`` registry the tuner plans with;
        should describe the same market the platform simulates (use
        :mod:`repro.inference` to calibrate it from probes).
    tuner:
        Allocation strategy; defaults to the scenario-aware ``auto``.
    """

    def __init__(
        self,
        platform: CrowdPlatform,
        pricing: Mapping[str, PricingModel],
        tuner: Optional[Tuner] = None,
    ) -> None:
        if not pricing:
            raise PlanError("the engine needs at least one pricing model")
        self.platform = platform
        self.pricing = dict(pricing)
        self.tuner = tuner or Tuner()

    def execute(self, operator: Any, budget: int) -> QueryOutcome:
        """Run a single-phase operator (sort / filter / count).

        The operator must expose ``plan() -> list[PlannedQuestion]``
        and ``collect(answers) -> result``.
        """
        planned = operator.plan()
        outcome = self._run_phase(planned, budget)
        answers = outcome.job.answers
        result = operator.collect(answers)
        return QueryOutcome(
            result=result,
            allocation=outcome.allocation,
            job=outcome.job,
            strategy=outcome.strategy,
            engine=outcome.engine,
        )

    def execute_tournament(self, operator: Any, budget: int) -> QueryOutcome:
        """Run a multi-round operator; kept as the historic name for
        max tournaments (see :meth:`execute_rounds`)."""
        return self.execute_rounds(operator, budget)

    def execute_rounds(self, operator: Any, budget: int) -> QueryOutcome:
        """Run any multi-round operator (max tournament, top-k, ...).

        The operator must expose ``finished``, ``plan_round()``,
        ``collect_round(answers)``, and ``result``.  The remaining
        budget is split across estimated remaining rounds; each round
        is tuned and executed as one parallel batch, and round
        latencies accumulate (rounds are sequential).
        """
        total_latency = 0.0
        total_paid = 0
        last: Optional[QueryOutcome] = None
        remaining_budget = int(budget)
        while not operator.finished:
            planned = operator.plan_round()
            rounds_left = self._estimate_rounds_left(operator)
            reps_this_round = sum(q.repetitions for q in planned)
            if rounds_left <= 1:
                round_budget = remaining_budget
            else:
                # Give this round its per-repetition share, never less
                # than the feasibility floor.
                share = max(
                    reps_this_round,
                    remaining_budget // rounds_left,
                )
                round_budget = min(share, remaining_budget)
            outcome = self._run_phase(planned, round_budget)
            operator.collect_round(outcome.job.answers)
            total_latency += outcome.job.latency
            total_paid += outcome.job.total_paid
            remaining_budget -= outcome.job.total_paid
            last = outcome
        if last is None:
            raise PlanError("multi-round operator had no rounds to run")
        job = last.job
        job.makespan = total_latency
        job.total_paid = total_paid
        return QueryOutcome(
            result=operator.result,
            allocation=last.allocation,
            job=job,
            strategy=last.strategy,
            engine=last.engine,
        )

    @staticmethod
    def _estimate_rounds_left(operator: Any) -> int:
        import math

        alive = len(getattr(operator, "_alive", [])) or 2
        return max(1, math.ceil(math.log2(alive)))

    def _run_phase(
        self, planned: list[PlannedQuestion], budget: int
    ) -> QueryOutcome:
        query = CrowdQuery(planned, self.pricing, budget)
        problem = query.to_problem()
        strategy = self.tuner.resolve_strategy(problem)
        allocation = self.tuner.tune(problem)
        orders = query.to_orders(allocation)
        requests = [
            # run_batch assigns atomic ids sequentially in order, which
            # matches the question indices because orders are in plan
            # order.
            _order_to_request(o)
            for o in orders
        ]
        job = self.platform.run_batch(requests)
        # Remap platform-assigned atomic ids back to question indices.
        job.answers = _remap_sequential(job.answers)
        return QueryOutcome(
            result=None,
            allocation=allocation,
            job=job,
            strategy=strategy,
            engine=self.platform.engine_name,
        )


def _order_to_request(order):
    from ..market.platform import PublishRequest

    return PublishRequest(
        task_type=order.task_type,
        prices=order.prices,
        payload=order.payload,
    )


def _remap_sequential(answers: dict[int, list[Any]]) -> dict[int, list[Any]]:
    """Platform atomic ids are globally sequential; rebase to 0..n-1
    per batch so they line up with question indices."""
    if not answers:
        return answers
    base = min(answers)
    return {k - base: v for k, v in answers.items()}
