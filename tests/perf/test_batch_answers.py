"""The batch aggregate sampler draws makespans only: orders that carry
crowd-DB answer payloads are refused, since answers are sampled by the
event-level engines."""

from __future__ import annotations

import pytest

from repro.crowddb.aggregate import PredicateQuestion
from repro.errors import SimulationError
from repro.market import LinearPricing, MarketModel, TaskType
from repro.market.simulator import AtomicTaskOrder
from repro.perf import sample_makespans


@pytest.fixture
def market():
    return MarketModel(LinearPricing(slope=1.0, intercept=1.0))


@pytest.fixture
def vote_type():
    return TaskType("vote", processing_rate=2.0, accuracy=0.9)


def _orders(vote_type, n=8):
    return [
        AtomicTaskOrder(
            task_type=vote_type,
            prices=(2,) * (1 + i % 3),
            atomic_task_id=i,
            payload=PredicateQuestion(item=i, truth=bool(i % 2)),
        )
        for i in range(n)
    ]


class TestBatchRunJob:
    def test_sample_makespans_still_rejects_payloads(self, market, vote_type):
        with pytest.raises(SimulationError):
            sample_makespans(market, _orders(vote_type), 10, rng=0)
