"""Unit tests for repro.market.platform."""

from __future__ import annotations

import pytest

from repro.errors import ModelError, SimulationError
from repro.market import (
    CrowdPlatform,
    LinearPricing,
    MarketModel,
    PublishRequest,
    TaskType,
    WorkerPool,
)


@pytest.fixture
def vote_type():
    return TaskType("vote", processing_rate=2.0)


@pytest.fixture
def platform():
    return CrowdPlatform(MarketModel(LinearPricing(1.0, 1.0)), seed=0)


class TestConstruction:
    def test_bad_engine_name(self):
        with pytest.raises(ModelError):
            CrowdPlatform(MarketModel(LinearPricing(1.0, 1.0)), engine="quantum")

    def test_batch_engine_rejected(self):
        with pytest.raises(ModelError, match="'aggregate'"):
            CrowdPlatform(MarketModel(LinearPricing(1.0, 1.0)), engine="batch")

    def test_agent_engine_requires_pool(self):
        with pytest.raises(ModelError):
            CrowdPlatform(MarketModel(LinearPricing(1.0, 1.0)), engine="agent")

    def test_agent_engine_with_pool(self, vote_type):
        platform = CrowdPlatform(
            MarketModel(LinearPricing(1.0, 1.0)),
            engine="agent",
            pool=WorkerPool(arrival_rate=10.0),
            seed=0,
        )
        result = platform.run_batch(
            [PublishRequest(task_type=vote_type, prices=[2])]
        )
        assert result.makespan > 0

    def test_rejects_bad_budget(self):
        with pytest.raises(ModelError):
            CrowdPlatform(MarketModel(LinearPricing(1.0, 1.0)), budget=-5)

    def test_with_linear_market_helper(self, vote_type):
        platform = CrowdPlatform.with_linear_market(1.0, 1.0, seed=0)
        result = platform.run_batch(
            [PublishRequest(task_type=vote_type, prices=[1, 2])]
        )
        assert result.total_paid == 3

    def test_with_linear_market_agent_needs_rate(self):
        with pytest.raises(ModelError):
            CrowdPlatform.with_linear_market(1.0, 1.0, engine="agent")


class TestBudgetEnforcement:
    def test_budget_tracked(self, vote_type):
        platform = CrowdPlatform(
            MarketModel(LinearPricing(1.0, 1.0)), budget=10, seed=0
        )
        platform.run_batch([PublishRequest(task_type=vote_type, prices=[3, 3])])
        assert platform.spent == 6
        assert platform.remaining_budget == 4

    def test_overspend_rejected(self, vote_type):
        platform = CrowdPlatform(
            MarketModel(LinearPricing(1.0, 1.0)), budget=5, seed=0
        )
        with pytest.raises(SimulationError):
            platform.run_batch(
                [PublishRequest(task_type=vote_type, prices=[3, 3])]
            )

    def test_no_budget_means_unlimited(self, platform, vote_type):
        assert platform.remaining_budget is None
        platform.run_batch(
            [PublishRequest(task_type=vote_type, prices=[100])]
        )


class TestRunBatch:
    def test_empty_batch_rejected(self, platform):
        with pytest.raises(SimulationError):
            platform.run_batch([])

    def test_atomic_ids_sequential_across_batches(self, platform, vote_type):
        r1 = platform.run_batch(
            [PublishRequest(task_type=vote_type, prices=[1])] * 2
        )
        r2 = platform.run_batch(
            [PublishRequest(task_type=vote_type, prices=[1])]
        )
        assert sorted(r1.answers) == [0, 1]
        assert sorted(r2.answers) == [2]

    def test_answers_lists_have_one_entry_per_repetition(
        self, platform, vote_type
    ):
        result = platform.run_batch(
            [PublishRequest(task_type=vote_type, prices=[1, 1, 1])]
        )
        (answers,) = result.answers.values()
        assert len(answers) == 3
