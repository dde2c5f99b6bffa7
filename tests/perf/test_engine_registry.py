"""Unit tests for repro.perf.engine: registry, sampling, replication routing."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Allocation
from repro.core.latency import sample_job_latencies
from repro.errors import ModelError, SimulationError
from repro.market import AgentSimulator, TaskType, TraceRecorder, WorkerPool
from repro.market.dynamics import ConstantRate, NonstationaryWorkerPool
from repro.market.simulator import AtomicTaskOrder
from repro.market.worker import PriceProportionalChoice, SoftmaxChoice
from repro.perf import (
    EvaluationEngine,
    available_engines,
    get_engine,
    register_engine,
    sample_job_latencies_batch,
)
from repro.perf import batch, market
from repro.perf.engine import _REGISTRY
from repro.perf.reference import (
    reference_agent_run_job,
    reference_sample_job_latencies,
)
from repro.stats.rng import ensure_rng
from repro.workloads import repetition_workload

ENGINE_NAMES = ["scalar", "batch", "chunked-batch", "agent-batch"]


@pytest.fixture
def problem():
    return repetition_workload(budget=300, n_tasks=12)


@pytest.fixture
def allocation(problem):
    return Allocation.uniform(problem, 2)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(ENGINE_NAMES) <= set(available_engines())

    def test_get_engine_by_name(self):
        for name in ENGINE_NAMES:
            engine = get_engine(name)
            assert type(engine) is EvaluationEngine
            assert engine.name == name

    def test_get_engine_passthrough(self):
        engine = EvaluationEngine("unregistered")
        assert get_engine(engine) is engine

    def test_none_resolves_to_default(self):
        assert get_engine(None).name == "scalar"

    def test_unknown_name_raises(self):
        with pytest.raises(ModelError):
            get_engine("vibes")

    def test_register_requires_name_and_rejects_duplicates(self):
        with pytest.raises(ModelError):
            register_engine(EvaluationEngine(""))
        with pytest.raises(ModelError):
            register_engine(EvaluationEngine("scalar"))  # already bound

    def test_register_replace(self):
        custom = EvaluationEngine("chunked-batch")
        original = _REGISTRY["chunked-batch"]
        try:
            register_engine(custom, replace=True)
            assert get_engine("chunked-batch") is custom
        finally:
            register_engine(original, replace=True)


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_bit_identical_across_engines(self, problem, allocation, name):
        ref = reference_sample_job_latencies(
            problem, allocation, 400, rng=np.random.default_rng(11)
        )
        out = get_engine(name).sample(
            problem, allocation, 400, rng=np.random.default_rng(11)
        )
        assert np.array_equal(ref, out)

    def test_engine_object_accepted_by_sample_job_latencies(
        self, problem, allocation
    ):
        ref = reference_sample_job_latencies(
            problem, allocation, 100, rng=np.random.default_rng(2)
        )
        out = sample_job_latencies(
            problem,
            allocation,
            100,
            rng=np.random.default_rng(2),
            engine=EvaluationEngine("unregistered"),
        )
        assert np.array_equal(ref, out)


class TestBlockBoundaries:
    """The sampler draws the phase matrix in row blocks; every block
    size, from one row to the whole matrix, must reproduce the seed's
    task-by-task stream (tasks straddle block edges)."""

    @staticmethod
    def _sample_with_block_rows(problem, allocation, n_samples, seed,
                                block_rows, include_processing=True):
        with mock.patch.object(
            batch, "_BLOCK_DOUBLES", block_rows * n_samples
        ):
            return sample_job_latencies_batch(
                problem, allocation, n_samples,
                rng=np.random.default_rng(seed),
                include_processing=include_processing,
            )

    @settings(max_examples=40, deadline=None)
    @given(
        block_rows=st.integers(min_value=1, max_value=90),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_samples=st.integers(min_value=1, max_value=64),
        include_processing=st.booleans(),
    )
    def test_bit_identical_to_reference_for_every_block_size(
        self, block_rows, seed, n_samples, include_processing
    ):
        # 8 tasks of 3 or 5 repetitions: 32 phase rows without
        # processing, 64 with, so block sizes up to 90 cover one row,
        # edges inside tasks, and blocks wider than the matrix.
        problem = repetition_workload(budget=200, n_tasks=8)
        allocation = Allocation.uniform(problem, 2)
        ref = reference_sample_job_latencies(
            problem, allocation, n_samples,
            rng=np.random.default_rng(seed),
            include_processing=include_processing,
        )
        out = self._sample_with_block_rows(
            problem, allocation, n_samples, seed, block_rows,
            include_processing,
        )
        assert np.array_equal(ref, out)

    def test_one_row_blocks_identical(self, problem, allocation):
        ref = reference_sample_job_latencies(
            problem, allocation, 50, rng=np.random.default_rng(0)
        )
        out = self._sample_with_block_rows(problem, allocation, 50, 0, 1)
        assert np.array_equal(ref, out)

    def test_block_rows_floor_at_one(self, problem, allocation):
        # Fewer doubles per block than samples still draws one row.
        ref = reference_sample_job_latencies(
            problem, allocation, 50, rng=np.random.default_rng(4)
        )
        with mock.patch.object(batch, "_BLOCK_DOUBLES", 10):
            out = sample_job_latencies_batch(
                problem, allocation, 50, rng=np.random.default_rng(4)
            )
        assert np.array_equal(ref, out)


class TestChunkedMakespans:
    def test_chunk_samples_bit_identical(self):
        from repro.market import LinearPricing, MarketModel
        from repro.perf import BatchAggregateSimulator

        market_model = MarketModel(LinearPricing(slope=1.0, intercept=1.0))
        task_type = TaskType("t", processing_rate=2.0)
        orders = [
            AtomicTaskOrder(task_type, (2,) * (1 + i % 3), i) for i in range(6)
        ]
        ref = BatchAggregateSimulator(
            market_model, seed=3
        ).sample_makespans(orders, 200)
        for chunk in (1, 7, 50, 199, 200, 500):
            out = BatchAggregateSimulator(
                market_model, seed=3
            ).sample_makespans(orders, 200, chunk_samples=chunk)
            assert np.array_equal(ref, out), chunk


def _orders(n_tasks=6):
    task_type = TaskType("t", processing_rate=2.0)
    return [
        AtomicTaskOrder(task_type, tuple(1 + (i + k) % 3 for k in range(2)), i)
        for i in range(n_tasks)
    ]


def _outcome(result):
    return (
        result.makespan,
        result.per_atomic_completion,
        result.total_paid,
        result.answers,
        [
            (r.atomic_task_id, r.repetition_index, r.price,
             r.published_at, r.accepted_at, r.completed_at)
            for r in result.trace.records
        ],
    )


def _reference(pool, orders, seeds):
    sim = AgentSimulator(pool, seed=99)
    return [
        _outcome(
            reference_agent_run_job(
                sim, orders, recorder=TraceRecorder(), rng=ensure_rng(seed)
            )
        )
        for seed in seeds
    ]


@pytest.fixture
def spies(monkeypatch):
    """Count calls into the lock-step kernel and the sequential loop."""
    calls = {"lockstep": 0, "sequential": 0}

    def spy(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        market, "batch_agent_run_replications",
        spy("lockstep", market.batch_agent_run_replications),
    )
    monkeypatch.setattr(
        market, "sequential_run_replications",
        spy("sequential", market.sequential_run_replications),
    )
    return calls


class TestReplicationRouting:
    """The simulator, not the engine name, picks lock-step replication."""

    seeds = [0, 1, 2]

    def test_default_engine_runs_lockstep_kernel(self, spies):
        orders = _orders()
        sim = AgentSimulator(WorkerPool(5.0), seed=99)
        results = sim.run_replications(orders, seeds=self.seeds)
        assert spies == {"lockstep": 1, "sequential": 0}
        assert [_outcome(r) for r in results] == _reference(
            WorkerPool(5.0), orders, self.seeds
        )

    @pytest.mark.parametrize(
        "make_pool",
        [
            lambda: WorkerPool(
                5.0, choice_model=type("Custom", (SoftmaxChoice,), {})()
            ),
            lambda: NonstationaryWorkerPool(ConstantRate(5.0)),
        ],
        ids=["custom-choice-model", "nonstationary-pool"],
    )
    def test_unsupported_pool_runs_sequential_path(self, spies, make_pool):
        orders = _orders()
        sim = AgentSimulator(make_pool(), seed=99)
        results = sim.run_replications(orders, seeds=self.seeds)
        assert spies == {"lockstep": 0, "sequential": 1}
        assert [_outcome(r) for r in results] == _reference(
            make_pool(), orders, self.seeds
        )

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_every_name_matches_reference(self, name):
        orders = _orders(8)
        pool = WorkerPool(4.0, choice_model=PriceProportionalChoice(leave_weight=1.5))
        sim = AgentSimulator(pool, seed=99)
        results = sim.run_replications(orders, seeds=self.seeds, engine=name)
        assert [_outcome(r) for r in results] == _reference(
            WorkerPool(4.0, choice_model=PriceProportionalChoice(leave_weight=1.5)),
            orders,
            self.seeds,
        )

    def test_kernel_rejects_inputs_it_cannot_drive(self):
        sim = AgentSimulator(
            NonstationaryWorkerPool(ConstantRate(5.0)), seed=99
        )
        with pytest.raises(SimulationError, match="lock-step"):
            market.batch_agent_run_replications(sim, _orders(), self.seeds)
