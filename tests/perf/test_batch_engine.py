"""Engine-equivalence tests: batch vs scalar Monte-Carlo samplers.

The batch samplers are designed to consume the RNG stream in exactly
the order their seed scalar counterparts do, so agreement is checked
seed-for-seed (bitwise) where that contract holds, and
distributionally (KS) across engines that cannot share a stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as sps

from repro import HTuningProblem, TaskSpec
from repro.core.latency import sample_job_latencies, simulate_job_latency
from repro.core.problem import Allocation
from repro.errors import ModelError, SimulationError
from repro.market import LinearPricing, MarketModel, TaskType
from repro.market.simulator import AggregateSimulator, AtomicTaskOrder
from repro.perf import BatchAggregateSimulator, sample_job_latencies_batch
from repro.perf.batch import evaluate_allocations
from repro.perf.reference import reference_sample_job_latencies


@pytest.fixture
def mixed_problem(linear_pricing):
    tasks = [
        TaskSpec(i, 1 + i % 3, linear_pricing, 1.5 + (i % 2), type_name=f"t{i % 2}")
        for i in range(8)
    ]
    return HTuningProblem(tasks, budget=200)


class TestBatchSampler:
    def test_bitwise_equal_to_scalar(self, mixed_problem):
        alloc = Allocation.uniform(mixed_problem, 2)
        scalar = reference_sample_job_latencies(
            mixed_problem, alloc, 400, rng=np.random.default_rng(7)
        )
        batch = sample_job_latencies_batch(
            mixed_problem, alloc, 400, rng=np.random.default_rng(7)
        )
        assert np.array_equal(scalar, batch)

    def test_bitwise_equal_without_processing(self, mixed_problem):
        alloc = Allocation.uniform(mixed_problem, 3)
        scalar = reference_sample_job_latencies(
            mixed_problem, alloc, 200,
            rng=np.random.default_rng(1), include_processing=False,
        )
        batch = sample_job_latencies_batch(
            mixed_problem, alloc, 200,
            rng=np.random.default_rng(1), include_processing=False,
        )
        assert np.array_equal(scalar, batch)

    def test_engine_kwarg_routes_to_batch(self, mixed_problem):
        alloc = Allocation.uniform(mixed_problem, 2)
        via_kwarg = sample_job_latencies(
            mixed_problem, alloc, 100, rng=np.random.default_rng(3),
            engine="batch",
        )
        direct = sample_job_latencies_batch(
            mixed_problem, alloc, 100, rng=np.random.default_rng(3)
        )
        assert np.array_equal(via_kwarg, direct)
        assert simulate_job_latency(
            mixed_problem, alloc, 100, rng=np.random.default_rng(3),
            engine="batch",
        ) == pytest.approx(float(direct.mean()))

    def test_unknown_engine_rejected(self, mixed_problem):
        alloc = Allocation.uniform(mixed_problem, 2)
        with pytest.raises(ModelError):
            sample_job_latencies(mixed_problem, alloc, 10, engine="gpu")

    def test_rejects_bad_sample_count(self, mixed_problem):
        alloc = Allocation.uniform(mixed_problem, 2)
        with pytest.raises(ModelError):
            sample_job_latencies_batch(mixed_problem, alloc, 0)

    def test_rejects_invalid_allocation(self, mixed_problem):
        prices = {t.task_id: [2] * t.repetitions for t in mixed_problem.tasks}
        prices[0] = [2] * (mixed_problem.tasks[0].repetitions + 1)
        with pytest.raises(ModelError):
            sample_job_latencies_batch(mixed_problem, Allocation(prices), 10)


class TestBatchAggregateSimulator:
    @pytest.fixture
    def orders(self):
        tt = TaskType("vote", processing_rate=2.0)
        return [AtomicTaskOrder(tt, (2, 3, 1), i) for i in range(5)]

    @pytest.fixture
    def market(self, linear_pricing):
        return MarketModel(linear_pricing)

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_bitwise_equal_to_scalar_run_jobs(self, market, orders, mode):
        scalar = AggregateSimulator(market, seed=11)
        ms_scalar = np.array(
            [
                scalar.run_job(orders, repetition_mode=mode).makespan
                for _ in range(60)
            ]
        )
        ms_batch = BatchAggregateSimulator(market, seed=11).sample_makespans(
            orders, 60, repetition_mode=mode
        )
        assert np.array_equal(ms_scalar, ms_batch)

    def test_distributional_agreement_ks(self, market, orders):
        # Independent seeds: the engines must agree in distribution.
        a = BatchAggregateSimulator(market, seed=1).sample_makespans(orders, 4000)
        scalar = AggregateSimulator(market, seed=2)
        b = np.array([scalar.run_job(orders).makespan for _ in range(800)])
        assert sps.ks_2samp(a, b).pvalue > 0.01

    def test_mean_latency(self, market, orders):
        sim = BatchAggregateSimulator(market, seed=0)
        mean = sim.mean_latency(orders, 500)
        assert mean > 0

    def test_rejects_answer_payloads(self, market):
        class Payload:
            def sample_answer(self, rng, accuracy):  # pragma: no cover
                return 1

        tt = TaskType("vote", processing_rate=2.0)
        orders = [AtomicTaskOrder(tt, (1,), 0, payload=Payload())]
        with pytest.raises(SimulationError):
            BatchAggregateSimulator(market, seed=0).sample_makespans(orders, 10)

    def test_rejects_empty_job_and_bad_mode(self, market, orders):
        sim = BatchAggregateSimulator(market, seed=0)
        with pytest.raises(SimulationError):
            sim.sample_makespans([], 10)
        with pytest.raises(SimulationError):
            sim.sample_makespans(orders, 10, repetition_mode="warp")


class TestEvaluateAllocations:
    def test_mc_scoring_deterministic(self, mixed_problem):
        allocs = [Allocation.uniform(mixed_problem, p) for p in (1, 2, 3)]
        a = evaluate_allocations(
            mixed_problem, allocs, scoring="mc", n_samples=500, rng=5
        )
        b = evaluate_allocations(
            mixed_problem, allocs, scoring="mc", n_samples=500, rng=5
        )
        np.testing.assert_array_equal(a, b)
        # higher price -> faster acceptance -> lower latency
        assert a[0] > a[-1]

    def test_numeric_matches_expected_job_latency(self, mixed_problem):
        from repro.core.latency import expected_job_latency

        allocs = [Allocation.uniform(mixed_problem, p) for p in (1, 2, 4)]
        batch = evaluate_allocations(mixed_problem, allocs, scoring="numeric")
        ref = [expected_job_latency(mixed_problem, a) for a in allocs]
        # Shared grid vs per-allocation grid: equal up to integration
        # error, far below the ordering margins the sweeps rely on.
        np.testing.assert_allclose(batch, ref, rtol=5e-3)

    def test_numeric_parallel_mode_matches_reference(self, mixed_problem):
        from repro.core.latency import expected_job_latency

        allocs = [Allocation.uniform(mixed_problem, p) for p in (1, 3)]
        batch = evaluate_allocations(
            mixed_problem, allocs, scoring="numeric",
            repetition_mode="parallel",
        )
        ref = [
            expected_job_latency(mixed_problem, a, repetition_mode="parallel")
            for a in allocs
        ]
        np.testing.assert_allclose(batch, ref, rtol=5e-3)

    def test_mc_rejects_parallel_mode(self, mixed_problem):
        # The MC samplers model sequential repetitions only; asking for
        # parallel must fail loudly instead of silently scoring the
        # sequential model.
        with pytest.raises(ModelError):
            evaluate_allocations(
                mixed_problem,
                [Allocation.uniform(mixed_problem, 1)],
                scoring="mc",
                repetition_mode="parallel",
            )

    def test_rejects_empty_and_unknown_scoring(self, mixed_problem):
        with pytest.raises(ModelError):
            evaluate_allocations(mixed_problem, [], scoring="mc")
        with pytest.raises(ModelError):
            evaluate_allocations(
                mixed_problem,
                [Allocation.uniform(mixed_problem, 1)],
                scoring="exact",
            )
