"""Bit-identity of the batched deadline kernels vs the seed oracle.

The contract: :func:`repro.core.deadline.min_cost_for_deadline`,
``latency_quantile`` and ``completion_probability`` route through
:mod:`repro.perf.deadline` (memoized per-(group, price) terms over the
shared weight ladders) but must return results **bit-identical** to
the seed scalar comparator preserved in :mod:`repro.perf.reference`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import HTuningProblem, TaskSpec
from repro.core import (
    completion_probability,
    latency_quantile,
    min_cost_for_deadline,
    min_cost_for_deadline_sweep,
)
from repro.errors import ModelError
from repro.market import LinearPricing
from repro.perf import clear_phase_caches
from repro.perf.deadline import (
    DeadlineKernel,
    available_deadline_comparators,
    get_deadline_comparator,
    register_deadline_comparator,
)
from repro.perf.reference import (
    reference_completion_probability,
    reference_latency_quantile,
    reference_min_cost_for_deadline,
)


def random_tasks(rng, max_groups=4):
    tasks, tid = [], 0
    for gi in range(int(rng.integers(1, max_groups + 1))):
        reps = int(rng.integers(1, 4))
        count = int(rng.integers(1, 4))
        proc = float(rng.uniform(0.3, 5.0))
        pricing = LinearPricing(
            float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 2.0))
        )
        for _ in range(count):
            tasks.append(
                TaskSpec(tid, reps, pricing, proc, type_name=f"g{gi}")
            )
            tid += 1
    return tasks


class TestKernelBitIdentity:
    """Property tests: random instances, exact equality with the oracle."""

    def test_min_cost_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(1234)
        for trial in range(25):
            tasks = random_tasks(rng)
            deadline = float(rng.uniform(0.4, 8.0))
            confidence = float(rng.uniform(0.5, 0.99))
            max_price = int(rng.integers(3, 40))
            include = bool(rng.integers(0, 2))
            batched = min_cost_for_deadline(
                tasks,
                deadline,
                confidence,
                max_price=max_price,
                include_processing=include,
            )
            oracle = reference_min_cost_for_deadline(
                tasks,
                deadline,
                confidence,
                max_price=max_price,
                include_processing=include,
            )
            assert batched.group_prices == oracle.group_prices, trial
            assert batched.cost == oracle.cost, trial
            assert (
                batched.achieved_probability == oracle.achieved_probability
            ), trial
            assert batched.allocation == oracle.allocation, trial

    def test_quantile_and_completion_match_oracle(self):
        rng = np.random.default_rng(99)
        for trial in range(20):
            tasks = random_tasks(rng)
            problem = HTuningProblem(tasks, budget=10**7)
            prices = {
                g.key: int(rng.integers(1, 8)) for g in problem.groups()
            }
            confidence = float(rng.uniform(0.3, 0.99))
            include = bool(rng.integers(0, 2))
            assert latency_quantile(
                problem, prices, confidence, include_processing=include
            ) == reference_latency_quantile(
                problem, prices, confidence, include_processing=include
            ), trial
            deadline = float(rng.uniform(0.1, 10.0))
            assert completion_probability(
                problem, prices, deadline, include_processing=include
            ) == reference_completion_probability(
                problem, prices, deadline, include_processing=include
            ), trial

    def test_identity_survives_cold_and_warm_caches(self):
        """Memoized ladders extended by earlier calls must not change
        later results (extension-history independence)."""
        rng = np.random.default_rng(7)
        tasks = random_tasks(rng)
        clear_phase_caches()
        cold = min_cost_for_deadline(tasks, 2.0, 0.9, max_price=25)
        # Stretch the shared ladders with unrelated wide evaluations.
        min_cost_for_deadline(tasks, 50.0, 0.9, max_price=25)
        min_cost_for_deadline(tasks, 0.2, 0.9, max_price=25)
        warm = min_cost_for_deadline(tasks, 2.0, 0.9, max_price=25)
        assert warm.group_prices == cold.group_prices
        assert warm.achieved_probability == cold.achieved_probability

    def test_sweep_matches_oracle_per_deadline(self):
        rng = np.random.default_rng(55)
        tasks = random_tasks(rng)
        deadlines = sorted(float(d) for d in rng.uniform(0.5, 9.0, 6))
        swept = min_cost_for_deadline_sweep(
            tasks, deadlines, confidence=0.85, max_price=30
        )
        for deadline in deadlines:
            oracle = reference_min_cost_for_deadline(
                tasks, deadline, 0.85, max_price=30
            )
            assert swept[deadline].group_prices == oracle.group_prices
            assert (
                swept[deadline].achieved_probability
                == oracle.achieved_probability
            )
            single = min_cost_for_deadline(
                tasks, deadline, 0.85, max_price=30
            )
            for field in dataclasses.fields(single):
                assert getattr(single, field.name) == getattr(
                    swept[deadline], field.name
                ), field.name


class TestDeadlineKernel:
    """Unit behaviour of the kernel itself."""

    @pytest.fixture
    def groups(self):
        pricing = LinearPricing(1.0, 1.0)
        tasks = [
            TaskSpec(0, 2, pricing, 2.0, type_name="a"),
            TaskSpec(1, 2, pricing, 2.0, type_name="a"),
            TaskSpec(2, 3, pricing, 1.0, type_name="b"),
        ]
        return HTuningProblem(tasks, budget=10_000).groups()

    def test_group_cdf_matches_direct_evaluation(self, groups):
        from repro.stats.phase_type import hypoexponential_cdf

        kernel = DeadlineKernel(groups, deadline=2.0)
        for gi, g in enumerate(groups):
            for price in (1, 2, 5):
                rates = [g.onhold_rate(price)] * g.repetitions
                rates += [g.processing_rate] * g.repetitions
                member = float(hypoexponential_cdf(rates, 2.0))
                expected = member**g.size if member > 0 else 0.0
                assert kernel.group_cdf(gi, price) == expected

    def test_memoization_counts(self, groups):
        kernel = DeadlineKernel(groups, deadline=2.0)
        kernel.group_cdf(0, 3)
        before = kernel.cache_stats()["group_cdf_entries"]
        kernel.group_cdf(0, 3)
        assert kernel.cache_stats()["group_cdf_entries"] == before
        assert kernel.cache_stats()["warmed_prices"][0] >= 3

    def test_completion_probability_override(self, groups):
        kernel = DeadlineKernel(groups, deadline=2.0)
        prices = np.array([3, 2])
        direct = kernel.completion_probability(np.array([2, 2]))
        via_override = kernel.completion_probability(
            prices, override=(0, 2)
        )
        assert via_override == direct

    def test_processing_ceiling_requires_processing(self, groups):
        kernel = DeadlineKernel(groups, 2.0, include_processing=False)
        with pytest.raises(ModelError):
            kernel.processing_ceiling()

    def test_validation(self, groups):
        with pytest.raises(ModelError):
            DeadlineKernel((), 1.0)
        with pytest.raises(ModelError):
            DeadlineKernel(groups, -1.0)
        with pytest.raises(ModelError):
            DeadlineKernel(groups, 1.0).group_cdf(0, 0)


class TestComparatorRegistry:
    def test_builtins_resolve(self):
        assert get_deadline_comparator(None) is min_cost_for_deadline_sweep
        assert (
            get_deadline_comparator("batched") is min_cost_for_deadline_sweep
        )
        assert (
            get_deadline_comparator("reference")
            is min_cost_for_deadline_sweep
        )
        assert {"batched", "reference"} <= set(
            available_deadline_comparators()
        )

    def test_callable_rejected(self):
        with pytest.raises(ModelError):
            get_deadline_comparator(min_cost_for_deadline_sweep)

    def test_unknown_name_rejected(self):
        with pytest.raises(ModelError):
            get_deadline_comparator("nope")

    def test_register_and_replace(self):
        def custom(problem_tasks, deadlines, confidence=0.9, max_price=1_000,
                   include_processing=True):  # pragma: no cover - never called
            raise AssertionError

        name = "test-custom-comparator"
        register_deadline_comparator(name, custom)
        try:
            assert get_deadline_comparator(name) is custom
            assert name in available_deadline_comparators()
            with pytest.raises(ModelError):
                register_deadline_comparator(name, custom)
            register_deadline_comparator(name, custom, replace=True)
            with pytest.raises(ModelError):
                register_deadline_comparator("batched", custom)
        finally:
            from repro.perf import deadline as deadline_mod

            deadline_mod._COMPARATORS.pop(name, None)


class TestQuantileWindowModes:
    """Per-point windows: batch == per-confidence evaluation, bitwise."""

    def test_batch_bitwise_equals_per_point_on_random_instances(self):
        """Property: for random instances and confidence vectors, the
        default per-point-window batch is exactly the vector of scalar
        per-confidence quantiles — not just tolerance-level close."""
        from repro.core.deadline import latency_quantile_batch

        rng = np.random.default_rng(4321)
        for trial in range(15):
            tasks = random_tasks(rng)
            problem = HTuningProblem(tasks, budget=10**7)
            prices = {
                g.key: int(rng.integers(1, 8)) for g in problem.groups()
            }
            include = bool(rng.integers(0, 2))
            confidences = sorted(
                float(c)
                for c in rng.uniform(0.05, 0.995, int(rng.integers(2, 7)))
            )
            clear_phase_caches()
            batch = latency_quantile_batch(
                problem, prices, confidences, include_processing=include
            )
            singles = np.array(
                [
                    latency_quantile(
                        problem, prices, c, include_processing=include
                    )
                    for c in confidences
                ]
            )
            assert np.array_equal(batch, singles), trial

    def test_single_confidence_unchanged_by_mode(self):
        """Length-1 vectors follow the exact scalar float path — the
        seed bit-identity contract is untouched."""
        from repro.core.deadline import latency_quantile_batch

        rng = np.random.default_rng(12)
        tasks = random_tasks(rng)
        problem = HTuningProblem(tasks, budget=10**7)
        prices = {g.key: 2 for g in problem.groups()}
        reference = reference_latency_quantile(problem, prices, 0.9)
        out = latency_quantile_batch(problem, prices, [0.9])
        assert float(out[0]) == reference
