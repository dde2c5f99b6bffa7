"""Unit tests for repro.experiments.runner."""

from __future__ import annotations

import pytest

from repro.errors import ModelError
from repro.experiments import evaluate_allocation, run_budget_sweep
from repro.workloads import homogeneity_family


@pytest.fixture
def factory():
    return homogeneity_family(n_tasks=10, repetitions=2)


class TestEvaluateAllocation:
    def test_mc_and_numeric_agree(self, factory):
        from repro.core import even_allocation

        problem = factory.problem_at(100)
        alloc = even_allocation(problem, rng=0)
        mc = evaluate_allocation(
            problem, alloc, scoring="mc", n_samples=40000, rng=0
        )
        numeric = evaluate_allocation(problem, alloc, scoring="numeric")
        assert mc == pytest.approx(numeric, rel=0.03)

    def test_unknown_scoring(self, factory):
        from repro.core import even_allocation

        problem = factory.problem_at(100)
        alloc = even_allocation(problem, rng=0)
        with pytest.raises(ModelError):
            evaluate_allocation(problem, alloc, scoring="vibes")


class TestRunBudgetSweep:
    def test_structure(self, factory):
        result = run_budget_sweep(
            factory, budgets=[40, 80], strategies=["ea", "bias_1"],
            scoring="numeric",
        )
        assert result.budgets == (40, 80)
        assert set(result.series) == {"ea", "bias_1"}
        assert all(len(v) == 2 for v in result.series.values())

    def test_unknown_strategy(self, factory):
        with pytest.raises(ModelError):
            run_budget_sweep(factory, [40], ["teleport"])

    def test_empty_budgets(self, factory):
        with pytest.raises(ModelError):
            run_budget_sweep(factory, [], ["ea"])

    def test_reproducible(self, factory):
        kwargs = dict(
            budgets=[40, 80], strategies=["ea"], scoring="mc",
            n_samples=200, seed=5,
        )
        a = run_budget_sweep(factory, **kwargs)
        b = run_budget_sweep(factory, **kwargs)
        assert a.series == b.series

    def test_dominates_helper(self, factory):
        result = run_budget_sweep(
            factory, budgets=[40, 80], strategies=["ea", "bias_2"],
            scoring="numeric",
        )
        assert result.dominates("ea", "bias_2", slack=1e-9)

    def test_best_strategy_at(self, factory):
        result = run_budget_sweep(
            factory, budgets=[40], strategies=["ea", "bias_2"],
            scoring="numeric",
        )
        assert result.best_strategy_at(40) == "ea"

    def test_as_rows(self, factory):
        result = run_budget_sweep(
            factory, budgets=[40], strategies=["ea"], scoring="numeric"
        )
        rows = result.as_rows()
        assert len(rows) == 1
        assert rows[0][0] == 40
