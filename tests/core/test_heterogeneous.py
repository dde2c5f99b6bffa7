"""Unit tests for repro.core.heterogeneous (Algorithm 3, HA)."""

from __future__ import annotations

import pytest

from repro import HTuningProblem, InfeasibleAllocationError, TaskSpec
from repro.core import (
    closeness,
    exhaustive_group_search,
    heterogeneous_algorithm,
    objective_o1,
    objective_o2,
    utopia_point,
)
from repro.core.heterogeneous import HAResult
from repro.market import LinearPricing


@pytest.fixture
def pricing():
    return LinearPricing(1.0, 1.0)


def heter(budget, spec):
    """spec: ((reps, count, proc_rate, slope, intercept), ...)."""
    tasks = []
    tid = 0
    for gi, (reps, count, proc, slope, intercept) in enumerate(spec):
        model = LinearPricing(slope, intercept)
        for _ in range(count):
            tasks.append(
                TaskSpec(tid, reps, model, proc, type_name=f"g{gi}")
            )
            tid += 1
    return HTuningProblem(tasks, budget)


class TestHeterogeneousAlgorithm:
    def test_valid_allocation(self, heter_problem):
        alloc = heterogeneous_algorithm(heter_problem)
        heter_problem.validate_allocation(alloc)

    def test_uniform_group_prices(self, heter_problem):
        alloc = heterogeneous_algorithm(heter_problem)
        for group in heter_problem.groups():
            assert alloc.uniform_group_price(group) is not None

    def test_details_object(self, heter_problem):
        result = heterogeneous_algorithm(heter_problem, return_details=True)
        assert isinstance(result, HAResult)
        assert result.closeness >= 0.0
        assert result.achieved.o1 >= result.utopia.o1 - 1e-9
        assert result.achieved.o2 >= result.utopia.o2 - 1e-9
        assert "closeness" in repr(result)

    def test_infeasible_budget(self, pricing):
        with pytest.raises(InfeasibleAllocationError):
            heter(1, (((2, 1, 2.0, 1.0, 1.0)),))

    def test_works_on_homogeneous_instance(self, homo_problem):
        # HA degrades gracefully on Scenario I instances.
        alloc = heterogeneous_algorithm(homo_problem)
        homo_problem.validate_allocation(alloc)

    @pytest.mark.parametrize("budget", [12, 20, 31, 45, 60])
    def test_near_exhaustive_closeness(self, budget):
        """HA's compromise must match the exhaustive minimizer of CL
        on small instances (the DP explores increments of +1 only, so
        exact equality is expected under convex group latencies)."""
        problem = heter(
            budget,
            (
                (2, 2, 2.0, 1.0, 1.0),
                (3, 1, 0.5, 2.0, 1.0),
            ),
        )
        utopia = utopia_point(problem)
        result = heterogeneous_algorithm(problem, return_details=True)
        best_prices, best_cl = exhaustive_group_search(
            problem, lambda p, gp: closeness(p, gp, utopia)
        )
        assert result.closeness == pytest.approx(best_cl, rel=1e-6, abs=1e-9)

    def test_penalizes_most_difficult_group(self):
        """The O2 term must steer budget toward the slow-processing
        group relative to a pure O1 optimization."""
        problem = heter(
            200,
            (
                (2, 4, 10.0, 1.0, 1.0),   # fast processing
                (2, 4, 0.05, 1.0, 1.0),   # very slow processing (difficult)
            ),
        )
        result = heterogeneous_algorithm(problem, return_details=True)
        groups = problem.groups()
        slow = next(g for g in groups if g.processing_rate == 0.05)
        fast = next(g for g in groups if g.processing_rate == 10.0)
        # The difficult group's price must be at least the fast group's.
        assert result.group_prices[slow.key] >= result.group_prices[fast.key]

    def test_spends_budget_when_useful(self, heter_problem):
        result = heterogeneous_algorithm(heter_problem, return_details=True)
        spend = sum(
            result.group_prices[g.key] * g.unit_cost
            for g in heter_problem.groups()
        )
        # With strictly decreasing group latencies the DP should leave
        # less than one cheapest increment unspent.
        min_unit = min(g.unit_cost for g in heter_problem.groups())
        assert heter_problem.budget - spend < min_unit

    def test_more_budget_never_hurts_closeness_objectives(self):
        o1s, o2s = [], []
        for budget in (30, 50, 80, 120):
            problem = heter(
                budget,
                ((2, 2, 2.0, 1.0, 1.0), (3, 2, 1.0, 1.0, 1.0)),
            )
            result = heterogeneous_algorithm(problem, return_details=True)
            o1s.append(result.achieved.o1)
            o2s.append(result.achieved.o2)
        assert all(a >= b - 1e-9 for a, b in zip(o1s, o1s[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(o2s, o2s[1:]))


class TestPhaseOneTablesBuiltOnce:
    """HA's utopia point (O1 DP) and closeness scan read one set of
    dense phase-1 tables: one ``group_cost_table`` build per group."""

    @pytest.mark.parametrize("return_details", [False, True])
    def test_one_table_per_group_per_call(self, monkeypatch, return_details):
        from repro.perf import dp
        from repro.workloads import heterogeneous_family

        built = []
        original = dp.group_cost_table

        def counting(group, max_price, group_cost_fn):
            built.append(group.key)
            return original(group, max_price, group_cost_fn)

        monkeypatch.setattr(dp, "group_cost_table", counting)
        problem = heterogeneous_family(n_tasks=8).problem_at(500)
        groups = problem.groups()
        assert len(groups) == 2
        for _ in range(3):
            built.clear()
            heterogeneous_algorithm(problem, return_details=return_details)
            assert sorted(built) == sorted(g.key for g in groups)
