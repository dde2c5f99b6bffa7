"""Unit tests for repro.experiments.pareto."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError
from repro.experiments import (
    BudgetLatencyFrontier,
    DeadlineCostFrontier,
    DeadlineFrontierPoint,
    FrontierPoint,
    budget_latency_frontier,
    deadline_cost_frontier,
    min_budget_for_latency,
)
from repro.perf.reference import reference_min_cost_for_deadline
from repro.workloads import ProblemFamily, homogeneity_family, repetition_family


@pytest.fixture
def factory():
    return homogeneity_family(n_tasks=10, repetitions=2)


class TestBudgetLatencyFrontier:
    def test_monotone_decreasing(self, factory):
        frontier = budget_latency_frontier(factory, budgets=[40, 80, 160, 320])
        assert frontier.is_monotone()

    def test_budgets_sorted(self, factory):
        frontier = budget_latency_frontier(factory, budgets=[320, 40, 160])
        assert frontier.budgets == (40, 160, 320)

    def test_points_carry_strategy(self, factory):
        frontier = budget_latency_frontier(factory, budgets=[40])
        assert frontier.points[0].strategy == "ea"

    def test_knee_is_a_frontier_point(self, factory):
        frontier = budget_latency_frontier(
            factory, budgets=[20, 40, 80, 160, 320, 640]
        )
        knee = frontier.knee()
        assert knee in frontier.points
        # The knee is never the most expensive point on a convex
        # diminishing-returns curve.
        assert knee.budget < frontier.budgets[-1]

    def test_knee_short_curve(self, factory):
        frontier = budget_latency_frontier(factory, budgets=[40, 80])
        assert frontier.knee() == frontier.points[-1]

    def test_empty_budgets_rejected(self, factory):
        with pytest.raises(ModelError):
            budget_latency_frontier(factory, budgets=[])


class TestKneeRule:
    """Both frontier types pick their knee with one chord rule: the
    point furthest below the chord between the endpoints."""

    # Normalized, the chord minus the curve is (0, 1/12, 7/18, 7/36, 0):
    # the knee is index 2, where the steep drop ends.
    XS = (1.0, 2.0, 3.0, 4.0, 5.0)
    YS = (1000, 700, 200, 150, 100)
    KNEE = 2

    def test_budget_frontier_knee_index(self):
        frontier = BudgetLatencyFrontier(
            points=tuple(
                FrontierPoint(budget=int(100 * x), latency=y / 100, strategy="ra")
                for x, y in zip(self.XS, self.YS)
            )
        )
        assert frontier.knee() is frontier.points[self.KNEE]

    def test_deadline_frontier_knee_index_on_feasible_region(self):
        # An infeasible tight deadline in front (floor cost, not a
        # price) must not move the knee of the feasible curve.
        infeasible = DeadlineFrontierPoint(
            deadline=0.5, cost=10, achieved_probability=0.1, feasible=False
        )
        feasible = tuple(
            DeadlineFrontierPoint(
                deadline=x, cost=y, achieved_probability=0.95, feasible=True
            )
            for x, y in zip(self.XS, self.YS)
        )
        frontier = DeadlineCostFrontier(
            points=(infeasible,) + feasible, confidence=0.9
        )
        assert frontier.knee() is feasible[self.KNEE]

    def test_short_curves_end_at_the_last_point(self):
        points = tuple(
            FrontierPoint(budget=b, latency=1.0 / b, strategy="ra")
            for b in (1, 2)
        )
        assert BudgetLatencyFrontier(points=points).knee() is points[-1]
        lone = DeadlineFrontierPoint(
            deadline=1.0, cost=5, achieved_probability=0.2, feasible=False
        )
        assert DeadlineCostFrontier(points=(lone,), confidence=0.9).knee() is lone


class TestDeadlineCostFrontier:
    """The dual sweep: cheapest spend per deadline."""

    @pytest.fixture
    def family(self):
        return repetition_family(n_tasks=12)

    def test_feasible_region_monotone(self, family):
        frontier = deadline_cost_frontier(
            family, np.linspace(2.0, 12.0, 6), confidence=0.9, max_price=25
        )
        assert frontier.is_monotone()
        assert frontier.deadlines == tuple(
            sorted(frontier.deadlines)
        )

    def test_comparators_produce_identical_curves(self, family):
        deadlines = [2.5, 4.0, 7.0, 10.0]
        oracle = [
            reference_min_cost_for_deadline(
                family.tasks, deadline, confidence=0.85, max_price=20
            )
            for deadline in deadlines
        ]
        for comparator in (None, "batched", "reference"):
            frontier = deadline_cost_frontier(
                family,
                deadlines,
                confidence=0.85,
                max_price=20,
                comparator=comparator,
            )
            assert frontier.deadlines == tuple(deadlines)
            assert frontier.costs == tuple(r.cost for r in oracle)
            assert [p.achieved_probability for p in frontier.points] == [
                r.achieved_probability for r in oracle
            ]
            assert [p.feasible for p in frontier.points] == [
                r.feasible for r in oracle
            ]
            assert [p.group_prices for p in frontier.points] == [
                r.group_prices for r in oracle
            ]

    def test_task_list_workload_equals_family(self, family):
        """A bare task list is wrapped as ``ProblemFamily(tasks)``;
        the wrapped list prices exactly like the family it came from."""
        deadlines = [3.0, 6.0]
        via_family = deadline_cost_frontier(
            family, deadlines, confidence=0.8, max_price=15
        )
        via_tasks = deadline_cost_frontier(
            ProblemFamily(list(family.tasks)),
            deadlines,
            confidence=0.8,
            max_price=15,
        )
        assert via_family.costs == via_tasks.costs
        with pytest.raises(ModelError, match=r"ProblemFamily\(tasks\)"):
            deadline_cost_frontier(
                list(family.tasks), deadlines, confidence=0.8, max_price=15
            )

    def test_unsorted_deadlines_are_sorted(self, family):
        frontier = deadline_cost_frontier(
            family, [8.0, 2.0, 5.0], confidence=0.8, max_price=15
        )
        assert frontier.deadlines == (2.0, 5.0, 8.0)

    def test_points_carry_prices_and_feasibility(self, family):
        frontier = deadline_cost_frontier(
            family, [6.0], confidence=0.8, max_price=25
        )
        point = frontier.points[0]
        assert point.group_prices is not None
        assert point.feasible == (
            point.achieved_probability >= frontier.confidence
        )

    def test_knee_and_cheapest_feasible(self, family):
        frontier = deadline_cost_frontier(
            family, np.linspace(2.0, 14.0, 8), confidence=0.9, max_price=25
        )
        cheapest = frontier.cheapest_feasible()
        if cheapest is not None:
            assert cheapest.feasible
            assert cheapest.deadline == min(
                p.deadline for p in frontier.feasible_points()
            )
        assert frontier.knee() in frontier.points

    def test_empty_deadlines_rejected(self, family):
        with pytest.raises(ModelError):
            deadline_cost_frontier(family, [])

    def test_unknown_comparator_rejected(self, family):
        with pytest.raises(ModelError):
            deadline_cost_frontier(family, [2.0], comparator="bogus")

    def test_sweep_rejects_duplicate_confidence_labels(self, family):
        from repro.api import DeadlineFrontierSpec, Session
        from repro.experiments import run_deadline_sweep

        with pytest.raises(ModelError):
            run_deadline_sweep(
                family, [3.0], confidences=(0.9, 0.9), max_price=10
            )
        # Empty confidences are rejected with the library error even
        # when the deadline grid is auto-generated.
        with pytest.raises(ModelError):
            Session().run(
                DeadlineFrontierSpec(
                    n_tasks=6, n_deadlines=3, confidences=(), max_price=8
                )
            )


class TestMinBudgetForLatency:
    def test_finds_threshold(self, factory):
        frontier = budget_latency_frontier(factory, budgets=[40, 80, 160, 320])
        target = frontier.latencies[2]  # achievable at budget 160
        budget = min_budget_for_latency(
            factory, target_latency=target, budget_lo=20, budget_hi=320
        )
        assert budget is not None
        assert budget <= 160
        # One unit less must miss the target (minimality up to search
        # granularity).
        if budget > 20:
            from repro import Tuner
            from repro.core import expected_job_latency

            problem = factory.problem_at(budget - 1)
            allocation = Tuner(seed=0).tune(problem)
            assert expected_job_latency(problem, allocation) > target

    def test_unreachable_target(self, factory):
        budget = min_budget_for_latency(
            factory, target_latency=1e-6, budget_lo=20, budget_hi=100
        )
        assert budget is None

    def test_infeasible_midpoint_counts_as_a_miss(self, factory):
        # Budgets below the one-unit floor raise
        # InfeasibleAllocationError; the search steps past them.
        floor = 20  # 10 tasks x 2 repetitions at one unit each
        target = budget_latency_frontier(factory, budgets=[floor]).latencies[0]
        budget = min_budget_for_latency(
            factory, target_latency=target, budget_lo=1, budget_hi=320
        )
        assert budget == floor

    def test_other_midpoint_errors_propagate(self, factory):
        """Only an infeasible budget is a miss: any other failure at a
        midpoint (a bug, a fired fault) surfaces instead of silently
        moving the answer."""

        class Flaky(ProblemFamily):
            def problem_at(self, budget):
                if budget == (20 + 320) // 2:
                    raise ModelError("midpoint failure")
                return super().problem_at(budget)

        flaky = Flaky(factory.tasks)
        with pytest.raises(ModelError, match="midpoint failure"):
            min_budget_for_latency(
                flaky, target_latency=1e3, budget_lo=20, budget_hi=320
            )

    def test_validation(self, factory):
        with pytest.raises(ModelError):
            min_budget_for_latency(factory, 0.0, 10, 20)
        with pytest.raises(ModelError):
            min_budget_for_latency(factory, 1.0, 30, 20)
