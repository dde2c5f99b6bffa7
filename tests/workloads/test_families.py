"""Unit tests for repro.workloads.families (ProblemFamily)."""

from __future__ import annotations

import functools

import pytest

from repro.core import STRATEGIES, Scenario
from repro.errors import InfeasibleAllocationError, ModelError
from repro.workloads import (
    ProblemFamily,
    heterogeneous_family,
    homogeneity_family,
    homogeneity_workload,
    repetition_family,
    repetition_workload,
    scenario_family,
    scenario_workload,
)


class TestProblemFamily:
    def test_problem_at_shares_specs_and_groups(self):
        family = repetition_family(n_tasks=10)
        a = family.problem_at(100)
        b = family.problem_at(200)
        assert a.tasks is b.tasks is family.tasks
        assert a.groups() is b.groups() is family.groups
        assert a.budget == 100 and b.budget == 200

    def test_matches_workload_factories(self):
        family = repetition_family(n_tasks=8)
        legacy = repetition_workload(100, n_tasks=8)
        fam = family.problem_at(100)
        assert fam.tasks == legacy.tasks
        assert [g.key for g in fam.groups()] == [
            g.key for g in legacy.groups()
        ]

    def test_infeasible_budget_raises(self):
        family = homogeneity_family(n_tasks=4, repetitions=2)
        with pytest.raises(InfeasibleAllocationError):
            family.problem_at(family.min_feasible_budget - 1)

    def test_empty_tasks_rejected(self):
        with pytest.raises(ModelError):
            ProblemFamily([])

    def test_foreign_groups_rejected(self):
        """Regression: a group partition built from a *different* task
        set (same shape, different pricing) must not be accepted."""
        from repro.core import HTuningProblem
        from repro.workloads import homogeneity_tasks

        family_a = homogeneity_family(case="a", n_tasks=4, repetitions=2)
        tasks_f = homogeneity_tasks(case="f", n_tasks=4, repetitions=2)
        with pytest.raises(ModelError):
            HTuningProblem(tasks_f, 100, groups=family_a.groups)

    def test_tuning_one_budget_does_not_mutate_other_budgets(self):
        """The sharing invariant: one budget's tuning must not leak
        into the specs/groups another budget's problem sees."""
        family = heterogeneous_family(n_tasks=10)
        before_specs = family.problem_at(200).tasks
        snapshot = [
            (t.task_id, t.repetitions, t.processing_rate, t.type_name)
            for t in before_specs
        ]
        group_snapshot = [
            (g.key, g.size, g.unit_cost) for g in family.groups
        ]
        # Tune several budgets through every registered strategy.
        import numpy as np

        for budget in (150, 300, 450):
            problem = family.problem_at(budget)
            for name in ("ha", "ra", "te", "re", "uniform"):
                STRATEGIES[name](problem, np.random.default_rng(0))
        after = family.problem_at(200)
        assert after.tasks is before_specs
        assert [
            (t.task_id, t.repetitions, t.processing_rate, t.type_name)
            for t in after.tasks
        ] == snapshot
        assert [
            (g.key, g.size, g.unit_cost) for g in family.groups
        ] == group_snapshot


class TestScenarioFamily:
    def test_dispatch(self):
        assert (
            scenario_family("homo").problem_at(1000).scenario()
            is Scenario.HOMOGENEITY
        )
        assert (
            scenario_family("repe").problem_at(1000).scenario()
            is Scenario.REPETITION
        )
        assert (
            scenario_family("heter").problem_at(1000).scenario()
            is Scenario.HETEROGENEOUS
        )

    def test_unknown_scenario(self):
        with pytest.raises(ModelError):
            scenario_family("quantum")

    def test_scenario_workload_routes_through_family(self):
        fam = scenario_family("repe", n_tasks=12)
        assert scenario_workload("repe", 500, n_tasks=12).tasks == fam.tasks


class TestSweepsTakeOnlyFamilies:
    # (sweep, call with the workload, the function named in the error):
    # run_deadline_sweep forwards its workload to deadline_cost_frontier,
    # which does the check.
    SWEEPS = {
        "run_budget_sweep": (
            lambda ex, w: ex.run_budget_sweep(w, [40], ["ea"], scoring="numeric"),
            "run_budget_sweep",
        ),
        "budget_latency_frontier": (
            lambda ex, w: ex.budget_latency_frontier(w, [40]),
            "budget_latency_frontier",
        ),
        "min_budget_for_latency": (
            lambda ex, w: ex.min_budget_for_latency(w, 1.0, 8, 40),
            "min_budget_for_latency",
        ),
        "deadline_cost_frontier": (
            lambda ex, w: ex.deadline_cost_frontier(w, [3.0], max_price=5),
            "deadline_cost_frontier",
        ),
        "run_deadline_sweep": (
            lambda ex, w: ex.run_deadline_sweep(w, [3.0], max_price=5),
            "deadline_cost_frontier",
        ),
    }

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_sweeps_reject_a_closure(self, sweep):
        """A ``budget -> HTuningProblem`` closure (or any non-family)
        is refused with one error that names the checking function and
        the wrapping."""
        import repro.experiments as ex

        call, where = self.SWEEPS[sweep]
        closure = functools.partial(homogeneity_workload, n_tasks=4, repetitions=2)
        tasks = list(homogeneity_family(n_tasks=4, repetitions=2).tasks)
        for workload in (closure, tasks, 42):
            with pytest.raises(ModelError, match=r"ProblemFamily\(tasks\)") as err:
                call(ex, workload)
            assert str(err.value).startswith(f"{where} takes a ProblemFamily, got ")
