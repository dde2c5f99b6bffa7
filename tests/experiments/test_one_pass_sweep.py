"""Acceptance tests for the family/one-pass sweep refactor.

The hard contract: routing ``Fig2Spec`` / ``run_budget_sweep``
through :class:`~repro.workloads.families.ProblemFamily` and the
one-pass DP sweep must produce **byte-identical** results to the
historical per-budget rebuild path, for every scenario and scoring
backend.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import (
    Tuner,
    heterogeneous_algorithm,
    heterogeneous_algorithm_sweep,
    repetition_algorithm,
    repetition_algorithm_sweep,
    tune_budget_sweep,
    utopia_point,
    utopia_point_sweep,
)
from repro.api import Fig2Spec, RunConfig, Session
from repro.errors import InfeasibleAllocationError
from repro.experiments import budget_latency_frontier, run_budget_sweep
from repro.workloads import (
    heterogeneous_family,
    heterogeneous_workload,
    homogeneity_workload,
    repetition_family,
    repetition_workload,
    scenario_family,
)

BUDGETS = (500, 1000, 1500, 2000)

_LEGACY_FACTORIES = {
    "homo": homogeneity_workload,
    "repe": repetition_workload,
    "heter": heterogeneous_workload,
}
_SCENARIO_STRATEGIES = {
    "homo": ("ea", "bias_1", "bias_2"),
    "repe": ("ra", "te", "re"),
    "heter": ("ha", "te", "re"),
}


class TestOnePassTuners:
    def test_ra_sweep_bit_identical(self):
        family = repetition_family(n_tasks=20)
        sweep = repetition_algorithm_sweep(family, BUDGETS)
        for budget in BUDGETS:
            reference = repetition_algorithm(
                family.problem_at(budget), strict_scenario=False
            )
            assert sweep[budget] == reference

    def test_ha_sweep_bit_identical(self):
        family = heterogeneous_family(n_tasks=20)
        sweep = heterogeneous_algorithm_sweep(family, BUDGETS)
        for budget in BUDGETS:
            assert sweep[budget] == heterogeneous_algorithm(
                family.problem_at(budget)
            )

    def test_utopia_sweep_bit_identical(self):
        family = heterogeneous_family(n_tasks=16)
        sweep = utopia_point_sweep(family, BUDGETS)
        for budget in BUDGETS:
            assert sweep[budget] == utopia_point(family.problem_at(budget))

    def test_tune_budget_sweep_registry(self):
        family = repetition_family(n_tasks=10)
        assert tune_budget_sweep(family, [300, 600], "ra") is not None
        assert tune_budget_sweep(family, [300, 600], "ea") is None
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            tune_budget_sweep(family, [300], "teleport")

    def test_infeasible_budget_raises(self):
        family = repetition_family(n_tasks=20)
        with pytest.raises(InfeasibleAllocationError):
            repetition_algorithm_sweep(family, [10, 2000])
        with pytest.raises(InfeasibleAllocationError):
            heterogeneous_algorithm_sweep(
                heterogeneous_family(n_tasks=20), [10, 2000]
            )


class TestSweepByteIdentity:
    @pytest.mark.parametrize("scenario", ["homo", "repe", "heter"])
    @pytest.mark.parametrize("scoring", ["mc", "numeric"])
    def test_family_sweep_equals_legacy_closure_sweep(self, scenario, scoring):
        family = scenario_family(scenario, n_tasks=20)
        legacy = functools.partial(_LEGACY_FACTORIES[scenario], n_tasks=20)
        kwargs = dict(
            budgets=BUDGETS,
            strategies=_SCENARIO_STRATEGIES[scenario],
            scoring=scoring,
            n_samples=200,
            seed=17,
        )
        fam_result = run_budget_sweep(family, **kwargs)
        legacy_result = run_budget_sweep(lambda b: legacy(b), **kwargs)
        assert fam_result.budgets == legacy_result.budgets
        # Byte-identical: exact float equality, not approx.
        assert fam_result.series == legacy_result.series

    @pytest.mark.parametrize("scenario", ["repe", "heter"])
    def test_fig2_byte_identical_across_engines(self, scenario):
        spec = Fig2Spec(
            scenario=scenario, case="a", budgets=(800, 1600), n_tasks=12,
            n_samples=150,
        )
        base = Session(RunConfig(seed=3)).run(spec).payload
        for engine in ("batch", "chunked-batch"):
            config = RunConfig(seed=3, engine=engine)
            other = Session(config).run(spec).payload
            assert other.series == base.series


class TestFrontierFamilyPath:
    def test_family_frontier_equals_legacy(self):
        family = repetition_family(n_tasks=10)
        legacy = functools.partial(repetition_workload, n_tasks=10)
        a = budget_latency_frontier(family, budgets=[100, 200, 400])
        b = budget_latency_frontier(legacy, budgets=[100, 200, 400])
        assert a.latencies == b.latencies
        assert [p.strategy for p in a.points] == [
            p.strategy for p in b.points
        ]

    def test_explicit_strategy_one_pass(self):
        family = heterogeneous_family(n_tasks=10)
        a = budget_latency_frontier(
            family, budgets=[150, 300], tuner=Tuner(strategy="ha")
        )
        b = budget_latency_frontier(
            lambda bu: family.problem_at(bu),
            budgets=[150, 300],
            tuner=Tuner(strategy="ha"),
        )
        assert a.latencies == b.latencies

    def test_shared_grid_scoring(self):
        family = repetition_family(n_tasks=10)
        per_alloc = budget_latency_frontier(family, budgets=[100, 200, 400])
        shared = budget_latency_frontier(
            family, budgets=[100, 200, 400], shared_grid=True
        )
        assert shared.is_monotone(tolerance=1e-6)
        for a, b in zip(per_alloc.latencies, shared.latencies):
            assert a == pytest.approx(b, rel=1e-3)

    def test_shared_grid_needs_family(self):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            budget_latency_frontier(
                lambda b: repetition_workload(b, n_tasks=4),
                budgets=[100],
                shared_grid=True,
            )


class TestExhaustiveSharedGrid:
    def test_matches_per_allocation_argmin(self):
        from repro.core import (
            Allocation,
            exhaustive_latency_search,
            expected_job_latency,
        )

        problem = repetition_workload(60, n_tasks=4)
        prices, value = exhaustive_latency_search(problem)
        best_alloc = Allocation.from_group_prices(problem, prices)
        # Reference: per-allocation grids, brute force.
        from repro.core import exhaustive_group_search

        ref_prices, _ = exhaustive_group_search(
            problem,
            lambda pb, gp: expected_job_latency(
                pb, Allocation.from_group_prices(pb, gp)
            ),
        )
        assert prices == ref_prices
        assert value == pytest.approx(
            expected_job_latency(problem, best_alloc), rel=1e-3
        )
