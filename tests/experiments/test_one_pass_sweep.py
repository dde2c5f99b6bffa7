"""Acceptance tests for the family/one-pass sweep refactor.

The hard contract: routing ``Fig2Spec`` / ``run_budget_sweep``
through :class:`~repro.workloads.families.ProblemFamily` and the
one-pass DP sweep must produce **byte-identical** results to a
per-budget reference loop written here (a fresh problem per budget,
each cell tuned and scored with the sweep's cell seeds), for every
scenario and scoring backend.  A single-budget solver runs the same
sweep body, so the one-pass tuners are certified against the seed
oracles in :mod:`repro.perf.reference` instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import TaskSpec
from repro.core import (
    STRATEGIES,
    Allocation,
    ObjectivePoint,
    Tuner,
    heterogeneous_algorithm_sweep,
    objective_o1,
    objective_o2,
    repetition_algorithm_sweep,
    tune_budget_sweep,
    utopia_point,
    utopia_point_sweep,
)
from repro.api import Fig2Spec, RunConfig, Session
from repro.core.latency import (
    expected_job_latency,
    group_onhold_latency,
    group_processing_latency,
)
from repro.errors import InfeasibleAllocationError
from repro.experiments import (
    budget_latency_frontier,
    evaluate_allocation,
    run_budget_sweep,
)
from repro.market import LinearPricing
from repro.perf.reference import (
    reference_budget_indexed_dp,
    reference_heterogeneous_prices,
    reference_minimize_o2_prices,
)
from repro.stats.rng import ensure_rng
from repro.workloads import (
    ProblemFamily,
    heterogeneous_family,
    heterogeneous_workload,
    homogeneity_workload,
    repetition_family,
    repetition_workload,
    scenario_family,
)

BUDGETS = (500, 1000, 1500, 2000)

_WORKLOADS = {
    "homo": homogeneity_workload,
    "repe": repetition_workload,
    "heter": heterogeneous_workload,
}
_SCENARIO_STRATEGIES = {
    "homo": ("ea", "bias_1", "bias_2"),
    "repe": ("ra", "te", "re"),
    "heter": ("ha", "te", "re"),
}


def per_budget_sweep(scenario, budgets, strategies, scoring, n_samples, seed,
                     n_tasks):
    """``run_budget_sweep``'s series, one fresh problem per budget:
    every cell is tuned and scored on its own with the sweep's cell
    seed (base draw + ``1_000_003·bi + 7919·si``)."""
    cell_seed = int(ensure_rng(seed).integers(0, 2**62))
    series = {name: [] for name in strategies}
    for bi, budget in enumerate(budgets):
        problem = _WORKLOADS[scenario](budget, n_tasks=n_tasks)
        for si, name in enumerate(strategies):
            rng = np.random.default_rng(cell_seed + 1_000_003 * bi + 7919 * si)
            allocation = STRATEGIES[name](problem, rng)
            series[name].append(
                evaluate_allocation(
                    problem, allocation, scoring=scoring,
                    n_samples=n_samples, rng=rng,
                )
            )
    return {name: tuple(v) for name, v in series.items()}


def per_budget_frontier(scenario, budgets, tuner, n_tasks):
    """``budget_latency_frontier``'s points, one fresh problem and one
    ``tuner.tune`` per budget."""
    points = []
    for budget in sorted(budgets):
        problem = _WORKLOADS[scenario](budget, n_tasks=n_tasks)
        allocation = tuner.tune(problem)
        points.append(
            (
                budget,
                expected_job_latency(problem, allocation),
                tuner.resolve_strategy(problem),
            )
        )
    return points


def reference_utopia_point(problem) -> ObjectivePoint:
    """The utopia point built from the seed parts only."""
    o1_prices = reference_budget_indexed_dp(
        problem.groups(), problem.budget, group_onhold_latency
    )
    return ObjectivePoint(
        o1=objective_o1(problem, o1_prices),
        o2=objective_o2(problem, reference_minimize_o2_prices(problem)),
    )


class TestOnePassTuners:
    def test_ra_sweep_bit_identical(self):
        family = repetition_family(n_tasks=20)
        sweep = repetition_algorithm_sweep(family, BUDGETS)
        for budget in BUDGETS:
            problem = family.problem_at(budget)
            reference = reference_budget_indexed_dp(
                family.groups, budget, group_onhold_latency
            )
            assert sweep[budget] == Allocation.from_group_prices(
                problem, reference
            )

    def test_ha_sweep_bit_identical(self):
        family = heterogeneous_family(n_tasks=20)
        sweep = heterogeneous_algorithm_sweep(family, BUDGETS)
        for budget in BUDGETS:
            problem = family.problem_at(budget)
            reference = reference_heterogeneous_prices(problem)
            assert sweep[budget] == Allocation.from_group_prices(
                problem, reference
            )

    def test_utopia_sweep_bit_identical(self):
        family = heterogeneous_family(n_tasks=16)
        sweep = utopia_point_sweep(family, BUDGETS)
        for budget in BUDGETS:
            assert sweep[budget] == reference_utopia_point(
                family.problem_at(budget)
            )

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


def _mixed_cost_tasks(rng):
    """Random groups whose unit costs (size × repetitions) differ."""
    tasks, tid = [], 0
    for gi in range(int(rng.integers(2, 5))):
        reps = int(rng.integers(1, 5))
        pricing = LinearPricing(
            slope=float(rng.uniform(0.2, 4.0)),
            intercept=float(rng.uniform(0.2, 2.0)),
        )
        proc = float(rng.uniform(0.3, 3.0))
        for _ in range(int(rng.integers(1, 5))):
            tasks.append(TaskSpec(tid, reps, pricing, proc, type_name=f"t{gi}"))
            tid += 1
    return tasks


def _stops_with_an_affordable_group(problem) -> bool:
    """Did the O2 greedy stop on an unaffordable argmax group while a
    cheaper group could still be bought?"""
    prices = reference_minimize_o2_prices(problem)
    groups = problem.groups()
    totals = [
        group_onhold_latency(g, prices[g.key]) + group_processing_latency(g)
        for g in groups
    ]
    worst = groups[totals.index(max(totals))]
    residual = problem.budget - sum(g.unit_cost * prices[g.key] for g in groups)
    return worst.unit_cost > residual >= min(g.unit_cost for g in groups)


class TestUtopiaGreedyStopRule:
    """The O2 greedy stops as soon as the group attaining the max is
    unaffordable, even when another group is still affordable; the
    one-walk sweep must stop at the same bump for every budget."""

    @pytest.mark.parametrize("seed", range(6))
    def test_single_and_sweep_equal_reference_parts(self, seed):
        rng = np.random.default_rng(seed)
        checked = 0
        for _ in range(20):
            family = ProblemFamily(_mixed_cost_tasks(rng))
            floor = family.min_feasible_budget
            span = range(floor, floor + 60)
            stops = [
                b for b in span
                if _stops_with_an_affordable_group(family.problem_at(b))
            ]
            if not stops:
                continue
            budgets = sorted(
                {stops[0], stops[-1], floor, int(rng.choice(list(span)))}
            )
            while len(budgets) < 4:
                budgets.append(budgets[-1] + 1)
            sweep = utopia_point_sweep(family, budgets)
            for b in budgets:
                problem = family.problem_at(b)
                reference = reference_utopia_point(problem)
                assert utopia_point(problem) == reference
                assert sweep[b] == reference
            checked += 1
        # The random draws must reach the stop rule, or the test is void.
        assert checked >= 5


class TestSweepByteIdentity:
    @pytest.mark.parametrize("scenario", ["homo", "repe", "heter"])
    @pytest.mark.parametrize("scoring", ["mc", "numeric"])
    def test_family_sweep_equals_per_budget_reference(self, scenario, scoring):
        family = scenario_family(scenario, n_tasks=20)
        kwargs = dict(
            budgets=BUDGETS,
            strategies=_SCENARIO_STRATEGIES[scenario],
            scoring=scoring,
            n_samples=200,
            seed=17,
        )
        fam_result = run_budget_sweep(family, **kwargs)
        assert fam_result.budgets == BUDGETS
        # Byte-identical: exact float equality, not approx.
        assert fam_result.series == per_budget_sweep(
            scenario, n_tasks=20, **kwargs
        )

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
    def test_family_frontier_equals_per_budget_reference(self):
        family = repetition_family(n_tasks=10)
        a = budget_latency_frontier(family, budgets=[100, 200, 400])
        assert [
            (p.budget, p.latency, p.strategy) for p in a.points
        ] == per_budget_frontier("repe", [100, 200, 400], Tuner(seed=0), 10)

    def test_explicit_strategy_one_pass(self):
        family = heterogeneous_family(n_tasks=10)
        a = budget_latency_frontier(
            family, budgets=[150, 300], tuner=Tuner(strategy="ha")
        )
        assert [
            (p.budget, p.latency, p.strategy) for p in a.points
        ] == per_budget_frontier("heter", [150, 300], Tuner(strategy="ha"), 10)


class TestReboundStrategy:
    def test_sweeps_follow_a_rebound_name(self):
        """A rebound ``ra`` is what every sweep tunes with: the one-pass
        DP reproduces only the built-in binding."""
        family = repetition_family(n_tasks=8)
        budgets = (1500,)
        original = STRATEGIES["ra"]
        STRATEGIES.register("ra", STRATEGIES["re"], replace=True)
        try:
            assert tune_budget_sweep(family, budgets, "ra") is None
            frontier = budget_latency_frontier(
                family, budgets, tuner=Tuner(strategy="ra")
            )
            rebound = per_budget_frontier(
                "repe", budgets, Tuner(strategy="ra"), 8
            )
            assert [
                (p.budget, p.latency, p.strategy) for p in frontier.points
            ] == rebound
            kwargs = dict(
                budgets=budgets, strategies=("ra",), scoring="numeric",
                n_samples=200, seed=17,
            )
            assert run_budget_sweep(family, **kwargs).series == (
                per_budget_sweep("repe", n_tasks=8, **kwargs)
            )
        finally:
            STRATEGIES.register("ra", original, replace=True)
        # The rebinding matters: the built-in binding tunes otherwise.
        assert per_budget_frontier(
            "repe", budgets, Tuner(strategy="ra"), 8
        ) != rebound
        assert tune_budget_sweep(family, budgets, "ra") is not None


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
