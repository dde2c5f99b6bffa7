"""Unit tests for repro.experiments.figures (per-figure harness).

These use reduced sizes for speed; the full paper parameters run in
``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.api import (
    Fig2Spec,
    Fig3Spec,
    Fig4Spec,
    Fig5abSpec,
    Fig5cSpec,
    RunConfig,
    Session,
)
from repro.errors import ModelError
from repro.experiments import motivation_example_1, motivation_example_2


class TestMotivationExamples:
    def test_example_1_load_sensitive_wins(self):
        result = motivation_example_1()
        assert result.load_sensitive_wins
        assert 0.0 < result.improvement < 1.0

    def test_example_1_case2_value(self):
        # With Table 1's rates the load-sensitive case is
        # E[max(Exp(2), Erlang(2, 2))] = 1.125 exactly.
        result = motivation_example_1()
        assert result.load_sensitive_latency == pytest.approx(1.125, rel=1e-3)

    def test_example_2_balanced_wins(self):
        result = motivation_example_2()
        assert result.load_sensitive_wins


class TestFig2:
    @pytest.mark.parametrize("scenario", ["homo", "repe", "heter"])
    def test_opt_dominates_numeric(self, scenario):
        result = Session().run(
            Fig2Spec(
                scenario=scenario,
                case="a",
                budgets=(1000, 3000, 5000),
                n_tasks=20,
                scoring="numeric",
            )
        ).payload
        opt = {"homo": "ea", "repe": "ra", "heter": "ha"}[scenario]
        for baseline in result.series:
            if baseline == opt:
                continue
            # Within half a percent at worst (surrogate approximation).
            assert result.dominates(
                opt, baseline, slack=0.01 * max(result.series[baseline])
            )

    def test_latency_decreases_with_budget(self):
        result = Session().run(
            Fig2Spec(
                scenario="homo", case="a", budgets=(1000, 2000, 4000),
                n_tasks=20, scoring="numeric",
            )
        ).payload
        curve = result.series["ea"]
        assert curve[0] > curve[1] > curve[2]

    def test_flat_market_insensitive_to_budget(self):
        # Case (c): λ = 0.1p + 10 — price barely matters.
        result = Session().run(
            Fig2Spec(
                scenario="homo", case="c", budgets=(1000, 5000), n_tasks=20,
                scoring="numeric",
            )
        ).payload
        lo, hi = result.series["ea"]
        assert abs(lo - hi) / lo < 0.15

    def test_unknown_scenario(self):
        with pytest.raises(ModelError):
            Session().run(Fig2Spec(scenario="quantum", case="a"))


class TestFig3:
    def test_poisson_linearity(self):
        result = Session(RunConfig(seed=0)).run(
            Fig3Spec(n_arrivals=20)
        ).payload
        assert len(result.arrival_epochs) == 20
        assert result.linearity_r2 > 0.8
        assert all(
            a <= b for a, b in zip(result.arrival_epochs, result.arrival_epochs[1:])
        )

    def test_phase_measurements_present(self):
        result = Session(RunConfig(seed=1)).run(
            Fig3Spec(n_arrivals=10)
        ).payload
        assert len(result.phase1_latencies) == 10
        assert len(result.phase2_latencies) == 10
        assert all(v >= 0 for v in result.phase1_latencies)


class TestFig4:
    def test_monotone_latency_in_reward(self):
        result = Session(RunConfig(seed=0)).run(Fig4Spec()).payload
        assert result.monotone_in_price or result.fit.slope > 0

    def test_rates_increase_with_price(self):
        result = Session(RunConfig(seed=0)).run(Fig4Spec()).payload
        assert result.inferred_rates[12] > result.inferred_rates[5]

    def test_fit_positive_slope(self):
        result = Session(RunConfig(seed=0)).run(Fig4Spec()).payload
        assert result.fit.slope > 0


class TestFig5ab:
    def test_difficulty_orderings(self):
        result = Session(RunConfig(seed=0)).run(
            Fig5abSpec(repetitions=10, n_tasks=30)
        ).payload
        for price in result.prices:
            assert result.phase1_increases_with_difficulty(price)
            assert result.phase2_increases_with_difficulty(price)


class TestFig5c:
    def test_opt_beats_heuristic(self):
        result = Session(RunConfig(seed=0)).run(
            Fig5cSpec(budgets=(600, 800, 1000), n_samples=400)
        ).payload
        assert result.opt_beats_heuristic

    def test_overall_series_lengths(self):
        result = Session(RunConfig(seed=0)).run(
            Fig5cSpec(budgets=(600, 1000), n_samples=200)
        ).payload
        assert len(result.overall("opt")) == 2
        assert len(result.overall("heu")) == 2
