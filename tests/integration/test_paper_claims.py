"""Integration tests pinning the paper's headline claims.

Each test encodes one sentence of the paper's evaluation narrative;
together they are the repo's executable summary of §5's findings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Fig2Spec, Session
from repro.core import STRATEGIES, expected_job_latency
from repro.experiments import motivation_example_1, motivation_example_2
from repro.workloads import (
    heterogeneous_workload,
    homogeneity_workload,
    repetition_workload,
)


class TestMotivationClaims:
    def test_load_sensitive_beats_even_in_both_examples(self):
        """§1: "the second option is better" (both examples)."""
        assert motivation_example_1().load_sensitive_wins
        assert motivation_example_2().load_sensitive_wins


class TestScenario1Claims:
    def test_ea_optimal_and_bias_ordering(self):
        """§5.1.2: "optimal solution outperforms the comparisons" and
        "bias_1 produces slightly better performance than bias_2"
        (more bias = worse)."""
        result = Session().run(
            Fig2Spec(
                scenario="homo", case="a", budgets=(1000, 2500, 5000),
                n_tasks=50, scoring="numeric",
            )
        ).payload
        assert result.dominates("ea", "bias_1", slack=1e-9)
        assert result.dominates("ea", "bias_2", slack=1e-9)
        assert result.dominates("bias_1", "bias_2", slack=1e-9)

    def test_ea_robust_to_nonlinearity(self):
        """§5.1.2 finding 1: EA still wins for nonlinear λ(p) (cases
        e and f)."""
        for case in ("e", "f"):
            result = Session().run(
                Fig2Spec(
                    scenario="homo", case=case, budgets=(1000, 3000, 5000),
                    n_tasks=50, scoring="numeric",
                )
            ).payload
            assert result.dominates("ea", "bias_1", slack=1e-9)
            assert result.dominates("ea", "bias_2", slack=1e-9)

    def test_sensitive_market_saturates(self):
        """§5.1.2 finding 2: when λ is sensitive to price (case b),
        latency quickly saturates — extra budget changes little because
        the processing phase dominates."""
        result = Session().run(
            Fig2Spec(
                scenario="homo", case="b", budgets=(1000, 5000),
                n_tasks=50, scoring="numeric",
            )
        ).payload
        lo, hi = result.series["ea"]
        assert (lo - hi) / lo < 0.25  # shallow improvement

        # Contrast: the price-responsive case (a) improves much more.
        result_a = Session().run(
            Fig2Spec(
                scenario="homo", case="a", budgets=(1000, 5000),
                n_tasks=50, scoring="numeric",
            )
        ).payload
        lo_a, hi_a = result_a.series["ea"]
        assert (lo_a - hi_a) / lo_a > (lo - hi) / lo


class TestScenario2Claims:
    def test_ra_beats_both_baselines(self):
        """Fig. 2 (g)-(l): opt under te and re curves."""
        result = Session().run(
            Fig2Spec(
                scenario="repe", case="a", budgets=(1000, 2500, 5000),
                n_tasks=50, scoring="numeric",
            )
        ).payload
        slack = 0.005 * max(result.series["te"])
        assert result.dominates("ra", "te", slack=slack)
        assert result.dominates("ra", "re", slack=slack)


class TestScenario3Claims:
    def test_ha_competitive_everywhere_and_beats_te(self):
        """Fig. 2 (m)-(r): HA under te; re is near-optimal on this
        symmetric workload so HA must stay within a half percent."""
        result = Session().run(
            Fig2Spec(
                scenario="heter", case="a", budgets=(1000, 2500, 5000),
                n_tasks=50, scoring="numeric",
            )
        ).payload
        assert result.dominates("ha", "te", slack=0.005 * max(result.series["te"]))
        assert result.dominates("ha", "re", slack=0.01 * max(result.series["re"]))

    def test_ha_decisive_on_asymmetric_difficulty(self):
        """Fig. 5(c)'s regime: with strongly different processing
        rates, HA clearly beats the uniform heuristic and both
        baselines at every budget."""
        from repro import HTuningProblem, TaskSpec
        from repro.market import LinearPricing

        pricing = LinearPricing(0.002, 0.001)
        types = [("t1", 10, 1 / 90), ("t2", 15, 1 / 150), ("t3", 20, 1 / 240)]
        for budget in (600, 800, 1000):
            tasks = [
                TaskSpec(i, repetitions=r, pricing=pricing,
                         processing_rate=pr, type_name=nm)
                for i, (nm, r, pr) in enumerate(types)
            ]
            problem = HTuningProblem(tasks, budget)
            scores = {}
            for name in ("ha", "te", "re", "uniform"):
                alloc = STRATEGIES[name](problem, np.random.default_rng(0))
                scores[name] = expected_job_latency(problem, alloc)
            assert scores["ha"] == min(scores.values())


class TestApproximationStructure:
    def test_group_sum_upper_bounds_job_latency(self):
        """§4.3.1: the group-sum surrogate upper-bounds the true
        expected latency (on-hold phase)."""
        from repro.core import (
            repetition_algorithm,
            surrogate_onhold_objective,
        )

        problem = repetition_workload(2000, case="a", n_tasks=30)
        alloc = repetition_algorithm(problem)
        prices = {
            g.key: alloc.uniform_group_price(g) for g in problem.groups()
        }
        surrogate = surrogate_onhold_objective(problem, prices)
        true_latency = expected_job_latency(
            problem, alloc, include_processing=False
        )
        assert surrogate >= true_latency
