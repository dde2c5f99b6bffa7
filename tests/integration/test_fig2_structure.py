"""Structural checks of the full Fig. 2 grid (numeric scoring, small n).

The benches run the paper-size grid with Monte-Carlo scoring; these
tests sweep all 18 (scenario, case) combinations at reduced size with
the *exact* numeric evaluator, so orderings are checked without noise
tolerances.
"""

from __future__ import annotations

import pytest

from repro.api import Fig2Spec, Session
from repro.experiments import FIG2_STRATEGIES

CASES = "abcdef"
SCENARIOS = ("homo", "repe", "heter")

#: Surrogate-gap tolerance per (scenario, case): the optimal strategy
#: must stay within this relative distance of the best baseline at
#: every budget.  Zero-ish for Scenario I (EA is provably optimal);
#: small for RA/HA whose group-sum surrogate approximates the true
#: E[max] (largest under the concave log curve, case f).
def _tolerance(scenario: str, case: str) -> float:
    if scenario == "homo":
        return 1e-9
    if case in "ef":
        return 0.07
    return 0.01


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_optimal_strategy_competitive(scenario, case):
    result = Session().run(
        Fig2Spec(
            scenario=scenario,
            case=case,
            budgets=(1000, 3000, 5000),
            n_tasks=20,
            scoring="numeric",
        )
    ).payload
    opt = FIG2_STRATEGIES[scenario][0]
    tol = _tolerance(scenario, case)
    for baseline in result.series:
        if baseline == opt:
            continue
        slack = tol * max(result.series[baseline])
        assert result.dominates(opt, baseline, slack=slack), (
            f"{opt} loses to {baseline} in {scenario}({case}): "
            f"{result.series[opt]} vs {result.series[baseline]}"
        )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_latency_decreases_with_budget(scenario):
    result = Session().run(
        Fig2Spec(
            scenario=scenario,
            case="a",
            budgets=(1000, 2000, 3000, 4000, 5000),
            n_tasks=20,
            scoring="numeric",
        )
    ).payload
    opt = FIG2_STRATEGIES[scenario][0]
    curve = result.series[opt]
    assert all(a >= b - 1e-9 for a, b in zip(curve, curve[1:]))


def test_price_sensitive_case_saturates_fastest():
    """Case (b) (λ = 10p+1) must show the smallest relative improvement
    over the sweep; case (a) (λ = 1+p) a much larger one."""
    improvements = {}
    for case in ("a", "b", "c"):
        result = Session().run(
            Fig2Spec(
                scenario="homo", case=case, budgets=(1000, 5000),
                n_tasks=20, scoring="numeric",
            )
        ).payload
        lo, hi = result.series["ea"]
        improvements[case] = (lo - hi) / lo
    assert improvements["a"] > improvements["b"]
    assert improvements["a"] > improvements["c"]
