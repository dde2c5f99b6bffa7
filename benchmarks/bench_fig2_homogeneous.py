"""Fig. 2 (a)-(f) — Scenario I (Homogeneity) budget sweeps.

100 identical tasks × 5 repetitions, λ_p = 2.0, budgets 1000–5000;
EA (opt) vs bias_1 (α=0.67) vs bias_2 (α=0.75) under the six λ_o(c)
curves.  Expected shape (paper §5.1.2): opt <= bias_1 <= bias_2 at
every budget; flat curves for the price-insensitive case (c); quick
saturation for the price-sensitive cases (b) and (e).
"""

from __future__ import annotations

import pytest

from repro.core import STRATEGIES
from repro.api import Fig2Spec, RunConfig, Session
from repro.experiments import format_series
from repro.workloads import PAPER_BUDGETS, homogeneity_workload

CASES = "abcdef"


@pytest.mark.parametrize("case", CASES)
def test_fig2_homogeneous_case(case, benchmark, report):
    result = benchmark.pedantic(
        lambda: Session(RunConfig(seed=0)).run(
            Fig2Spec(
                scenario="homo",
                case=case,
                budgets=PAPER_BUDGETS,
                n_tasks=100,
                scoring="mc",
                n_samples=1200,
            )
        ).payload,
        rounds=1,
        iterations=1,
    )
    report(
        f"fig2_homo_{case}",
        format_series(
            "budget",
            result.budgets,
            result.series,
            title=f"Fig 2 homo({case}) — latency by budget "
            f"(opt=ea vs bias_1/bias_2, MC scoring)",
        ),
    )
    # Shape assertions: EA dominates both biased baselines (small MC slack).
    slack = 0.04 * max(result.series["bias_2"])
    assert result.dominates("ea", "bias_1", slack=slack)
    assert result.dominates("ea", "bias_2", slack=slack)


def test_ea_kernel_speed(benchmark):
    """EA itself is O(1) in the budget: time the allocation kernel."""
    from repro.core import even_allocation

    problem = homogeneity_workload(5000, case="a")
    benchmark(lambda: even_allocation(problem, rng=0))
