"""Fig. 2 (g)-(l) — Scenario II (Repetition) budget sweeps.

50 tasks × 3 reps + 50 tasks × 5 reps, λ_p = 2.0; RA (opt) vs
task-even (te) vs rep-even (re).  Expected shape: opt at or below both
baselines at every budget under each of the six λ_o(c) curves.
"""

from __future__ import annotations

import pytest

from repro.api import Fig2Spec, RunConfig, Session
from repro.experiments import format_series
from repro.workloads import PAPER_BUDGETS, repetition_workload

CASES = "abcdef"


@pytest.mark.parametrize("case", CASES)
def test_fig2_repetition_case(case, benchmark, report):
    result = benchmark.pedantic(
        lambda: Session(RunConfig(seed=0)).run(
            Fig2Spec(
                scenario="repe",
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
        f"fig2_repe_{case}",
        format_series(
            "budget",
            result.budgets,
            result.series,
            title=f"Fig 2 repe({case}) — latency by budget "
            f"(opt=ra vs te/re, MC scoring)",
        ),
    )
    # Shape assertions.  For the nonlinear-robustness cases (e)/(f)
    # the group-sum surrogate's gap to the true E[max] widens (most
    # visibly under the concave log curve), so RA tracks rather than
    # strictly dominates rep-even there — see EXPERIMENTS.md.
    slack = 0.04 * max(result.series["te"])
    re_slack = (0.07 if case in "ef" else 0.04) * max(result.series["re"])
    assert result.dominates("ra", "te", slack=slack)
    assert result.dominates("ra", "re", slack=re_slack)


def test_ra_kernel_speed(benchmark):
    """RA's DP is O(nB'): time one full allocation at B = 5000."""
    from repro.core import repetition_algorithm

    problem = repetition_workload(5000, case="a")
    benchmark(lambda: repetition_algorithm(problem))
