"""Fig. 2 (m)-(r) — Scenario III (Heterogeneous) budget sweeps.

50 tasks × 3 reps (λ_p = 2.0) + 50 tasks × 5 reps (λ_p = 3.0);
HA (opt) vs task-even (te) vs rep-even (re).

Expected shape: HA at or below te everywhere; re is near-optimal on
this *symmetric* workload (the surrogate-objective gap the paper
acknowledges in §4.3.1), so HA must track it within a few percent —
HA's decisive wins on asymmetric difficulty are certified by
bench_fig5c and the ablation benches.
"""

from __future__ import annotations

import pytest

from repro.api import Fig2Spec, RunConfig, Session
from repro.experiments import format_series
from repro.workloads import PAPER_BUDGETS, heterogeneous_workload

CASES = "abcdef"


@pytest.mark.parametrize("case", CASES)
def test_fig2_heterogeneous_case(case, benchmark, report):
    result = benchmark.pedantic(
        lambda: Session(RunConfig(seed=0)).run(
            Fig2Spec(
                scenario="heter",
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
        f"fig2_heter_{case}",
        format_series(
            "budget",
            result.budgets,
            result.series,
            title=f"Fig 2 heter({case}) — latency by budget "
            f"(opt=ha vs te/re, MC scoring)",
        ),
    )
    slack_te = 0.04 * max(result.series["te"])
    slack_re = 0.05 * max(result.series["re"])
    assert result.dominates("ha", "te", slack=slack_te)
    assert result.dominates("ha", "re", slack=slack_re)


def test_ha_kernel_speed(benchmark):
    """HA's DP (incl. utopia point): time one allocation at B = 5000."""
    from repro.core import heterogeneous_algorithm

    problem = heterogeneous_workload(5000, case="a")
    benchmark(lambda: heterogeneous_algorithm(problem))
