"""Fig. 5(c) — OPT vs the equal-payment heuristic on the AMT workload.

Three task types with repetition requirements 10/15/20 (difficulties
4/6/8 votes), total budgets $6–$10.  OPT = Algorithm 3; HEU = the same
payment per repetition for every type.  Expected shape: OPT's overall
job latency (max across the three types) is below HEU's at every
budget, and OPT "successfully avoids yielding the longest latency
among the three tasks" — its worst type is never as slow as HEU's
worst type.
"""

from __future__ import annotations

from repro.api import Fig5cSpec, RunConfig, Session
from repro.experiments import format_table


def test_fig5c_opt_vs_heuristic(benchmark, report):
    result = benchmark.pedantic(
        lambda: Session(RunConfig(seed=0)).run(
            Fig5cSpec(budgets=(600, 700, 800, 900, 1000), n_samples=1000)
        ).payload,
        rounds=1,
        iterations=1,
    )
    rows = []
    for bi, budget in enumerate(result.budgets):
        rows.append(
            (
                f"${budget / 100:.0f}",
                *(
                    result.series[("opt", t)][bi] / 60.0
                    for t in range(3)
                ),
                *(
                    result.series[("heu", t)][bi] / 60.0
                    for t in range(3)
                ),
            )
        )
    report(
        "fig5c_opt_vs_heuristic",
        format_table(
            [
                "budget",
                "OPT(t1)/min",
                "OPT(t2)/min",
                "OPT(t3)/min",
                "HEU(t1)/min",
                "HEU(t2)/min",
                "HEU(t3)/min",
            ],
            rows,
            title="Fig 5(c) — per-type latency, OPT (HA) vs equal-payment HEU",
        ),
    )
    assert result.opt_beats_heuristic
    # OPT avoids the longest-latency blowup at every budget.
    for bi in range(len(result.budgets)):
        opt_worst = max(result.series[("opt", t)][bi] for t in range(3))
        heu_worst = max(result.series[("heu", t)][bi] for t in range(3))
        assert opt_worst <= heu_worst * 1.02
