"""Extension E3 — the budget–latency frontier and its knee.

Sweeps the Fig. 2 homogeneity workload over a wide budget range,
tunes each point, and reports the frontier a requester would consult
before committing money, plus the diminishing-returns knee and the
inverse query ("cheapest budget for latency <= L").
"""

from __future__ import annotations

from repro.experiments import (
    budget_latency_frontier,
    format_table,
    min_budget_for_latency,
)
from repro.workloads import homogeneity_family


FAMILY = homogeneity_family(n_tasks=40, repetitions=3)
BUDGETS = (150, 300, 600, 1200, 2400, 4800, 9600)


def test_budget_latency_frontier(benchmark, report):
    frontier = benchmark.pedantic(
        lambda: budget_latency_frontier(FAMILY, budgets=BUDGETS),
        rounds=1,
        iterations=1,
    )
    knee = frontier.knee()
    rows = [
        (p.budget, p.latency, "<-- knee" if p is knee else "")
        for p in frontier.points
    ]
    report(
        "ext_pareto_frontier",
        format_table(
            ["budget", "tuned E[latency]", ""],
            rows,
            title="Extension E3 — budget-latency frontier "
            "(40 tasks x 3 reps, case a)",
        ),
    )
    assert frontier.is_monotone()
    assert knee.budget < BUDGETS[-1]


def test_inverse_query(report):
    frontier = budget_latency_frontier(FAMILY, budgets=BUDGETS)
    target = frontier.latencies[3]  # achievable at BUDGETS[3]
    budget = min_budget_for_latency(
        FAMILY, target_latency=target, budget_lo=BUDGETS[0],
        budget_hi=BUDGETS[-1],
    )
    report(
        "ext_pareto_inverse",
        format_table(
            ["quantity", "value"],
            [
                ("target latency", target),
                ("frontier budget achieving it", BUDGETS[3]),
                ("binary-search minimal budget", budget),
            ],
            title="Extension E3 — cheapest budget for a latency target",
        ),
    )
    assert budget is not None
    assert budget <= BUDGETS[3]
