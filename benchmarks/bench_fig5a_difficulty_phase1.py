"""Fig. 5(a) — difficulty vs Phase-1 (on-hold) latency.

Dot-filter tasks with 4/6/8 internal votes at rewards $0.05 and $0.08:
harder tasks attract workers more slowly, so the mean acceptance
latency must increase with the vote count at both rewards, and the
higher reward must be faster at every difficulty.
"""

from __future__ import annotations

from repro.api import Fig5abSpec, RunConfig, Session
from repro.experiments import format_table


def test_fig5a_difficulty_vs_phase1(benchmark, report):
    result = benchmark.pedantic(
        lambda: Session(RunConfig(seed=0)).run(
            Fig5abSpec(
                vote_counts=(4, 6, 8), prices=(5, 8), repetitions=10,
                n_tasks=60,
            )
        ).payload,
        rounds=1,
        iterations=1,
    )
    rows = []
    for votes in result.vote_counts:
        for price in result.prices:
            rows.append(
                (
                    f"{votes}v",
                    f"${price / 100:.2f}",
                    result.mean_phase1[(votes, price)] / 60.0,
                )
            )
    report(
        "fig5a_difficulty_phase1",
        format_table(
            ["difficulty", "reward", "mean phase-1 latency/min"],
            rows,
            title="Fig 5(a) — harder tasks are accepted more slowly",
        ),
    )
    for price in result.prices:
        assert result.phase1_increases_with_difficulty(price)
    # Higher reward is faster at every difficulty level.
    for votes in result.vote_counts:
        assert (
            result.mean_phase1[(votes, 8)] < result.mean_phase1[(votes, 5)]
        )
