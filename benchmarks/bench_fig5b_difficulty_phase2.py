"""Fig. 5(b) — difficulty vs Phase-2 (processing) latency.

Same workload as Fig. 5(a); the processing latency must increase with
the vote count but be *insensitive to the reward* (the paper's core
modelling assumption: payment cannot buy faster processing).
"""

from __future__ import annotations

import pytest

from repro.api import Fig5abSpec, RunConfig, Session
from repro.experiments import format_table


def test_fig5b_difficulty_vs_phase2(benchmark, report):
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
                    result.mean_phase2[(votes, price)],
                )
            )
    report(
        "fig5b_difficulty_phase2",
        format_table(
            ["difficulty", "reward", "mean phase-2 latency/s"],
            rows,
            title="Fig 5(b) — harder tasks take longer to process; "
            "reward does not buy processing speed",
        ),
    )
    for price in result.prices:
        assert result.phase2_increases_with_difficulty(price)
    # Price-independence of phase 2 (within Monte-Carlo noise).
    for votes in result.vote_counts:
        cheap = result.mean_phase2[(votes, 5)]
        rich = result.mean_phase2[(votes, 8)]
        assert rich == pytest.approx(cheap, rel=0.15)
