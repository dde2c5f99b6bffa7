"""Fig. 3 — worker arrival moments (the paper's AMT probe, simulated).

Issues image-filter tasks at one reward unit ($0.05) on the *agent*
engine and records the first 20 acceptance epochs plus both phase
latencies.  Expected shape: epochs grow linearly with order (Poisson
arrivals — the paper reads this off the plot; we quantify it with the
R² of the epoch-vs-order regression) while phase-2 latencies fluctuate
in a comparatively narrow band.
"""

from __future__ import annotations

from repro.api import Fig3Spec, RunConfig, Session
from repro.experiments import format_table


def test_fig3_worker_arrivals(benchmark, report):
    result = benchmark.pedantic(
        lambda: Session(RunConfig(seed=0)).run(
            Fig3Spec(n_arrivals=20, price=5)
        ).payload,
        rounds=1,
        iterations=1,
    )
    rows = [
        (i + 1, epoch / 60.0, p1 / 60.0, p2 / 60.0)
        for i, (epoch, p1, p2) in enumerate(
            zip(
                result.arrival_epochs,
                result.phase1_latencies,
                result.phase2_latencies,
            )
        )
    ]
    report(
        "fig3_worker_arrivals",
        format_table(
            ["order", "epoch/min", "phase1/min", "phase2/min"],
            rows,
            title=(
                "Fig 3 — first 20 acceptance epochs at $0.05 "
                f"(epoch-vs-order R² = {result.linearity_r2:.3f})"
            ),
        ),
    )
    assert result.poisson_like, (
        f"arrival epochs should be linear in order; R²={result.linearity_r2:.3f}"
    )
