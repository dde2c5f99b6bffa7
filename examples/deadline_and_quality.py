"""Quality targets, deadlines, and the budget-latency frontier.

Three requester questions the core paper leaves to the reader, answered
with the library's extension modules:

1. *"Each verdict must be right with probability >= 0.97 — how many
   votes does that take?"*  → quality-aware repetition planning.
2. *"What does the budget-latency trade-off look like, and where do
   diminishing returns start?"* → the tuned frontier and its knee.
3. *"I need everything done in 4 time units with 90% confidence —
   what is the cheapest way?"* → the deadline-constrained dual
   (the related-work [29] problem).

Run:  python examples/deadline_and_quality.py
"""

from __future__ import annotations

from repro import TaskSpec
from repro.core import (
    min_cost_for_deadline,
    plan_repetitions,
    repetitions_for_quality,
)
from repro.experiments import budget_latency_frontier, format_table
from repro.market import LinearPricing, TaskType
from repro.workloads import ProblemFamily

# --- 1. quality → repetitions ----------------------------------------
easy = TaskType("easy-vote", processing_rate=2.0, accuracy=0.94)
hard = TaskType("hard-vote", processing_rate=1.0, accuracy=0.72)
TARGET_QUALITY = 0.97

plan = plan_repetitions([easy, hard], target=TARGET_QUALITY)
print(f"Quality target {TARGET_QUALITY}:")
for name, reps in plan.total_votes_per_task.items():
    print(f"  {name}: {reps} votes per question")

# --- the task set the plan implies, as one problem family -------------
# A family holds the fixed task set; the frontier below tunes it at
# many budgets, and the deadline step prices the same tasks.
pricing = LinearPricing(slope=1.0, intercept=1.0)
family = ProblemFamily(
    [
        TaskSpec(i, plan.for_type("easy-vote"), pricing,
                 easy.processing_rate, type_name=easy.name)
        for i in range(8)
    ] + [
        TaskSpec(8 + i, plan.for_type("hard-vote"), pricing,
                 hard.processing_rate, type_name=hard.name)
        for i in range(4)
    ]
)


# --- 2. the tuned budget-latency frontier ------------------------------
budgets = [b for b in (100, 200, 400, 800, 1600, 3200)]
frontier = budget_latency_frontier(family, budgets=budgets)
knee = frontier.knee()
print(
    "\n"
    + format_table(
        ["budget", "tuned E[latency]", ""],
        [
            (p.budget, p.latency, "<-- knee" if p is knee else "")
            for p in frontier.points
        ],
        title="Budget-latency frontier (strategy per point: "
        f"{frontier.points[0].strategy})",
    )
)
print(f"Diminishing returns set in around budget {knee.budget}.")

# --- 3. cheapest allocation for a hard deadline -----------------------
# The hard group needs ~15 sequential votes at λ_p = 1, so its
# processing phase alone takes ~15 time units in expectation; a
# feasible deadline must clear that.
DEADLINE, CONFIDENCE = 30.0, 0.9
# The budget is the output here, so only the family's tasks are used.
result = min_cost_for_deadline(
    family.tasks, deadline=DEADLINE, confidence=CONFIDENCE, max_price=300
)
print(
    f"\nDeadline {DEADLINE} at {CONFIDENCE:.0%} confidence: "
    f"min cost {result.cost} units "
    f"(achieved P = {result.achieved_probability:.3f})"
)
for group_key, price in sorted(result.group_prices.items(), key=str):
    print(f"  group {group_key[0]} x{group_key[1]} reps: {price} units/rep")
