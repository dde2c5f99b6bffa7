"""Live crowd market: a persistent budget ledger over the pricing kernels.

The batch experiments answer "what would this budget buy?"; the
service's market endpoint answers it *online*: task batches arrive one
request at a time, each is priced by the same DP / deadline kernels
the figures use (:class:`~repro.core.tuner.Tuner` strategies for a
fixed batch budget, :func:`~repro.core.deadline.min_cost_for_deadline`
for a latency target), and the cost is charged against one live
ledger that persists across requests.  A batch the remaining budget
cannot cover is rejected with
:class:`~repro.errors.InfeasibleAllocationError` — the service maps
that to a 409 with a typed
:class:`~repro.resilience.document.ErrorDocument`, and the ledger is
left untouched (charges are all-or-nothing).

Determinism: allocation requests carry no randomness (the DP and
deadline kernels are rng-free), so a fixed request sequence produces a
fixed ledger trajectory — :meth:`LiveMarket.state_document` exposes a
``trajectory_digest`` over the accepted charge sequence that the
seeded load generator asserts on.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional

from ..core.deadline import min_cost_for_deadline
from ..core.tuner import STRATEGIES, Tuner
from ..errors import InfeasibleAllocationError, ModelError
from ..workloads.families import available_families, scenario_family

__all__ = ["LiveMarket", "DEFAULT_MARKET_BUDGET"]

#: Ledger units a service starts with unless configured otherwise.
DEFAULT_MARKET_BUDGET = 100_000

#: How many open-task entries ``state_document`` inlines (the full
#: count is always reported; the tail keeps state responses bounded).
_STATE_TAIL = 20


def _group_price_rows(group_prices: dict) -> list[dict]:
    """JSON-able rows for a ``group key -> price`` mapping."""
    rows = []
    for key, price in group_prices.items():
        type_name, repetitions, processing_rate = key
        rows.append(
            {
                "type": type_name,
                "repetitions": int(repetitions),
                "processing_rate": float(processing_rate),
                "price": int(price),
            }
        )
    return rows


def _number(request: dict, key: str, default, cast):
    """``cast(request[key])`` (or of *default*), rejecting anything
    that is not a finite number as a :class:`ModelError`.

    Python's ``json`` parses ``NaN`` and ``Infinity``; neither prices.
    """
    value = request.get(key, default)
    try:
        if math.isfinite(float(value)):
            return cast(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ModelError(f"{key!r} must be a finite number, got {value!r}")


class LiveMarket:
    """A budget ledger plus open-task queue fed by allocate requests.

    Parameters
    ----------
    budget:
        Total ledger units available to accepted batches.
    """

    def __init__(self, budget: int = DEFAULT_MARKET_BUDGET) -> None:
        budget = int(budget)
        if budget < 0:
            raise ModelError(f"market budget must be >= 0, got {budget}")
        self.budget = budget
        self.spent = 0
        self.accepted = 0
        self.rejected = 0
        self.open_tasks: list[dict] = []
        self._digest = hashlib.sha256()

    @property
    def remaining(self) -> int:
        return self.budget - self.spent

    # -- pricing -------------------------------------------------------

    def _price(self, request: dict) -> tuple[dict, int]:
        """Price one batch request; returns ``(allocation doc, cost)``."""
        scenario = request.get("scenario")
        if not isinstance(scenario, str) or not scenario:
            raise ModelError(
                "an allocate request needs a 'scenario' (one of "
                f"{sorted(available_families())})"
            )
        case = str(request.get("case", "a"))
        n_tasks = _number(request, "n_tasks", 8, int)
        family = scenario_family(scenario, case=case, n_tasks=n_tasks)

        has_budget = "budget" in request
        has_deadline = "deadline" in request
        if has_budget == has_deadline:
            raise ModelError(
                "an allocate request needs exactly one of 'budget' "
                "(batch budget for the DP kernels) or 'deadline' "
                "(latency target for the deadline kernel)"
            )

        if has_budget:
            batch_budget = _number(request, "budget", None, int)
            strategy = str(request.get("strategy", "auto"))
            if strategy != "auto" and strategy not in STRATEGIES:
                raise ModelError(
                    f"unknown strategy {strategy!r}; expected 'auto' or one "
                    f"of {sorted(STRATEGIES)}"
                )
            problem = family.problem_at(batch_budget)
            # A fixed default seed keeps rng-using strategies (EA's
            # remainder placement) deterministic per request, so a
            # replayed schedule reproduces the ledger trajectory.
            tuner = Tuner(strategy=strategy, seed=_number(request, "seed", 0, int))
            allocation = tuner.tune(problem)
            prices = {
                g.key: allocation[g.tasks[0].task_id][0]
                for g in problem.groups()
            }
            doc = {
                "mode": "budget",
                "scenario": scenario,
                "case": case,
                "n_tasks": n_tasks,
                "strategy": tuner.resolve_strategy(problem),
                "batch_budget": batch_budget,
                "group_prices": _group_price_rows(prices),
            }
            return doc, int(allocation.total_cost)

        deadline = _number(request, "deadline", None, float)
        confidence = _number(request, "confidence", 0.9, float)
        max_price = _number(request, "max_price", 1_000, int)
        result = min_cost_for_deadline(
            family.tasks,
            deadline,
            confidence=confidence,
            max_price=max_price,
        )
        doc = {
            "mode": "deadline",
            "scenario": scenario,
            "case": case,
            "n_tasks": n_tasks,
            "deadline": deadline,
            "confidence": confidence,
            "achieved_probability": result.achieved_probability,
            "group_prices": _group_price_rows(result.group_prices),
        }
        return doc, int(result.cost)

    # -- the ledger ----------------------------------------------------

    def allocate(self, request: dict) -> dict:
        """Price *request*, charge the ledger, enqueue the open batch.

        Raises :class:`~repro.errors.ModelError` on a malformed request
        (no charge) and :class:`~repro.errors.InfeasibleAllocationError`
        when the remaining ledger cannot cover the priced cost (the
        rejection is counted, the ledger stays untouched).
        """
        doc, cost = self._price(request)
        if cost > self.remaining:
            self.rejected += 1
            raise InfeasibleAllocationError(self.remaining, cost)
        allocation_id = f"a{self.accepted:06d}"
        self.spent += cost
        self.accepted += 1
        self._digest.update(f"{allocation_id}:{cost};".encode("ascii"))
        entry = dict(doc, allocation_id=allocation_id, cost=cost)
        self.open_tasks.append(entry)
        return dict(entry, remaining_budget=self.remaining)

    def state_document(self) -> dict:
        """The ledger + open-task queue as one JSON-able document."""
        return {
            "ledger": {
                "budget": self.budget,
                "spent": self.spent,
                "remaining": self.remaining,
                "accepted": self.accepted,
                "rejected": self.rejected,
            },
            "trajectory_digest": self._digest.hexdigest()[:16],
            "open_tasks": {
                "count": len(self.open_tasks),
                "tail": self.open_tasks[-_STATE_TAIL:],
            },
        }
