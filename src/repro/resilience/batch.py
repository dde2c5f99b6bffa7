"""Per-spec batch outcomes: ``SpecOutcome`` and ``BatchReport``.

``Session.run_many`` returns a :class:`BatchReport` instead of raising
on the first failing spec: every spec gets a :class:`SpecOutcome` with
status ``succeeded`` or ``failed`` (carrying the
:class:`~repro.resilience.document.ErrorDocument`).  Iterating the
report yields the completed :class:`~repro.api.session.RunResult`
objects in submission order, so existing
``[r.payload for r in session.run_many(...)]`` callers are unaffected
when nothing fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = ["SpecOutcome", "BatchReport"]


@dataclass(frozen=True)
class SpecOutcome:
    """One spec's fate inside a batch.

    ``served`` marks outcomes served from a verified
    :class:`~repro.store.ResultStore` entry instead of executed.  It is
    bookkeeping only and deliberately excluded from :meth:`to_dict`,
    so resumed and uninterrupted batches serialize byte-identically.
    """

    spec: object
    status: str  # "succeeded" | "failed"
    result: Optional[object] = None
    error: Optional[object] = None
    served: bool = False

    @property
    def ok(self) -> bool:
        return self.status != "failed"

    def to_dict(self) -> dict:
        return {
            "experiment": getattr(self.spec, "name", None),
            "status": self.status,
            "result": self.result.to_dict() if self.result is not None else None,
            "error": self.error.to_dict() if self.error is not None else None,
        }


@dataclass(frozen=True)
class BatchReport:
    """All outcomes of one ``run_many`` batch, in submission order.

    ``events`` is the supervisor's observability stream — worker
    crashes, straggler requeues, respawns, degradation to serial — as
    plain dicts in occurrence order.  Serial batches leave it empty.
    Like :attr:`SpecOutcome.served`, events are bookkeeping only and
    excluded from :meth:`to_dict` unless ``include_events=True``, so
    serial and parallel reports of the same batch serialize
    byte-identically.

    ``store`` is the result-store tally of a memoized batch
    (``run_many(store=...)``): hits / misses / quarantined /
    write_failures counts, ``None`` for unmemoized batches.  Also
    bookkeeping: opt in with ``to_dict(include_store=True)``.
    """

    outcomes: tuple = field(default_factory=tuple)
    events: tuple = field(default_factory=tuple)
    store: Optional[dict] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "events", tuple(self.events))

    # -- views ---------------------------------------------------------

    @property
    def succeeded(self) -> tuple:
        return tuple(o for o in self.outcomes if o.status == "succeeded")

    @property
    def failed(self) -> tuple:
        return tuple(o for o in self.outcomes if o.status == "failed")

    @property
    def served(self) -> tuple:
        """Outcomes served from the result store instead of executed."""
        return tuple(o for o in self.outcomes if o.served)

    @property
    def results(self) -> list:
        """Completed :class:`RunResult` objects, in submission order."""
        return [o.result for o in self.outcomes if o.result is not None]

    def __iter__(self) -> Iterator:
        """Yield completed results — the pre-resilience list contract."""
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> bool:
        return not self.failed

    # -- serialization -------------------------------------------------

    def to_dict(
        self, include_events: bool = False, include_store: bool = False
    ) -> dict:
        out = {
            "total": len(self.outcomes),
            "succeeded": len(self.succeeded),
            "failed": len(self.failed),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }
        if include_events:
            out["events"] = [dict(event) for event in self.events]
        if include_store and self.store is not None:
            out["store"] = dict(self.store)
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchReport(total={len(self.outcomes)}, "
            f"succeeded={len(self.succeeded)}, failed={len(self.failed)})"
        )
