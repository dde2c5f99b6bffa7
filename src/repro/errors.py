"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch every library failure with a single ``except`` clause while
still being able to distinguish the common failure categories.

Every class carries a stable string :attr:`~ReproError.code` — the
machine-readable failure category the resilience layer files error
documents under (see :mod:`repro.resilience.document` and the error
code table in ``docs/robustness.md``).  Codes are part of the public
contract: they never change once shipped, so stored error documents
stay classifiable across versions.
"""

from __future__ import annotations

import difflib
from typing import ClassVar, Iterable

__all__ = [
    "ReproError",
    "BudgetError",
    "InfeasibleAllocationError",
    "ModelError",
    "InferenceError",
    "SimulationError",
    "PlanError",
    "RegistryError",
    "FaultInjectedError",
    "RunTimeoutError",
    "WorkerCrashError",
    "RemoteTaskError",
    "StoreError",
    "StoreCorruptError",
    "StoreStaleError",
    "StoreWriteError",
    "RunNotFoundError",
    "error_code",
]


class ReproError(Exception):
    """Base class for all exceptions raised by the ``repro`` library."""

    #: Stable machine-readable failure category (see module docstring).
    code: ClassVar[str] = "error"


class BudgetError(ReproError, ValueError):
    """Raised when a budget is malformed (non-integral, negative, ...)."""

    code = "budget-invalid"


class InfeasibleAllocationError(BudgetError):
    """Raised when the budget cannot cover the minimum feasible allocation.

    The paper's algorithms require every repetition of every task to
    receive at least one payment unit; a budget smaller than the total
    number of repetitions is infeasible (Algorithm 1, line 2).
    """

    code = "budget-infeasible"

    def __init__(self, budget: int, minimum_required: int) -> None:
        self.budget = int(budget)
        self.minimum_required = int(minimum_required)
        super().__init__(
            f"budget {self.budget} cannot cover the minimum of one unit per "
            f"repetition (need at least {self.minimum_required})"
        )


class ModelError(ReproError, ValueError):
    """Raised for invalid stochastic-model parameters (e.g. rate <= 0)."""

    code = "model-invalid"


class RegistryError(ModelError, LookupError):
    """Raised when a name does not resolve in one of the registries.

    Engines, comparators, experiments, workload families, fault plans,
    and executors all resolve strings through name registries; a miss
    raises this (still a :class:`ModelError`, so existing handlers keep
    working) with a message naming the available entries and — when the
    miss looks like a typo — the closest registered name.
    """

    code = "registry-lookup"

    @classmethod
    def unknown(
        cls,
        kind: str,
        name: object,
        available: Iterable[str],
        hint: str = "",
    ) -> "RegistryError":
        """The canonical registry-miss error for *kind*.

        Builds the shared message shape every registry uses —
        ``unknown <kind> <name!r>; expected one of [...]`` — appending
        a difflib-based *did you mean* suggestion when *name* is close
        to a registered entry, and *hint* (e.g. "or an
        EvaluationEngine instance") when given.
        """
        entries = sorted(str(entry) for entry in available)
        message = f"unknown {kind} {name!r}; expected one of {entries}"
        if hint:
            message += f" {hint}"
        close = difflib.get_close_matches(str(name), entries, n=1, cutoff=0.6)
        if close:
            message += f" — did you mean {close[0]!r}?"
        return cls(message)


class InferenceError(ReproError, RuntimeError):
    """Raised when parameter inference cannot produce an estimate."""

    code = "inference-failed"


class SimulationError(ReproError, RuntimeError):
    """Raised for inconsistent simulator state or invalid event usage."""

    code = "simulation-failed"


class FaultInjectedError(SimulationError):
    """Raised when an active :class:`repro.resilience.FaultPlan` fires.

    Carries the fault coordinates (``site``, ``replication``,
    ``occurrence``) so error documents can replay the exact failure.
    """

    code = "fault-injected"

    def __init__(
        self,
        site: str,
        replication=None,
        occurrence: int = 0,
        detail: str = "",
    ) -> None:
        self.site = site
        self.replication = replication
        self.occurrence = int(occurrence)
        where = f"injected fault at site {site!r} (occurrence {occurrence}"
        if replication is not None:
            where += f", replication {replication}"
        where += ")"
        if detail:
            where += f": {detail}"
        super().__init__(where)


class RunTimeoutError(ReproError, RuntimeError):
    """Raised when a run exceeds its :class:`TimeoutPolicy` budget.

    Timeouts are cooperative: the deadline is checked at the same
    named sites faults inject at, so a run is only interrupted at a
    point where its partial state can be discarded cleanly.
    """

    code = "timeout"

    def __init__(self, seconds: float, site: str = "") -> None:
        self.seconds = float(seconds)
        self.site = site or None
        at = f" at site {site!r}" if site else ""
        super().__init__(
            f"run exceeded its timeout budget of {seconds:g}s{at}"
        )


class WorkerCrashError(ReproError, RuntimeError):
    """Raised when a pool worker process dies under a task.

    The supervisor in :class:`repro.exec.ProcessExecutor` detects the
    death (nonzero exit code, lost pipe, stalled heartbeat), requeues
    the task up to ``RetryPolicy.attempts`` times, and raises/records
    this only once the retry budget is exhausted.  ``site`` mirrors the
    fault-site vocabulary (``worker.task`` / ``worker.spawn``).
    """

    code = "worker-crashed"

    def __init__(
        self,
        message: str,
        worker: int | None = None,
        exit_code: int | None = None,
        site: str = "worker.task",
    ) -> None:
        self.worker = worker
        self.exit_code = exit_code
        self.site = site
        super().__init__(message)


class RemoteTaskError(ReproError, RuntimeError):
    """A task shipped to a worker failed remotely.

    Raised in the parent for ``fail_fast`` batches and sharded
    replication runs when the remote failure class cannot be rebuilt
    locally; the worker's structured account is attached as
    ``error_document``.
    """

    code = "remote-task-failed"


class PlanError(ReproError, ValueError):
    """Raised when a crowd-DB query plan is malformed or unexecutable."""

    code = "plan-invalid"


class StoreError(ReproError, RuntimeError):
    """Base class for persistent result-store failures.

    The store's contract is that *no* failure below it ever produces a
    wrong answer: a raised ``StoreError`` means "this entry cannot be
    served" and the caller falls through to recompute.  Subclasses
    carry the stable quarantine codes recorded in reason documents.
    """

    code = "store-error"


class StoreCorruptError(StoreError):
    """A stored entry failed integrity verification.

    Raised for unreadable files, unparseable JSON, documents missing
    required keys, checksum mismatches, and fingerprint-field
    mismatches.  The offending bytes are quarantined verbatim so the
    corruption stays inspectable.
    """

    code = "store-corrupt"


class StoreStaleError(StoreError):
    """A stored entry's validity envelope no longer matches this process.

    The entry itself is intact, but it was written under a different
    package version, schema version, or engine/comparator registry
    contents — serving it could silently mix incompatible semantics,
    so it is quarantined and recomputed instead.
    """

    code = "store-stale"


class StoreWriteError(StoreError):
    """A store write could not be completed atomically.

    Writes are best-effort from the run's point of view: the computed
    result is still returned, only the memoization is lost.  Sessions
    catch this, count it, and carry on.
    """

    code = "store-write-failed"


class RunNotFoundError(ReproError, LookupError):
    """A run id addressed through the service layer is unknown.

    Run ids are content-addressed fingerprints, so an unknown id means
    the ``(spec, config)`` pair was never submitted to this service
    (or the service restarted without a persistent store backing it).
    """

    code = "run-not-found"

    def __init__(self, run_id: str) -> None:
        self.run_id = str(run_id)
        super().__init__(
            f"unknown run id {self.run_id!r}; submit the spec via "
            "POST /runs first"
        )


def error_code(exc: BaseException) -> str:
    """The stable code of *exc* (``"error"`` for non-library failures)."""
    return getattr(type(exc), "code", None) or "error"
