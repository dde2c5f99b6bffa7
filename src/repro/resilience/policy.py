"""Retry / timeout policies and the per-run execution record.

Policies are frozen serializable values carried on
:class:`~repro.api.config.RunConfig`; the resilient executor in
:meth:`repro.api.Session.run` interprets them.  Two hard rules keep
results deterministic:

* backoff delays follow the fixed schedule
  ``min(backoff * 2**k, backoff_cap)`` — no jitter, no wall-clock
  randomness, and (with the default ``backoff=0``) no sleeping at all,
  so retried runs produce byte-identical payloads;
* timeouts are *cooperative*: the deadline is only checked at the
  named fault sites (:func:`repro.resilience.faults.site_check`), so
  a timed-out attempt never leaves partial state behind.

:class:`ExecutionRecord` is the durable account of what the executor
actually did: every failed attempt before the one that produced the
payload.  It serializes into the
:class:`~repro.api.session.RunResult` document only when an attempt
failed, so default-path result documents are byte-identical to the
pre-resilience layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..errors import ModelError

__all__ = ["RetryPolicy", "TimeoutPolicy", "ExecutionRecord", "DEFAULT_RETRY"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times a run is attempted, and how long to wait between.

    The executor runs the spec up to ``attempts`` times.
    ``backoff``/``backoff_cap`` define the deterministic
    capped-exponential delay (seconds) between attempts — delay *k* is
    ``min(backoff * 2**k, backoff_cap)``; the default ``backoff=0``
    retries immediately.
    """

    attempts: int = 1
    backoff: float = 0.0
    backoff_cap: float = 60.0

    def __post_init__(self) -> None:
        if not isinstance(self.attempts, int) or isinstance(
            self.attempts, bool
        ) or self.attempts < 1:
            raise ModelError(
                f"attempts must be an int >= 1, got {self.attempts!r}"
            )
        if float(self.backoff) < 0 or float(self.backoff_cap) < 0:
            raise ModelError(
                "backoff and backoff_cap must be >= 0, got "
                f"{self.backoff!r}/{self.backoff_cap!r}"
            )
        object.__setattr__(self, "backoff", float(self.backoff))
        object.__setattr__(self, "backoff_cap", float(self.backoff_cap))

    def delay(self, attempt: int) -> float:
        """Deterministic backoff before retry *attempt* (0-based)."""
        if self.backoff == 0.0:
            return 0.0
        return min(self.backoff * 2.0**attempt, self.backoff_cap)

    def to_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "backoff": self.backoff,
            "backoff_cap": self.backoff_cap,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RetryPolicy":
        known = {"attempts", "backoff", "backoff_cap"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ModelError(
                f"unknown RetryPolicy keys {unknown}; expected a subset of "
                f"{sorted(known)}"
            )
        return cls(**payload)


#: The policy in force when a config carries none: one attempt —
#: failures propagate exactly as they did pre-resilience.
DEFAULT_RETRY = RetryPolicy()


@dataclass(frozen=True)
class TimeoutPolicy:
    """Cooperative per-attempt wall-clock budget (seconds)."""

    seconds: float

    def __post_init__(self) -> None:
        try:
            seconds = float(self.seconds)
        except (TypeError, ValueError):
            raise ModelError(
                f"timeout seconds must be a number, got {self.seconds!r}"
            ) from None
        if not seconds > 0:
            raise ModelError(
                f"timeout seconds must be > 0, got {self.seconds!r}"
            )
        object.__setattr__(self, "seconds", seconds)

    def to_dict(self) -> dict:
        return {"seconds": self.seconds}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TimeoutPolicy":
        unknown = sorted(set(payload) - {"seconds"})
        if unknown:
            raise ModelError(
                f"unknown TimeoutPolicy keys {unknown}; expected ['seconds']"
            )
        return cls(seconds=payload["seconds"])


@dataclass(frozen=True)
class ExecutionRecord:
    """What the resilient executor did to produce a payload.

    ``attempts`` lists every failed attempt as a small dict (attempt
    index, error code/message, fault site/replication, backoff
    applied).

    ``started_at`` / ``elapsed`` are wall-clock observability — the
    ``time.time()`` instant the run began and its ``time.monotonic()``
    duration in seconds.  Every :meth:`repro.api.Session.run` attaches
    them, but they never enter the default serialized form: a record is
    :attr:`significant` only when an attempt failed, and :meth:`to_dict` omits timing unless
    ``include_timing=True`` (the ``repro run --json`` path), so result
    documents — and therefore stored entries, fingerprint goldens, and
    serial-vs-parallel merges — stay byte-identical across runs.
    """

    attempts: tuple = ()
    started_at: Optional[float] = None
    elapsed: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "attempts", tuple(self.attempts))

    @property
    def significant(self) -> bool:
        """True when an attempt failed (timing excluded)."""
        return bool(self.attempts)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {"attempts": [dict(entry) for entry in self.attempts]}
        if include_timing:
            out["started_at"] = self.started_at
            out["elapsed"] = self.elapsed
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExecutionRecord":
        return cls(
            attempts=tuple(payload.get("attempts", ())),
            started_at=payload.get("started_at"),
            elapsed=payload.get("elapsed"),
        )
