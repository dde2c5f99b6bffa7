"""Run configuration: the *how* of an experiment run, as one value.

Every entry point into the reproduction used to thread ``engine=``,
``comparator=``, ``seed=``, ``replications=`` and recorder choices as
loose keyword arguments from the CLI through the runner into the
figure harnesses.  :class:`RunConfig` captures all of them in one
frozen, serializable object:

* **engine** — Monte-Carlo / replication engine (a name registered in
  :mod:`repro.perf.engine`, an
  :class:`~repro.perf.engine.EvaluationEngine` instance, or ``None``
  for the default).  Every registered name runs the same sampler and
  replication fan-out, so the name never changes a payload; it labels
  the ``engine.sample`` fault site.  Experiments whose historical
  ``engine=None`` means "the seed aggregate path" (Fig. 4 / Fig. 5ab)
  read the raw field, so ``None`` and ``"aggregate"`` give the seed
  figures.
* **comparator** — deadline comparator name (``None`` for the
  default).  Every builtin name runs the one grid solver, so the name
  never changes a payload beyond its ``comparator`` echo.
* **recorder** — trace policy: ``None`` (each experiment's own
  default), ``"trace"`` (full per-replication traces), or ``"null"``
  (the no-op :data:`~repro.market.trace.NULL_RECORDER`).
* **seed** — base :data:`~repro.stats.rng.RandomState`; replication
  fan-out derives substreams via
  :func:`repro.stats.rng.replication_seeds`.
* **replications** — independent seeded worlds per experiment cell.
* **faults** — a :class:`~repro.resilience.FaultPlan` (registered
  name, inline plan, or its dict form) deterministically injected
  while the run executes; ``None`` (the default) injects nothing.
* **retry** — a :class:`~repro.resilience.RetryPolicy` (attempts and
  deterministic capped backoff); ``None`` means one attempt.
* **timeout** — a :class:`~repro.resilience.TimeoutPolicy` (or bare
  seconds) checked cooperatively at the fault sites.
* **executor** — where ``Session.run_many`` batches execute: ``None``
  (the historical inline loop), a name registered in
  :mod:`repro.exec` (``"serial"`` / ``"process"``), or an
  :class:`~repro.exec.Executor` instance.

The three resilience fields serialize **only when set**, so default
configs — and therefore every pre-existing fingerprint — are
unchanged.  ``executor`` never serializes at all: it is orchestration,
not run identity — the same ``(spec, config)`` pair produces the same
payload on every executor, and keeping it out of :meth:`to_dict` is
what makes serial and process runs share fingerprints, result-store
entries, and golden documents byte-for-byte.

``RunConfig.resolve()`` is the **single place** ``None`` defaulting
happens: it delegates to :func:`repro.perf.engine.resolve_engine` and
:func:`repro.perf.deadline.get_deadline_comparator`, both of which
also accept the config object itself wherever an ``engine=`` /
``comparator=`` parameter appears in the library.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Mapping, Optional, Union

import numpy as np

from ..errors import ModelError
from ..stats.rng import RandomState

__all__ = [
    "RunConfig",
    "ResolvedRunConfig",
    "RECORDER_POLICIES",
    "fingerprint",
]

#: Accepted values of :attr:`RunConfig.recorder`.
RECORDER_POLICIES = (None, "trace", "null")


def fingerprint(payload: Any) -> str:
    """Short, stable digest of a JSON-able payload.

    Canonical JSON (sorted keys, minimal separators) hashed with
    SHA-256 and truncated to 16 hex chars — the addressing token a
    cache / queue / result store keys runs by.
    """
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunConfig:
    """Execution strategy + seeding for an experiment run (frozen).

    Separates *what* to run (an
    :class:`~repro.api.spec.ExperimentSpec`) from *how* to run it; a
    ``(spec, config)`` pair fully determines a run's output, which is
    what makes runs addressable, replayable, and batchable.
    """

    engine: Union[str, None, object] = None
    comparator: Optional[str] = None
    recorder: Optional[str] = None
    seed: RandomState = 0
    replications: int = 1
    faults: Union[str, Mapping, None, object] = None
    retry: Union[Mapping, None, object] = None
    timeout: Union[int, float, Mapping, None, object] = None
    executor: Union[str, None, object] = None

    def __post_init__(self) -> None:
        if not isinstance(self.replications, (int, np.integer)) or isinstance(
            self.replications, bool
        ):
            raise ModelError(
                f"replications must be an int, got {self.replications!r}"
            )
        if self.replications < 1:
            raise ModelError(
                f"replications must be >= 1, got {self.replications}"
            )
        if self.comparator is not None and not isinstance(
            self.comparator, str
        ):
            raise ModelError(
                f"comparator must be a registered deadline comparator "
                f"name or None — got {self.comparator!r}"
            )
        if self.recorder not in RECORDER_POLICIES:
            raise ModelError(
                f"unknown recorder policy {self.recorder!r}; expected one "
                f"of {RECORDER_POLICIES}"
            )
        # Normalize the resilience fields eagerly (strings stay strings
        # — registry resolution happens at run time, like engines).
        from ..resilience.faults import FaultPlan
        from ..resilience.policy import RetryPolicy, TimeoutPolicy

        if isinstance(self.faults, Mapping):
            object.__setattr__(self, "faults", FaultPlan.from_dict(self.faults))
        elif self.faults is not None and not isinstance(
            self.faults, (str, FaultPlan)
        ):
            raise ModelError(
                f"faults must be a registered plan name, a FaultPlan, its "
                f"dict form, or None — got {self.faults!r}"
            )
        if isinstance(self.retry, Mapping):
            object.__setattr__(self, "retry", RetryPolicy.from_dict(self.retry))
        elif self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ModelError(
                f"retry must be a RetryPolicy, its dict form, or None — "
                f"got {self.retry!r}"
            )
        if isinstance(self.timeout, (int, float)) and not isinstance(
            self.timeout, bool
        ):
            object.__setattr__(self, "timeout", TimeoutPolicy(self.timeout))
        elif isinstance(self.timeout, Mapping):
            object.__setattr__(
                self, "timeout", TimeoutPolicy.from_dict(self.timeout)
            )
        elif self.timeout is not None and not isinstance(
            self.timeout, TimeoutPolicy
        ):
            raise ModelError(
                f"timeout must be seconds, a TimeoutPolicy, its dict form, "
                f"or None — got {self.timeout!r}"
            )
        if self.executor is not None and not (
            isinstance(self.executor, str)
            or hasattr(self.executor, "run_tasks")
        ):
            raise ModelError(
                f"executor must be a registered executor name, an Executor "
                f"instance, or None — got {self.executor!r}"
            )

    # -- resolution ----------------------------------------------------

    def resolve(self) -> "ResolvedRunConfig":
        """Resolve every ``None`` default into a concrete strategy.

        The one place defaulting happens: the engine resolves through
        :func:`repro.perf.engine.resolve_engine`, the comparator
        through :func:`repro.perf.deadline.get_deadline_comparator`,
        and the recorder policy into a recorder factory.  Unknown
        names fail here, before any work runs.
        """
        from ..perf.deadline import (
            DEFAULT_DEADLINE_COMPARATOR,
            get_deadline_comparator,
        )
        from ..perf.engine import resolve_engine

        engine = resolve_engine(self.engine)
        return ResolvedRunConfig(
            engine=engine,
            engine_name=engine.name,
            comparator=get_deadline_comparator(self.comparator),
            comparator_name=self.comparator or DEFAULT_DEADLINE_COMPARATOR,
            recorder=self.recorder,
            seed=self.seed,
            replications=self.replications,
        )

    def replace(self, **overrides) -> "RunConfig":
        """A copy with *overrides* applied (configs are immutable)."""
        return replace(self, **overrides)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form; raises :class:`ModelError` on unserializable
        members (engine instances resolve to their registered names,
        generator seeds cannot be serialized).  The
        resilience fields are emitted only when set, so default configs
        keep their historical five-key layout and fingerprints.  The
        ``executor`` field is deliberately never emitted: payloads are
        executor-invariant, so where a run executes must not change its
        fingerprint or its wire document (a worker receiving this dict
        runs inline — no recursive pool)."""
        out = {
            "engine": _engine_token(self.engine),
            "comparator": self.comparator,
            "recorder": self.recorder,
            "seed": _seed_token(self.seed),
            "replications": int(self.replications),
        }
        if self.faults is not None:
            out["faults"] = (
                self.faults
                if isinstance(self.faults, str)
                else self.faults.to_dict()
            )
        if self.retry is not None:
            out["retry"] = self.retry.to_dict()
        if self.timeout is not None:
            out["timeout"] = self.timeout.to_dict()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ModelError(
                f"unknown RunConfig keys {unknown}; expected a subset of "
                f"{sorted(known)}"
            )
        return cls(**dict(payload))

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> str:
        """Digest of the serialized config (see :func:`fingerprint`)."""
        return fingerprint(self.to_dict())


@dataclass(frozen=True)
class ResolvedRunConfig:
    """A :class:`RunConfig` with every default made concrete.

    ``engine`` is an :class:`~repro.perf.engine.EvaluationEngine`
    instance and ``comparator`` a callable; the ``*_name`` fields are
    the display/serialization names.  ``make_recorders(n)`` applies
    the recorder policy: ``None`` returns ``None`` (let the experiment
    pick), ``"trace"`` returns *n* fresh
    :class:`~repro.market.trace.TraceRecorder` objects, ``"null"``
    returns the shared no-op sentinel.
    """

    engine: object
    engine_name: str
    comparator: Callable
    comparator_name: str
    recorder: Optional[str]
    seed: RandomState
    replications: int

    def make_recorders(self, n: int):
        if self.recorder is None:
            return None
        if self.recorder == "trace":
            from ..market.trace import TraceRecorder

            return [TraceRecorder() for _ in range(n)]
        from ..market.trace import NULL_RECORDER

        return NULL_RECORDER

    def replication_seeds(self) -> list:
        """The run's per-replication seeds (the shared protocol of
        :func:`repro.stats.rng.replication_seeds`)."""
        from ..stats.rng import replication_seeds

        return replication_seeds(self.seed, self.replications)


def _engine_token(engine) -> Optional[str]:
    if engine is None or isinstance(engine, str):
        return engine
    name = getattr(engine, "name", None)
    if isinstance(name, str) and name:
        from ..perf.engine import available_engines

        if name in available_engines():
            return name
    raise ModelError(
        f"engine {engine!r} is not serializable; register it "
        "(repro.perf.engine.register_engine) and reference it by name"
    )


def _seed_token(seed):
    if seed is None or isinstance(seed, bool):
        if seed is None:
            return None
        raise ModelError(f"seed must be an int or None, got {seed!r}")
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ModelError(
        f"seed {seed!r} is not serializable; pass an int (generators "
        "and seed sequences carry hidden state)"
    )
