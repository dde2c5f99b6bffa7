"""The Session facade: one object that runs any registered experiment.

A :class:`Session` owns a :class:`~repro.api.config.RunConfig` and the
process-level caches (:mod:`repro.perf.cache` phase-kernel / weight
ladder tables), and exposes exactly two verbs:

* ``run(spec)`` — execute one :class:`~repro.api.spec.ExperimentSpec`
  (or its dict form) and return a typed :class:`RunResult`;
* ``run_many(specs)`` — execute a batch against the *shared* kernel
  tables, so runs probing the same rate profiles amortize each
  other's ladder builds (see the ``session_run_many`` benchmark
  section).

``Session(isolated=True)`` clears the process caches before every run
— cold-start semantics for benchmarking or bit-exact cache-freshness
audits; payloads are identical either way because every cache in the
library is bit-exact.

``run`` is the **resilient executor**: it interprets the config's
fault plan, retry policy and timeout (:mod:`repro.resilience`) in one
attempt loop, recording any failed attempt in the result's
:class:`~repro.resilience.policy.ExecutionRecord`.  With no faults and
default policies the loop runs once and installs nothing — payloads
(and their serialized documents) are byte-identical to a direct
``spec.run``, as the ``session_resilience`` bench section certifies.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Any, Iterable, Mapping, Optional, Union

import numpy as np

from ..errors import ModelError, ReproError
from .config import RunConfig, fingerprint
from .spec import ExperimentSpec

__all__ = ["Session", "RunResult", "payload_to_jsonable"]


def payload_to_jsonable(value: Any) -> Any:
    """Best-effort JSON view of an experiment payload.

    Result dataclasses become field dicts, tuple keys become
    comma-joined strings, numpy scalars/arrays become numbers/lists.
    Lossy by design (it exists for ``--json`` output and logging);
    the lossless artifact is the payload object itself.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: payload_to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {_key(value_k): payload_to_jsonable(v) for value_k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [payload_to_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [payload_to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _key(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, (tuple, list)):
        return ",".join(str(k) for k in key)
    return str(key)


@dataclasses.dataclass(frozen=True)
class RunResult:
    """A finished run: the spec/config that produced it + its payload.

    ``payload`` is exactly the object the spec's ``run`` returns.
    ``fingerprint`` is the run's address
    — a digest of the serialized ``(spec, config)`` pair, the key a
    cache or result store would file this result under.  Computing it
    requires the config to be serializable (integer seed, named
    engine/comparator); runs configured with live generator seeds or
    unregistered engine instances still execute fine, they just cannot
    be fingerprinted.

    ``execution`` is the resilience layer's
    :class:`~repro.resilience.policy.ExecutionRecord`.  Every
    :meth:`Session.run` attaches one (it always carries the run's
    ``started_at``/``elapsed`` timing), but it only *serializes* when
    the record is significant — an attempt failed before the one
    that produced the payload — so default-path documents keep their
    historical layout byte-for-byte; ``to_dict(include_timing=True)``
    (the ``repro run --json`` path) opts the timing in.
    """

    spec: ExperimentSpec
    config: RunConfig
    payload: Any
    execution: Optional[Any] = None

    @property
    def experiment(self) -> str:
        return self.spec.name

    @property
    def fingerprint(self) -> str:
        return fingerprint(
            {"spec": self.spec.to_dict(), "config": self.config.to_dict()}
        )

    def to_dict(self, include_timing: bool = False) -> dict:
        """JSON-able document: spec + config + fingerprint + payload
        (+ ``execution`` when the resilient executor recorded
        something non-default, or ``include_timing=True`` opts the
        always-present wall-clock record in)."""
        out = {
            "experiment": self.experiment,
            "spec": self.spec.to_dict(),
            "config": self.config.to_dict(),
            "fingerprint": self.fingerprint,
            "payload": payload_to_jsonable(self.payload),
        }
        if self.execution is not None and (
            include_timing or self.execution.significant
        ):
            out["execution"] = self.execution.to_dict(
                include_timing=include_timing
            )
        return out

    def to_json(
        self, indent: Optional[int] = None, include_timing: bool = False
    ) -> str:
        return json.dumps(
            self.to_dict(include_timing=include_timing),
            sort_keys=True,
            indent=indent,
        )

    @classmethod
    def from_document(cls, document: Mapping) -> "RunResult":
        """Rebuild a result from its :meth:`to_dict` document.

        The payload stays in its JSON form (``payload_to_jsonable`` is
        idempotent on it), so a restored result re-serializes
        byte-identically — the property checkpoint resume relies on.
        """
        from ..resilience.policy import ExecutionRecord

        execution = document.get("execution")
        return cls(
            spec=ExperimentSpec.from_dict(document["spec"]),
            config=RunConfig.from_dict(document["config"]),
            payload=document["payload"],
            execution=(
                ExecutionRecord.from_dict(execution)
                if execution is not None
                else None
            ),
        )


class _BatchBook:
    """Journal + store bookkeeping shared by ``run(store=...)`` and both
    ``run_many`` paths.

    Per spec, :meth:`resume` restores a journaled completion (and
    backfills the store if its entry was evicted) or serves a verified
    store hit; :meth:`record` journals a fresh completion and writes
    it back to the store.  One fault state and one tally cover the
    whole batch, so ``store.*`` occurrence indexes count across it
    (``at=[2]`` fires on the third store operation of the batch,
    whichever spec reaches it) — which is why the per-spec order of
    store operations here is fixed.
    """

    def __init__(self, session: "Session", checkpoint, store) -> None:
        from ..resilience.checkpoint import CheckpointJournal

        self.journal = self.completed = None
        if checkpoint is not None:
            self.journal = CheckpointJournal(checkpoint)
            self.completed = self.journal.load()
        self.store = self.state = self.counts = None
        if store is not None:
            from ..store import resolve_store

            self.store = resolve_store(store)
            self.state = session._store_fault_state()
            self.counts = {
                "hits": 0, "misses": 0, "quarantined": 0, "write_failures": 0,
            }

    @property
    def active(self) -> bool:
        return self.journal is not None or self.store is not None

    def resume(self, spec: ExperimentSpec, token: str):
        """The spec's outcome without executing it, or ``None``."""
        from ..resilience.batch import SpecOutcome

        if self.journal is not None:
            entry = self.completed.get(token)
            if entry is not None:
                outcome = SpecOutcome(
                    spec=spec,
                    status="succeeded",
                    result=RunResult.from_document(entry["result"]),
                    restored=True,
                )
                if self.store is not None and token not in self.store:
                    # Journal line wins; backfill the evicted store
                    # entry so future batches hit without a journal.
                    self._put(token, entry["result"])
                return outcome
        if self.store is not None:
            lookup = self.store.lookup(token, fault_state=self.state)
            if lookup.quarantined:
                self.counts["quarantined"] += 1
            if lookup.hit:
                self.counts["hits"] += 1
                if self.journal is not None:
                    self.journal.append(token, lookup.result)
                return SpecOutcome(
                    spec=spec,
                    status="succeeded",
                    result=RunResult.from_document(lookup.result),
                    served=True,
                )
            self.counts["misses"] += 1
        return None

    def record(self, token: str, result_doc: dict) -> None:
        """Journal a completed spec, then write it to the store."""
        if self.journal is not None:
            self.journal.append(token, result_doc)
        if self.store is not None:
            self._put(token, result_doc)

    def _put(self, token: str, result_doc: dict) -> None:
        """Best-effort store write: failures are counted, never raised."""
        from ..errors import StoreError

        try:
            self.store.put(token, result_doc, fault_state=self.state)
        except StoreError:
            self.counts["write_failures"] += 1

    def report(self, outcomes, events=()):
        from ..resilience.batch import BatchReport

        return BatchReport(
            outcomes,
            events=events,
            store=dict(self.counts) if self.store is not None else None,
        )


class Session:
    """Facade over the experiment registry and the process caches.

    Parameters
    ----------
    config:
        The run configuration every ``run``/``run_many`` call uses
        (default: ``RunConfig()`` — default engine/comparator, seed 0,
        one replication).
    isolated:
        When true, the process-level phase-kernel caches are cleared
        before **each** run — every run pays its own kernel builds.
        The default (shared) mode lets batched runs reuse each other's
        weight-ladder and cdf tables; outputs are bit-identical either
        way.
    """

    def __init__(
        self,
        config: Optional[RunConfig] = None,
        isolated: bool = False,
    ) -> None:
        if config is None:
            config = RunConfig()
        if not isinstance(config, RunConfig):
            raise ModelError(
                f"config must be a RunConfig, got {config!r} (build one "
                "with RunConfig(engine=..., seed=...))"
            )
        self.config = config
        self.isolated = bool(isolated)
        self.runs_completed = 0

    # -- execution -----------------------------------------------------

    def run(
        self,
        spec: Union[ExperimentSpec, Mapping, str],
        *,
        store=None,
    ) -> RunResult:
        """Execute *spec* under this session's config.

        *spec* may be an :class:`ExperimentSpec`, its ``to_dict``
        document, or a bare registered experiment name (default
        params).  Returns a :class:`RunResult` whose payload is
        byte-identical however the spec was given.

        ``store`` (a :class:`~repro.store.ResultStore` or a directory
        path) memoizes the run by fingerprint: a verified stored entry
        is served without executing anything (the restored result
        serializes byte-identically to the computed one), a miss
        executes and writes the entry back atomically.  Store failures
        never fail the run — an unwritable entry just loses the
        memoization, a corrupt/stale entry is quarantined and the run
        recomputes.  Like :attr:`RunConfig.executor`, the store is
        orchestration, not identity: it never enters the fingerprint.
        """
        spec = self._normalize_spec(spec)
        if self.config.recorder is not None and not spec.uses_recorder:
            # Refuse rather than fingerprint a policy that was never
            # applied: the built-in figures compute their outputs from
            # their own trace records, so a requested "null"/"trace"
            # policy would be a silent no-op in the stored document.
            raise ModelError(
                f"experiment {spec.name!r} does not consume the recorder "
                f"policy (config.recorder={self.config.recorder!r}); only "
                "specs with uses_recorder=True honor it"
            )
        if store is not None:
            return self._run_stored(spec, store)
        return self._run_normalized(spec)

    def _run_stored(self, spec: ExperimentSpec, store) -> RunResult:
        """The memoized path: store lookup → serve or compute+write."""
        book = _BatchBook(self, None, store)
        token = fingerprint(
            {"spec": spec.to_dict(), "config": self.config.to_dict()}
        )
        outcome = book.resume(spec, token)
        if outcome is not None:
            return outcome.result
        result = self._run_normalized(spec)
        book.record(token, result.to_dict())
        return result

    def _store_fault_state(self):
        """A fresh fault state for the ``store.*`` sites, or ``None``.

        The store consults an explicitly passed state (the ``worker.*``
        pattern) with its own occurrence counters, independent of the
        per-attempt states the resilient executor activates.
        """
        from ..resilience.faults import resolve_fault_plan

        plan = resolve_fault_plan(self.config.faults)
        return plan.activate() if plan is not None else None

    def _run_normalized(self, spec: ExperimentSpec) -> RunResult:
        """Run *spec* attempt by attempt under the config's policies.

        ``retry.attempts`` tries (one by default), each with a fresh
        fault state (the same deterministic fault sequence unless a
        rule's ``on_attempts`` says otherwise) and its own cooperative
        timeout deadline.  With no faults and no timeout,
        ``runtime_scope(None, None)`` installs nothing, so the default
        path is one direct execution.  Failed attempts are logged into
        the result's :class:`~repro.resilience.policy.ExecutionRecord`;
        when every attempt fails, the last failure is re-raised with
        its :class:`~repro.resilience.document.ErrorDocument` attached.
        """
        from ..resilience.document import ErrorDocument
        from ..resilience.faults import resolve_fault_plan, runtime_scope, site_check
        from ..resilience.policy import DEFAULT_RETRY, ExecutionRecord

        config = self.config
        retry = config.retry if config.retry is not None else DEFAULT_RETRY
        plan = resolve_fault_plan(config.faults)
        timeout = (
            config.timeout.seconds if config.timeout is not None else None
        )

        attempts_log: list[dict] = []
        started_at = time.time()
        t0 = time.monotonic()
        for attempt in range(retry.attempts):
            state = plan.activate(attempt=attempt) if plan is not None else None
            try:
                with runtime_scope(state, timeout):
                    site_check("run.start")
                    if self.isolated:
                        from ..perf.cache import clear_phase_caches

                        clear_phase_caches()
                    payload = spec.run(self)
            except ReproError as exc:
                delay = retry.delay(attempt)
                attempts_log.append(
                    {
                        "attempt": attempt,
                        "code": getattr(type(exc), "code", "error"),
                        "error": type(exc).__name__,
                        "message": str(exc),
                        "site": getattr(exc, "site", None),
                        "replication": getattr(exc, "replication", None),
                        "backoff": delay,
                    }
                )
                if attempt + 1 == retry.attempts:
                    exc.error_document = ErrorDocument.capture(
                        exc, spec=spec, config=config
                    )
                    raise
                if delay > 0.0:
                    time.sleep(delay)
                continue
            self.runs_completed += 1
            return RunResult(
                spec=spec,
                config=config,
                payload=payload,
                execution=ExecutionRecord(
                    attempts=tuple(attempts_log),
                    started_at=started_at,
                    elapsed=time.monotonic() - t0,
                ),
            )

    def run_many(
        self,
        specs: Iterable[Union[ExperimentSpec, Mapping, str]],
        *,
        fail_fast: bool = False,
        checkpoint=None,
        executor=None,
        store=None,
    ):
        """Execute a batch of specs against the shared kernel tables.

        Runs execute in order under one config; every phase-kernel /
        weight-ladder table built by one run is visible to the next
        (unless the session is ``isolated``), which is what makes a
        batched submission cheaper than cold per-run sessions — see
        the ``session_run_many`` section of
        ``benchmarks/bench_perf_engine.py``.

        Returns a :class:`~repro.resilience.batch.BatchReport`: one
        :class:`~repro.resilience.batch.SpecOutcome` per spec
        (``succeeded`` / ``failed``), in submission order.  Per-spec
        failures are captured as
        :class:`~repro.resilience.document.ErrorDocument` entries
        instead of raising, unless ``fail_fast=True``.  Iterating the
        report yields the completed :class:`RunResult` objects, so
        all-success batches behave like the historical list.

        ``checkpoint`` names a JSONL journal file
        (:class:`~repro.resilience.checkpoint.CheckpointJournal`):
        completed specs are journaled as they finish, and a resumed
        batch skips (and restores) every journaled fingerprint —
        producing a report that serializes byte-identically to the
        uninterrupted run's.

        ``executor`` (or ``config.executor``) fans the batch across an
        executor from the :mod:`repro.exec` registry — ``"serial"``
        exercises the wire format in-process, ``"process"`` runs the
        supervised worker pool (crash recovery, straggler requeue,
        degradation to serial; see :mod:`repro.exec.process`).
        ``None`` keeps the historical inline loop.  Payloads are
        executor-invariant, so the returned report serializes
        byte-identically whichever path ran it; supervisor
        observability lands in :attr:`BatchReport.events` and as
        ``{"event": ...}`` audit lines in the checkpoint journal.

        ``store`` (a :class:`~repro.store.ResultStore` or a directory
        path) makes the batch memoized: verified stored entries are
        served without executing (``SpecOutcome.served``), misses
        execute and are written back, and the hit/miss/quarantine
        tally lands in :attr:`BatchReport.store`.  With both
        ``checkpoint=`` and ``store=``, the journal line wins — a spec
        journaled but evicted from (or corrupted in) the store is
        restored from the journal, never re-executed, and the store is
        backfilled from the journal entry on resume.
        """
        from ..resilience.batch import SpecOutcome
        from ..resilience.document import ErrorDocument

        normalized = [self._normalize_spec(spec) for spec in specs]
        if executor is None:
            executor = self.config.executor
        if executor is not None:
            return self._run_many_executor(
                normalized,
                executor,
                fail_fast=fail_fast,
                checkpoint=checkpoint,
                store=store,
            )
        book = _BatchBook(self, checkpoint, store)
        outcomes = []
        for spec in normalized:
            token = None
            if book.active:
                token = fingerprint(
                    {
                        "spec": spec.to_dict(),
                        "config": self.config.to_dict(),
                    }
                )
                outcome = book.resume(spec, token)
                if outcome is not None:
                    outcomes.append(outcome)
                    continue
            try:
                result = self.run(spec)
            except ReproError as exc:
                if fail_fast:
                    raise
                outcomes.append(
                    SpecOutcome(
                        spec=spec,
                        status="failed",
                        error=ErrorDocument.capture(
                            exc, spec=spec, config=self.config
                        ),
                    )
                )
                continue
            outcomes.append(
                SpecOutcome(spec=spec, status="succeeded", result=result)
            )
            if token is not None:
                book.record(token, result.to_dict())
        return book.report(outcomes)

    def _run_many_executor(
        self, specs: list, executor, *, fail_fast: bool, checkpoint, store=None
    ):
        """The ``run_many`` fan-out path: wire tasks on an executor.

        Each spec becomes an :class:`~repro.exec.ExecTask` carrying the
        serialized ``(spec, config)`` pair; completed tasks come back
        as result documents and are restored with
        :meth:`RunResult.from_document` — the byte-identity inverse —
        so the merged report serializes exactly like the inline loop's.
        Checkpointing and resume share the inline path's journal
        format; supervisor events are appended both to the report and
        (as skip-on-load audit lines) to the journal.

        The store is consulted and written **in the parent only**:
        hits are filtered out before dispatch and misses are written
        back as completions arrive, so pool workers never touch the
        store and concurrent same-key writes within one batch are
        impossible by construction (cross-batch races are safe at the
        file level — see :meth:`repro.store.ResultStore.put`).
        """
        from ..exec import ExecTask, resolve_executor
        from ..resilience.batch import SpecOutcome
        from ..resilience.document import ErrorDocument
        from ..errors import RemoteTaskError

        resolved = resolve_executor(executor)
        book = _BatchBook(self, checkpoint, store)
        config_doc = self.config.to_dict()  # wire format: must serialize
        outcomes: list = [None] * len(specs)
        tasks = []
        for index, spec in enumerate(specs):
            token = fingerprint(
                {"spec": spec.to_dict(), "config": config_doc}
            )
            outcomes[index] = book.resume(spec, token)
            if outcomes[index] is None:
                tasks.append(
                    ExecTask(
                        index=index,
                        kind="run",
                        spec=spec.to_dict(),
                        config=config_doc,
                        fingerprint=token,
                    )
                )

        events: list = []

        def on_event(event: dict) -> None:
            events.append(dict(event))
            if book.journal is not None:
                book.journal.append_event(event)

        def on_complete(task, outcome) -> None:
            if outcome.ok:
                book.record(task.fingerprint, outcome.result)

        from ..perf.cache import export_ladder_state

        task_outcomes = resolved.run_tasks(
            tasks,
            fail_fast=fail_fast,
            faults=self.config.faults,
            retry=self.config.retry,
            timeout=self.config.timeout,
            on_complete=on_complete,
            on_event=on_event,
            # Hand the parent's warm kernel-cache state to pool workers
            # so small batches don't pay per-worker cold ladder builds.
            warmup=export_ladder_state(),
        )
        self.runs_completed += sum(1 for o in task_outcomes if o.ok)

        first_error = None
        for outcome in task_outcomes:
            spec = specs[outcome.index]
            if outcome.ok:
                outcomes[outcome.index] = SpecOutcome(
                    spec=spec,
                    status="succeeded",
                    result=RunResult.from_document(outcome.result),
                )
            else:
                error = ErrorDocument.from_dict(outcome.error)
                if first_error is None:
                    first_error = error
                outcomes[outcome.index] = SpecOutcome(
                    spec=spec, status="failed", error=error
                )
        if fail_fast and first_error is not None:
            exc = RemoteTaskError(
                f"batch task failed on executor {resolved.name!r}: "
                f"{first_error.message}"
            )
            exc.error_document = first_error
            raise exc
        missing = [i for i, o in enumerate(outcomes) if o is None]
        if missing:
            # fail_fast executors may stop dispatching after a failure;
            # without fail_fast every task must come back.
            raise ModelError(
                f"executor {resolved.name!r} returned no outcome for "
                f"tasks {missing}"
            )
        return book.report(outcomes, events)

    # -- introspection -------------------------------------------------

    @property
    def resolved(self):
        """The config with defaults resolved (see
        :meth:`RunConfig.resolve`); computed on demand so configs
        carrying experiment-interpreted raw values (e.g. Fig. 4's
        ``engine="aggregate"``) never fail eagerly."""
        return self.config.resolve()

    def cache_stats(self) -> dict:
        """Hit/miss counters of the process-level phase-kernel caches."""
        from ..perf.cache import phase_cache_stats

        return phase_cache_stats()

    def clear_caches(self) -> None:
        """Drop the process-level phase-kernel caches."""
        from ..perf.cache import clear_phase_caches

        clear_phase_caches()

    def _normalize_spec(self, spec) -> ExperimentSpec:
        if isinstance(spec, ExperimentSpec):
            return spec
        if isinstance(spec, str):
            from .spec import get_experiment

            return get_experiment(spec)()
        if isinstance(spec, Mapping):
            return ExperimentSpec.from_dict(spec)
        raise ModelError(
            f"cannot run {spec!r}; expected an ExperimentSpec, a spec "
            "dict, or a registered experiment name"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "isolated" if self.isolated else "shared"
        return (
            f"Session({self.config!r}, {mode}, "
            f"runs_completed={self.runs_completed})"
        )
