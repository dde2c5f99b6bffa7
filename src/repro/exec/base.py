"""Executor protocol + registry: *where* a batch of runs executes.

An :class:`Executor` consumes :class:`ExecTask` wire documents — a
``(spec, config)`` pair serialized with the library's own
``to_dict`` forms, or a picklable callable for replication shards —
and produces one :class:`TaskOutcome` per task.  Executors are pure
orchestration: a task's *payload* is executor-invariant (the same
``(spec, config)`` produces the same result document on every
executor), which is why :class:`~repro.api.config.RunConfig` excludes
its ``executor`` field from serialization and why serial and process
batch reports compare byte-identically.

The registry mirrors the engine / comparator / experiment registries
(:func:`register_executor` / :func:`get_executor` /
:func:`available_executors`), so ``RunConfig(executor="process")`` and
``repro run-many --executor process`` resolve through the same single
place.

* :class:`SerialExecutor` (``"serial"``) — the wire format exercised
  in-process: tasks round-trip through their documents exactly as a
  worker would see them, but execute sequentially in the caller.
* :class:`~repro.exec.process.ProcessExecutor` (``"process"``) — the
  supervised multiprocess worker pool with crash recovery, straggler
  requeue and graceful degradation (see :mod:`repro.exec.process`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..errors import ModelError, RegistryError, ReproError

__all__ = [
    "ExecTask",
    "TaskOutcome",
    "Executor",
    "SerialExecutor",
    "register_executor",
    "get_executor",
    "resolve_executor",
    "available_executors",
    "DEFAULT_EXECUTOR",
]


@dataclass(frozen=True)
class ExecTask:
    """One unit of work in executor wire format.

    ``kind="run"`` tasks carry the serialized ``(spec, config)`` pair —
    a worker rebuilds both with ``from_dict`` and executes through the
    ordinary :meth:`repro.api.Session.run` path, so retries, fault
    plans and cooperative timeouts inside the run behave exactly as
    they do serially.  ``kind="call"`` tasks carry a picklable
    ``(func, args, kwargs)`` triple (the replication-shard fan-out of
    :func:`repro.exec.shard.sharded_run_replications`).
    """

    index: int
    kind: str = "run"  # "run" | "call"
    spec: Optional[dict] = None
    config: Optional[dict] = None
    call: Optional[tuple] = None
    fingerprint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("run", "call"):
            raise ModelError(
                f"unknown task kind {self.kind!r}; expected 'run' or 'call'"
            )
        if self.kind == "run" and (self.spec is None or self.config is None):
            raise ModelError(
                "a 'run' task needs serialized spec and config documents"
            )
        if self.kind == "call" and self.call is None:
            raise ModelError("a 'call' task needs a (func, args, kwargs) triple")

    @property
    def payload(self):
        """What crosses the wire to a worker for this task."""
        if self.kind == "run":
            return (self.spec, self.config)
        return self.call


@dataclass(frozen=True)
class TaskOutcome:
    """One task's fate: status + result/error document.

    ``result`` is the :meth:`RunResult.to_dict` document for ``run``
    tasks (restorable via ``RunResult.from_document``) or the
    function's return value for ``call`` tasks; ``error`` is an
    :class:`~repro.resilience.document.ErrorDocument` dict.  ``worker``
    and ``dispatches`` are supervisor bookkeeping (``None``/1 on the
    serial executor).
    """

    index: int
    status: str  # "succeeded" | "degraded" | "failed"
    result: Optional[object] = None
    error: Optional[dict] = None
    worker: Optional[int] = None
    dispatches: int = 1

    @property
    def ok(self) -> bool:
        return self.status != "failed"


class Executor:
    """Strategy interface: execute a batch of :class:`ExecTask` units.

    ``run_tasks`` returns outcomes in *completion* order; callers index
    them back by :attr:`TaskOutcome.index`.  ``on_complete(task,
    outcome)`` fires as each task finishes (the checkpoint-journal
    hook), ``on_event(dict)`` streams supervisor observability events
    (crashes, requeues, respawns — serial executors emit none).

    ``faults`` / ``retry`` / ``timeout`` are the *supervisor-level*
    policies: ``worker.*`` fault sites, the requeue budget (a task is
    dispatched at most ``1 + retry.attempts`` times), and the per-task
    straggler deadline.  The same policies also travel inside each
    ``run`` task's config document, where they drive the ordinary
    in-run resilience machinery — the ``worker.*`` sites are
    unreachable from in-run :func:`~repro.resilience.faults.site_check`
    calls, so nothing fires twice.

    ``warmup`` is an optional phase-kernel cache snapshot
    (:func:`repro.perf.cache.export_ladder_state`) multiprocess
    executors ship to freshly spawned workers; in-process executors
    ignore it (their caches are already warm by definition).  Purely
    a performance hint — payloads are identical with or without it.
    """

    name: str = ""

    def run_tasks(
        self,
        tasks,
        *,
        fail_fast: bool = False,
        faults=None,
        retry=None,
        timeout=None,
        on_complete: Optional[Callable] = None,
        on_event: Optional[Callable] = None,
        warmup=None,
    ) -> list:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def execute_task_inline(task: ExecTask) -> TaskOutcome:
    """Run one task in the current process (the serial/degraded path).

    Exactly what a pool worker does with the task's wire payload, minus
    the queues: documents in, documents out.
    """
    from .worker import _error_payload, execute_wire_payload

    try:
        status, result = execute_wire_payload(task.kind, task.payload)
    except ReproError as exc:
        return TaskOutcome(
            index=task.index,
            status="failed",
            error=_error_payload(exc, task.kind, task.payload),
        )
    return TaskOutcome(index=task.index, status=status, result=result)


class SerialExecutor(Executor):
    """The wire format, exercised sequentially in-process.

    Every task round-trips through its serialized documents — the same
    bytes a pool worker would receive — so ``executor="serial"``
    certifies the wire protocol itself while staying single-process
    (and therefore fully bit-identical, including process-local task
    uid / worker-id counters).
    """

    name = "serial"

    def run_tasks(
        self,
        tasks,
        *,
        fail_fast: bool = False,
        faults=None,
        retry=None,
        timeout=None,
        on_complete: Optional[Callable] = None,
        on_event: Optional[Callable] = None,
        warmup=None,  # in-process: caches are already warm
    ) -> list:
        outcomes = []
        for task in tasks:
            outcome = execute_task_inline(task)
            outcomes.append(outcome)
            if on_complete is not None:
                on_complete(task, outcome)
            if fail_fast and not outcome.ok:
                break
        return outcomes


# ---------------------------------------------------------------------------
# the executor registry (mirrors engines / comparators / experiments)
# ---------------------------------------------------------------------------

_REGISTRY: dict = {}

#: Name of the executor used when callers pass nothing.
DEFAULT_EXECUTOR = "serial"

#: Removed executor names -> the registered executor that replaces
#: them.  ``"async"`` wrapped ``"process"``; the service now dispatches
#: every executor off its event loop itself.
_RETIRED = {"async": "process"}


def register_executor(
    executor: Executor, name: Optional[str] = None, replace: bool = False
) -> Executor:
    """Add *executor* to the registry under *name* (default: its own).

    Registered names are what ``RunConfig(executor=...)`` and
    ``repro run-many --executor`` accept.
    """
    key = name or executor.name
    if not key:
        raise ModelError("an executor needs a non-empty name")
    if key in _REGISTRY and not replace:
        raise ModelError(
            f"executor {key!r} is already registered; pass replace=True to "
            "override"
        )
    _REGISTRY[key] = executor
    return executor


def get_executor(executor: Union[str, Executor, None]) -> Executor:
    """Resolve an ``executor=`` argument to an :class:`Executor`.

    Accepts an executor instance (returned as-is), a registered name,
    or ``None`` (the default serial executor).  Unknown names raise
    :class:`~repro.errors.RegistryError` with a did-you-mean hint.
    """
    if executor is None:
        executor = DEFAULT_EXECUTOR
    if isinstance(executor, Executor):
        return executor
    resolved = _REGISTRY.get(executor)
    if resolved is None:
        hint = "or an Executor instance"
        if executor in _RETIRED:
            hint += f" — did you mean {_RETIRED[executor]!r}?"
        raise RegistryError.unknown("executor", executor, _REGISTRY, hint=hint)
    return resolved


_MISSING = object()


def resolve_executor(executor) -> Executor:
    """The single place ``executor=`` defaulting happens.

    Accepts everything :func:`get_executor` does **plus** a config
    object exposing an ``executor`` attribute
    (:class:`repro.api.RunConfig`) — same unwrap contract as
    :func:`repro.perf.engine.resolve_engine`.
    """
    if executor is None or isinstance(executor, (str, Executor)):
        return get_executor(executor)
    inner = getattr(executor, "executor", _MISSING)
    if inner is not _MISSING:
        return get_executor(inner)
    return get_executor(executor)


def available_executors() -> tuple:
    """Registered executor names, sorted (CLI choices come from here)."""
    return tuple(sorted(_REGISTRY))


register_executor(SerialExecutor())
