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

The executor registry is a :class:`~repro.registry.Registry`
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
from typing import Callable, Optional

from ..errors import ModelError, ReproError
from ..registry import Registry

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
    status: str  # "succeeded" | "failed"
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
    """Run one task in the current process (the serial path, also the
    pool's in-process finish).

    Exactly what a pool worker does with the task's wire payload, minus
    the queues: documents in, documents out.
    """
    from .worker import _error_payload, execute_wire_payload

    try:
        result = execute_wire_payload(task.kind, task.payload)
    except ReproError as exc:
        return TaskOutcome(
            index=task.index,
            status="failed",
            error=_error_payload(exc, task.kind, task.payload),
        )
    return TaskOutcome(index=task.index, status="succeeded", result=result)


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
# the executor registry
# ---------------------------------------------------------------------------

#: Name of the executor used when callers pass nothing.
DEFAULT_EXECUTOR = "serial"

#: What every ``executor=`` parameter resolves through (an instance,
#: a name, ``None`` or a :class:`repro.api.RunConfig`).  ``"async"``
#: wrapped ``"process"``; the service now dispatches every executor
#: off its event loop itself, so the retired name suggests its
#: replacement.
_REGISTRY = Registry(
    "executor",
    noun="an executor",
    default=DEFAULT_EXECUTOR,
    accepts=Executor,
    unwrap="executor",
    hint="or an Executor instance",
    retired={"async": "process"},
)


def register_executor(
    executor: Executor, name: Optional[str] = None, replace: bool = False
) -> Executor:
    """Add *executor* to the registry under *name* (default: its own).

    Registered names are what ``RunConfig(executor=...)`` and
    ``repro run-many --executor`` accept.
    """
    return _REGISTRY.register(name or executor.name, executor, replace=replace)


#: Resolve an ``executor=`` argument (a name, an executor instance,
#: ``None`` or a config object) to an :class:`Executor`.
resolve_executor = get_executor = _REGISTRY.resolve

#: Registered executor names, sorted (CLI choices come from here).
available_executors = _REGISTRY.names


register_executor(SerialExecutor())
