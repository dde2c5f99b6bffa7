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

Every executor has one shape: :meth:`Executor.open_pool` starts a pool
whose ``submit(task)`` returns a future of the task's
:class:`TaskOutcome`.  The batch loop :meth:`Executor.run_tasks` runs
on that pool, and :class:`repro.serve.backend.ExecutorBackend` keeps
one pool open for a service's lifetime.

The executor registry is a :class:`~repro.registry.Registry`
(:func:`register_executor` / :func:`get_executor` /
:func:`available_executors`), so ``RunConfig(executor="process")`` and
``repro run-many --executor process`` resolve through the same single
place.

* :class:`SerialExecutor` (``"serial"``) — the wire format exercised
  in-process: tasks round-trip through their documents exactly as a
  worker would see them, and run on the dispatch threads of an
  :class:`InlinePool` (one thread per batch, so a batch runs strictly
  in order).
* :class:`~repro.exec.process.ProcessExecutor` (``"process"``) — the
  supervised multiprocess worker pool with crash recovery, straggler
  requeue and graceful degradation (see :mod:`repro.exec.process`).
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import ModelError, ReproError
from ..registry import Registry

__all__ = [
    "ExecTask",
    "TaskOutcome",
    "Executor",
    "InlinePool",
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
    """Strategy interface: where :class:`ExecTask` units execute.

    An executor implements one method, :meth:`open_pool`; every
    executor inherits the batch contract :meth:`run_tasks`, which runs
    on that pool.
    """

    name: str = ""

    #: Pool size a :meth:`run_tasks` batch opens (capped at its task
    #: count).
    workers: int = 1

    def open_pool(
        self,
        size: int,
        *,
        retry=None,
        timeout=None,
        fault_state=None,
        on_event: Optional[Callable] = None,
    ):
        """Start a pool of *size* members: ``submit(task)`` returns a
        :class:`concurrent.futures.Future` of the task's
        :class:`TaskOutcome` (a failed task resolves to a ``failed``
        outcome; cancelling the future before dispatch drops the task),
        ``stats()`` is a JSON-able snapshot, and ``close()`` cancels
        what is still queued.

        *retry* / *timeout* / *fault_state* are supervisor-level
        policies: the requeue budget, the per-task straggler deadline
        and the ``worker.*`` fault sites.  Each ``run`` task's config
        document carries the same policies into the run itself, where
        the ``worker.*`` sites are unreachable, so nothing fires twice.
        *on_event* receives supervisor event dicts (crashes, requeues,
        respawns).
        """
        raise NotImplementedError

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
    ) -> list:
        """Execute a batch on a pool of ``min(workers, len(tasks))``.

        Returns outcomes in *completion* order (callers index them back
        by :attr:`TaskOutcome.index`).  ``on_complete(task, outcome)``
        and ``on_event(dict)`` run on the caller's thread, one at a
        time, in the order the pool produced them.  One task per pool
        member is in the pool at a time; after a failure under
        ``fail_fast`` nothing more is submitted and what is still
        undispatched is cancelled.  The pool closes on the way out.
        """
        from ..resilience.faults import resolve_fault_plan

        backlog = deque(tasks)
        if not backlog:
            return []
        plan = resolve_fault_plan(faults)
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        size = min(self.workers, len(backlog))
        pool = self.open_pool(
            size,
            retry=retry,
            timeout=timeout,
            # One deterministic counter stream for the whole pool.
            fault_state=plan.activate() if plan is not None else None,
            on_event=lambda event: inbox.put((event, None)),
        )
        submitted: dict = {}

        def submit() -> None:
            task = backlog.popleft()
            future = pool.submit(task)
            submitted[future] = task
            future.add_done_callback(lambda done: inbox.put((None, done)))

        outcomes: list = []
        try:
            for _ in range(size):
                submit()
            while submitted:
                event, future = inbox.get()
                if future is None:
                    if on_event is not None:
                        on_event(event)
                    continue
                task = submitted.pop(future)
                if future.cancelled():
                    continue
                outcome = future.result()
                outcomes.append(outcome)
                if fail_fast and not outcome.ok:
                    backlog.clear()
                    for other in submitted:
                        other.cancel()  # only undispatched tasks drop
                elif backlog:
                    submit()
                if on_complete is not None:
                    on_complete(task, outcome)
        finally:
            pool.close()
        return outcomes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def check_size(value, what: str) -> int:
    """*value* if it is an int >= 1, else a :class:`ModelError`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ModelError(f"{what} must be an int >= 1, got {value!r}")
    return value


def execute_task_inline(task: ExecTask) -> TaskOutcome:
    """Run one task in the current process (the in-process pool's
    path, also the process pool's degraded finish).

    Exactly what a pool worker does with the task's wire payload, minus
    the pipes: documents in, documents out.
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


class InlinePool:
    """*size* dispatch threads running tasks in this process.

    The in-process pool behind :class:`SerialExecutor`, with the
    :class:`~repro.exec.process.WorkerPool` surface.  Tasks run in
    submission order as threads free up.  The threads are daemons: a
    task already running when the pool closes finishes on its thread
    (an in-process task cannot be stopped), and :meth:`close` does not
    wait for it, so an interrupted caller exits at once.
    """

    def __init__(self, size: int) -> None:
        self.size = check_size(size, "pool size")
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()  # guards _closing against submit
        self._closing = False
        for number in range(self.size):
            threading.Thread(
                target=self._serve, name=f"repro-dispatch-{number}", daemon=True
            ).start()

    def submit(self, task: ExecTask) -> Future:
        """Queue *task*; the future resolves to its :class:`TaskOutcome`."""
        future: Future = Future()
        with self._lock:
            if self._closing:
                raise ModelError("cannot submit to a closed pool")
            self._queue.put((task, future))
        return future

    def stats(self) -> dict:
        """A JSON-able snapshot: the number of dispatch threads."""
        return {"threads": self.size}

    def close(self) -> None:
        """Cancel queued tasks and stop the threads (idempotent)."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
        while True:
            try:
                _, future = self._queue.get_nowait()
            except queue.Empty:
                break
            future.cancel()
        for _ in range(self.size):
            self._queue.put(None)

    def _serve(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            task, future = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                outcome = execute_task_inline(task)
            except BaseException as exc:  # a bug, not a task failure
                future.set_exception(exc)
            else:
                future.set_result(outcome)


class SerialExecutor(Executor):
    """The wire format, exercised in-process.

    Every task round-trips through its serialized documents — the same
    bytes a pool worker would receive — so ``executor="serial"``
    certifies the wire protocol itself while staying single-process.
    A batch runs on one dispatch thread, so its tasks run strictly in
    order.
    """

    name = "serial"

    def open_pool(self, size: int, **policies) -> InlinePool:
        """An :class:`InlinePool` of *size* threads; the supervisor
        *policies* have no worker process to act on."""
        return InlinePool(size)


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
