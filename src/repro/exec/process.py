"""``"process"``: a long-lived supervised multiprocess worker pool.

:class:`WorkerPool` owns N child processes (fork where available,
spawn otherwise) and one supervisor thread.  Any thread may
:meth:`~WorkerPool.submit` an :class:`~repro.exec.base.ExecTask` and
await the :class:`concurrent.futures.Future` of its
:class:`~repro.exec.base.TaskOutcome`; :meth:`~WorkerPool.close`
stops the workers.  Each worker has its own task pipe and result
pipe, so a worker killed mid-message damages only its own channel.
The supervisor waits on every result pipe, every worker's exit
sentinel and a wake pipe at once, with four detection paths:

* **completion** — ``done``/``error`` messages retire the in-flight
  task and free the worker;
* **crash** — an exit (the process sentinel fires, or its result pipe
  breaks) while a task is in flight, or before ``ready``;
* **straggler** — a task still in flight past its deadline
  (``TimeoutPolicy.seconds``, wall clock from dispatch);
* **stall** — heartbeats stale past ``stall_timeout`` (a wedged worker
  whose process is technically alive).

Crashed / straggling / stalled workers are killed and their task is
**requeued** with the retry policy's deterministic backoff — a task is
dispatched at most ``1 + retry.attempts`` times before it fails with a
:class:`~repro.errors.WorkerCrashError` document.  Dead pool members
are respawned while respawn credits last (``max_respawns`` of them);
a respawned member that completes a task returns its credit, so a
long-lived pool that recovers keeps its budget, while a crash loop
that completes nothing spends it.  When the pool collapses with no
credit left, the supervisor **degrades to serial** and runs every
remaining and later task in-process on its own thread, so every
submission still completes.  Every decision is emitted through
``on_event`` (→ :attr:`~repro.resilience.batch.BatchReport.events`).

:meth:`ProcessExecutor.open_pool` is the executor's one method, so two
callers share the one supervisor: the batch loop
:meth:`~repro.exec.base.Executor.run_tasks` opens a pool per batch,
submits, drains and closes it (``repro run-many``), and
:class:`repro.serve.backend.ExecutorBackend` holds one pool for a
service's lifetime.

Fault injection: the supervisor — never the workers — evaluates the
``worker.spawn`` / ``worker.task`` / ``worker.hang`` sites against a
single :class:`~repro.resilience.faults.FaultState`, so the occurrence
counters advance in one deterministic stream; a firing rule turns into
a *directive* the child acts out for real (``os._exit`` / wedge).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from multiprocessing.connection import wait as wait_ready
from typing import Callable, Optional

from ..errors import ModelError, WorkerCrashError
from .base import (
    Executor,
    ExecTask,
    TaskOutcome,
    check_size,
    execute_task_inline,
    register_executor,
)
from .worker import _error_payload, worker_main

__all__ = ["ProcessExecutor", "WorkerPool"]


def _pick_context():
    """Fork where the platform has it (cheap, shares the parent's
    imports), spawn otherwise — :func:`worker_main` is importable
    top-level precisely so both work."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class _Member:
    """Supervisor-side record of one pool worker."""

    __slots__ = (
        "id", "proc", "tasks", "results", "task", "dispatched_at",
        "last_beat", "ready", "broken", "credit",
    )

    def __init__(self, worker_id, proc, tasks, results, credit) -> None:
        self.id = worker_id
        self.proc = proc
        self.tasks = tasks  # write end of the worker's task pipe
        self.results = results  # read end of the worker's result pipe
        self.task = None  # in-flight _Pending, or None when idle
        self.dispatched_at = None
        self.last_beat = time.monotonic()
        self.ready = False  # has sent its `ready` handshake
        self.broken = False  # its result pipe failed; reap it
        self.credit = credit  # a respawn credit its first completion returns

    def close_pipes(self) -> None:
        self.tasks.close()
        self.results.close()


class _Pending:
    """One submitted task, its future and its dispatch bookkeeping."""

    __slots__ = ("task", "future", "dispatches")

    def __init__(self, task: ExecTask) -> None:
        self.task = task
        self.future: Future = Future()
        self.dispatches = 0


class ProcessExecutor(Executor):
    """The ``"process"`` executor: the settings of the
    :class:`WorkerPool` it opens (see module docstring).

    Parameters
    ----------
    workers:
        Pool size (>= 1).  A batch never spawns more members than it
        has tasks.
    heartbeat_interval:
        Seconds between worker heartbeats.
    stall_timeout:
        Heartbeat staleness that marks a live process wedged
        (default: ``max(40 × heartbeat_interval, 2.0)``).
    max_respawns:
        Respawn credits of one pool (default: ``2 × workers``).  Each
        respawn spends one, and a respawned member returns it on its
        first completed task; with no credit left and no live
        workers the pool degrades to serial in-process execution.
    poll_interval:
        Longest the supervisor waits between liveness checks, seconds.
    """

    name = "process"

    def __init__(
        self,
        workers: int = 2,
        heartbeat_interval: float = 0.05,
        stall_timeout: Optional[float] = None,
        max_respawns: Optional[int] = None,
        poll_interval: float = 0.02,
    ) -> None:
        self.workers = check_size(workers, "workers")
        self.heartbeat_interval = float(heartbeat_interval)
        self.stall_timeout = (
            float(stall_timeout)
            if stall_timeout is not None
            else max(40.0 * self.heartbeat_interval, 2.0)
        )
        self.max_respawns = (
            int(max_respawns) if max_respawns is not None else 2 * workers
        )
        self.poll_interval = float(poll_interval)

    def open_pool(self, size: int, **policies) -> "WorkerPool":
        """Start a :class:`WorkerPool` of *size* members with this
        executor's supervisor timings; *policies* are
        :meth:`~repro.exec.base.Executor.open_pool`'s keywords."""
        return WorkerPool(
            size,
            heartbeat_interval=self.heartbeat_interval,
            stall_timeout=self.stall_timeout,
            max_respawns=self.max_respawns,
            poll_interval=self.poll_interval,
            **policies,
        )


class WorkerPool:
    """A long-lived supervised worker pool (see module docstring).

    Built by :meth:`ProcessExecutor.open_pool`, which supplies the
    supervisor timings and the respawn budget (see
    :class:`ProcessExecutor`).  The members are spawned by the
    supervisor thread, so constructing a pool never blocks on a fork.

    Parameters
    ----------
    size:
        Number of worker processes (>= 1).
    retry / timeout:
        The requeue budget (a task is dispatched at most
        ``1 + retry.attempts`` times) and the per-task straggler
        deadline (a :class:`~repro.resilience.policy.TimeoutPolicy`).
    fault_state:
        Activated plan whose ``worker.*`` rules the supervisor turns
        into crash / hang directives.
    on_event:
        Called on the supervisor thread with each event dict.
    """

    def __init__(
        self,
        size: int,
        *,
        heartbeat_interval: float,
        stall_timeout: float,
        max_respawns: int,
        poll_interval: float,
        retry=None,
        timeout=None,
        fault_state=None,
        on_event: Optional[Callable] = None,
    ) -> None:
        from ..resilience.policy import DEFAULT_RETRY

        self.size = check_size(size, "pool size")
        self.heartbeat_interval = float(heartbeat_interval)
        self.stall_timeout = float(stall_timeout)
        self.max_respawns = int(max_respawns)
        self.poll_interval = float(poll_interval)
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.deadline_seconds = timeout.seconds if timeout is not None else None
        self.fault_state = fault_state
        self.on_event = on_event
        self.respawns = 0
        self.respawn_credits = self.max_respawns
        self.degraded = False
        self._ctx = _pick_context()
        self._members: dict = {}  # worker_id -> _Member
        self._next_worker_id = 0
        self._pending: deque = deque()  # ready to dispatch, FIFO
        self._inbox: deque = deque()  # submitted, not yet seen
        # Guards _closing and the wake pipe's lifetime against submit.
        self._lock = threading.Lock()
        self._closing = False
        self._wake_open = True
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        self._thread = threading.Thread(
            target=self._supervise, name="repro-pool", daemon=True
        )
        self._thread.start()

    # -- the public surface (any thread) -------------------------------

    def submit(self, task: ExecTask) -> Future:
        """Queue *task*; the future resolves to its :class:`TaskOutcome`.

        Cancelling the future before a worker picks the task up drops
        it; a failed task resolves to a ``failed`` outcome, not an
        exception.
        """
        pending = _Pending(task)
        with self._lock:
            if self._closing:
                raise ModelError("cannot submit to a closed worker pool")
            self._inbox.append(pending)
            self._wake()
        return pending.future

    def close(self) -> None:
        """Stop every worker and the supervisor (idempotent).

        Tasks still queued are cancelled; tasks in flight resolve to a
        ``failed`` outcome.
        """
        with self._lock:
            self._closing = True
            owner, self._wake_open = self._wake_open, False
            if owner:
                self._wake()
        self._thread.join()
        if owner:
            os.close(self._wake_r)
            os.close(self._wake_w)

    def pids(self) -> list:
        """Process ids of the current members (a snapshot)."""
        return [member.proc.pid for member in list(self._members.values())]

    def stats(self) -> dict:
        """A JSON-able snapshot: members, spawns, respawns, credits,
        degradation."""
        return {
            "workers": self.pids(),
            "spawned": self._next_worker_id,
            "respawns": self.respawns,
            "respawn_credits": self.respawn_credits,
            "degraded": self.degraded,
        }

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"\0")
        except OSError:
            pass  # pipe full (the supervisor is due to wake) or closed

    # -- events --------------------------------------------------------

    def _emit(self, event: dict) -> None:
        if self.on_event is not None:
            self.on_event(dict(event))

    # -- the supervisor thread -----------------------------------------

    def _supervise(self) -> None:
        failure = None
        try:
            for _ in range(self.size):
                self._spawn(credit=False)
            while not self._closing:
                self._admit()
                if self.degraded or not self._members:
                    self._run_inline()
                    self._wait({}, self.poll_interval)
                    continue
                self._dispatch_idle()
                self._wait_and_drain()
                self._check_liveness()
                self._check_deadlines()
        except BaseException as exc:  # the futures must still resolve
            failure = exc
        finally:
            self._shutdown(failure)

    def _admit(self) -> None:
        while self._inbox:
            self._pending.append(self._inbox.popleft())

    def _next_pending(self):
        """The next task to dispatch, skipping cancelled submissions."""
        while self._pending:
            pending = self._pending.popleft()
            if pending.dispatches or pending.future.set_running_or_notify_cancel():
                return pending
        return None

    # -- pool management -----------------------------------------------

    def _spawn(self, credit: bool) -> None:
        directive = None
        if self.fault_state is not None:
            fired = self.fault_state.fires("worker.spawn")
            if fired is not None:
                directive = "crash"
                self._emit(
                    {
                        "type": "fault.worker",
                        "site": "worker.spawn",
                        "occurrence": fired[0],
                    }
                )
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_main,
            args=(worker_id, task_r, result_w, self.heartbeat_interval, directive),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        # The child owns these ends now; closing ours lets a dead
        # child's result pipe read as EOF.
        task_r.close()
        result_w.close()
        self._members[worker_id] = _Member(
            worker_id, proc, task_w, result_r, credit
        )
        self._emit({"type": "worker.spawned", "worker": worker_id})

    def _reap(self, member: _Member, reason: str) -> None:
        """Kill *member* (if still alive), requeue its task, respawn."""
        pending = member.task
        member.task = None
        if member.proc.is_alive():
            member.proc.terminate()
            member.proc.join(timeout=5.0)
        exit_code = member.proc.exitcode
        del self._members[member.id]
        member.close_pipes()
        self._emit(
            {
                "type": reason,
                "worker": member.id,
                "exit_code": exit_code,
                "task": pending.task.index if pending is not None else None,
            }
        )
        if pending is not None:
            self._requeue(pending, member, exit_code, reason)
        if self.respawn_credits > 0 and not self._closing:
            self.respawn_credits -= 1
            self.respawns += 1
            self._spawn(credit=True)
            self._emit(
                {
                    "type": "worker.respawned",
                    "replaces": member.id,
                    "respawns": self.respawns,
                    "respawn_credits": self.respawn_credits,
                }
            )

    def _requeue(self, pending: _Pending, member: _Member, exit_code, reason) -> None:
        """Give a disrupted task another dispatch, or fail it."""
        if pending.dispatches <= self.retry.attempts:
            delay = self.retry.delay(pending.dispatches - 1)
            if delay > 0.0:
                time.sleep(delay)
            self._pending.appendleft(pending)
            self._emit(
                {
                    "type": "task.requeued",
                    "task": pending.task.index,
                    "dispatches": pending.dispatches,
                    "backoff": delay,
                }
            )
            return
        error = WorkerCrashError(
            f"task {pending.task.index} lost to {reason} (worker "
            f"{member.id}, exit code {exit_code}) after "
            f"{pending.dispatches} dispatches",
            worker=member.id,
            exit_code=exit_code,
        )
        pending.future.set_result(
            TaskOutcome(
                index=pending.task.index,
                status="failed",
                error=_error_payload(
                    error, pending.task.kind, pending.task.payload
                ),
                worker=member.id,
                dispatches=pending.dispatches,
            ),
        )

    # -- task lifecycle ------------------------------------------------

    def _dispatch(self, member: _Member, pending: _Pending) -> None:
        directive = None
        if self.fault_state is not None:
            fired = self.fault_state.fires("worker.task")
            if fired is not None:
                directive = "crash"
            else:
                hung = self.fault_state.fires("worker.hang")
                if hung is not None:
                    directive = "hang"
                    fired = hung
            if directive is not None:
                self._emit(
                    {
                        "type": "fault.worker",
                        "site": (
                            "worker.task"
                            if directive == "crash"
                            else "worker.hang"
                        ),
                        "worker": member.id,
                        "task": pending.task.index,
                        "occurrence": fired[0],
                    }
                )
        pending.dispatches += 1
        member.task = pending
        member.dispatched_at = time.monotonic()
        member.last_beat = member.dispatched_at
        task = pending.task
        try:
            member.tasks.send(
                ("task", task.index, task.kind, task.payload, directive)
            )
        except OSError:
            member.broken = True  # reaped next; the task is requeued

    def _dispatch_idle(self) -> None:
        for member in list(self._members.values()):
            # Only hand work to members that completed the `ready`
            # handshake: a spawn that dies on arrival must not consume
            # a task dispatch from the requeue budget.
            if member.task is not None or not member.ready or member.broken:
                continue
            pending = self._next_pending()
            if pending is None:
                return
            self._dispatch(member, pending)

    def _wait(self, owners: dict, timeout: float) -> list:
        """Block until a watched object, the wake pipe, or *timeout*;
        returns the ready objects other than the wake pipe."""
        ready = wait_ready([self._wake_r, *owners], timeout)
        if self._wake_r in ready:
            os.read(self._wake_r, 4096)
        return [obj for obj in ready if obj != self._wake_r]

    def _wait_and_drain(self) -> None:
        owners: dict = {}
        for member in self._members.values():
            # An exit sentinel only wakes the loop; _check_liveness
            # reaps the member.
            owners[member.proc.sentinel] = None
            if not member.broken:
                owners[member.results] = member
        for obj in self._wait(owners, self.poll_interval):
            member = owners.get(obj)
            if member is not None:
                self._drain(member)

    def _drain(self, member: _Member) -> None:
        while not member.broken:
            try:
                if not member.results.poll():
                    return
                message = member.results.recv()
            except (EOFError, OSError):  # the worker died, maybe mid-message
                member.broken = True
                return
            self._handle(member, message)

    def _handle(self, member: _Member, message) -> None:
        kind = message[0]
        if kind in ("beat", "ready"):
            member.last_beat = time.monotonic()
            if kind == "ready":
                member.ready = True
            return
        pending = member.task
        member.task = None
        member.dispatched_at = None
        if pending is None:
            return
        if member.credit:
            # A replacement that completes a task has proved itself.
            member.credit = False
            self.respawn_credits = min(
                self.respawn_credits + 1, self.max_respawns
            )
        _, worker_id, index, body = message
        if kind == "done":
            outcome = TaskOutcome(
                index=index,
                status="succeeded",
                result=body,
                worker=worker_id,
                dispatches=pending.dispatches,
            )
        else:
            outcome = TaskOutcome(
                index=index,
                status="failed",
                error=body,
                worker=worker_id,
                dispatches=pending.dispatches,
            )
        pending.future.set_result(outcome)

    def _check_liveness(self) -> None:
        for member in list(self._members.values()):
            if member.broken or member.proc.exitcode is not None:
                self._reap(member, "worker.crashed")

    def _check_deadlines(self) -> None:
        now = time.monotonic()
        for member in list(self._members.values()):
            if member.task is None:
                # Idle members still heartbeat; one that goes silent
                # (including a spawn that never says `ready`) is wedged.
                if now - member.last_beat > self.stall_timeout:
                    self._reap(member, "worker.stalled")
                continue
            if (
                self.deadline_seconds is not None
                and member.dispatched_at is not None
                and now - member.dispatched_at > self.deadline_seconds
            ):
                self._emit(
                    {
                        "type": "task.straggler",
                        "worker": member.id,
                        "task": member.task.task.index,
                        "deadline": self.deadline_seconds,
                    }
                )
                self._reap(member, "worker.straggler")
            elif now - member.last_beat > self.stall_timeout:
                self._reap(member, "worker.stalled")

    def _run_inline(self) -> None:
        """The collapsed pool's path: run queued tasks on this thread."""
        if not self.degraded:
            self.degraded = True
            self._emit({"type": "pool.degraded", "remaining": len(self._pending)})
        while not self._closing:
            pending = self._next_pending()
            if pending is None:
                return
            pending.dispatches += 1
            outcome = execute_task_inline(pending.task)
            pending.future.set_result(
                TaskOutcome(
                    index=outcome.index,
                    status=outcome.status,
                    result=outcome.result,
                    error=outcome.error,
                    worker=None,
                    dispatches=pending.dispatches,
                ),
            )

    # -- teardown ------------------------------------------------------

    def _shutdown(self, failure: Optional[BaseException]) -> None:
        with self._lock:
            self._closing = True
            self._pending.extend(self._inbox)
            self._inbox.clear()
        members = list(self._members.values())
        for member in members:
            try:
                member.tasks.send(("stop",))
            except OSError:
                pass
        for member in members:
            member.proc.join(timeout=2.0)
            if member.proc.is_alive():
                member.proc.terminate()
                member.proc.join(timeout=5.0)
            member.close_pipes()
        self._members.clear()
        orphans = [m.task for m in members if m.task is not None]
        orphans += self._pending
        self._pending.clear()
        for pending in orphans:
            future = pending.future
            if future.cancel() or future.done():
                continue
            if failure is not None:
                future.set_exception(failure)
                continue
            error = WorkerCrashError(
                f"task {pending.task.index} was in flight when its worker "
                "pool closed"
            )
            future.set_result(
                TaskOutcome(
                    index=pending.task.index,
                    status="failed",
                    error=_error_payload(
                        error, pending.task.kind, pending.task.payload
                    ),
                    dispatches=pending.dispatches,
                )
            )


register_executor(ProcessExecutor())
