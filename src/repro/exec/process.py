"""``"process"``: a supervised multiprocess worker pool.

The supervisor owns N child processes (fork where available, spawn
otherwise), one task queue per worker and a shared result queue, and
runs a poll loop with four detection paths:

* **completion** — ``done``/``error`` messages retire the in-flight
  task and free the worker;
* **crash** — a nonzero/early exit (``proc.exitcode`` set while a task
  is in flight, or before ``ready``);
* **straggler** — a task still in flight past its deadline
  (``TimeoutPolicy.seconds``, wall clock from dispatch);
* **stall** — heartbeats stale past ``stall_timeout`` (a wedged worker
  whose process is technically alive).

Crashed / straggling / stalled workers are killed and their task is
**requeued** with the retry policy's deterministic backoff — a task is
dispatched at most ``1 + retry.attempts`` times before it fails with a
:class:`~repro.errors.WorkerCrashError` document.  Dead pool members
are respawned up to a respawn budget; when the pool collapses with the
budget exhausted, the supervisor **degrades to serial** and finishes
the remaining tasks in-process, so a batch always completes.  Every
decision is emitted through ``on_event`` (→
:attr:`~repro.resilience.batch.BatchReport.events` and the checkpoint
journal's ``{"event": ...}`` audit lines).

Fault injection: the supervisor — never the workers — evaluates the
``worker.spawn`` / ``worker.task`` / ``worker.hang`` sites against a
single :class:`~repro.resilience.faults.FaultState`, so the occurrence
counters advance in one deterministic stream; a firing rule turns into
a *directive* the child acts out for real (``os._exit`` / wedge).
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from typing import Callable, Optional

from ..errors import ModelError, WorkerCrashError
from .base import (
    Executor,
    ExecTask,
    TaskOutcome,
    execute_task_inline,
    register_executor,
)
from .worker import _error_payload, worker_main

__all__ = ["ProcessExecutor"]


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
        "id", "proc", "queue", "task", "dispatched_at", "last_beat", "ready",
    )

    def __init__(self, worker_id, proc, queue) -> None:
        self.id = worker_id
        self.proc = proc
        self.queue = queue
        self.task = None  # in-flight _Pending, or None when idle
        self.dispatched_at = None
        self.last_beat = time.monotonic()
        self.ready = False  # has sent its `ready` handshake


class _Pending:
    """One task plus its supervisor-side dispatch bookkeeping."""

    __slots__ = ("task", "dispatches")

    def __init__(self, task: ExecTask) -> None:
        self.task = task
        self.dispatches = 0


class ProcessExecutor(Executor):
    """Supervised worker pool (see module docstring).

    Parameters
    ----------
    workers:
        Pool size (>= 1).  The pool never spawns more members than
        there are tasks.
    heartbeat_interval:
        Seconds between worker heartbeats.
    stall_timeout:
        Heartbeat staleness that marks a live process wedged
        (default: ``max(40 × heartbeat_interval, 2.0)``).
    max_respawns:
        Replacement-worker budget for the whole batch (default:
        ``2 × workers``); exhausting it with no live workers degrades
        the batch to serial in-process execution.
    poll_interval:
        Supervisor loop tick (result-queue wait), seconds.
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
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ModelError(f"workers must be an int >= 1, got {workers!r}")
        self.workers = workers
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

    # -- the supervisor ------------------------------------------------

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
        from ..resilience.faults import resolve_fault_plan
        from ..resilience.policy import DEFAULT_RETRY

        tasks = list(tasks)
        if not tasks:
            return []
        retry = retry if retry is not None else DEFAULT_RETRY
        deadline_seconds = timeout.seconds if timeout is not None else None
        plan = resolve_fault_plan(faults)
        # One deterministic counter stream for the whole pool: the
        # supervisor is single-threaded, so worker.* occurrences advance
        # in decision order regardless of which child does the work.
        fault_state = plan.activate() if plan is not None else None

        ctx = _pick_context()
        result_queue = ctx.Queue()
        supervisor = _Supervision(
            executor=self,
            ctx=ctx,
            result_queue=result_queue,
            retry=retry,
            deadline_seconds=deadline_seconds,
            fault_state=fault_state,
            on_complete=on_complete,
            on_event=on_event,
            warmup=warmup,
        )
        try:
            return supervisor.run(
                [_Pending(task) for task in tasks], fail_fast=fail_fast
            )
        finally:
            supervisor.shutdown()


class _Supervision:
    """One batch's supervisor loop state (built per ``run_tasks`` call)."""

    def __init__(
        self,
        executor: ProcessExecutor,
        ctx,
        result_queue,
        retry,
        deadline_seconds,
        fault_state,
        on_complete,
        on_event,
        warmup=None,
    ) -> None:
        self.executor = executor
        self.ctx = ctx
        self.result_queue = result_queue
        self.retry = retry
        self.deadline_seconds = deadline_seconds
        self.fault_state = fault_state
        self.on_complete = on_complete
        self.on_event = on_event
        # Phase-kernel cache snapshot shipped to each worker on its
        # ready handshake (see repro.perf.cache.export_ladder_state).
        self.warmup = list(warmup) if warmup else None
        self.members: dict = {}  # worker_id -> _Member
        self.next_worker_id = 0
        self.respawns_used = 0
        self.pending: deque = deque()
        self.outcomes: list = []
        self.tasks_by_index: dict = {}
        self.stopping = False  # fail_fast tripped
        self.degraded = False

    # -- events --------------------------------------------------------

    def emit(self, event: dict) -> None:
        if self.on_event is not None:
            self.on_event(dict(event))

    # -- pool management -----------------------------------------------

    def spawn_member(self) -> None:
        directive = None
        if self.fault_state is not None:
            fired = self.fault_state.fires("worker.spawn")
            if fired is not None:
                directive = "crash"
                self.emit(
                    {
                        "type": "fault.worker",
                        "site": "worker.spawn",
                        "occurrence": fired[0],
                    }
                )
        worker_id = self.next_worker_id
        self.next_worker_id += 1
        queue = self.ctx.Queue()
        proc = self.ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                queue,
                self.result_queue,
                self.executor.heartbeat_interval,
                directive,
            ),
            daemon=True,
        )
        proc.start()
        self.members[worker_id] = _Member(worker_id, proc, queue)
        self.emit(
            {
                "type": "worker.spawned",
                "worker": worker_id,
                "warmup": len(self.warmup) if self.warmup else 0,
            }
        )

    def reap_member(self, member: _Member, reason: str) -> None:
        """Kill *member* (if still alive), requeue its task, respawn."""
        pending = member.task
        member.task = None
        if member.proc.is_alive():
            member.proc.terminate()
            member.proc.join(timeout=5.0)
        exit_code = member.proc.exitcode
        del self.members[member.id]
        self.emit(
            {
                "type": reason,
                "worker": member.id,
                "exit_code": exit_code,
                "task": pending.task.index if pending is not None else None,
            }
        )
        if pending is not None:
            self.requeue(pending, member, exit_code, reason)
        if self.respawns_used < self.executor.max_respawns and not self.stopping:
            self.respawns_used += 1
            self.spawn_member()
            self.emit(
                {
                    "type": "worker.respawned",
                    "replaces": member.id,
                    "respawns_used": self.respawns_used,
                }
            )

    def requeue(self, pending: _Pending, member: _Member, exit_code, reason) -> None:
        """Give a disrupted task another dispatch, or fail it."""
        if pending.dispatches <= self.retry.attempts:
            delay = self.retry.delay(pending.dispatches - 1)
            if delay > 0.0:
                time.sleep(delay)
            self.pending.appendleft(pending)
            self.emit(
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
        self.complete(
            pending,
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

    def dispatch(self, member: _Member, pending: _Pending) -> None:
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
                self.emit(
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
        member.queue.put(("task", task.index, task.kind, task.payload, directive))

    def complete(self, pending: _Pending, outcome: TaskOutcome) -> None:
        self.outcomes.append(outcome)
        if self.on_complete is not None:
            self.on_complete(pending.task, outcome)

    # -- the loop ------------------------------------------------------

    def run(self, pendings: list, fail_fast: bool = False) -> list:
        self.pending.extend(pendings)
        total = len(pendings)
        pool_size = min(self.executor.workers, total)
        for _ in range(pool_size):
            self.spawn_member()

        while len(self.outcomes) < total:
            if self.stopping and not self._in_flight():
                break
            if not self.members:
                # Pool collapsed with the respawn budget exhausted:
                # degrade to serial so the batch still completes.
                self._degrade_to_serial()
                continue
            self._dispatch_idle()
            self._drain_results()
            self._check_liveness()
            self._check_deadlines()
            if fail_fast and not self.stopping and any(
                not o.ok for o in self.outcomes
            ):
                self.stopping = True
                self.pending.clear()
        return self.outcomes

    def _in_flight(self) -> bool:
        return any(m.task is not None for m in self.members.values())

    def _dispatch_idle(self) -> None:
        if self.stopping:
            return
        for member in list(self.members.values()):
            if not self.pending:
                break
            # Only hand work to members that completed the `ready`
            # handshake: a spawn that dies on arrival must not consume
            # a task dispatch from the requeue budget.
            if member.task is None and member.ready and member.proc.is_alive():
                self.dispatch(member, self.pending.popleft())

    def _drain_results(self) -> None:
        import queue as queue_module

        try:
            message = self.result_queue.get(timeout=self.executor.poll_interval)
        except queue_module.Empty:
            return
        while True:
            self._handle(message)
            try:
                message = self.result_queue.get_nowait()
            except queue_module.Empty:
                return

    def _handle(self, message) -> None:
        kind = message[0]
        worker_id = message[1]
        member = self.members.get(worker_id)
        if member is None:
            return  # a late message from an already-reaped worker
        if kind in ("beat", "ready"):
            member.last_beat = time.monotonic()
            if kind == "ready":
                member.ready = True
                if self.warmup:
                    # Warm the fresh worker's phase-kernel caches before
                    # any task reaches it: small batches otherwise pay
                    # one cold ladder build per worker.
                    member.queue.put(("warmup", self.warmup))
            return
        pending = member.task
        member.task = None
        member.dispatched_at = None
        if pending is None:
            return
        if kind == "done":
            _, _, index, result = message
            self.complete(
                pending,
                TaskOutcome(
                    index=index,
                    status="succeeded",
                    result=result,
                    worker=worker_id,
                    dispatches=pending.dispatches,
                ),
            )
        elif kind == "error":
            _, _, index, error_doc = message
            self.complete(
                pending,
                TaskOutcome(
                    index=index,
                    status="failed",
                    error=error_doc,
                    worker=worker_id,
                    dispatches=pending.dispatches,
                ),
            )

    def _check_liveness(self) -> None:
        for member in list(self.members.values()):
            if member.proc.exitcode is not None:
                self.reap_member(member, "worker.crashed")

    def _check_deadlines(self) -> None:
        now = time.monotonic()
        for member in list(self.members.values()):
            if member.task is None:
                # Idle members still heartbeat; one that goes silent
                # (including a spawn that never says `ready`) is wedged.
                if now - member.last_beat > self.executor.stall_timeout:
                    self.reap_member(member, "worker.stalled")
                continue
            if (
                self.deadline_seconds is not None
                and member.dispatched_at is not None
                and now - member.dispatched_at > self.deadline_seconds
            ):
                self.emit(
                    {
                        "type": "task.straggler",
                        "worker": member.id,
                        "task": member.task.task.index,
                        "deadline": self.deadline_seconds,
                    }
                )
                self.reap_member(member, "worker.straggler")
            elif now - member.last_beat > self.executor.stall_timeout:
                self.reap_member(member, "worker.stalled")

    def _degrade_to_serial(self) -> None:
        self.degraded = True
        remaining = len(self.pending)
        self.emit({"type": "pool.degraded", "remaining": remaining})
        while self.pending:
            pending = self.pending.popleft()
            pending.dispatches += 1
            outcome = execute_task_inline(pending.task)
            self.complete(
                pending,
                TaskOutcome(
                    index=outcome.index,
                    status=outcome.status,
                    result=outcome.result,
                    error=outcome.error,
                    worker=None,
                    dispatches=pending.dispatches,
                ),
            )
            if self.stopping:
                self.pending.clear()

    # -- teardown ------------------------------------------------------

    def shutdown(self) -> None:
        for member in self.members.values():
            try:
                member.queue.put(("stop",))
            except Exception:  # pragma: no cover - queue torn down
                pass
        for member in self.members.values():
            member.proc.join(timeout=2.0)
            if member.proc.is_alive():
                member.proc.terminate()
                member.proc.join(timeout=5.0)
        self.members.clear()
        self.result_queue.close()


register_executor(ProcessExecutor())
