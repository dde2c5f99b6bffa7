"""The long-lived :class:`~repro.exec.WorkerPool`: submit over time,
crash recovery across submissions, clean close.

Spawns real subprocesses, so the module is gated behind
``REPRO_EXEC_TESTS=1`` like the rest of the pool suite.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.errors import ModelError
from repro.exec import ExecTask, ProcessExecutor
from repro.resilience.faults import resolve_fault_plan

from exec_tiny import requires_process_pool

pytestmark = requires_process_pool


def _pid_task(index: int) -> ExecTask:
    """A task whose result is the pid of the worker that ran it."""
    return ExecTask(index=index, kind="call", call=(os.getpid, (), None))


def _sleep_task(index: int, seconds: float) -> ExecTask:
    return ExecTask(index=index, kind="call", call=(time.sleep, (seconds,), None))


def _open(size=2, **options):
    executor = ProcessExecutor(workers=size, heartbeat_interval=0.02)
    return executor.open_pool(size, **options)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_ready(pool, size: int) -> list:
    deadline = time.monotonic() + 30.0
    while len(pool.pids()) < size and time.monotonic() < deadline:
        time.sleep(0.01)
    return pool.pids()


class TestSubmission:
    def test_tasks_submitted_over_time_reuse_the_same_workers(self):
        pool = _open(2)
        try:
            members = set(_wait_ready(pool, 2))
            seen = set()
            for index in range(6):
                outcome = pool.submit(_pid_task(index)).result(timeout=30)
                assert outcome.ok and outcome.dispatches == 1
                seen.add(outcome.result)
                time.sleep(0.05)
            assert seen <= members
            assert set(pool.pids()) == members
            assert pool.stats()["spawned"] == 2
        finally:
            pool.close()

    def test_submit_is_thread_safe(self):
        pool = _open(2)
        futures, lock = [], threading.Lock()

        def submit_some(offset):
            for k in range(5):
                future = pool.submit(_pid_task(offset + k))
                with lock:
                    futures.append(future)

        try:
            threads = [
                threading.Thread(target=submit_some, args=(10 * t,))
                for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            outcomes = [f.result(timeout=30) for f in futures]
            assert len(outcomes) == 20
            assert sorted(o.index for o in outcomes) == sorted(
                10 * t + k for t in range(4) for k in range(5)
            )
            assert all(o.ok for o in outcomes)
        finally:
            pool.close()

    def test_cancelled_submission_is_never_dispatched(self):
        pool = _open(1)
        try:
            busy = pool.submit(_sleep_task(0, 0.3))
            queued = pool.submit(_pid_task(1))
            assert queued.cancel()
            assert busy.result(timeout=30).ok
            assert pool.submit(_pid_task(2)).result(timeout=30).dispatches == 1
            assert queued.cancelled()
        finally:
            pool.close()


class TestCrashRecovery:
    def test_crash_is_requeued_and_a_respawned_member_serves_the_next(self):
        events = []
        state = resolve_fault_plan(
            {"rules": [{"site": "worker.task", "at": [0]}]}
        ).activate()
        pool = _open(1, fault_state=state, on_event=events.append)
        try:
            [original] = _wait_ready(pool, 1)
            first = pool.submit(_pid_task(0)).result(timeout=30)
            # Dispatch 0 died with its worker; the retry policy's one
            # requeue ran it on the replacement.
            assert first.ok and first.dispatches == 2
            assert first.result != original
            kinds = [e["type"] for e in events]
            for kind in ("fault.worker", "worker.crashed", "task.requeued",
                         "worker.respawned"):
                assert kinds.count(kind) == 1, kinds
            crashed = next(e for e in events if e["type"] == "worker.crashed")
            assert crashed["exit_code"] == 13
            assert not _alive(original)

            second = pool.submit(_pid_task(1)).result(timeout=30)
            assert second.ok and second.dispatches == 1
            assert second.result == first.result  # the respawned member
            assert pool.stats()["respawns"] == 1
        finally:
            pool.close()

    def test_exhausted_requeue_budget_fails_only_that_task(self):
        state = resolve_fault_plan(
            {"rules": [{"site": "worker.task", "at": [0, 1]}]}
        ).activate()
        pool = _open(1, fault_state=state)
        try:
            lost = pool.submit(_pid_task(0)).result(timeout=30)
            assert not lost.ok
            assert lost.error["code"] == "worker-crashed"
            assert pool.submit(_pid_task(1)).result(timeout=30).ok
        finally:
            pool.close()


def _one_credit_pool(rules, events=None):
    """One member, one respawn credit, the given ``worker.*`` rules."""
    state = resolve_fault_plan({"rules": rules}).activate()
    executor = ProcessExecutor(
        workers=1, heartbeat_interval=0.02, max_respawns=1
    )
    return executor.open_pool(
        1, fault_state=state, on_event=None if events is None else events.append
    )


class TestRespawnCredits:
    def test_a_respawn_that_completes_a_task_returns_its_credit(self):
        pool = _one_credit_pool([{"site": "worker.task", "at": [0]}])
        try:
            assert pool.submit(_pid_task(0)).result(timeout=30).ok
            stats = pool.stats()
            assert stats["respawns"] == 1
            assert stats["respawn_credits"] == 1
        finally:
            pool.close()

    def test_credits_refill_so_a_later_crash_still_respawns(self):
        # Dispatches 0 and 2 crash.  One credit covers both, because the
        # first replacement returned it by completing task 0.
        events = []
        pool = _one_credit_pool(
            [{"site": "worker.task", "at": [0, 2]}], events
        )
        try:
            for index in range(2):
                outcome = pool.submit(_pid_task(index)).result(timeout=30)
                assert outcome.ok and outcome.worker is not None
            stats = pool.stats()
            assert stats["respawns"] == 2
            assert stats["respawn_credits"] == 1
            assert not stats["degraded"]
            assert not [e for e in events if e["type"] == "pool.degraded"]
        finally:
            pool.close()

    def test_a_crash_loop_that_completes_nothing_still_degrades(self):
        pool = _one_credit_pool([{"site": "worker.spawn", "rate": 1.0}])
        try:
            outcome = pool.submit(_pid_task(0)).result(timeout=30)
            assert outcome.ok and outcome.worker is None  # ran in-process
            stats = pool.stats()
            assert stats["degraded"]
            assert stats["respawns"] == 1
            assert stats["respawn_credits"] == 0
        finally:
            pool.close()


class TestClose:
    def test_close_leaves_no_live_children(self):
        pool = _open(2)
        members = _wait_ready(pool, 2)
        assert pool.submit(_pid_task(0)).result(timeout=30).ok
        pool.close()
        assert pool.pids() == []
        assert not any(map(_alive, members))
        pool.close()  # idempotent

    def test_close_resolves_in_flight_and_queued_work(self):
        pool = _open(1)
        _wait_ready(pool, 1)
        in_flight = pool.submit(_sleep_task(0, 30.0))
        queued = pool.submit(_pid_task(1))
        deadline = time.monotonic() + 10.0
        while not in_flight.running() and time.monotonic() < deadline:
            time.sleep(0.01)
        pool.close()
        outcome = in_flight.result(timeout=1)
        assert not outcome.ok and outcome.error["code"] == "worker-crashed"
        assert queued.cancelled()

    def test_submit_after_close_raises(self):
        pool = _open(1)
        pool.close()
        with pytest.raises(ModelError, match="closed"):
            pool.submit(_pid_task(0))
