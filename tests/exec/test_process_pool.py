"""Supervised worker pool: crash recovery, stragglers, degradation.

Every test here spawns real subprocesses, so the whole module is gated
behind ``REPRO_EXEC_TESTS=1`` (the ``parallel-executor`` CI job);
tier-1 certifies the same wire format serially in
``test_serial_wire.py``.
"""

from __future__ import annotations

import pytest

from repro.api import RunConfig, Session
from repro.exec import ProcessExecutor

from exec_tiny import requires_process_pool, tiny_specs

pytestmark = requires_process_pool


def _pool(**overrides):
    overrides.setdefault("workers", 2)
    overrides.setdefault("heartbeat_interval", 0.02)
    return ProcessExecutor(**overrides)


def _events(report, kind):
    return [e for e in report.events if e["type"] == kind]


class TestPoolIdentity:
    def test_pool_batch_byte_identical_to_inline_loop(self):
        inline = Session(RunConfig()).run_many(tiny_specs())
        pooled = Session(RunConfig()).run_many(tiny_specs(), executor=_pool())
        assert pooled.to_json() == inline.to_json()
        assert [o.status for o in pooled.outcomes] == ["succeeded"] * 3
        assert len(_events(pooled, "worker.spawned")) == 2

    def test_in_run_failures_cross_the_wire(self):
        # A deterministic *in-run* fault is not a worker failure: the
        # worker survives, the error document crosses the wire, and the
        # report matches the serial one byte-for-byte.
        config = RunConfig(
            faults={"rules": [{"site": "market.replication", "at": [0]}]}
        )
        serial = Session(config).run_many(tiny_specs())
        pooled = Session(config).run_many(tiny_specs(), executor=_pool())
        assert pooled.to_json() == serial.to_json()
        assert not _events(pooled, "worker.crashed")


class TestCrashRecovery:
    def test_worker_crash_is_requeued_and_respawned(self):
        # worker.task at=[0]: the worker assigned the first dispatch
        # dies with os._exit on receipt; the supervisor requeues the
        # task and respawns the seat.  The merged report is still
        # byte-identical to the serial run under the same plan (the
        # worker.* sites are unreachable in-run).
        config = RunConfig(
            faults={"rules": [{"site": "worker.task", "at": [0]}]}
        )
        serial = Session(config).run_many(tiny_specs())
        pooled = Session(config).run_many(tiny_specs(), executor=_pool())
        assert pooled.ok
        assert pooled.to_json() == serial.to_json()
        assert len(_events(pooled, "fault.worker")) == 1
        assert len(_events(pooled, "worker.crashed")) == 1
        assert len(_events(pooled, "task.requeued")) == 1
        assert len(_events(pooled, "worker.respawned")) == 1

    def test_requeue_budget_exhaustion_fails_the_task(self):
        # Every dispatch of spec 0 crashes its worker; with a retry
        # budget of 1 the task is dispatched twice, then filed as a
        # worker-crashed error document.
        config = RunConfig(
            faults={"rules": [{"site": "worker.task", "rate": 1.0}]},
            retry={"attempts": 1},
        )
        report = Session(config).run_many(
            [tiny_specs()[0]], executor=_pool(workers=1)
        )
        assert not report.ok
        [outcome] = report.outcomes
        assert outcome.status == "failed"
        assert outcome.error.code == "worker-crashed"
        assert len(_events(report, "task.requeued")) == 1

    def test_hung_worker_is_reaped_as_straggler(self):
        # worker.hang wedges the worker (heartbeats stop, main thread
        # sleeps); the supervisor's straggler deadline (TimeoutPolicy)
        # fires first because the stall window is set far longer.
        config = RunConfig(
            faults={"rules": [{"site": "worker.hang", "at": [0]}]},
            timeout=1.0,
        )
        pool = _pool(stall_timeout=30.0)
        report = Session(config).run_many(tiny_specs(), executor=pool)
        assert report.ok
        assert len(_events(report, "task.straggler")) == 1
        assert len(_events(report, "worker.straggler")) == 1
        assert len(_events(report, "task.requeued")) == 1

    def test_hung_worker_is_reaped_on_stall_without_timeout_policy(self):
        # Without a TimeoutPolicy the missing-heartbeat stall detector
        # is the backstop.
        config = RunConfig(
            faults={"rules": [{"site": "worker.hang", "at": [0]}]}
        )
        report = Session(config).run_many(
            tiny_specs(), executor=_pool(stall_timeout=0.5)
        )
        assert report.ok
        assert len(_events(report, "worker.stalled")) == 1


class TestDegradation:
    def test_pool_collapse_degrades_to_serial(self):
        # Every spawn dies immediately and the respawn budget runs out:
        # the supervisor declares the pool dead and finishes the batch
        # in-process — same documents, one pool.degraded event.
        config = RunConfig(
            faults={"rules": [{"site": "worker.spawn", "rate": 1.0}]}
        )
        serial = Session(RunConfig()).run_many(
            tiny_specs(), executor="serial"
        )
        pooled = Session(config).run_many(
            tiny_specs(), executor=_pool(max_respawns=2)
        )
        assert pooled.ok
        assert len(_events(pooled, "pool.degraded")) == 1
        # payloads are what a worker would have produced (the config
        # documents differ: one carries the worker.spawn plan)
        assert [o.result.payload for o in pooled.outcomes] == [
            o.result.payload for o in serial.outcomes
        ]


class TestStoreResume:
    def test_resume_through_the_pool_is_byte_identical(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        config = RunConfig()
        # seed the store with the first spec, serially
        partial = Session(config).run_many(tiny_specs()[:1], store=store)
        assert partial.ok
        # resume the full batch on the pool
        resumed = Session(config).run_many(
            tiny_specs(), store=store, executor=_pool()
        )
        clean = Session(config).run_many(tiny_specs())
        assert resumed.to_json() == clean.to_json()
        assert [o.served for o in resumed.outcomes] == [True, False, False]
        # the store now covers all three specs
        assert len(store) == 3

    def test_crash_events_reach_the_report_of_a_stored_batch(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        config = RunConfig(
            faults={"rules": [{"site": "worker.task", "at": [0]}]}
        )
        report = Session(config).run_many(
            tiny_specs(), store=store, executor=_pool()
        )
        assert report.ok
        kinds = {e["type"] for e in report.events}
        assert "worker.crashed" in kinds
        assert "task.requeued" in kinds
        # a crashed attempt never lands in the store: only the three
        # completed specs do
        assert len(store) == 3
        assert report.store["write_failures"] == 0


class TestFailFast:
    def test_fail_fast_surfaces_the_first_error(self):
        from repro.errors import ReproError

        config = RunConfig(
            faults={"rules": [{"site": "run.start", "at": [0]}]}
        )
        with pytest.raises(ReproError):
            Session(config).run_many(
                tiny_specs(), fail_fast=True, executor=_pool()
            )
