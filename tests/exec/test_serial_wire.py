"""Serial executor: the wire format certified byte-identical in-process."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.api import RunConfig, Session
from repro.api.session import RunResult
from repro.errors import ModelError
from repro.exec import (
    ExecTask,
    InlinePool,
    ProcessExecutor,
    SerialExecutor,
    TaskOutcome,
)
from repro.exec.base import execute_task_inline

from exec_tiny import requires_process_pool, tiny_specs


class TestExecTask:
    def test_run_task_needs_documents(self):
        with pytest.raises(ModelError, match="spec and config"):
            ExecTask(index=0, kind="run")

    def test_call_task_needs_triple(self):
        with pytest.raises(ModelError, match="triple"):
            ExecTask(index=0, kind="call")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelError, match="unknown task kind"):
            ExecTask(index=0, kind="thread")

    def test_payload_is_the_wire_form(self):
        spec_doc = tiny_specs()[0].to_dict()
        config_doc = RunConfig().to_dict()
        task = ExecTask(index=0, kind="run", spec=spec_doc, config=config_doc)
        assert task.payload == (spec_doc, config_doc)
        call = (max, (1, 2), {})
        assert ExecTask(index=1, kind="call", call=call).payload == call


class TestInlineExecution:
    def test_run_task_round_trips_documents(self):
        spec = tiny_specs()[0]
        config = RunConfig()
        task = ExecTask(
            index=0, kind="run", spec=spec.to_dict(), config=config.to_dict()
        )
        outcome = execute_task_inline(task)
        assert outcome.ok
        assert outcome.status == "succeeded"
        # the wire result document restores to the direct run, byte-for-byte
        direct = Session(config).run(spec)
        restored = RunResult.from_document(outcome.result)
        assert restored.to_dict() == direct.to_dict()

    def test_failure_becomes_an_error_document(self):
        config = RunConfig(
            faults={"rules": [{"site": "run.start", "at": [0]}]}
        )
        task = ExecTask(
            index=0,
            kind="run",
            spec=tiny_specs()[0].to_dict(),
            config=config.to_dict(),
        )
        outcome = execute_task_inline(task)
        assert not outcome.ok
        assert outcome.status == "failed"
        assert outcome.error["code"] == "fault-injected"
        assert outcome.error["site"] == "run.start"
        # the captured document still addresses the run
        assert outcome.error["spec"]["experiment"] == "fig2"
        assert outcome.error["fingerprint"]

    def test_call_task_runs_picklable_function(self):
        task = ExecTask(index=0, kind="call", call=(max, (3, 7), {}))
        outcome = execute_task_inline(task)
        assert outcome.ok
        assert outcome.result == 7


def _bad_task() -> ExecTask:
    return ExecTask(
        index=0,
        spec={"experiment": "fig2", "params": {"n_tasks": -3}},
        config=RunConfig().to_dict(),
    )


def _tiny_tasks() -> list:
    config_doc = RunConfig().to_dict()
    return [
        ExecTask(index=i, spec=spec.to_dict(), config=config_doc)
        for i, spec in enumerate(tiny_specs())
    ]


class TestSerialRunTasks:
    """The batch loop every executor shares, on the serial pool."""

    @staticmethod
    def executor():
        return SerialExecutor()

    def test_on_complete_fires_per_task(self):
        seen = []
        self.executor().run_tasks(
            _tiny_tasks(), on_complete=lambda task, outcome: seen.append(task.index)
        )
        assert seen == [0, 1, 2]

    def test_failed_outcome_surfaces_not_raises(self):
        (outcome,) = self.executor().run_tasks([_bad_task()])
        assert outcome.status == "failed"
        assert outcome.error["code"] == "model-invalid"

    def test_fail_fast_stops_after_failure(self):
        tasks = [_bad_task()] + _tiny_tasks()[1:]
        outcomes = self.executor().run_tasks(tasks, fail_fast=True)
        assert [o.status for o in outcomes] == ["failed"]


@requires_process_pool
class TestProcessRunTasks(TestSerialRunTasks):
    """The same loop on one process worker, which completes tasks in
    submission order as the serial pool does."""

    @staticmethod
    def executor():
        return ProcessExecutor(workers=1, heartbeat_interval=0.02)


def _call_task(index: int, func, *args) -> ExecTask:
    return ExecTask(index=index, kind="call", call=(func, args, {}))


class TestInlinePool:
    def test_concurrent_submitters_get_their_own_outcomes(self):
        # More submitting threads and pool threads than cores, with a
        # short switch interval: every future resolves to its own task.
        pool = InlinePool(4)
        results: dict = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def submitter(base: int) -> None:
            futures = {
                index: pool.submit(_call_task(index, abs, -index))
                for index in range(base, base + 50)
            }
            for index, future in futures.items():
                results[index] = future.result(timeout=30.0)

        try:
            threads = [
                threading.Thread(target=submitter, args=(100 * n,))
                for n in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert len(results) == 300
        for index, outcome in results.items():
            assert (outcome.index, outcome.status, outcome.result) == (
                index, "succeeded", index,
            )

    def test_close_cancels_queued_tasks_and_refuses_more(self):
        pool = InlinePool(1)
        running = pool.submit(_call_task(0, time.sleep, 0.2))
        queued = pool.submit(_call_task(1, abs, -1))
        while not running.running():
            time.sleep(0.001)
        pool.close()
        assert queued.cancelled()
        assert running.result(timeout=10.0).ok  # not stopped, not awaited
        with pytest.raises(ModelError, match="closed"):
            pool.submit(_call_task(2, abs, -2))


class TestSerialBatch:
    def test_clean_batch_byte_identical_to_inline_loop(self):
        inline = Session(RunConfig()).run_many(tiny_specs())
        wired = Session(RunConfig()).run_many(tiny_specs(), executor="serial")
        assert wired.to_json() == inline.to_json()
        assert [o.status for o in wired.outcomes] == ["succeeded"] * 3
        # serial executors emit no supervisor events
        assert wired.events == ()
        assert "events" not in wired.to_dict()
        assert wired.to_dict(include_events=True)["events"] == []

    def test_failing_batch_byte_identical_to_inline_loop(self):
        # fig3 reaches market.replication; fig2/fig4 do not.
        config = RunConfig(
            faults={"rules": [{"site": "market.replication", "at": [0]}]}
        )
        inline = Session(config).run_many(tiny_specs())
        wired = Session(config).run_many(tiny_specs(), executor="serial")
        assert wired.to_json() == inline.to_json()
        assert not wired.ok
        statuses = {o.spec.name: o.status for o in wired.outcomes}
        assert statuses == {
            "fig2": "succeeded", "fig3": "failed", "fig4": "succeeded",
        }

    def test_config_executor_field_selects_the_fanout(self):
        wired = Session(RunConfig(executor="serial")).run_many(tiny_specs())
        inline = Session(RunConfig()).run_many(tiny_specs())
        assert wired.to_json() == inline.to_json()

    def test_store_resume_through_the_wire_path(self, tmp_path):
        store = tmp_path / "store"
        config = RunConfig()
        specs = tiny_specs()
        # first pass stores everything ...
        first = Session(config).run_many(
            specs, store=store, executor="serial"
        )
        assert first.ok
        # ... second pass serves without re-running, byte-identically
        session = Session(config)
        second = session.run_many(
            tiny_specs(), store=store, executor="serial"
        )
        assert second.to_json() == first.to_json()
        assert all(o.served for o in second.outcomes)
        assert session.runs_completed == 0

    def test_failed_specs_rerun_on_store_resume_through_the_wire_path(
        self, tmp_path
    ):
        store = tmp_path / "store"
        # fig3 reaches market.replication; fig2/fig4 do not.
        config = RunConfig(
            faults={"rules": [{"site": "market.replication", "at": [0]}]}
        )
        first = Session(config).run_many(
            tiny_specs(), store=store, executor="serial"
        )
        assert [o.status for o in first.outcomes] == [
            "succeeded", "failed", "succeeded",
        ]
        # only completed specs were stored: the rerun serves those and
        # replays the deterministic failure
        second = Session(config).run_many(
            tiny_specs(), store=store, executor="serial"
        )
        assert [o.served for o in second.outcomes] == [True, False, True]
        assert second.to_json() == first.to_json()

    def test_outcome_ok_property(self):
        assert TaskOutcome(index=0, status="succeeded").ok
        assert not TaskOutcome(index=0, status="failed").ok
