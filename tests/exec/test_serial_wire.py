"""Serial executor: the wire format certified byte-identical in-process."""

from __future__ import annotations

import pytest

from repro.api import RunConfig, Session
from repro.api.session import RunResult
from repro.errors import ModelError
from repro.exec import ExecTask, SerialExecutor, TaskOutcome
from repro.exec.base import execute_task_inline

from exec_tiny import tiny_specs


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
    def test_on_complete_fires_per_task(self):
        seen = []
        SerialExecutor().run_tasks(
            _tiny_tasks(), on_complete=lambda task, outcome: seen.append(task.index)
        )
        assert seen == [0, 1, 2]

    def test_failed_outcome_surfaces_not_raises(self):
        (outcome,) = SerialExecutor().run_tasks([_bad_task()])
        assert outcome.status == "failed"
        assert outcome.error["code"] == "model-invalid"

    def test_fail_fast_stops_after_failure(self):
        tasks = [_bad_task()] + _tiny_tasks()[1:]
        outcomes = SerialExecutor().run_tasks(tasks, fail_fast=True)
        assert [o.status for o in outcomes] == ["failed"]


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

    def test_checkpoint_resume_through_the_wire_path(self, tmp_path):
        journal = tmp_path / "batch.jsonl"
        config = RunConfig()
        specs = tiny_specs()
        # first pass journals everything ...
        first = Session(config).run_many(
            specs, checkpoint=journal, executor="serial"
        )
        assert first.ok
        # ... second pass restores without re-running, byte-identically
        second = Session(config).run_many(
            tiny_specs(), checkpoint=journal, executor="serial"
        )
        assert second.to_json() == first.to_json()
        assert all(o.restored for o in second.outcomes)

    def test_outcome_ok_property(self):
        assert TaskOutcome(index=0, status="succeeded").ok
        assert not TaskOutcome(index=0, status="failed").ok
