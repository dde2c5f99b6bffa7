"""CLI ``run-many``: exit-code contract, checkpoint resume, executors."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import EXECUTION_ERROR_EXIT, USER_ERROR_EXIT, main

from exec_tiny import requires_process_pool, tiny_spec_documents

_MARKET_FAULT = '{"rules": [{"site": "market.replication", "at": [0]}]}'
_RUN_START_FAULT = '{"rules": [{"site": "run.start", "at": [0]}]}'


def _spec_args():
    return [json.dumps(doc) for doc in tiny_spec_documents()]


def _run(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestUserErrors:
    def test_unknown_experiment_exits_two(self, capsys):
        assert _run(["run-many", "warp-drive"]) == USER_ERROR_EXIT
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_executor_exits_two_with_suggestion(self, capsys):
        code = _run(
            ["run-many", _spec_args()[0], "--executor", "proces"]
        )
        assert code == USER_ERROR_EXIT
        err = capsys.readouterr().err
        assert "unknown executor" in err
        assert "did you mean 'process'?" in err

    def test_bad_inline_spec_exits_two(self, capsys):
        assert _run(["run-many", "{not json"]) == USER_ERROR_EXIT
        assert "bad inline spec document" in capsys.readouterr().err

    def test_unknown_fault_plan_exits_two(self, capsys):
        code = _run(
            ["run-many", _spec_args()[0], "--faults", "no-such-plan"]
        )
        assert code == USER_ERROR_EXIT
        assert "unknown fault plan" in capsys.readouterr().err


class TestExecutionErrors:
    def test_failing_spec_exits_three(self, capsys):
        code = _run(
            ["run-many", *_spec_args(), "--faults", _MARKET_FAULT]
        )
        assert code == EXECUTION_ERROR_EXIT
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "failed 1" in out

    def test_fail_fast_surfaces_the_error_document(self, capsys):
        code = _run(
            ["run-many", *_spec_args(), "--faults", _RUN_START_FAULT,
             "--fail-fast", "--json"]
        )
        assert code == EXECUTION_ERROR_EXIT
        payload = json.loads(capsys.readouterr().out)
        assert payload["code"] == "fault-injected"
        assert payload["site"] == "run.start"


class TestSuccess:
    def test_clean_batch_exits_zero(self, capsys):
        assert main(["run-many", *_spec_args()]) in (0, None)
        out = capsys.readouterr().out
        assert "fig2" in out and "fig3" in out and "fig4" in out
        assert "succeeded 3" in out
        assert "failed 0" in out

    def test_json_report_includes_outcomes_and_events(self, capsys):
        assert main(["run-many", *_spec_args(), "--json"]) in (0, None)
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 3
        assert payload["succeeded"] == 3
        assert payload["events"] == []
        assert [o["status"] for o in payload["outcomes"]] == ["succeeded"] * 3


class TestCheckpointResume:
    def test_partial_failure_then_resume(self, tmp_path, capsys):
        journal = tmp_path / "batch.jsonl"
        # first invocation: fig3 fails mid-batch, fig2/fig4 are journaled
        code = _run(
            ["run-many", *_spec_args(), "--faults", _MARKET_FAULT,
             "--checkpoint", str(journal)]
        )
        assert code == EXECUTION_ERROR_EXIT
        capsys.readouterr()
        completed_lines = [
            line for line in journal.read_text().splitlines()
            if '"event"' not in line
        ]
        assert len(completed_lines) == 2
        # rerun the same batch: journal entries are keyed by the
        # (spec, config) fingerprint, so the completed specs restore
        # without re-running (marked `*` in the listing) and only the
        # deterministic failure replays
        code = _run(
            ["run-many", *_spec_args(), "--faults", _MARKET_FAULT,
             "--checkpoint", str(journal)]
        )
        assert code == EXECUTION_ERROR_EXIT
        out = capsys.readouterr().out
        assert "succeeded 2" in out
        assert out.count("succeeded*") == 2
        # nothing new was journaled: the restored specs did not re-run
        completed_lines = [
            line for line in journal.read_text().splitlines()
            if '"event"' not in line
        ]
        assert len(completed_lines) == 2


def _proc_stat(pid):
    """``(state, ppid)`` of *pid* from ``/proc``; ``None`` once gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _children_of(pid):
    return [
        int(entry)
        for entry in os.listdir("/proc")
        if entry.isdigit() and (_proc_stat(entry) or (None, None))[1] == pid
    ]


def _alive(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


@requires_process_pool
class TestKillAndRestart:
    """A SIGKILLed parent resumes from its journal byte-identically."""

    def test_killed_batch_resumes_from_journal(self, tmp_path, capsys):
        journal = tmp_path / "killed.jsonl"
        argv = [
            "run-many", *_spec_args(), "--checkpoint", str(journal),
            "--executor", "process",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # kill the parent as soon as the journal shows progress (or let
        # it finish — the resume contract holds either way)
        deadline = time.monotonic() + 60.0
        orphans = []
        while time.monotonic() < deadline and proc.poll() is None:
            if journal.exists() and journal.read_text().strip():
                orphans = _children_of(proc.pid)
                proc.send_signal(signal.SIGKILL)
                break
            time.sleep(0.05)
        proc.wait(timeout=60.0)
        # The pool workers notice their supervisor is gone and exit,
        # even while blocked on an empty task queue.
        reap_by = time.monotonic() + 10.0
        while time.monotonic() < reap_by and any(map(_alive, orphans)):
            time.sleep(0.1)
        assert not any(map(_alive, orphans)), orphans

        # restart: restored + fresh work merge into a clean report ...
        assert main([*argv, "--json"]) in (0, None)
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["succeeded"] == 3
        # ... identical (modulo restoration) to a never-killed batch
        clean_journal = tmp_path / "clean.jsonl"
        assert main(
            ["run-many", *_spec_args(), "--checkpoint", str(clean_journal),
             "--json"]
        ) in (0, None)
        clean = json.loads(capsys.readouterr().out)
        assert [o["result"] for o in resumed["outcomes"]] == [
            o["result"] for o in clean["outcomes"]
        ]

    def test_hung_worker_exits_with_its_supervisor(self):
        """A worker wedged by a ``hang`` directive (heartbeats stopped)
        still exits once its SIGKILLed supervisor is gone."""
        supervisor = (
            "import multiprocessing, time\n"
            "from repro.exec.worker import worker_main\n"
            "ctx = multiprocessing.get_context('fork')\n"
            "task_r, task_w = ctx.Pipe(duplex=False)\n"
            "result_r, result_w = ctx.Pipe(duplex=False)\n"
            "worker = ctx.Process(target=worker_main,"
            " args=(0, task_r, result_w, 0.05), daemon=True)\n"
            "worker.start()\n"
            "while result_r.recv()[0] != 'ready':\n"
            "    pass\n"
            "task_w.send(('task', 0, 'call', (print, (), None), 'hang'))\n"
            "time.sleep(0.5)\n"
            "print(worker.pid, flush=True)\n"
            "time.sleep(600)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", supervisor],
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            worker = int(proc.stdout.readline())
            assert _alive(worker)
        finally:
            proc.kill()
            proc.wait(timeout=60.0)
        reap_by = time.monotonic() + 10.0
        while time.monotonic() < reap_by and _alive(worker):
            time.sleep(0.1)
        assert not _alive(worker)
