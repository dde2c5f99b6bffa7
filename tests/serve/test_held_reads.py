"""Held status / result reads and the bound on finished run records.

A ``GET /runs/<id>`` or ``GET /runs/<id>/result`` of a run that is
still ``queued`` or ``running`` waits until the run settles, at most
``repro.serve.service.HOLD_SECONDS``.  ``ReproService.runs`` keeps
in-flight records plus the ``FINISHED_RUNS`` most recently used
finished ones; reads of an evicted run fall back to the store.

Compute is gated in-process (``executor="serial"`` runs
``repro.exec.worker.run_task_document`` on a dispatch thread), so each
test decides when its run settles.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest
from serve_tiny import TINY_SPEC, call, submit_and_wait

import repro.exec.worker as worker
import repro.serve.service as service_module
from repro.serve import ReproService, http_request, start_in_thread


def run(coro):
    return asyncio.run(coro)


def _spec(k: int) -> dict:
    """Distinct cheap submissions (distinct content addresses)."""
    params = dict(TINY_SPEC["params"], budgets=[600, 900 + k])
    return {"experiment": TINY_SPEC["experiment"], "params": params}


@pytest.fixture
def gate(monkeypatch):
    """Computed runs block until ``gate.set()`` (set again at teardown,
    so no dispatch thread outlives the test)."""
    release = threading.Event()
    real = worker.run_task_document

    def gated(spec_doc, config_doc):
        release.wait(timeout=30.0)
        return real(spec_doc, config_doc)

    monkeypatch.setattr(worker, "run_task_document", gated)
    yield release
    release.set()


@pytest.fixture
def svc():
    service = ReproService()
    yield service
    service.close()


async def _submit(service, spec) -> str:
    status, doc = await call(service, "POST", "/runs", {"spec": spec})
    assert status == 202, doc
    return doc["run_id"]


class TestHeldReads:
    @pytest.mark.parametrize("suffix", ["", "/result"])
    def test_held_read_answers_when_the_run_settles(
        self, svc, gate, monkeypatch, suffix
    ):
        monkeypatch.setattr(service_module, "HOLD_SECONDS", 30.0)
        settled_at = []
        settle = svc._settle

        def timed_settle(record):
            settled_at.append(time.perf_counter())
            settle(record)

        monkeypatch.setattr(svc, "_settle", timed_settle)

        async def check():
            run_id = await _submit(svc, TINY_SPEC)
            read = asyncio.ensure_future(
                call(svc, "GET", f"/runs/{run_id}{suffix}")
            )
            await asyncio.sleep(0.2)
            assert not read.done()  # held, not answered `running`
            gate.set()
            status, doc = await read
            answered = time.perf_counter()
            assert status == 200
            if suffix:
                assert doc["fingerprint"] == run_id
            else:
                assert doc["status"] == "succeeded"
            # Answered as the run settled, not at the 30 s cap.
            [settled] = settled_at
            assert answered - settled < 0.1, answered - settled

        run(check())

    @pytest.mark.parametrize(
        "suffix, expected", [("", 200), ("/result", 202)]
    )
    def test_unsettled_run_answers_running_at_the_cap(
        self, svc, gate, monkeypatch, suffix, expected
    ):
        monkeypatch.setattr(service_module, "HOLD_SECONDS", 0.2)

        async def check():
            run_id = await _submit(svc, TINY_SPEC)
            t0 = time.perf_counter()
            status, doc = await call(svc, "GET", f"/runs/{run_id}{suffix}")
            held = time.perf_counter() - t0
            assert status == expected
            assert doc["status"] == "running"
            assert 0.2 <= held < 5.0, held
            gate.set()
            _, doc = await submit_and_wait(svc, TINY_SPEC)
            assert doc["status"] == "succeeded"

        run(check())

    def test_settled_and_unknown_runs_answer_at_once(self, svc, monkeypatch):
        monkeypatch.setattr(service_module, "HOLD_SECONDS", 30.0)

        async def check():
            run_id, _ = await submit_and_wait(svc, TINY_SPEC)
            for path, expected in (
                (f"/runs/{run_id}", 200),
                (f"/runs/{run_id}/result", 200),
                ("/runs/deadbeef00000000", 404),
                ("/runs/deadbeef00000000/result", 404),
            ):
                t0 = time.perf_counter()
                status, _ = await call(svc, "GET", path)
                assert status == expected, path
                assert time.perf_counter() - t0 < 1.0, path

        run(check())

    def test_submission_answers_202_at_once(self, svc, gate, monkeypatch):
        monkeypatch.setattr(service_module, "HOLD_SECONDS", 30.0)

        async def check():
            t0 = time.perf_counter()
            await _submit(svc, TINY_SPEC)
            assert time.perf_counter() - t0 < 1.0
            gate.set()
            await submit_and_wait(svc, TINY_SPEC)

        run(check())

    def test_health_answers_over_the_wire_during_a_hold(
        self, gate, monkeypatch
    ):
        monkeypatch.setattr(service_module, "HOLD_SECONDS", 30.0)
        with start_in_thread(ReproService()) as handle:

            async def check():
                status, doc = await http_request(
                    handle.host, handle.port, "POST", "/runs",
                    {"spec": TINY_SPEC},
                )
                assert status == 202, doc
                poll = asyncio.ensure_future(
                    http_request(
                        handle.host, handle.port, "GET",
                        f"/runs/{doc['run_id']}",
                    )
                )
                await asyncio.sleep(0.2)
                t0 = time.perf_counter()
                status, health = await http_request(
                    handle.host, handle.port, "GET", "/health"
                )
                assert status == 200 and health["status"] == "ok"
                assert time.perf_counter() - t0 < 1.0
                assert not poll.done()
                gate.set()
                status, doc = await poll
                assert status == 200 and doc["status"] == "succeeded"

            run(check())


class TestFinishedRunBound:
    def test_finished_records_are_bounded_in_flight_ones_kept(
        self, gate, monkeypatch
    ):
        monkeypatch.setattr(service_module, "FINISHED_RUNS", 1)
        # One dispatch thread settles the pending runs in submission
        # order, so the first one read is never the one evicted when
        # the second settles.
        svc = ReproService(workers=1)

        async def check():
            gate.set()
            first, _ = await submit_and_wait(svc, _spec(0))
            gate.clear()
            pending = [await _submit(svc, _spec(k)) for k in (1, 2)]
            # Two in flight and one finished: nothing is evicted yet.
            assert set(svc.runs) == {first, *pending}
            gate.set()
            for run_id in pending:
                _, doc = await call(svc, "GET", f"/runs/{run_id}")
                assert doc["status"] == "succeeded"
            assert len(svc.runs) == 1
            health = (await call(svc, "GET", "/health"))[1]
            assert health["runs"] == 1

        try:
            run(check())
        finally:
            svc.close()

    def test_without_a_store_an_evicted_run_is_404(self, svc, monkeypatch):
        monkeypatch.setattr(service_module, "FINISHED_RUNS", 1)

        async def check():
            evicted, _ = await submit_and_wait(svc, _spec(0))
            kept, _ = await submit_and_wait(svc, _spec(1))
            assert list(svc.runs) == [kept]
            for path in (f"/runs/{evicted}", f"/runs/{evicted}/result"):
                status, doc = await call(svc, "GET", path)
                assert status == 404 and doc["code"] == "run-not-found"

        run(check())

    def test_a_read_keeps_a_record_recent(self, svc, monkeypatch):
        monkeypatch.setattr(service_module, "FINISHED_RUNS", 2)

        async def check():
            a, _ = await submit_and_wait(svc, _spec(0))
            b, _ = await submit_and_wait(svc, _spec(1))
            await call(svc, "GET", f"/runs/{a}")
            c, _ = await submit_and_wait(svc, _spec(2))
            assert set(svc.runs) == {a, c}
            assert b not in svc.runs

        run(check())

    def test_evicted_run_falls_back_to_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_module, "FINISHED_RUNS", 1)
        svc = ReproService(store=tmp_path / "results")

        async def check():
            evicted, _ = await submit_and_wait(svc, _spec(0))
            _, original = await call(svc, "GET", f"/runs/{evicted}/result")
            await submit_and_wait(svc, _spec(1))
            assert evicted not in svc.runs

            status, doc = await call(svc, "GET", f"/runs/{evicted}")
            assert status == 200
            assert doc == {
                "run_id": evicted,
                "experiment": TINY_SPEC["experiment"],
                "status": "succeeded",
                "served": True,
            }
            status, doc = await call(svc, "GET", f"/runs/{evicted}/result")
            assert status == 200 and doc == original

            # Resubmission is a store hit: no recompute.
            computed = svc.tally["computed"]
            status, doc = await call(svc, "POST", "/runs", {"spec": _spec(0)})
            assert status == 200
            assert doc["status"] == "succeeded" and doc["served"] is True
            assert svc.tally["computed"] == computed

        try:
            run(check())
        finally:
            svc.close()

    def test_a_held_read_answers_its_run_even_if_evicted_on_settling(
        self, svc, gate, monkeypatch
    ):
        monkeypatch.setattr(service_module, "FINISHED_RUNS", 0)
        monkeypatch.setattr(service_module, "HOLD_SECONDS", 30.0)

        async def check():
            run_id = await _submit(svc, TINY_SPEC)
            read = asyncio.ensure_future(call(svc, "GET", f"/runs/{run_id}"))
            await asyncio.sleep(0.05)
            gate.set()
            status, doc = await read
            assert status == 200 and doc["status"] == "succeeded"
            assert run_id not in svc.runs

        run(check())
