"""Deterministic failure injection for the service layer.

The two serve fault sites follow the explicit-``FaultState`` pattern
(``worker.*`` / ``store.*``): occurrences are indexed per site, rules
fire at exact indices, and the same plan replays the same failure.

* ``serve.request`` — the request at that arrival index dies with a
  500 :class:`~repro.resilience.document.ErrorDocument` before
  routing; the loop and every other request stay healthy.
* ``serve.backend`` — the dispatch at that index is killed before it
  reaches the executor; the run settles ``failed`` with a replayable
  fault document, and resubmitting the same spec recovers (the failed
  record is replaced and re-dispatched).
"""

from __future__ import annotations

import asyncio

import pytest
from serve_tiny import TINY_SPEC, call, submit_and_wait

from repro.serve import ReproService


def run(coro):
    return asyncio.run(coro)


def plan(site: str, *at: int) -> dict:
    return {"rules": [{"site": site, "at": list(at)}]}


class TestRequestFaults:
    def test_exact_request_dies_others_survive(self):
        svc = ReproService(faults=plan("serve.request", 1))

        async def check():
            status, _ = await call(svc, "GET", "/health")
            assert status == 200  # occurrence 0: clean
            status, doc = await call(svc, "GET", "/health")
            assert status == 500  # occurrence 1: injected
            assert doc["code"] == "fault-injected"
            assert doc["site"] == "serve.request"
            assert doc["occurrence"] == 1
            status, _ = await call(svc, "GET", "/health")
            assert status == 200  # occurrence 2: clean again
            assert svc.tally["injected_request_faults"] == 1

        try:
            run(check())
        finally:
            svc.close()

    def test_same_plan_replays_the_same_failure(self):
        def trajectory():
            svc = ReproService(faults=plan("serve.request", 0, 2))

            async def drive():
                statuses = []
                for _ in range(4):
                    status, _ = await call(svc, "GET", "/health")
                    statuses.append(status)
                return statuses

            try:
                return run(drive())
            finally:
                svc.close()

        assert trajectory() == trajectory() == [500, 200, 500, 200]


class TestBackendFaults:
    def test_killed_dispatch_fails_run_then_resubmission_recovers(self):
        svc = ReproService(faults=plan("serve.backend", 0))

        async def check():
            run_id, doc = await submit_and_wait(svc, TINY_SPEC)
            assert doc["status"] == "failed"
            assert doc["error"]["code"] == "fault-injected"
            assert doc["error"]["site"] == "serve.backend"
            assert svc.tally["failed_runs"] == 1

            status, body = await call(svc, "GET", f"/runs/{run_id}/result")
            assert status == 500
            assert body["code"] == "fault-injected"

            # The crash-mid-run recovery story: same submission, the
            # failed record is replaced and dispatch occurrence 1 is
            # clean.
            retry_id, doc = await submit_and_wait(svc, TINY_SPEC)
            assert retry_id == run_id  # same content address
            assert doc["status"] == "succeeded"
            status, body = await call(svc, "GET", f"/runs/{run_id}/result")
            assert status == 200
            assert body["fingerprint"] == run_id

        try:
            run(check())
        finally:
            svc.close()

    def test_backend_kill_leaves_market_and_loop_healthy(self):
        svc = ReproService(
            faults=plan("serve.backend", 0), market_budget=2_000
        )

        async def check():
            _, doc = await submit_and_wait(svc, TINY_SPEC)
            assert doc["status"] == "failed"
            status, doc = await call(
                svc, "POST", "/market/allocate",
                {"scenario": "homo", "n_tasks": 4, "budget": 300},
            )
            assert status == 200  # the ledger never noticed
            status, doc = await call(svc, "GET", "/health")
            assert status == 200 and doc["status"] == "ok"

        try:
            run(check())
        finally:
            svc.close()

    def test_store_never_records_the_faulted_run(self, tmp_path):
        store_dir = tmp_path / "results"
        svc = ReproService(store=store_dir, faults=plan("serve.backend", 0))

        async def check():
            run_id, doc = await submit_and_wait(svc, TINY_SPEC)
            assert doc["status"] == "failed"
            return run_id

        try:
            run_id = run(check())
        finally:
            svc.close()

        # A fresh service on the same store must MISS (failed runs are
        # never persisted) and compute cleanly.
        svc2 = ReproService(store=store_dir)

        async def recover():
            _, doc = await submit_and_wait(svc2, TINY_SPEC)
            assert doc["status"] == "succeeded"
            assert svc2.tally["store_hits"] == 0
            assert svc2.tally["computed"] == 1

        try:
            run(recover())
        finally:
            svc2.close()


class TestStoreFaults:
    """``store.*`` sites fire on the store writer thread against the
    service's one fault state."""

    def test_write_fault_loses_memoization_not_the_run(self, tmp_path):
        svc = ReproService(
            store=tmp_path / "results", faults=plan("store.write", 0)
        )

        async def check():
            run_id, doc = await submit_and_wait(svc, TINY_SPEC)
            assert doc["status"] == "succeeded"
            assert svc.tally["store_write_failures"] == 1
            status, body = await call(svc, "GET", f"/runs/{run_id}/result")
            assert status == 200 and body["fingerprint"] == run_id
            return run_id

        try:
            run_id = run(check())
            assert not svc.store.lookup(run_id).hit
        finally:
            svc.close()

    def test_corrupt_write_is_quarantined_on_the_next_read(self, tmp_path):
        store_dir = tmp_path / "results"
        svc = ReproService(store=store_dir, faults=plan("store.corrupt", 0))

        async def seed():
            _, doc = await submit_and_wait(svc, TINY_SPEC)
            assert doc["status"] == "succeeded"
            assert svc.tally["store_write_failures"] == 0

        try:
            run(seed())
        finally:
            svc.close()

        svc2 = ReproService(store=store_dir)

        async def recover():
            _, doc = await submit_and_wait(svc2, TINY_SPEC)
            assert doc["status"] == "succeeded"
            assert svc2.tally["store_hits"] == 0
            assert svc2.tally["computed"] == 1

        try:
            run(recover())
            assert svc2.store.stats()["quarantined"] == 1
        finally:
            svc2.close()
