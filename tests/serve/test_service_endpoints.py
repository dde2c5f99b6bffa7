"""Endpoint contracts for the live service (``repro.serve``).

Every assertion here runs in-process against ``ReproService.handle``
(one event loop per test, no sockets) except the wire test at the
bottom, which drives the same service over real asyncio streams.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time

import pytest
from serve_tiny import TINY_SPEC, call, submit_and_wait

from repro.api import ExperimentSpec, RunConfig, Session
from repro.api.config import fingerprint
from repro.serve import ReproService, http_request, start_in_thread


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def service():
    svc = ReproService()
    yield svc
    svc.close()


class TestHealthAndDiscovery:
    def test_health_reports_tally(self, service):
        async def check():
            status, doc = await call(service, "GET", "/health")
            assert status == 200
            assert doc["status"] == "ok"
            assert doc["store"] is False
            assert doc["tally"]["requests"] == 1

        run(check())

    def test_experiments_lists_registry_and_families(self, service):
        async def check():
            status, doc = await call(service, "GET", "/experiments")
            assert status == 200
            assert "budget-sweep" in doc["experiments"]
            assert "fig2" in doc["experiments"]
            assert set(doc["families"]) >= {"homo", "repe", "heter"}

        run(check())

    def test_unknown_route_is_404_run_not_found(self, service):
        async def check():
            status, doc = await call(service, "GET", "/nope")
            assert status == 404
            assert doc["code"] == "run-not-found"

        run(check())


class TestSubmission:
    def test_bad_json_body_is_400_error_document(self, service):
        async def check():
            status, doc = await service.handle("POST", "/runs", b"{nope")
            assert status == 400
            assert doc["code"] == "model-invalid"
            assert "error" in doc and "message" in doc

        run(check())

    def test_missing_spec_is_400(self, service):
        async def check():
            status, doc = await call(service, "POST", "/runs", {"config": {}})
            assert status == 400
            assert doc["code"] == "model-invalid"

        run(check())

    def test_unknown_experiment_is_400_registry_lookup(self, service):
        async def check():
            status, doc = await call(
                service, "POST", "/runs",
                {"spec": {"experiment": "fig99", "params": {}}},
            )
            assert status == 400
            assert doc["code"] == "registry-lookup"
            assert "fig99" in doc["message"]

        run(check())

    def test_run_id_is_the_fingerprint(self, service):
        spec = ExperimentSpec.from_dict(TINY_SPEC)
        expected = fingerprint(
            {"spec": spec.to_dict(), "config": RunConfig().to_dict()}
        )

        async def check():
            run_id, doc = await submit_and_wait(service, TINY_SPEC)
            assert run_id == expected
            assert doc["status"] == "succeeded"

        run(check())

    def test_result_byte_identical_to_direct_session_run(self, service):
        direct = Session(RunConfig()).run(
            ExperimentSpec.from_dict(TINY_SPEC)
        ).to_dict()

        async def check():
            run_id, _ = await submit_and_wait(service, TINY_SPEC)
            status, served = await call(
                service, "GET", f"/runs/{run_id}/result"
            )
            assert status == 200
            assert json.dumps(served, sort_keys=True) == json.dumps(
                direct, sort_keys=True
            )

        run(check())

    def test_resubmission_is_idempotent_no_recompute(self, service):
        async def check():
            run_id, _ = await submit_and_wait(service, TINY_SPEC)
            assert service.tally["computed"] == 1
            status, doc = await call(
                service, "POST", "/runs", {"spec": TINY_SPEC}
            )
            assert status == 200
            assert doc["run_id"] == run_id
            assert doc["status"] == "succeeded"
            assert service.tally["computed"] == 1  # nothing re-ran

        run(check())

    def test_unknown_run_id_is_404(self, service):
        async def check():
            for path in ("/runs/deadbeef00000000",
                         "/runs/deadbeef00000000/result"):
                status, doc = await call(service, "GET", path)
                assert status == 404
                assert doc["code"] == "run-not-found"

        run(check())

    def test_pending_result_is_202_status_document(self, service):
        async def check():
            status, doc = await call(
                service, "POST", "/runs", {"spec": TINY_SPEC}
            )
            assert status == 202
            run_id = doc["run_id"]
            status, doc = await call(
                service, "GET", f"/runs/{run_id}/result"
            )
            # Still queued/running: the result endpoint answers 202
            # with the status document, or 200 if it already settled.
            assert status in (200, 202)
            # Let the in-flight task settle before the loop closes.
            await submit_and_wait(service, TINY_SPEC)

        run(check())


class TestStoreIntegration:
    def test_store_hit_vs_compute_across_restart(self, tmp_path):
        store_dir = tmp_path / "results"

        async def first():
            svc = ReproService(store=store_dir)
            try:
                run_id, _ = await submit_and_wait(svc, TINY_SPEC)
                assert svc.tally["computed"] == 1
                assert svc.tally["store_misses"] == 1
                _, doc = await call(svc, "GET", f"/runs/{run_id}/result")
                return run_id, doc
            finally:
                svc.close()

        run_id, first_doc = run(first())

        async def second():
            svc = ReproService(store=store_dir)  # fresh process, warm disk
            try:
                status, doc = await call(
                    svc, "POST", "/runs", {"spec": TINY_SPEC}
                )
                assert status == 200
                assert doc["served"] is True
                assert svc.tally["store_hits"] == 1
                assert svc.tally["computed"] == 0  # no recompute
                status, served = await call(
                    svc, "GET", f"/runs/{run_id}/result"
                )
                assert status == 200
                return served
            finally:
                svc.close()

        second_doc = run(second())
        assert json.dumps(first_doc, sort_keys=True) == json.dumps(
            second_doc, sort_keys=True
        )

    def test_result_readable_from_store_without_submission(self, tmp_path):
        store_dir = tmp_path / "results"

        async def seed():
            svc = ReproService(store=store_dir)
            try:
                run_id, _ = await submit_and_wait(svc, TINY_SPEC)
                return run_id
            finally:
                svc.close()

        run_id = run(seed())

        async def read_cold():
            svc = ReproService(store=store_dir)
            try:
                # No POST first: the result endpoint falls back to the
                # store for a restarted service.
                status, doc = await call(svc, "GET", f"/runs/{run_id}/result")
                assert status == 200
                assert doc["fingerprint"] == run_id
            finally:
                svc.close()

        run(read_cold())

    def test_slow_store_write_does_not_delay_the_loop(
        self, tmp_path, monkeypatch
    ):
        # The write runs on the store's writer thread: while it is held
        # the loop still answers, and the run reads `succeeded` only
        # once the entry is durable.
        from repro.store import ResultStore

        started, release = threading.Event(), threading.Event()
        real_put = ResultStore.put

        def slow_put(self, *args, **kwargs):
            started.set()
            release.wait(timeout=10.0)
            return real_put(self, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "put", slow_put)
        svc = ReproService(store=tmp_path / "results")

        async def check():
            status, doc = await call(svc, "POST", "/runs", {"spec": TINY_SPEC})
            assert status == 202
            run_id = doc["run_id"]
            while not started.is_set():
                await asyncio.sleep(0.005)
            t0 = time.perf_counter()
            status, health = await call(svc, "GET", "/health")
            assert status == 200 and health["status"] == "ok"
            assert time.perf_counter() - t0 < 0.5
            _, doc = await call(svc, "GET", f"/runs/{run_id}")
            assert doc["status"] == "running"  # the write is still held
            assert not release.is_set()
            release.set()
            _, doc = await submit_and_wait(svc, TINY_SPEC)
            assert doc["status"] == "succeeded"
            assert svc.store.lookup(run_id).hit

        try:
            run(check())
        finally:
            release.set()
            svc.close()


class TestMarket:
    def test_allocate_budget_mode_charges_ledger(self):
        svc = ReproService(market_budget=2_000)

        async def check():
            status, doc = await call(
                svc, "POST", "/market/allocate",
                {"scenario": "repe", "n_tasks": 4, "budget": 600},
            )
            assert status == 200
            assert doc["mode"] == "budget"
            assert doc["allocation_id"] == "a000000"
            assert doc["cost"] > 0
            assert doc["remaining_budget"] == 2_000 - doc["cost"]
            assert doc["group_prices"]

        try:
            run(check())
        finally:
            svc.close()

    def test_allocate_deadline_mode(self):
        svc = ReproService()

        async def check():
            status, doc = await call(
                svc, "POST", "/market/allocate",
                {"scenario": "homo", "n_tasks": 4, "deadline": 2.0},
            )
            assert status == 200
            assert doc["mode"] == "deadline"
            assert 0 <= doc["achieved_probability"] <= 1
            assert doc["cost"] >= 0

        try:
            run(check())
        finally:
            svc.close()

    def test_exhaustion_is_409_and_ledger_untouched(self):
        svc = ReproService(market_budget=700)

        async def check():
            status, first = await call(
                svc, "POST", "/market/allocate",
                {"scenario": "repe", "n_tasks": 4, "budget": 600},
            )
            assert status == 200
            status, doc = await call(
                svc, "POST", "/market/allocate",
                {"scenario": "repe", "n_tasks": 4, "budget": 600},
            )
            assert status == 409
            assert doc["code"] == "budget-infeasible"
            _, state = await call(svc, "GET", "/market/state")
            ledger = state["ledger"]
            assert ledger["spent"] == first["cost"] == 600  # rejection free
            assert ledger["accepted"] == 1
            assert ledger["rejected"] == 1

        try:
            run(check())
        finally:
            svc.close()

    def test_malformed_allocate_is_400_no_charge(self, service):
        async def check():
            cases = [
                ({}, "model-invalid"),  # no scenario
                # neither budget nor deadline
                ({"scenario": "repe"}, "model-invalid"),
                # both
                (
                    {"scenario": "repe", "budget": 600, "deadline": 2.0},
                    "model-invalid",
                ),
                # strategies are a name registry
                (
                    {"scenario": "repe", "budget": 600, "strategy": "nope"},
                    "registry-lookup",
                ),
            ]
            for body, code in cases:
                status, doc = await call(
                    svc := service, "POST", "/market/allocate", body
                )
                assert status == 400, body
                assert doc["code"] == code
            _, state = await call(svc, "GET", "/market/state")
            assert state["ledger"]["spent"] == 0
            assert state["ledger"]["rejected"] == 0

        run(check())

    @pytest.mark.parametrize(
        "field, base",
        [
            ("budget", {}),
            ("n_tasks", {"budget": 600}),
            ("seed", {"budget": 600}),
            ("deadline", {}),
            ("confidence", {"deadline": 40.0}),
            ("max_price", {"deadline": 40.0}),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_is_400_no_charge(self, service, field, base, value):
        # Python's json reads NaN and Infinity; neither may price.
        async def check():
            body = dict({"scenario": "homo", "n_tasks": 4}, **base)
            body[field] = value
            status, doc = await call(service, "POST", "/market/allocate", body)
            assert status == 400, doc
            assert doc["code"] == "model-invalid"
            assert field in doc["message"]
            _, state = await call(service, "GET", "/market/state")
            assert state["ledger"]["spent"] == 0
            assert state["ledger"]["accepted"] == 0
            assert state["ledger"]["rejected"] == 0

        run(check())

    def test_state_document_shape(self, service):
        async def check():
            status, doc = await call(service, "GET", "/market/state")
            assert status == 200
            assert set(doc["ledger"]) == {
                "budget", "spent", "remaining", "accepted", "rejected"
            }
            assert len(doc["trajectory_digest"]) == 16
            assert doc["open_tasks"]["count"] == 0

        run(check())

    def test_open_tasks_keep_only_the_state_tail(self):
        from repro.serve.market import _STATE_TAIL, LiveMarket

        market = LiveMarket(budget=10**9)
        allocations = [
            market.allocate({"scenario": "homo", "n_tasks": 4, "budget": 40 + k})
            for k in range(3 * _STATE_TAIL)
        ]
        assert len(market.open_tasks) == _STATE_TAIL
        state = market.state_document()
        assert state["open_tasks"]["count"] == market.accepted == 3 * _STATE_TAIL
        # Each entry is the allocate response minus the running balance.
        expected = [
            {k: v for k, v in doc.items() if k != "remaining_budget"}
            for doc in allocations[-_STATE_TAIL:]
        ]
        assert state["open_tasks"]["tail"] == expected


class TestWire:
    """The same contracts over real asyncio streams."""

    def test_http_round_trip(self):
        service = ReproService(market_budget=2_000)
        with start_in_thread(service) as handle:
            async def check():
                status, doc = await http_request(
                    handle.host, handle.port, "GET", "/health"
                )
                assert status == 200 and doc["status"] == "ok"
                status, doc = await http_request(
                    handle.host, handle.port, "POST", "/runs",
                    {"spec": TINY_SPEC},
                )
                assert status in (200, 202)
                run_id = doc["run_id"]
                while doc["status"] in ("queued", "running"):
                    await asyncio.sleep(0.01)
                    status, doc = await http_request(
                        handle.host, handle.port, "GET", f"/runs/{run_id}"
                    )
                assert doc["status"] == "succeeded"
                status, result = await http_request(
                    handle.host, handle.port, "GET", f"/runs/{run_id}/result"
                )
                assert status == 200
                assert result["fingerprint"] == run_id
                status, doc = await http_request(
                    handle.host, handle.port, "POST", "/market/allocate",
                    {"scenario": "homo", "n_tasks": 4, "budget": 300},
                )
                assert status == 200

            asyncio.run(check())

    def test_unknown_family_is_400_registry_lookup(self):
        service = ReproService()
        with start_in_thread(service) as handle:
            status, doc = asyncio.run(
                http_request(
                    handle.host, handle.port, "POST", "/market/allocate",
                    {"scenario": "hom"},
                )
            )
        assert status == 400
        assert doc["code"] == "registry-lookup"
        assert "did you mean 'homo'" in doc["message"]

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400_error_document(self, length):
        service = ReproService()
        with start_in_thread(service) as handle:
            async def exchange():
                reader, writer = await asyncio.open_connection(
                    handle.host, handle.port
                )
                writer.write(
                    b"POST /runs HTTP/1.1\r\n"
                    + f"Content-Length: {length}\r\n\r\n".encode("latin-1")
                )
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(-1), 10.0)
                writer.close()
                await writer.wait_closed()
                return raw

            raw = asyncio.run(exchange())
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 ")
            doc = json.loads(body)
            assert doc["code"] == "model-invalid"
            assert repr(length) in doc["message"]
            status, _ = asyncio.run(
                http_request(handle.host, handle.port, "GET", "/health")
            )
            assert status == 200  # the server survived the bad request

    def test_stop_is_idempotent(self):
        service = ReproService()
        handle = start_in_thread(service)
        handle.stop()
        handle.stop()  # second stop is a no-op
