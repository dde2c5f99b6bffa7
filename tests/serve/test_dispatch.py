"""Off-loop dispatch of submitted runs (``repro.serve.backend``).

The backend opens its executor's pool of ``workers`` members on the
first run that reaches compute and submits every run to it: dispatch
threads in the service process under ``executor="serial"``, worker
processes under ``executor="process"``.  These tests pin that width
for both, the lazy start, the construction-time executor resolution,
and that two runs overlapping on two dispatch threads keep their
resilience scopes apart.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import threading
import time

import pytest
from serve_tiny import TINY_SPEC, requires_process_pool, submit_and_wait

import repro.exec.worker as worker
import repro.resilience.faults as faults
from repro.api import ExperimentSpec, Session
from repro.errors import ModelError, RegistryError
from repro.exec import get_executor
from repro.serve import ExecutorBackend, ReproService, http_request, start_in_thread

#: How long a run waits for a second concurrent run before going on
#: alone (bounds the workers=1 case, where none can ever arrive).
_OVERLAP_WAIT = 0.3


def _distinct_specs(n: int) -> list:
    """*n* cheap submissions with distinct content addresses."""
    specs = []
    for k in range(n):
        params = dict(TINY_SPEC["params"], budgets=[600, 900 + k])
        specs.append({"experiment": TINY_SPEC["experiment"], "params": params})
    return specs


def _submit_burst(service, n: int) -> None:
    """Submit *n* distinct runs at once over the wire; wait for all."""
    with start_in_thread(service) as handle:
        async def burst():
            submitted = await asyncio.gather(
                *(
                    http_request(
                        handle.host, handle.port, "POST", "/runs", {"spec": s}
                    )
                    for s in _distinct_specs(n)
                )
            )
            for status, doc in submitted:
                assert status == 202, doc
                while doc["status"] in ("queued", "running"):
                    await asyncio.sleep(0.01)
                    _, doc = await http_request(
                        handle.host, handle.port, "GET",
                        f"/runs/{doc['run_id']}",
                    )
                assert doc["status"] == "succeeded", doc

        asyncio.run(burst())
    assert service.tally["computed"] == n


def _peak_concurrent_runs(monkeypatch, workers: int, n: int = 4) -> int:
    """Peak number of simultaneous ``run_task_document`` calls while
    *n* submissions arrive at once at
    ``ReproService(executor="serial", workers=...)``."""
    real = worker.run_task_document
    cond = threading.Condition()
    state = {"now": 0, "peak": 0}

    def counting(spec_doc, config_doc):
        with cond:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
            cond.notify_all()
            # Hold the slot until another run joins (or give up), so a
            # width of two is observed however the threads interleave.
            cond.wait_for(lambda: state["now"] > 1, timeout=_OVERLAP_WAIT)
        try:
            return real(spec_doc, config_doc)
        finally:
            with cond:
                state["now"] -= 1

    monkeypatch.setattr(worker, "run_task_document", counting)
    _submit_burst(ReproService(executor="serial", workers=workers), n)
    return state["peak"]


#: How long each pooled run holds its worker, so runs that can overlap
#: do.
_POOLED_HOLD = 0.3


def _peak_pooled_runs(monkeypatch, tmp_path, workers: int, n: int = 4) -> int:
    """Peak overlap of ``run_task_document`` calls in the workers of
    ``ReproService(executor="process", workers=...)``.

    The workers are forked after the patch, so they run it; each call
    records its monotonic interval (one clock for every process) to a
    file of its own.
    """
    real = worker.run_task_document

    def recording(spec_doc, config_doc):
        start = time.monotonic()
        time.sleep(_POOLED_HOLD)
        try:
            return real(spec_doc, config_doc)
        finally:
            path = tmp_path / f"{os.getpid()}-{start!r}.json"
            path.write_text(json.dumps([start, time.monotonic()]))

    monkeypatch.setattr(worker, "run_task_document", recording)
    service = ReproService(executor="process", workers=workers)
    try:
        _submit_burst(service, n)
    finally:
        service.close()
    edges = []
    for path in tmp_path.glob("*.json"):
        start, end = json.loads(path.read_text())
        edges += [(start, 1), (end, -1)]
    assert len(edges) == 2 * n
    now = peak = 0
    for _, step in sorted(edges):
        now += step
        peak = max(peak, now)
    return peak


class TestDispatchWidth:
    def test_one_worker_runs_one_at_a_time(self, monkeypatch):
        assert _peak_concurrent_runs(monkeypatch, workers=1) == 1

    def test_two_workers_run_two_at_a_time(self, monkeypatch):
        assert _peak_concurrent_runs(monkeypatch, workers=2) == 2


@requires_process_pool
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched run reaches the workers only through fork",
)
class TestPooledDispatchWidth:
    def test_one_worker_runs_one_at_a_time(self, monkeypatch, tmp_path):
        assert _peak_pooled_runs(monkeypatch, tmp_path, workers=1) == 1

    def test_two_workers_run_two_at_a_time(self, monkeypatch, tmp_path):
        assert _peak_pooled_runs(monkeypatch, tmp_path, workers=2) == 2


class TestBackendConstruction:
    def test_executor_is_resolved_once(self):
        backend = ExecutorBackend("serial", workers=1)
        try:
            assert backend.executor is get_executor("serial")
        finally:
            backend.close()

    def test_process_backend_starts_no_pool_until_a_run(self):
        for name in ("process", "serial"):
            backend = ExecutorBackend(name, workers=2)
            try:
                assert backend.executor is get_executor(name)
                assert backend.pool_document() is None
            finally:
                backend.close()

    def test_unknown_executor_fails_at_construction(self):
        with pytest.raises(RegistryError, match="unknown executor"):
            ReproService(executor="no-such-executor")

    @pytest.mark.parametrize("workers", [0, -1, True, 1.5])
    def test_workers_validated(self, workers):
        with pytest.raises(ModelError, match="workers"):
            ReproService(workers=workers)


#: The overlapping runs' timeout: ample for a warm tiny run, and
#: short, so a scope leaked by either has expired by the next run.
_RUN_TIMEOUT = 0.5


class TestRuntimeScopeIsolation:
    def test_overlapping_runs_leave_no_scope_behind(self, monkeypatch):
        # Two runs with a timeout overlap on two dispatch threads: A
        # enters its resilience scope, B enters its own, A exits, then
        # B does.  A later run with no timeout must not inherit a scope.
        specs = _distinct_specs(3)
        for spec in specs:  # warm caches, so each run is quick
            Session().run(ExperimentSpec.from_dict(spec))
        real_check = faults.site_check
        real_run = worker.run_task_document
        lock = threading.Lock()
        arrivals: list = []
        second_arrived, first_done = threading.Event(), threading.Event()

        def ordered_check(site, *args, **kwargs):
            if site == "run.start":
                with lock:
                    arrivals.append(threading.get_ident())
                    order = len(arrivals)
                if order == 1:
                    second_arrived.wait(10.0)
                elif order == 2:
                    second_arrived.set()
                    first_done.wait(10.0)
            return real_check(site, *args, **kwargs)

        def marking_run(spec_doc, config_doc):
            try:
                return real_run(spec_doc, config_doc)
            finally:
                if arrivals and arrivals[0] == threading.get_ident():
                    first_done.set()

        monkeypatch.setattr(faults, "site_check", ordered_check)
        monkeypatch.setattr(worker, "run_task_document", marking_run)
        service = ReproService(executor="serial", workers=2)
        config = {"timeout": _RUN_TIMEOUT}

        async def scenario():
            overlapping = await asyncio.gather(
                *(submit_and_wait(service, spec, config) for spec in specs[:2])
            )
            for _, doc in overlapping:
                assert doc["status"] == "succeeded", doc
            await asyncio.sleep(_RUN_TIMEOUT + 0.1)
            _, doc = await submit_and_wait(service, specs[2])
            assert doc["status"] == "succeeded", doc

        try:
            asyncio.run(scenario())
        finally:
            service.close()
        assert len(arrivals) == 3
