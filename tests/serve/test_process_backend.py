"""The service's long-lived worker pool (``executor="process"``).

One pool per service: it starts on the first run that misses the
store, serves every later run with the same workers, survives a
worker crash mid-run, and stops with the service — also when
``repro serve`` is interrupted with SIGINT.  Gated behind
``REPRO_EXEC_TESTS=1``.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from serve_tiny import TINY_SPEC, call, requires_process_pool, submit_and_wait

from repro.serve import ReproService, http_request

pytestmark = requires_process_pool

ROOT = Path(__file__).resolve().parents[2]


def _spec(k: int) -> dict:
    """A distinct cheap submission (its own content address)."""
    params = dict(TINY_SPEC["params"], budgets=[600, 900 + k])
    return {"experiment": TINY_SPEC["experiment"], "params": params}


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


async def _pool(svc) -> dict:
    status, doc = await call(svc, "GET", "/health")
    assert status == 200
    assert doc["executor"]["name"] == "process"
    return doc["executor"]["pool"]


class TestLazyPool:
    def test_pool_starts_on_the_first_miss_and_is_reused(self, tmp_path):
        svc = ReproService(store=tmp_path / "results", executor="process")

        async def check():
            assert await _pool(svc) is None
            status, _ = await call(
                svc, "POST", "/market/allocate",
                {"scenario": "homo", "n_tasks": 4, "budget": 600},
            )
            assert status == 200
            assert await _pool(svc) is None  # pricing never computes
            _, doc = await submit_and_wait(svc, _spec(0))
            assert doc["status"] == "succeeded"
            pool = await _pool(svc)
            assert len(pool["workers"]) == 2
            for k in range(1, 4):
                _, doc = await submit_and_wait(svc, _spec(k))
                assert doc["status"] == "succeeded"
            later = await _pool(svc)
            assert later["workers"] == pool["workers"]
            assert later["spawned"] == 2 and later["respawns"] == 0
            return pool["workers"]

        try:
            workers = asyncio.run(check())
        finally:
            svc.close()
        assert not any(map(_alive, workers))

    def test_store_hits_never_start_the_pool(self, tmp_path):
        store_dir = tmp_path / "results"
        seeded = ReproService(store=store_dir, executor="serial")
        try:
            asyncio.run(submit_and_wait(seeded, TINY_SPEC))
        finally:
            seeded.close()
        svc = ReproService(store=store_dir, executor="process")

        async def check():
            _, doc = await submit_and_wait(svc, TINY_SPEC)
            assert doc["served"] is True
            assert await _pool(svc) is None

        try:
            asyncio.run(check())
        finally:
            svc.close()


class TestCrashMidRun:
    def test_crashed_run_is_requeued_and_the_respawn_serves_the_next(self):
        svc = ReproService(
            executor="process",
            workers=1,
            faults={"rules": [{"site": "worker.task", "at": [0]}]},
        )

        async def check():
            run_id, doc = await submit_and_wait(svc, _spec(0))
            assert doc["status"] == "succeeded"
            status, body = await call(svc, "GET", f"/runs/{run_id}/result")
            assert status == 200 and body["fingerprint"] == run_id
            pool = await _pool(svc)
            assert pool["respawns"] == 1 and pool["spawned"] == 2
            _, doc = await submit_and_wait(svc, _spec(1))
            assert doc["status"] == "succeeded"
            assert (await _pool(svc))["workers"] == pool["workers"]

        try:
            asyncio.run(check())
        finally:
            svc.close()


class TestServeInterrupted:
    def test_sigint_leaves_no_orphan_workers(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
        )
        # Its own process group, so the SIGINT below reaches the
        # service and its workers at once, as a terminal's ^C does.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(tmp_path / "results")],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True,
        )
        workers = []
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on http://([^:]+):(\d+)", line)
            assert match, line
            host, port = match.group(1), int(match.group(2))

            async def drive():
                status, doc = await http_request(
                    host, port, "POST", "/runs", {"spec": TINY_SPEC}
                )
                assert status == 202, doc
                while doc["status"] in ("queued", "running"):
                    await asyncio.sleep(0.02)
                    _, doc = await http_request(
                        host, port, "GET", f"/runs/{doc['run_id']}"
                    )
                assert doc["status"] == "succeeded", doc
                _, health = await http_request(host, port, "GET", "/health")
                return health["executor"]["pool"]["workers"]

            workers = asyncio.run(drive())
            assert len(workers) == 2 and all(map(_alive, workers))
            os.killpg(proc.pid, signal.SIGINT)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        reap_by = time.monotonic() + 10.0
        while time.monotonic() < reap_by and any(map(_alive, workers)):
            time.sleep(0.05)
        assert not any(map(_alive, workers))
