"""One BLAS thread per pool worker (``repro.exec.worker.pin_blas_threads``).

A pool worker caps every OpenBLAS it has loaded at one thread before
its ``ready`` handshake.  The helper itself is tier-1: it must do
nothing where no OpenBLAS is mapped.  The pooled checks spawn real
workers and share the ``REPRO_EXEC_TESTS=1`` gate.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api import ExperimentSpec, RunConfig, Session
from repro.exec import ExecTask, ProcessExecutor
from repro.exec.worker import blas_threads, pin_blas_threads

from exec_tiny import requires_process_pool

#: One submission of each kind the ``runs-cold`` benchmark draws: a
#: numeric budget sweep, a Monte-Carlo budget sweep, a deadline sweep
#: and an agent-market run.
RUN_KINDS = [
    (
        {"experiment": "budget-sweep", "params": {
            "family": "repe", "case": "a", "n_tasks": 25, "budgets": [132],
            "strategies": ["ra"], "scoring": "numeric",
            "include_processing": False}},
        {"seed": 1440510676},
    ),
    (
        {"experiment": "budget-sweep", "params": {
            "family": "homo", "case": "b", "n_tasks": 25,
            "budgets": [151, 226], "scoring": "mc", "n_samples": 80}},
        {"seed": 1728730615},
    ),
    (
        {"experiment": "deadline-sweep", "params": {
            "family": "heter", "case": "c", "n_tasks": 25,
            "deadlines": [15.0, 30.0]}},
        {"seed": 48647418},
    ),
    (
        {"experiment": "fig5ab", "params": {
            "vote_counts": [6], "prices": [3, 9], "repetitions": 2,
            "n_tasks": 25}},
        {"seed": 1735039634, "engine": "agent-batch", "replications": 2},
    ),
]


def _maps(tmp_path, *paths) -> str:
    """A ``/proc/<pid>/maps``-format listing of *paths*."""
    listing = tmp_path / "maps"
    listing.write_text("".join(
        f"7f0000000000-7f0000001000 r-xp 00000000 08:01 {k} {path}\n"
        for k, path in enumerate(paths, start=1)
    ) + "7ffd00000000-7ffd00021000 rw-p 00000000 00:00 0 [stack]\n")
    return str(listing)


class TestPinHelper:
    def test_no_openblas_mapped_is_a_no_op(self, tmp_path):
        before = blas_threads()
        listing = _maps(tmp_path, "/usr/lib/libc.so.6", "/usr/lib/libm.so.6")
        assert pin_blas_threads(listing) == []
        assert blas_threads(listing) == {}
        assert blas_threads() == before

    def test_unreadable_listing_is_a_no_op(self, tmp_path):
        before = blas_threads()
        assert pin_blas_threads(str(tmp_path / "missing")) == []
        assert blas_threads() == before

    def test_an_openblas_path_not_loaded_is_skipped(self, tmp_path):
        listing = _maps(tmp_path, str(tmp_path / "libopenblas_absent.so"))
        assert pin_blas_threads(listing) == []


def _open(size=1):
    return ProcessExecutor(workers=size, heartbeat_interval=0.02).open_pool(size)


@requires_process_pool
class TestPooledWorkers:
    def test_a_worker_reports_one_blas_thread(self):
        if not blas_threads():
            pytest.skip("no OpenBLAS thread-count symbol in this process")
        parent_env = os.environ.get("OPENBLAS_NUM_THREADS")
        parent_threads = blas_threads()
        pool = _open()
        try:
            outcome = pool.submit(
                ExecTask(index=0, kind="call", call=(blas_threads, (), None))
            ).result(timeout=60)
            assert outcome.ok
            assert outcome.result
            assert set(outcome.result.values()) == {1}, outcome.result
            # ...and the worker's own environment starts later ones at 1.
            env = pool.submit(
                ExecTask(
                    index=1, kind="call",
                    call=(os.getenv, ("OPENBLAS_NUM_THREADS",), None),
                )
            ).result(timeout=60)
            assert env.result == "1"
        finally:
            pool.close()
        # The pin is the worker's own: this process is left alone.
        assert os.environ.get("OPENBLAS_NUM_THREADS") == parent_env
        assert blas_threads() == parent_threads

    def test_pooled_documents_are_byte_identical_to_in_process(self):
        # The test process keeps its default BLAS threads.
        expected = [
            json.dumps(
                Session(RunConfig.from_dict(config))
                .run(ExperimentSpec.from_dict(spec))
                .to_dict()
            )
            for spec, config in RUN_KINDS
        ]
        pool = _open(2)
        try:
            futures = [
                pool.submit(ExecTask(index=k, spec=spec, config=config))
                for k, (spec, config) in enumerate(RUN_KINDS)
            ]
            pooled = [future.result(timeout=120) for future in futures]
        finally:
            pool.close()
        assert all(outcome.ok for outcome in pooled)
        assert [json.dumps(outcome.result) for outcome in pooled] == expected
