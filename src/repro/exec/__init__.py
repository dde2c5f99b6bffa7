"""Executors: where a batch of runs executes (serial / process pool).

The executor layer sits between :class:`repro.api.Session` and the
engines: :meth:`Session.run_many` fans its specs across an
:class:`Executor` resolved through the same kind of name registry
engines and comparators use.  An executor is one method,
:meth:`Executor.open_pool`: ``"serial"`` opens an :class:`InlinePool`
of dispatch threads that exercise the wire format in-process;
``"process"`` opens a :class:`WorkerPool`, the supervised
multiprocess pool with crash recovery, straggler requeue and graceful
degradation (:mod:`repro.exec.process`).  Either pool is long-lived:
:meth:`Executor.run_tasks` opens one per batch, submits, drains and
closes it, and the :mod:`repro.serve` backend keeps one open for a
service's lifetime.
Results are executor-invariant by construction — the certification
tests live under ``tests/exec/``.
"""

from .base import (
    DEFAULT_EXECUTOR,
    ExecTask,
    Executor,
    InlinePool,
    SerialExecutor,
    TaskOutcome,
    available_executors,
    get_executor,
    register_executor,
    resolve_executor,
)
from .process import ProcessExecutor, WorkerPool
from .worker import run_task_document, worker_main

__all__ = [
    "DEFAULT_EXECUTOR",
    "ExecTask",
    "Executor",
    "InlinePool",
    "SerialExecutor",
    "TaskOutcome",
    "ProcessExecutor",
    "WorkerPool",
    "available_executors",
    "get_executor",
    "register_executor",
    "resolve_executor",
    "run_task_document",
    "worker_main",
]
