"""Executors: where a batch of runs executes (serial / process pool).

The executor layer sits between :class:`repro.api.Session` and the
engines: :meth:`Session.run_many` fans its specs — and
:func:`sharded_run_replications` fans a replication ensemble — across
an :class:`Executor` resolved through the same kind of name registry
engines and comparators use.  ``"serial"`` exercises the wire format
in-process; ``"process"`` is the supervised multiprocess pool with
crash recovery, straggler requeue and graceful degradation
(:mod:`repro.exec.process`).  Its :class:`WorkerPool` is long-lived:
a batch opens one, submits, drains and closes it, and the
:mod:`repro.serve` backend keeps one open for a service's lifetime.
Results are executor-invariant by construction — the certification
tests live under ``tests/exec/``.
"""

from .base import (
    DEFAULT_EXECUTOR,
    ExecTask,
    Executor,
    SerialExecutor,
    TaskOutcome,
    available_executors,
    get_executor,
    register_executor,
    resolve_executor,
)
from .process import ProcessExecutor, WorkerPool
from .shard import sharded_run_replications, split_replications
from .worker import run_replication_shard, run_task_document, worker_main

__all__ = [
    "DEFAULT_EXECUTOR",
    "ExecTask",
    "Executor",
    "SerialExecutor",
    "TaskOutcome",
    "ProcessExecutor",
    "WorkerPool",
    "available_executors",
    "get_executor",
    "register_executor",
    "resolve_executor",
    "sharded_run_replications",
    "split_replications",
    "run_replication_shard",
    "run_task_document",
    "worker_main",
]
