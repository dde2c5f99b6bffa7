"""Pool-worker entry point and wire-payload execution helpers.

Everything here is **top-level and importable**, because under the
``spawn`` multiprocessing start method the child re-imports this module
to find :func:`worker_main`.  The protocol is deliberately tiny:

Supervisor → worker (the worker's own task pipe)
    ``("task", index, kind, payload, directive)``, ``("warmup",
    state)`` or ``("stop",)``.
    ``directive`` is ``None``, ``"crash"`` (fault-injected: die with
    ``os._exit`` before touching the task) or ``"hang"`` (fault-
    injected: stop heartbeats and wedge, so the supervisor's straggler
    / stall detection has a real victim).  ``warmup`` carries a
    phase-kernel cache snapshot
    (:func:`repro.perf.cache.export_ladder_state`) sent once after the
    ready handshake; the worker rebuilds those weight ladders in one
    batched recurrence before its first task, so small batches don't
    pay per-worker cold cache builds.

Worker → supervisor (the worker's own result pipe)
    ``("ready", worker_id)`` once after startup,
    ``("beat", worker_id)`` every heartbeat interval from a daemon
    thread, and per task either
    ``("done", worker_id, index, result)`` or
    ``("error", worker_id, index, error_doc)``.

A worker never outlives its supervisor: a daemon thread polls
``os.getppid()`` and calls ``os._exit`` once the worker has been
reparented, which also reaps a worker blocked on its task pipe or
wedged by a ``hang`` directive after a SIGKILLed supervisor.  A
worker ignores SIGINT: a terminal's ^C reaches the whole process
group, and it is the supervisor that stops its workers.  A worker
forked from a serving process first points every socket it inherited
at ``/dev/null``, so it never holds a client connection open.

``run`` payloads execute through the ordinary
:meth:`repro.api.Session.run` path — the worker rebuilds the spec and
config with ``from_dict`` and returns the result's ``to_dict``
document, so a result that crossed the pool re-serializes
byte-identically to one produced serially
(:meth:`~repro.api.session.RunResult.from_document` is the restoring
inverse).  Failures come back as
:class:`~repro.resilience.document.ErrorDocument` dicts, replayable on
the supervisor side.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import stat
import threading
import time

__all__ = [
    "worker_main",
    "execute_wire_payload",
    "run_task_document",
    "run_replication_shard",
    "CRASH_EXIT_CODE",
]

#: Exit status of a fault-injected worker crash (recognizably nonzero).
CRASH_EXIT_CODE = 13

#: How long a fault-injected hang sleeps; the supervisor kills the
#: worker long before this elapses.
_HANG_SLEEP = 3600.0

#: Seconds between a worker's checks that its supervisor still lives.
_ORPHAN_POLL = 0.25


def run_task_document(spec_doc, config_doc):
    """Execute one serialized ``(spec, config)`` pair in this process.

    Returns the result document; raises
    :class:`~repro.errors.ReproError` exactly as a serial run would.
    """
    from ..api.config import RunConfig
    from ..api.session import Session
    from ..api.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict(spec_doc)
    config = RunConfig.from_dict(config_doc)
    return Session(config).run(spec).to_dict()


def run_replication_shard(
    simulator, orders, seeds, offset, engine, start_time=0.0, run_kwargs=None
):
    """Run one contiguous replication shard at its global *offset*.

    The ``call``-task target of
    :func:`repro.exec.shard.sharded_run_replications`: resolves the
    engine by name and hands it the seed slice with
    ``replication_offset=offset``, so fault coordinates and error
    labels stay global no matter which worker ran the shard.
    """
    from ..perf.engine import resolve_engine

    resolved = resolve_engine(engine)
    return resolved.run_replications(
        simulator,
        orders,
        seeds,
        None,
        start_time,
        replication_offset=offset,
        **(run_kwargs or {}),
    )


def execute_wire_payload(kind: str, payload):
    """Dispatch one wire payload; returns its result."""
    if kind == "run":
        spec_doc, config_doc = payload
        return run_task_document(spec_doc, config_doc)
    func, args, kwargs = payload
    return func(*args, **(kwargs or {}))


def _error_payload(exc: BaseException, kind: str, payload) -> dict:
    """An :class:`ErrorDocument` dict for a failed wire payload."""
    from ..resilience.document import ErrorDocument

    spec = config = None
    if kind == "run":
        from ..api.config import RunConfig
        from ..api.spec import ExperimentSpec

        try:
            spec = ExperimentSpec.from_dict(payload[0])
            config = RunConfig.from_dict(payload[1])
        except Exception:
            spec = config = None
    return ErrorDocument.capture(exc, spec=spec, config=config).to_dict()


def _exit_when_orphaned(supervisor_pid: int) -> None:
    """Poll until this process is reparented, then exit at once.

    Runs on a daemon thread of its own, so neither a blocking
    ``tasks.recv()`` nor a stopped heartbeat thread delays it.
    """
    while os.getppid() == supervisor_pid:
        time.sleep(_ORPHAN_POLL)
    os._exit(1)


def _release_inherited_sockets() -> None:
    """Point every socket this process inherited at ``/dev/null``.

    A worker forked from a serving process inherits its listening and
    connection sockets.  While the worker holds a copy, a connection
    the service closes never reaches its client as EOF.  ``dup2``
    rather than ``close``, so a stale socket object collected later
    closes ``/dev/null``, never a reused descriptor.
    """
    for fd_dir in ("/proc/self/fd", "/dev/fd"):
        try:
            fds = [int(name) for name in os.listdir(fd_dir)]
        except OSError:
            continue
        break
    else:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            try:
                if fd != null and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd, inheritable=False)
            except OSError:
                continue  # the listing's own descriptor, now closed
    finally:
        os.close(null)


def worker_main(
    worker_id: int,
    tasks,
    results,
    heartbeat_interval: float = 0.05,
    spawn_directive=None,
) -> None:
    """The pool member's main loop (runs in the child process).

    *tasks* and *results* are the worker's ends of its two
    :func:`multiprocessing.Pipe` channels.
    """
    if spawn_directive == "crash":
        # Fault-injected spawn failure: die before announcing readiness,
        # exactly like a worker whose interpreter never came up.
        os._exit(CRASH_EXIT_CODE)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _release_inherited_sockets()

    # The pid recorded by the supervisor when it built this process,
    # so a supervisor that died before this line is still noticed.
    parent = multiprocessing.parent_process()
    threading.Thread(
        target=_exit_when_orphaned,
        args=(os.getppid() if parent is None else parent.pid,),
        daemon=True,
    ).start()

    # The heartbeat thread and the task loop share the result pipe;
    # one message at a time keeps every message whole.
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            results.send(message)

    stop_beats = threading.Event()

    def _beat() -> None:
        while not stop_beats.wait(heartbeat_interval):
            try:
                send(("beat", worker_id))
            except OSError:  # pragma: no cover - pipe torn down
                return

    threading.Thread(target=_beat, daemon=True).start()
    send(("ready", worker_id))

    while True:
        try:
            message = tasks.recv()
        except EOFError:
            break  # the supervisor closed its end
        if message[0] == "stop":
            break
        if message[0] == "warmup":
            from ..perf.cache import warm_ladders

            try:
                warm_ladders(message[1])
            except Exception:  # pragma: no cover - defensive
                pass  # a bad snapshot must never kill a worker
            continue
        _, index, kind, payload, directive = message
        if directive == "crash":
            # Fault-injected mid-run crash: a genuinely dead process,
            # detected by the supervisor through its exit.  Holding the
            # send lock means it dies between messages, never inside
            # one.
            send_lock.acquire()
            os._exit(CRASH_EXIT_CODE)
        if directive == "hang":
            # Fault-injected wedge: heartbeats stop, the task never
            # completes — straggler/stall detection must reap us.
            stop_beats.set()
            time.sleep(_HANG_SLEEP)
            continue
        try:
            result = execute_wire_payload(kind, payload)
        except Exception as exc:  # a ReproError, or defensively anything
            send(("error", worker_id, index, _error_payload(exc, kind, payload)))
        else:
            send(("done", worker_id, index, result))

    stop_beats.set()
