"""Pool-worker entry point and wire-payload execution helpers.

Everything here is **top-level and importable**, because under the
``spawn`` multiprocessing start method the child re-imports this module
to find :func:`worker_main`.  The protocol is deliberately tiny:

Supervisor → worker (the worker's own task pipe)
    ``("task", index, kind, payload, directive)`` or ``("stop",)``.
    ``directive`` is ``None``, ``"crash"`` (fault-injected: die with
    ``os._exit`` before touching the task) or ``"hang"`` (fault-
    injected: stop heartbeats and wedge, so the supervisor's straggler
    / stall detection has a real victim).  A forked worker starts with
    every phase-kernel cache its parent held; a spawned one starts
    cold.

Worker → supervisor (the worker's own result pipe)
    ``("ready", worker_id)`` once after startup,
    ``("beat", worker_id)`` every heartbeat interval from a daemon
    thread, and per task either
    ``("done", worker_id, index, result)`` or
    ``("error", worker_id, index, error_doc)``.

A worker computes on one BLAS thread: before its ``ready`` handshake
it caps every OpenBLAS the process has loaded (numpy's and scipy's
copies, found among its mapped shared objects with :mod:`ctypes`) at
one thread and sets ``OPENBLAS_NUM_THREADS=1`` in its own environment
for a library it loads later.  The pool is the parallelism: BLAS
threads of their own would only spin on the cores the other members,
the supervisor and the service need.  The kernels' results do not
depend on the thread count, so a pooled document stays byte-identical
to one computed in a process that keeps its default BLAS threads.

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

import ctypes
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
    "pin_blas_threads",
    "blas_threads",
    "CRASH_EXIT_CODE",
]

#: Exit status of a fault-injected worker crash (recognizably nonzero).
CRASH_EXIT_CODE = 13

#: How long a fault-injected hang sleeps; the supervisor kills the
#: worker long before this elapses.
_HANG_SLEEP = 3600.0

#: Seconds between a worker's checks that its supervisor still lives.
_ORPHAN_POLL = 0.25

#: OpenBLAS thread-count setters, tried in order on each loaded
#: OpenBLAS: numpy's 64-bit-integer build, scipy's build, then a plain
#: OpenBLAS of either integer width.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _loaded_openblas(maps_path: str) -> list:
    """``(name, library, setter)`` for each OpenBLAS mapped into this
    process, read from *maps_path* (``/proc/<pid>/maps`` format).

    ``RTLD_NOLOAD`` only finds a library that is already loaded, so
    this never loads one.  Empty where the listing is unreadable (no
    ``/proc``) or names no OpenBLAS.
    """
    try:
        with open(maps_path) as fh:
            paths = {
                fields[5].strip()
                for fields in (line.split(None, 5) for line in fh)
                if len(fields) == 6
            }
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        name = os.path.basename(path)
        if "openblas" not in name:
            continue
        try:
            library = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue  # listed but not loadable as a library
        for setter in _OPENBLAS_SETTERS:
            if hasattr(library, setter):
                found.append((name, library, setter))
                break
    return found


def pin_blas_threads(maps_path: str = "/proc/self/maps") -> list:
    """Cap every loaded OpenBLAS at one thread; returns the names of
    the libraries it capped (none where no OpenBLAS is loaded)."""
    pinned = []
    for name, library, setter in _loaded_openblas(maps_path):
        set_threads = getattr(library, setter)
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)
        pinned.append(name)
    return pinned


def blas_threads(maps_path: str = "/proc/self/maps") -> dict:
    """Thread count of each loaded OpenBLAS, by library name."""
    counts = {}
    for name, library, setter in _loaded_openblas(maps_path):
        get_threads = getattr(library, setter.replace("_set_", "_get_"))
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        counts[name] = get_threads()
    return counts


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
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    pin_blas_threads()

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
