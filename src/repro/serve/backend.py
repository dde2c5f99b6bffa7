"""Off-loop compute dispatch for the service layer.

:class:`ExecutorBackend` is the one place a submitted run leaves the
event loop.  It resolves a registered executor once, at construction,
and runs each submission one of two ways:

* an executor that opens a long-lived pool (``"process"``, see
  :class:`~repro.exec.process.WorkerPool`) gets one pool of
  ``workers`` processes for the backend's lifetime.  The pool starts
  on the first submission, so a service that never computes never
  forks.  Each run is awaited with :func:`asyncio.wrap_future`, and
  runs compute in the workers, outside the service's GIL;
* any other executor (``"serial"``) runs each submission as a
  one-task ``run_tasks`` batch on ``workers`` dispatch threads in the
  service process — the embedded mode, where compute stays in-process
  (and can be monkeypatched in-process).

Either way at most ``workers`` runs compute at once; further
submissions queue.

The ``serve.backend`` fault site is evaluated here, *before* dispatch,
against the service's explicitly passed
:class:`~repro.resilience.faults.FaultState` (the ``worker.*`` /
``store.*`` pattern): a firing rule kills that one run with a
replayable :class:`~repro.errors.FaultInjectedError` outcome while the
loop, the other in-flight runs, and the ledger stay healthy —
exactly the crash-mid-run recovery scenario the serve tests replay.
The pool evaluates the ``worker.*`` sites against the fault state of
the submission that started it (the service passes the same state to
every call).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..errors import FaultInjectedError, ModelError
from ..exec.base import ExecTask, TaskOutcome, resolve_executor
from ..resilience.document import ErrorDocument

__all__ = ["ExecutorBackend"]


class ExecutorBackend:
    """Run submissions on a registered executor off the event loop.

    Parameters
    ----------
    executor:
        Registered executor name or :class:`~repro.exec.base.Executor`
        instance that runs each submission.
    workers:
        How many submissions compute at once: the pool size, or the
        number of dispatch threads.
    """

    def __init__(self, executor="serial", workers: int = 2) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ModelError(f"workers must be an int >= 1, got {workers!r}")
        self.executor = resolve_executor(executor)
        self.workers = workers
        self._pool = None  # the executor's WorkerPool, once started
        self._threads: Optional[ThreadPoolExecutor] = None
        if not hasattr(self.executor, "open_pool"):
            self._threads = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-dispatch"
            )
        self._dispatches = 0

    async def execute(
        self, spec_doc: dict, config_doc: dict, fault_state=None
    ) -> TaskOutcome:
        index = self._dispatches
        self._dispatches += 1
        if fault_state is not None:
            fired = fault_state.fires("serve.backend")
            if fired is not None:
                occurrence, _rule = fired
                error = ErrorDocument.capture(
                    FaultInjectedError(
                        "serve.backend",
                        occurrence=occurrence,
                        detail="backend killed before dispatch",
                    )
                ).to_dict()
                return TaskOutcome(index=index, status="failed", error=error)
        task = ExecTask(index=index, spec=spec_doc, config=config_doc)
        if self._threads is not None:
            loop = asyncio.get_running_loop()
            (outcome,) = await loop.run_in_executor(
                self._threads, self.executor.run_tasks, [task]
            )
            return outcome
        if self._pool is None:
            self._pool = self.executor.open_pool(
                self.workers, fault_state=fault_state
            )
        return await asyncio.wrap_future(self._pool.submit(task))

    def pool_document(self) -> Optional[dict]:
        """The pool's :meth:`~repro.exec.process.WorkerPool.stats`, or
        ``None`` while no pool has started."""
        return None if self._pool is None else self._pool.stats()

    def close(self) -> None:
        """Stop the pool or the dispatch threads (idempotent)."""
        if self._threads is not None:
            self._threads.shutdown(wait=True)
        if self._pool is not None:
            self._pool.close()
