"""Off-loop compute dispatch for the service layer.

:class:`ExecutorBackend` is the one place a submitted run leaves the
event loop.  It resolves a registered executor once, at construction,
and runs each submission as a one-task batch —
``executor.run_tasks([task])``, the ordinary
:class:`~repro.exec.base.Executor` contract — on its own pool of
``workers`` dispatch threads via ``loop.run_in_executor``.  The loop
never blocks on compute, and at most ``workers`` runs compute at
once; further submissions wait for a free dispatch thread.  With
``"process"`` every submitted run starts its own supervised pool.

The ``serve.backend`` fault site is evaluated here, *before* dispatch,
against the service's explicitly passed
:class:`~repro.resilience.faults.FaultState` (the ``worker.*`` /
``store.*`` pattern): a firing rule kills that one run with a
replayable :class:`~repro.errors.FaultInjectedError` outcome while the
loop, the other in-flight runs, and the ledger stay healthy —
exactly the crash-mid-run recovery scenario the serve tests replay.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

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
        Dispatch width: how many submissions compute at once.
    """

    def __init__(self, executor="serial", workers: int = 2) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ModelError(f"workers must be an int >= 1, got {workers!r}")
        self.executor = resolve_executor(executor)
        self._pool = ThreadPoolExecutor(
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
        loop = asyncio.get_running_loop()
        (outcome,) = await loop.run_in_executor(
            self._pool, self.executor.run_tasks, [task]
        )
        return outcome

    def close(self) -> None:
        """Shut down the dispatch threads (idempotent)."""
        self._pool.shutdown(wait=True)
