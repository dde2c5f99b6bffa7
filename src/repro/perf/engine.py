"""First-class Monte-Carlo evaluation engines + a name registry.

The experiment stack used to thread a stringly ``engine="scalar"``
parameter from the CLI through the runner and figure harnesses down to
:mod:`repro.core.latency`, where an ``if engine == ...`` chain picked
the sampler.  Engines are now objects:

* :class:`ScalarEngine` — the seed's task-by-task streaming sampler;
  smallest memory footprint, the default.
* :class:`BatchEngine` — one ``(n_phases, n_samples)`` matrix draw
  (:func:`repro.perf.batch.sample_job_latencies_batch`); bit-identical
  to scalar seed-for-seed.
* :class:`ChunkedBatchEngine` — the batch draw streamed in phase-row
  blocks, capping memory at ``chunk_rows × n_samples`` while staying
  bit-identical to the unchunked batch (and therefore to scalar) for
  every chunk size.

String names keep working everywhere an ``engine=`` parameter is
accepted — they resolve through the engine
:class:`~repro.registry.Registry` (:func:`resolve_engine`), so the
CLI and any existing caller passing ``"scalar"``/``"batch"`` is
unaffected, and new engines become available to every sweep path at
once via :func:`register_engine`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ModelError
from ..registry import Registry
from ..resilience.faults import active_fault_state, site_check
from ..stats.rng import RandomState
from ..stats.rng import ensure_rng as _ensure_rng

__all__ = [
    "EvaluationEngine",
    "ScalarEngine",
    "BatchEngine",
    "ChunkedBatchEngine",
    "register_engine",
    "get_engine",
    "resolve_engine",
    "available_engines",
    "DEFAULT_ENGINE",
]


class EvaluationEngine:
    """Strategy interface: draw job-latency realizations of an allocation.

    Concrete engines differ only in *how* the phase exponentials are
    drawn (streaming loop vs matrix vs chunked matrix); all registered
    engines consume the RNG stream in the same order, so swapping
    engines never changes an experiment's numbers.
    """

    #: Registry name; subclasses must set it.
    name: str = ""

    def sample(
        self,
        problem,
        allocation,
        n_samples: int,
        rng: RandomState = None,
        include_processing: bool = True,
    ) -> np.ndarray:
        """Return *n_samples* iid job-latency draws."""
        raise NotImplementedError

    def mean_latency(
        self,
        problem,
        allocation,
        n_samples: int,
        rng: RandomState = None,
        include_processing: bool = True,
    ) -> float:
        """Monte-Carlo mean of :meth:`sample`."""
        return float(
            self.sample(
                problem, allocation, n_samples, rng, include_processing
            ).mean()
        )

    def run_replications(
        self,
        simulator,
        orders,
        seeds,
        recorders=None,
        start_time: float = 0.0,
        replication_offset: int = 0,
        **run_kwargs,
    ) -> list:
        """Run R independent market-simulator replications.

        The reference fan-out: one sequential seeded run per
        replication against any simulator exposing the
        ``_run_job_with_rng`` protocol
        (:class:`~repro.market.simulator.AgentSimulator`,
        :class:`~repro.market.simulator.AggregateSimulator`).  Engines
        with a lock-step fast path (``"agent-batch"``) override this;
        every engine must produce bit-identical trajectories for the
        same seeds, so — as with :meth:`sample` — swapping engines
        never changes an experiment's numbers.

        ``replication_offset`` is the global index of ``seeds[0]`` when
        the caller hands this engine a *shard* of a larger ensemble
        (:func:`repro.exec.sharded_run_replications`): fault-site
        coordinates, recorder bookkeeping and error labels all use the
        global index ``offset + k``, so an injected fault or a timeout
        lands on the same replication no matter how the ensemble was
        split across executors.

        A :class:`~repro.errors.SimulationError` raised inside one
        replication (e.g. ``max_sim_time`` exceeded) is re-raised with
        its replication index prefixed (and set as ``.replication``),
        so callers can tell *which* world failed regardless of the
        engine's execution order.
        """
        from ..errors import SimulationError

        if recorders is None:
            recorders = [None] * len(seeds)
        offset = int(replication_offset)
        fault_state = active_fault_state()
        results = []
        for k, (seed, rec) in enumerate(zip(seeds, recorders)):
            site_check("market.replication", replication=offset + k)
            if fault_state is not None:
                fault_state.enter_replication(offset + k)
            try:
                results.append(
                    simulator._run_job_with_rng(
                        orders, _ensure_rng(seed), rec, start_time,
                        **run_kwargs,
                    )
                )
            except SimulationError as exc:
                wrapped = SimulationError(
                    f"replication {offset + k}: {exc}"
                )
                wrapped.replication = offset + k
                raise wrapped from exc
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class ScalarEngine(EvaluationEngine):
    """The seed sampler: stream task by task, O(n_samples) memory."""

    name = "scalar"

    def sample(
        self, problem, allocation, n_samples, rng=None, include_processing=True
    ) -> np.ndarray:
        from ..core.latency import _sample_job_latencies_scalar

        site_check("engine.sample", engine=self.name)
        return _sample_job_latencies_scalar(
            problem, allocation, n_samples, rng, include_processing
        )


class BatchEngine(EvaluationEngine):
    """One phase-matrix draw per call; bit-identical to scalar.

    ``chunk_rows`` streams the matrix in row blocks (see
    :func:`repro.perf.batch.sample_job_latencies_batch`); ``None``
    materializes the full matrix.
    """

    name = "batch"

    def __init__(self, chunk_rows: Optional[int] = None) -> None:
        if chunk_rows is not None and chunk_rows < 1:
            raise ModelError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self.chunk_rows = chunk_rows

    def sample(
        self, problem, allocation, n_samples, rng=None, include_processing=True
    ) -> np.ndarray:
        from .batch import sample_job_latencies_batch

        site_check("engine.sample", engine=self.name)
        return sample_job_latencies_batch(
            problem,
            allocation,
            n_samples,
            rng,
            include_processing,
            chunk_rows=self.chunk_rows,
        )


class ChunkedBatchEngine(BatchEngine):
    """Batch sampling with bounded memory (default 64 phase rows).

    Peak extra memory is ``chunk_rows × n_samples`` doubles instead of
    ``n_phases × n_samples`` — the engine to pick when the full phase
    matrix would not fit.  Results are bit-identical to ``batch`` (and
    ``scalar``) for every chunk size.
    """

    name = "chunked-batch"

    def __init__(self, chunk_rows: int = 64) -> None:
        super().__init__(chunk_rows=chunk_rows)
        if self.chunk_rows is None:
            raise ModelError("ChunkedBatchEngine needs a chunk_rows value")


#: Name of the engine used when callers pass nothing.
DEFAULT_ENGINE = "scalar"

#: What every ``engine=`` parameter resolves through (an instance,
#: a name, ``None`` or a :class:`repro.api.RunConfig`).
_REGISTRY = Registry(
    "engine",
    noun="an evaluation engine",
    default=DEFAULT_ENGINE,
    accepts=EvaluationEngine,
    unwrap="engine",
    hint="or an EvaluationEngine instance",
)


def register_engine(
    engine: EvaluationEngine, name: Optional[str] = None, replace: bool = False
) -> EvaluationEngine:
    """Add *engine* to the registry under *name* (default: its own).

    Registered names are what ``--engine`` on the CLI and every
    ``engine=`` parameter accept.  Pass ``replace=True`` to override an
    existing binding (e.g. to re-tune the default chunk size).
    """
    return _REGISTRY.register(name or engine.name, engine, replace=replace)


#: Resolve an ``engine=`` argument (a name, an engine instance, ``None``
#: or a config object) to an :class:`EvaluationEngine`; unknown names
#: raise :class:`~repro.errors.RegistryError` with a did-you-mean hint.
resolve_engine = get_engine = _REGISTRY.resolve

#: Registered engine names, sorted (CLI choices come from here).
available_engines = _REGISTRY.names


register_engine(ScalarEngine())
register_engine(BatchEngine())
register_engine(ChunkedBatchEngine())
