"""The Monte-Carlo evaluation engine + its name registry.

One :class:`EvaluationEngine` class does the sampling work behind
every ``engine=`` parameter:

* :meth:`EvaluationEngine.sample` draws job latencies through the
  row-blocked sampler
  :func:`repro.perf.batch.sample_job_latencies_batch`;
* :meth:`EvaluationEngine.run_replications` runs R seeded simulator
  replications, in lock-step
  (:func:`repro.perf.market.batch_agent_run_replications`) when the
  simulator is an agent market that kernel can drive and one by one
  otherwise.

The input picks each path, never the engine's name.  The registered
names ``"scalar"`` (the default), ``"batch"``, ``"chunked-batch"`` and
``"agent-batch"`` each bind an instance of this one class: stored
configs and fingerprints carry them, and the ``engine.sample`` fault
site keys on :attr:`EvaluationEngine.name`.  Names resolve through
the engine :class:`~repro.registry.Registry` (:func:`resolve_engine`),
and :func:`register_engine` makes a new binding available to every
sweep path at once.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..registry import Registry
from ..resilience.faults import site_check
from ..stats.rng import RandomState
from .batch import sample_job_latencies_batch

__all__ = [
    "EvaluationEngine",
    "register_engine",
    "get_engine",
    "resolve_engine",
    "available_engines",
    "DEFAULT_ENGINE",
]


class EvaluationEngine:
    """Draw job-latency realizations and run simulator replications.

    Every instance computes the same numbers seed-for-seed; ``name`` is
    the registry name the instance answers to (fault-site coordinates
    are keyed on it).
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def sample(
        self,
        problem,
        allocation,
        n_samples: int,
        rng: RandomState = None,
        include_processing: bool = True,
    ) -> np.ndarray:
        """Return *n_samples* iid job-latency draws."""
        site_check("engine.sample", engine=self.name)
        return sample_job_latencies_batch(
            problem, allocation, n_samples, rng, include_processing
        )

    def run_replications(
        self,
        simulator,
        orders,
        seeds,
        recorders=None,
        start_time: float = 0.0,
        **run_kwargs,
    ) -> list:
        """Run R independent market-simulator replications.

        A plain :class:`~repro.market.simulator.AgentSimulator` the
        lock-step kernel can drive (a built-in choice model on a
        base-class pool, unique atomic ids, no *run_kwargs*; see
        :func:`repro.perf.market.lockstep_supported`) advances
        all replications at once; any other simulator exposing the
        ``_run_job_with_rng`` protocol runs one seeded replication
        after another.  Both paths produce bit-identical trajectories
        for the same seeds, and both key fault-site coordinates and
        error labels on the replication's index in *seeds*.
        """
        from . import market

        orders = list(orders)
        if not run_kwargs and market.lockstep_supported(simulator, orders):
            return market.batch_agent_run_replications(
                simulator, orders, seeds, recorders, start_time
            )
        return market.sequential_run_replications(
            simulator, orders, seeds, recorders, start_time, **run_kwargs
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


#: Former per-strategy class names, bound to the one class because the
#: tracing launcher in ``perfbench/launcher.py`` still imports them.
ScalarEngine = BatchEngine = EvaluationEngine

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
    existing binding.
    """
    return _REGISTRY.register(name or engine.name, engine, replace=replace)


#: Resolve an ``engine=`` argument (a name, an engine instance, ``None``
#: or a config object) to an :class:`EvaluationEngine`; unknown names
#: raise :class:`~repro.errors.RegistryError` with a did-you-mean hint.
resolve_engine = get_engine = _REGISTRY.resolve

#: Registered engine names, sorted (CLI choices come from here).
available_engines = _REGISTRY.names


register_engine(EvaluationEngine("scalar"))
register_engine(EvaluationEngine("batch"))
register_engine(EvaluationEngine("chunked-batch"))
register_engine(EvaluationEngine("agent-batch"))
