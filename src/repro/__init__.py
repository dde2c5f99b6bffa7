"""repro — full reproduction of "Tuning Crowdsourced Human Computation"
(Cao, Liu, Chen, Jagadish; ICDE 2017).

Subpackages:

* :mod:`repro.stats` — probability substrate (exponential / Erlang /
  hypoexponential latencies, order statistics);
* :mod:`repro.market` — crowd-market simulator (the AMT substitute);
* :mod:`repro.inference` — HPU running-parameter inference;
* :mod:`repro.core` — the H-Tuning problem and algorithms EA/RA/HA;
* :mod:`repro.perf` — batched, cache-aware evaluation engine (batch
  Monte-Carlo samplers, phase-kernel caches, array-based DP sweeps;
  see ``docs/performance.md``);
* :mod:`repro.crowddb` — crowd-powered DB operators + tuned engine;
* :mod:`repro.workloads` — the paper's workloads and stress families;
* :mod:`repro.experiments` — per-figure experiment harness;
* :mod:`repro.api` — the declarative request/response facade:
  serializable :class:`~repro.api.ExperimentSpec` /
  :class:`~repro.api.RunConfig` values, the experiment registry, and
  the :class:`~repro.api.Session` facade every run path goes through
  (see ``docs/api.md``);
* :mod:`repro.resilience` — deterministic fault injection
  (:class:`~repro.resilience.FaultPlan`), retry/timeout policies,
  structured :class:`~repro.resilience.ErrorDocument` failure capture,
  and per-spec :class:`~repro.resilience.BatchReport` batches
  (see ``docs/robustness.md``);
* :mod:`repro.store` — crash-safe persistent result store:
  content-addressed :class:`~repro.store.ResultStore` with atomic
  writes, checksum + validity-envelope verification, and quarantine,
  behind ``Session.run(store=...)``, resumable
  ``Session.run_many(store=...)`` batches and the ``repro results`` CLI
  (see ``docs/robustness.md``, "Result store failure modes").

Quickstart::

    from repro import HTuningProblem, TaskSpec, Tuner
    from repro.market import LinearPricing

    pricing = LinearPricing(slope=1.0, intercept=1.0)
    tasks = [TaskSpec(i, repetitions=5, pricing=pricing,
                      processing_rate=2.0) for i in range(100)]
    allocation = Tuner().tune(HTuningProblem(tasks, budget=2500))
"""

from .api import ExperimentSpec, RunConfig, RunResult, Session
from .core import (
    Allocation,
    HTuningProblem,
    Scenario,
    TaskGroup,
    TaskSpec,
    Tuner,
    even_allocation,
    heterogeneous_algorithm,
    repetition_algorithm,
)
from .errors import (
    BudgetError,
    FaultInjectedError,
    InfeasibleAllocationError,
    InferenceError,
    ModelError,
    PlanError,
    RegistryError,
    ReproError,
    RunNotFoundError,
    RunTimeoutError,
    SimulationError,
    StoreCorruptError,
    StoreError,
    StoreStaleError,
    StoreWriteError,
    error_code,
)
from .resilience import (
    BatchReport,
    ErrorDocument,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    TimeoutPolicy,
)
from .store import ResultStore

__version__ = "1.0.0"

__all__ = [
    "Allocation",
    "BatchReport",
    "BudgetError",
    "ErrorDocument",
    "ExperimentSpec",
    "FaultInjectedError",
    "FaultPlan",
    "FaultRule",
    "HTuningProblem",
    "InfeasibleAllocationError",
    "InferenceError",
    "ModelError",
    "PlanError",
    "RegistryError",
    "ReproError",
    "RunNotFoundError",
    "ResultStore",
    "RetryPolicy",
    "RunConfig",
    "RunResult",
    "RunTimeoutError",
    "Scenario",
    "Session",
    "SimulationError",
    "StoreCorruptError",
    "StoreError",
    "StoreStaleError",
    "StoreWriteError",
    "TaskGroup",
    "TaskSpec",
    "TimeoutPolicy",
    "Tuner",
    "__version__",
    "error_code",
    "even_allocation",
    "heterogeneous_algorithm",
    "repetition_algorithm",
]
