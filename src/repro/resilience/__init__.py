"""repro.resilience — deterministic fault injection + recovery.

The execution layer's failure model (see ``docs/robustness.md``):

* :mod:`~repro.resilience.faults` — seeded :class:`FaultPlan` /
  :class:`FaultRule` injection at named sites, with a fault-plan
  :class:`~repro.registry.Registry`;
* :mod:`~repro.resilience.policy` — :class:`RetryPolicy` /
  :class:`TimeoutPolicy` carried on :class:`~repro.api.RunConfig`, and
  the :class:`ExecutionRecord` of what the executor actually did;
* :mod:`~repro.resilience.document` — replayable
  :class:`ErrorDocument` failure records;
* :mod:`~repro.resilience.checkpoint` — the append-only
  :class:`CheckpointJournal` behind resumable ``run_many`` batches;
* :mod:`~repro.resilience.batch` — :class:`BatchReport` /
  :class:`SpecOutcome`, the per-spec outcome view ``run_many``
  returns.

With no fault plan and default policies every run is byte-identical
to the pre-resilience stack; the overhead of the wrapping is measured
by the ``session_resilience`` section of
``benchmarks/bench_perf_engine.py``.
"""

from .batch import BatchReport, SpecOutcome
from .checkpoint import CheckpointJournal
from .document import ErrorDocument
from .faults import (
    FAULT_SITES,
    FaultPlan,
    FaultRule,
    abandonment_hook,
    active_fault_state,
    available_fault_plans,
    get_fault_plan,
    register_fault_plan,
    resolve_fault_plan,
    runtime_scope,
    site_check,
)
from .policy import DEFAULT_RETRY, ExecutionRecord, RetryPolicy, TimeoutPolicy

__all__ = [
    "BatchReport",
    "SpecOutcome",
    "CheckpointJournal",
    "ErrorDocument",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "abandonment_hook",
    "active_fault_state",
    "available_fault_plans",
    "get_fault_plan",
    "register_fault_plan",
    "resolve_fault_plan",
    "runtime_scope",
    "site_check",
    "DEFAULT_RETRY",
    "ExecutionRecord",
    "RetryPolicy",
    "TimeoutPolicy",
]
