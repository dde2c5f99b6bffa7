"""Batched, cache-aware evaluation engine.

Every headline experiment in the paper reduces to evaluating thousands
of (allocation → expected/simulated latency) pairs.  This subsystem
makes those sweeps array-shaped:

* :mod:`~repro.perf.batch` — batched Monte-Carlo sampling
  (:func:`sample_job_latencies_batch`, :func:`sample_makespans`)
  and multi-allocation scoring (:func:`evaluate_allocations`).  The
  batch samplers are stream-compatible with their scalar counterparts:
  same seed, bit-identical draws.
* :mod:`~repro.perf.cache` — process-level memo caches for the
  phase-type latency kernels (uniformization weight ladders and full
  cdf grids), shared by every numeric-latency caller.
* :mod:`~repro.perf.dp` — array-backed budget-indexed dynamic programs:
  dense per-group cost tables, a single-pass multi-budget sweep, and
  the Algorithm-3 closeness scan.  Outputs are bit-identical to the
  seed implementations (kept in :mod:`~repro.perf.reference`).
* :mod:`~repro.perf.engine` — the one :class:`EvaluationEngine` and
  its name registry: the row-blocked Monte-Carlo sampler and the
  replication fan-out (lock-step when :mod:`~repro.perf.market` can
  drive the simulator), resolvable by name everywhere an ``engine=``
  parameter is accepted (CLI included).
* :mod:`~repro.perf.deadline` — batched kernels for the
  deadline-constrained comparator: memoized per-(group, price)
  completion terms over the shared ladders, a one-array-op greedy
  candidate scan, array-bisection quantiles, and the deadline
  comparator registry (``"batched"`` and ``"reference"`` both bind the
  one grid solver) consumed by ``deadline_cost_frontier`` and the CLI.

See ``docs/performance.md`` for what each path costs and how to
size the caches, and ``docs/architecture.md`` for how the engine
registry and :class:`~repro.workloads.families.ProblemFamily` layer
fit together.
"""

from .batch import (
    evaluate_allocations,
    sample_job_latencies_batch,
    sample_makespans,
)
from .cache import (
    cached_hypoexponential_cdf,
    cached_hypoexponential_sf,
    cached_hypoexponential_sf_many,
    clear_phase_caches,
    configure_phase_cache,
    phase_cache_stats,
    survival_weights,
)
from .deadline import (
    DeadlineKernel,
    available_deadline_comparators,
    deadline_quantile_bisection,
    get_deadline_comparator,
    register_deadline_comparator,
)
from .dp import (
    budget_indexed_dp_fast,
    budget_indexed_dp_sweep,
    group_cost_table,
    heterogeneous_closeness_sweep,
    heterogeneous_price_scan,
)
from .engine import (
    EvaluationEngine,
    available_engines,
    get_engine,
    register_engine,
    resolve_engine,
)
from .market import batch_agent_run_replications

__all__ = [
    "DeadlineKernel",
    "EvaluationEngine",
    "available_deadline_comparators",
    "available_engines",
    "batch_agent_run_replications",
    "budget_indexed_dp_fast",
    "budget_indexed_dp_sweep",
    "cached_hypoexponential_cdf",
    "cached_hypoexponential_sf",
    "cached_hypoexponential_sf_many",
    "clear_phase_caches",
    "configure_phase_cache",
    "deadline_quantile_bisection",
    "evaluate_allocations",
    "get_deadline_comparator",
    "get_engine",
    "group_cost_table",
    "heterogeneous_closeness_sweep",
    "heterogeneous_price_scan",
    "phase_cache_stats",
    "register_deadline_comparator",
    "register_engine",
    "resolve_engine",
    "sample_job_latencies_batch",
    "sample_makespans",
    "survival_weights",
]
