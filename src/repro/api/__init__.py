"""repro.api — the declarative request/response facade.

Every run path in the reproduction is addressable through three
objects:

* :class:`~repro.api.spec.ExperimentSpec` — *what* to run: a frozen,
  JSON-round-trippable parameter set, registered by name
  (:func:`register_experiment` / :func:`available_experiments`);
* :class:`~repro.api.config.RunConfig` — *how* to run it: engine,
  comparator, recorder policy, seed, replications, with
  :meth:`~repro.api.config.RunConfig.resolve` as the single place
  defaults are applied;
* :class:`~repro.api.session.Session` — *where* it runs: the facade
  owning the config and the process-level kernel caches, exposing
  ``run(spec)`` → :class:`~repro.api.session.RunResult` and
  ``run_many(specs)`` for batched submission against shared tables.

The CLI (``repro run <experiment> --param k=v`` and its per-figure
aliases) is a thin shell over the registry.  See ``docs/api.md``.
"""

from .config import RECORDER_POLICIES, ResolvedRunConfig, RunConfig, fingerprint
from .session import RunResult, Session, payload_to_jsonable
from .spec import (
    ExperimentSpec,
    available_experiments,
    get_experiment,
    make_spec,
    register_experiment,
    spec_from_dict,
)
from .specs import (
    BudgetSweepSpec,
    DeadlineFrontierSpec,
    DeadlineSweepSpec,
    Fig2Spec,
    Fig3Spec,
    Fig4Spec,
    Fig5abSpec,
    Fig5cSpec,
    Table1Spec,
)

__all__ = [
    "BudgetSweepSpec",
    "DeadlineFrontierSpec",
    "DeadlineSweepSpec",
    "ExperimentSpec",
    "Fig2Spec",
    "Fig3Spec",
    "Fig4Spec",
    "Fig5abSpec",
    "Fig5cSpec",
    "RECORDER_POLICIES",
    "ResolvedRunConfig",
    "RunConfig",
    "RunResult",
    "Session",
    "Table1Spec",
    "available_experiments",
    "fingerprint",
    "get_experiment",
    "make_spec",
    "payload_to_jsonable",
    "register_experiment",
    "spec_from_dict",
]
