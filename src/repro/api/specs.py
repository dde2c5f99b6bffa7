"""Concrete experiment specs for every run path in the reproduction.

One frozen dataclass per experiment; each ``run`` delegates to the
implementation in :mod:`repro.experiments` (imported lazily — the api
layer stays import-light and cycle-free) with execution strategy taken
from the session's :class:`~repro.api.config.RunConfig`.  These specs
are the only way to a figure's numbers: the service, ``repro run``,
``run-many`` and the per-figure CLI aliases all build one and call
:meth:`~repro.api.session.Session.run`.

Field values are normalized on construction (sequences → int/float
tuples) so that equality survives a JSON round-trip:
``from_dict(to_dict(spec)) == spec`` for every spec here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import ModelError
from ..workloads.scenarios import PAPER_BUDGETS
from .spec import ExperimentSpec, register_experiment

__all__ = [
    "Table1Spec",
    "Fig2Spec",
    "Fig3Spec",
    "Fig4Spec",
    "Fig5abSpec",
    "Fig5cSpec",
    "DeadlineFrontierSpec",
    "BudgetSweepSpec",
    "DeadlineSweepSpec",
]


def _int_tuple(values: Sequence, what: str) -> tuple:
    try:
        return tuple(int(v) for v in values)
    except (TypeError, ValueError):
        raise ModelError(f"{what} must be a sequence of ints, got {values!r}")


def _float_tuple(values: Sequence, what: str) -> tuple:
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise ModelError(
            f"{what} must be a sequence of numbers, got {values!r}"
        )


def _set(spec, **values) -> None:
    for key, value in values.items():
        object.__setattr__(spec, key, value)


@register_experiment
@dataclass(frozen=True)
class Table1Spec(ExperimentSpec):
    """Table 1 / Fig. 1 motivation examples (no parameters)."""

    name = "table1"

    def run(self, session):
        from ..experiments.figures import (
            motivation_example_1,
            motivation_example_2,
        )

        return {
            "example_1": motivation_example_1(),
            "example_2": motivation_example_2(),
        }


@register_experiment
@dataclass(frozen=True)
class Fig2Spec(ExperimentSpec):
    """One Fig. 2 subplot: a (scenario, pricing-case) budget sweep."""

    name = "fig2"

    scenario: str = "homo"
    case: str = "a"
    budgets: Tuple[int, ...] = PAPER_BUDGETS
    n_tasks: int = 100
    scoring: str = "mc"
    n_samples: int = 1500

    def __post_init__(self) -> None:
        _set(self, budgets=_int_tuple(self.budgets, "budgets"))

    def run(self, session):
        from ..experiments.figures import _run_fig2

        return _run_fig2(self, session.config)


@register_experiment
@dataclass(frozen=True)
class Fig3Spec(ExperimentSpec):
    """Worker arrival moments on the simulated platform (Fig. 3)."""

    name = "fig3"

    n_arrivals: int = 20
    price: int = 5

    def run(self, session):
        from ..experiments.figures import _run_fig3

        return _run_fig3(self, session.config)


@register_experiment
@dataclass(frozen=True)
class Fig4Spec(ExperimentSpec):
    """Reward vs latency + rate inference (Fig. 4, §5.2.2)."""

    name = "fig4"

    prices: Tuple[int, ...] = (5, 8, 10, 12)
    repetitions: int = 10

    def __post_init__(self) -> None:
        _set(self, prices=_int_tuple(self.prices, "prices"))

    def run(self, session):
        from ..experiments.figures import _run_fig4

        return _run_fig4(self, session.config)


@register_experiment
@dataclass(frozen=True)
class Fig5abSpec(ExperimentSpec):
    """Difficulty vs latency (Fig. 5(a)/(b))."""

    name = "fig5ab"

    vote_counts: Tuple[int, ...] = (4, 6, 8)
    prices: Tuple[int, ...] = (5, 8)
    repetitions: int = 10
    n_tasks: int = 20

    def __post_init__(self) -> None:
        _set(
            self,
            vote_counts=_int_tuple(self.vote_counts, "vote_counts"),
            prices=_int_tuple(self.prices, "prices"),
        )

    def run(self, session):
        from ..experiments.figures import _run_fig5ab

        return _run_fig5ab(self, session.config)


@register_experiment
@dataclass(frozen=True)
class Fig5cSpec(ExperimentSpec):
    """OPT vs the equal-payment heuristic on the AMT workload (Fig. 5(c))."""

    name = "fig5c"

    budgets: Tuple[int, ...] = (600, 700, 800, 900, 1000)
    repetitions: Tuple[int, int, int] = (10, 15, 20)
    n_samples: int = 800

    def __post_init__(self) -> None:
        _set(
            self,
            budgets=_int_tuple(self.budgets, "budgets"),
            repetitions=_int_tuple(self.repetitions, "repetitions"),
        )

    def run(self, session):
        from ..experiments.figures import _run_fig5c

        return _run_fig5c(self, session.config)


@register_experiment
@dataclass(frozen=True)
class DeadlineFrontierSpec(ExperimentSpec):
    """Deadline–cost frontier on a Fig. 2 workload (the [29] dual)."""

    name = "deadline-frontier"

    scenario: str = "repe"
    case: str = "a"
    n_tasks: int = 100
    n_deadlines: int = 10
    confidences: Tuple[float, ...] = (0.9,)
    max_price: int = 50
    deadlines: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        _set(
            self,
            confidences=_float_tuple(self.confidences, "confidences"),
            deadlines=None
            if self.deadlines is None
            else _float_tuple(self.deadlines, "deadlines"),
        )

    def run(self, session):
        from ..experiments.figures import _run_deadline_frontier

        return _run_deadline_frontier(self, session.config)


@register_experiment
@dataclass(frozen=True)
class BudgetSweepSpec(ExperimentSpec):
    """A generic strategy-vs-budget sweep over a *named* family.

    The registry-addressable form of
    :func:`repro.experiments.runner.run_budget_sweep`: ``family`` is a
    name registered in :mod:`repro.workloads.families`
    (``register_family``), so the whole sweep — workload included — is
    serializable.  An empty ``strategies`` tuple means the scenario's
    Fig. 2 default line-up.
    """

    name = "budget-sweep"

    family: str = "repe"
    case: str = "a"
    n_tasks: int = 100
    budgets: Tuple[int, ...] = PAPER_BUDGETS
    strategies: Tuple[str, ...] = ()
    scoring: str = "mc"
    n_samples: int = 2000
    include_processing: bool = True

    def __post_init__(self) -> None:
        _set(
            self,
            budgets=_int_tuple(self.budgets, "budgets"),
            strategies=tuple(str(s) for s in self.strategies),
        )

    def run(self, session):
        from ..experiments.figures import FIG2_STRATEGIES
        from ..experiments.runner import run_budget_sweep
        from ..workloads.families import get_family_builder

        strategies = self.strategies
        if not strategies:
            strategies = FIG2_STRATEGIES.get(self.family)
            if strategies is None:
                raise ModelError(
                    f"family {self.family!r} has no default strategy "
                    "line-up; set the spec's strategies explicitly"
                )
        family = get_family_builder(self.family)(
            case=self.case, n_tasks=self.n_tasks
        )
        config = session.config
        return run_budget_sweep(
            family,
            budgets=self.budgets,
            strategies=strategies,
            scoring=self.scoring,
            n_samples=self.n_samples,
            seed=config.seed,
            include_processing=self.include_processing,
            label=f"budget-sweep-{self.family}({self.case})",
            engine=config.engine,
        )


@register_experiment
@dataclass(frozen=True)
class DeadlineSweepSpec(ExperimentSpec):
    """A generic deadline–cost sweep over a *named* family.

    The registry-addressable form of
    :func:`repro.experiments.runner.run_deadline_sweep`, with an
    explicit deadline grid (use :class:`DeadlineFrontierSpec` for the
    auto-spanned Fig. 2 frontier).
    """

    name = "deadline-sweep"

    family: str = "repe"
    case: str = "a"
    n_tasks: int = 100
    deadlines: Tuple[float, ...] = ()
    confidences: Tuple[float, ...] = (0.9,)
    max_price: int = 1_000
    include_processing: bool = True

    def __post_init__(self) -> None:
        _set(
            self,
            deadlines=_float_tuple(self.deadlines, "deadlines"),
            confidences=_float_tuple(self.confidences, "confidences"),
        )

    def run(self, session):
        from ..experiments.runner import run_deadline_sweep
        from ..workloads.families import get_family_builder

        family = get_family_builder(self.family)(
            case=self.case, n_tasks=self.n_tasks
        )
        return run_deadline_sweep(
            family,
            deadlines=self.deadlines,
            confidences=self.confidences,
            max_price=self.max_price,
            include_processing=self.include_processing,
            comparator=session.config.comparator,
            label=f"deadline-sweep-{self.family}({self.case})",
        )
