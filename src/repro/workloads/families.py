"""Budget-indexed problem families.

Every headline sweep in the paper — Fig. 2's budget curves, Fig. 5(c),
the budget–latency frontier — evaluates *one fixed task set* at many
budgets.  :class:`ProblemFamily` holds that task set: it owns the
immutable :class:`~repro.core.problem.TaskSpec` tuple and the (lazily
computed, then shared) group partition, and mints cheap per-budget
:class:`~repro.core.problem.HTuningProblem` views onto them.  A family
is the one workload shape every budget sweep and frontier in
:mod:`repro.experiments` takes: sharing the *same* group objects
across budgets is what lets rng-free DP strategies be tuned for every
budget in one pass (see :data:`repro.core.tuner.SWEEP_STRATEGIES`).

Sharing is safe because every shared object is immutable: ``TaskSpec``
and ``TaskGroup`` are frozen dataclasses and the task/group tuples are
never mutated, so tuning one budget's problem cannot leak state into
another budget's view (``tests/workloads/test_families.py`` certifies
this invariant).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..core.problem import HTuningProblem, TaskGroup, TaskSpec
from ..errors import ModelError
from ..registry import Registry
from .scenarios import (
    heterogeneous_tasks,
    homogeneity_tasks,
    repetition_tasks,
)

__all__ = [
    "ProblemFamily",
    "scenario_family",
    "homogeneity_family",
    "repetition_family",
    "heterogeneous_family",
    "register_family",
    "get_family_builder",
    "available_families",
]


class ProblemFamily:
    """A budget-indexed :class:`HTuningProblem` builder with shared parts.

    Parameters
    ----------
    tasks:
        The task set every budget shares.  Stored as an immutable
        tuple; the same ``TaskSpec`` (and hence pricing) objects back
        every problem the family mints.
    label:
        Optional display label for reports and sweep results.
    """

    def __init__(self, tasks: Iterable[TaskSpec], label: str = "") -> None:
        self._tasks: tuple[TaskSpec, ...] = tuple(tasks)
        if not self._tasks:
            raise ModelError("a problem family needs at least one task")
        self.label = label
        self._groups: Optional[tuple[TaskGroup, ...]] = None

    # -- shared structure ---------------------------------------------

    @property
    def tasks(self) -> tuple[TaskSpec, ...]:
        return self._tasks

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    @property
    def total_repetitions(self) -> int:
        return sum(t.repetitions for t in self._tasks)

    @property
    def min_feasible_budget(self) -> int:
        """One unit per repetition — smallest budget any member allows."""
        return self.total_repetitions

    @property
    def groups(self) -> tuple[TaskGroup, ...]:
        """The (type, repetitions) partition, computed once and shared
        by every problem the family builds."""
        if self._groups is None:
            probe = HTuningProblem(self._tasks, self.min_feasible_budget)
            self._groups = probe.groups()
        return self._groups

    # -- problem construction -----------------------------------------

    def problem_at(self, budget: int) -> HTuningProblem:
        """The family member at *budget* (shared specs and groups)."""
        return HTuningProblem(self._tasks, budget, groups=self.groups)

    def __repr__(self) -> str:
        label = f", label={self.label!r}" if self.label else ""
        return (
            f"ProblemFamily({self.num_tasks} tasks, "
            f"{len(self.groups)} groups{label})"
        )


def homogeneity_family(
    case: str = "a",
    n_tasks: int = 100,
    repetitions: int = 5,
    processing_rate: float = 2.0,
) -> ProblemFamily:
    """Scenario I family (see :func:`~repro.workloads.scenarios.homogeneity_tasks`)."""
    return ProblemFamily(
        homogeneity_tasks(case, n_tasks, repetitions, processing_rate),
        label=f"homo({case})",
    )


def repetition_family(
    case: str = "a",
    n_tasks: int = 100,
    repetition_split: tuple[int, int] = (3, 5),
    processing_rate: float = 2.0,
) -> ProblemFamily:
    """Scenario II family (see :func:`~repro.workloads.scenarios.repetition_tasks`)."""
    return ProblemFamily(
        repetition_tasks(case, n_tasks, repetition_split, processing_rate),
        label=f"repe({case})",
    )


def heterogeneous_family(
    case: str = "a",
    n_tasks: int = 100,
    repetition_split: tuple[int, int] = (3, 5),
    processing_rates: tuple[float, float] = (2.0, 3.0),
) -> ProblemFamily:
    """Scenario III family (see :func:`~repro.workloads.scenarios.heterogeneous_tasks`)."""
    return ProblemFamily(
        heterogeneous_tasks(case, n_tasks, repetition_split, processing_rates),
        label=f"heter({case})",
    )


#: Name -> family builder.  The registry behind every spec or sweep
#: that references a workload *by name* (``repro.api`` experiment
#: specs, the CLI, the service): a registered name is a serializable
#: address for a :class:`ProblemFamily`.
_FAMILY_REGISTRY = Registry("family", noun="a problem family")


def register_family(
    name: str,
    builder: Callable[..., ProblemFamily],
    replace: bool = False,
) -> Callable[..., ProblemFamily]:
    """Register a family *builder* under *name*.

    ``builder(**kwargs)`` must return a :class:`ProblemFamily`; all
    built-in builders accept at least ``case=`` and ``n_tasks=``.
    Registered names are what :class:`repro.api.specs.BudgetSweepSpec`
    (and any other spec holding a ``family`` field) resolve at run
    time, so registering a family makes it addressable from serialized
    specs and the generic CLI.
    """
    return _FAMILY_REGISTRY.register(name, builder, replace=replace)


#: Resolve a registered family name to its builder.
get_family_builder = _FAMILY_REGISTRY.lookup

#: Registered family names, sorted (spec/CLI choices come from here).
available_families = _FAMILY_REGISTRY.names


def scenario_family(scenario: str, case: str = "a", **kwargs) -> ProblemFamily:
    """Dispatch by registered family name: 'homo' | 'repe' | 'heter' | ...

    Historical name kept for the Fig. 2 harness; equivalent to
    ``get_family_builder(scenario)(case=case, **kwargs)``.
    """
    return _FAMILY_REGISTRY.lookup(scenario)(case=case, **kwargs)


register_family("homo", homogeneity_family)
register_family("repe", repetition_family)
register_family("heter", heterogeneous_family)


def _require_family(workload, where: str) -> None:
    """The one error every sweep and frontier raises for a non-family
    workload."""
    if not isinstance(workload, ProblemFamily):
        raise ModelError(
            f"{where} takes a ProblemFamily, got {type(workload).__name__}; "
            "wrap a fixed task list as ProblemFamily(tasks)"
        )
