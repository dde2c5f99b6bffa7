"""Budget-indexed problem families.

Every headline sweep in the paper — Fig. 2's budget curves, Fig. 5(c),
the budget–latency frontier — evaluates *one fixed task set* at many
budgets.  The historical harness shape (a ``budget -> HTuningProblem``
closure called once per budget) rebuilt the specs, pricing objects and
groups from scratch at every budget, which both wasted work and hid
the structure the one-pass DP sweep
(:func:`repro.perf.dp.budget_indexed_dp_sweep`) needs: the *same*
group objects across every budget.

:class:`ProblemFamily` is the budget-indexed builder that fixes this:
it owns the immutable :class:`~repro.core.problem.TaskSpec` tuple and
the (lazily computed, then shared) group partition, and mints cheap
per-budget :class:`~repro.core.problem.HTuningProblem` views onto
them.  A family is itself callable as ``family(budget)``, so it is a
drop-in replacement anywhere a workload factory was accepted — but
sweep harnesses that *know* they hold a family can route rng-free DP
strategies through the one-pass budget sweep (see
:data:`repro.core.tuner.SWEEP_STRATEGIES`).

Sharing is safe because every shared object is immutable: ``TaskSpec``
and ``TaskGroup`` are frozen dataclasses and the task/group tuples are
never mutated, so tuning one budget's problem cannot leak state into
another budget's view (``tests/workloads/test_families.py`` certifies
this invariant).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

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
    "as_problem_family",
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

    def problems(self, budgets: Sequence[int]) -> Iterator[HTuningProblem]:
        """Family members for each budget, in order."""
        for budget in budgets:
            yield self.problem_at(int(budget))

    def __call__(self, budget: int) -> HTuningProblem:
        """Families are drop-in workload factories: ``family(budget)``."""
        return self.problem_at(budget)

    def __repr__(self) -> str:
        label = f", label={self.label!r}" if self.label else ""
        return (
            f"ProblemFamily({self.num_tasks} tasks, "
            f"{len(self.groups)} groups{label})"
        )

    # -- adapters ------------------------------------------------------

    @classmethod
    def from_factory(
        cls,
        factory: Callable[[int], HTuningProblem],
        probe_budget: Optional[int] = None,
        label: str = "",
    ) -> "ProblemFamily":
        """Adapt a legacy ``budget -> HTuningProblem`` closure.

        The factory is called **once** (at *probe_budget*, or at the
        probe problem's own minimum feasible budget when omitted) and
        its task set is assumed budget-independent — true of every
        factory in :mod:`repro.workloads`.  Factories whose *tasks*
        genuinely vary with the budget cannot be adapted; keep calling
        them per budget instead.
        """
        if probe_budget is None:
            # Any feasible budget works: tasks must not depend on it.
            # Walk down from a generous guess only if the factory
            # rejects; in practice the min-feasible probe succeeds.
            probe = factory(_probe_min_budget(factory))
        else:
            probe = factory(int(probe_budget))
        return cls(probe.tasks, label=label)


def _probe_min_budget(factory: Callable[[int], HTuningProblem]) -> int:
    """Find a feasible probe budget by doubling from 1."""
    budget = 1
    while True:
        try:
            factory(budget)
        except Exception:
            budget *= 2
            if budget > 2**31:
                raise ModelError(
                    "could not find a feasible probe budget for the factory; "
                    "pass probe_budget explicitly"
                )
            continue
        return budget


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


def as_problem_family(
    workload: Union[ProblemFamily, Callable[[int], HTuningProblem]],
) -> tuple[Callable[[int], HTuningProblem], Optional[ProblemFamily]]:
    """Normalize a sweep's workload argument.

    Returns ``(builder, family)`` where ``builder(budget)`` constructs
    the per-budget problem and ``family`` is the
    :class:`ProblemFamily` when one was passed (``None`` for a legacy
    closure — legacy factories may legitimately vary their task set
    with the budget, so they are *not* auto-adapted; call
    :meth:`ProblemFamily.from_factory` explicitly when the task set is
    known to be fixed).
    """
    if isinstance(workload, ProblemFamily):
        return workload.problem_at, workload
    if callable(workload):
        return workload, None
    raise ModelError(
        f"workload must be a ProblemFamily or a budget -> HTuningProblem "
        f"callable, got {workload!r}"
    )
