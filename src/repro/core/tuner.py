"""High-level tuning facade.

:class:`Tuner` picks the paper's algorithm matching the instance's
scenario (EA for I, RA for II, HA for III — §4), or runs a named
strategy on demand.  This is the one-call entry point the examples and
the crowd-DB engine use:

>>> from repro import Tuner, HTuningProblem
>>> allocation = Tuner().tune(problem)          # doctest: +SKIP
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..registry import Registry
from ..stats.rng import RandomState
from .baselines import (
    biased_allocation,
    rep_even_allocation,
    task_even_allocation,
    uniform_price_heuristic,
)
from .even_allocation import even_allocation
from .heterogeneous import heterogeneous_algorithm, heterogeneous_algorithm_sweep
from .problem import Allocation, HTuningProblem, Scenario
from .repetition import repetition_algorithm, repetition_algorithm_sweep

__all__ = ["Tuner", "STRATEGIES", "SWEEP_STRATEGIES", "tune_budget_sweep"]


def _strategy_ea(problem: HTuningProblem, rng: RandomState) -> Allocation:
    return even_allocation(problem, rng=rng, strict_scenario=False)


def _strategy_ra(problem: HTuningProblem, rng: RandomState) -> Allocation:
    return repetition_algorithm(problem, strict_scenario=False)


def _strategy_ha(problem: HTuningProblem, rng: RandomState) -> Allocation:
    return heterogeneous_algorithm(problem)


def _strategy_te(problem: HTuningProblem, rng: RandomState) -> Allocation:
    return task_even_allocation(problem)


def _strategy_re(problem: HTuningProblem, rng: RandomState) -> Allocation:
    return rep_even_allocation(problem)


def _strategy_uniform(problem: HTuningProblem, rng: RandomState) -> Allocation:
    return uniform_price_heuristic(problem)


def _make_bias(alpha: float):
    def strategy(problem: HTuningProblem, rng: RandomState) -> Allocation:
        return biased_allocation(problem, alpha=alpha, rng=rng)

    return strategy


#: Registry of named strategies usable in experiments and benchmarks:
#: ``name -> strategy(problem, rng) -> Allocation``.
STRATEGIES = Registry("strategy")
for _name, _strategy in (
    ("ea", _strategy_ea),
    ("ra", _strategy_ra),
    ("ha", _strategy_ha),
    ("te", _strategy_te),
    ("re", _strategy_re),
    ("uniform", _strategy_uniform),
    ("bias_1", _make_bias(0.67)),
    ("bias_2", _make_bias(0.75)),
):
    STRATEGIES.register(_name, _strategy)
del _name, _strategy

#: Strategies with a one-pass multi-budget implementation.  These are
#: exactly the rng-free DP strategies: their per-budget allocation is a
#: pure function of the (shared) groups and the budget, so a
#: :class:`~repro.workloads.families.ProblemFamily` sweep can tune all
#: budgets in one DP pass with bit-identical results.  Strategies with
#: random tie-breaking (``ea``, ``bias_*``) must keep their per-cell
#: RNG and stay on the per-budget path.
SWEEP_STRATEGIES: dict[str, Callable] = {
    "ra": repetition_algorithm_sweep,
    "ha": heterogeneous_algorithm_sweep,
}

#: Each one-pass sweep keyed by the built-in strategy it reproduces, so
#: a name rebound to another strategy is tuned budget by budget.
_SWEEPS = {
    STRATEGIES[name]: sweep for name, sweep in SWEEP_STRATEGIES.items()
}


def tune_budget_sweep(
    family, budgets: Sequence[int], strategy: str
) -> Optional[dict[int, Allocation]]:
    """One-pass ``budget -> Allocation`` map for a family sweep.

    Returns ``None`` when what *strategy* is bound to has no one-pass
    implementation — ``ra`` or ``ha`` rebound to another strategy
    included (callers then fall back to per-budget tuning); raises
    :class:`~repro.errors.RegistryError` for names not in
    :data:`STRATEGIES` at all.
    """
    sweep = _SWEEPS.get(STRATEGIES.lookup(strategy))
    if sweep is None:
        return None
    return sweep(family, budgets)


class Tuner:
    """Scenario-aware budget tuner (the paper's end-to-end system).

    Parameters
    ----------
    strategy:
        ``"auto"`` (default — EA/RA/HA by detected scenario) or any
        key of :data:`STRATEGIES`.
    seed:
        Seeds strategies with random tie-breaking (EA remainders,
        bias baselines).
    """

    def __init__(self, strategy: str = "auto", seed: RandomState = None) -> None:
        if strategy != "auto":
            STRATEGIES.lookup(strategy)
        self.strategy = strategy
        self.seed = seed

    def resolve_strategy(self, problem: HTuningProblem) -> str:
        """Name of the concrete strategy that will run on *problem*."""
        if self.strategy != "auto":
            return self.strategy
        scenario = problem.scenario()
        if scenario is Scenario.HOMOGENEITY:
            return "ea"
        if scenario is Scenario.REPETITION:
            return "ra"
        return "ha"

    def tune(self, problem: HTuningProblem) -> Allocation:
        """Produce the budget allocation for *problem*."""
        name = self.resolve_strategy(problem)
        allocation = STRATEGIES[name](problem, self.seed)
        problem.validate_allocation(allocation)
        return allocation
