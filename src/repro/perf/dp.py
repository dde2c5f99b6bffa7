"""Array-backed budget-indexed dynamic programs (Algorithms 2 & 3).

The seed implementations of :func:`repro.core.repetition.budget_indexed_dp`
and the Algorithm-3 loop re-evaluated their group objective through a
lazily grown per-group ladder — two python function calls per
(budget level × group) state.  Here the whole cost surface is
precomputed up front as dense per-group tables ``E_i(p)`` (numpy
arrays over every reachable price), the marginal-gain columns
``E_i(p) − E_i(p+1)`` are materialized once, and the budget sweep reads
plain table entries.  The scan itself keeps the seed's exact candidate
order and ``1e-15`` tie-breaking, so **price vectors are bit-identical**
to the reference implementation for any cost function.

:func:`budget_indexed_dp_sweep` adds the sweep-level win: the DP state
at budget level ``x`` never depends on the terminal budget, so one pass
to the largest requested budget serves every smaller budget for free —
a budget sweep over one fixed task set costs one DP instead of one per
budget level.  It is the only DP body: :func:`budget_indexed_dp_fast`
is its read of one budget, and the Fig. 2 harness, the frontiers and
the tuners all reach it.  Likewise :func:`heterogeneous_closeness_sweep`
is the only Algorithm-3 scan; :func:`heterogeneous_price_scan` is its
one-budget slice.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import InfeasibleAllocationError, ModelError

__all__ = [
    "group_cost_table",
    "budget_indexed_dp_fast",
    "budget_indexed_dp_sweep",
    "heterogeneous_price_scan",
    "heterogeneous_closeness_sweep",
]

#: Strict-improvement margin of the seed DP scans (kept verbatim).
_TIE_EPS = 1e-15


def group_cost_table(
    group,
    max_price: int,
    group_cost_fn: Callable,
) -> np.ndarray:
    """Dense ladder ``[E(1), …, E(max_price)]`` for one group."""
    if max_price < 1:
        raise ModelError(f"max_price must be >= 1, got {max_price}")
    return np.array(
        [group_cost_fn(group, p) for p in range(1, max_price + 1)], dtype=float
    )


def _cost_tables(groups, residual: int, unit_costs, group_cost_fn):
    """Dense cost tables over every price reachable within *residual*
    (one extra entry so the marginal of the top price is defined)."""
    return [
        group_cost_table(g, 2 + residual // u, group_cost_fn)
        for g, u in zip(groups, unit_costs)
    ]


def _prepare(groups, budget: int):
    if not groups:
        raise ModelError("need at least one group")
    unit_costs = tuple(g.unit_cost for g in groups)
    start_cost = sum(unit_costs)
    if budget < start_cost:
        raise InfeasibleAllocationError(budget, start_cost)
    return unit_costs, start_cost, budget - start_cost


def _run_dp(groups, residual: int, unit_costs, group_cost_fn, tables=None):
    """Shared DP core: returns ``prices_at`` for every level 0..residual.

    ``prices_at[x]`` is the price tuple of the best state after
    spending ``x`` units beyond the all-ones base — identical, level by
    level, to the seed implementation's states.  *tables* are the
    caller's dense cost tables for exactly this *residual*
    (:func:`_cost_tables`); built here when omitted.
    """
    n = len(groups)
    if tables is None:
        tables = _cost_tables(groups, residual, unit_costs, group_cost_fn)
    # gain[i][p-1] = E_i(p) − E_i(p+1): the marginal of buying group i
    # one increment from price p.  Python lists: the scan below reads
    # single entries, where list indexing beats 0-d numpy access.
    gains = [(t[:-1] - t[1:]).tolist() for t in tables]
    base_value = sum(float(t[0]) for t in tables)

    base_prices = tuple([1] * n)
    values: list[float] = [base_value]
    prices_at: list[tuple[int, ...]] = [base_prices]
    scan = tuple(zip(range(n), unit_costs, gains))

    for x in range(1, residual + 1):
        best_value = values[x - 1]
        best_i = -1
        best_prev: tuple[int, ...] = prices_at[x - 1]
        for i, u, gain in scan:
            if u > x:
                continue
            j = x - u
            prev_prices = prices_at[j]
            candidate = values[j] - gain[prev_prices[i] - 1]
            if candidate < best_value - _TIE_EPS:
                best_value = candidate
                best_i = i
                best_prev = prev_prices
        if best_i >= 0:
            lst = list(best_prev)
            lst[best_i] += 1
            prices_at.append(tuple(lst))
        else:
            prices_at.append(best_prev)
        values.append(best_value)
    return prices_at


def budget_indexed_dp_fast(
    groups,
    budget: int,
    group_cost_fn: Callable,
) -> dict[tuple, int]:
    """Algorithm 2's DP with precomputed cost tables, for one budget.

    Same contract and bit-identical output as the seed
    ``budget_indexed_dp``; ``group_cost_fn(group, price)`` must be
    evaluable for every price up to ``1 + ⌊(B − Σu_i)/u_i⌋ + 1`` (the
    tables are built eagerly).  This is :func:`budget_indexed_dp_sweep`
    read at its one budget.
    """
    (prices,) = budget_indexed_dp_sweep(groups, [budget], group_cost_fn).values()
    return prices


def budget_indexed_dp_sweep(
    groups,
    budgets: Iterable[int],
    group_cost_fn: Callable,
) -> dict[int, dict[tuple, int]]:
    """Run Algorithm 2's DP for many budgets in one pass.

    The DP state at level ``x`` is the same whatever the terminal
    budget, so a single run to ``max(budgets)`` yields every requested
    budget's price vector by reading the matching level.  This is the
    one DP body: a single-budget call reads one level of it.
    """
    return _dp_sweep(groups, budgets, group_cost_fn)


def _dp_sweep(groups, budgets, group_cost_fn, tables=None):
    """:func:`budget_indexed_dp_sweep`'s body; *tables* are dense cost
    tables the caller already built for ``max(budgets)`` (see
    :func:`_run_dp`)."""
    budgets = [int(b) for b in budgets]
    if not budgets:
        raise ModelError("budget sweep needs at least one budget")
    unit_costs, start_cost, top_residual = _prepare(groups, max(budgets))
    for b in budgets:
        if b < start_cost:
            raise InfeasibleAllocationError(b, start_cost)
    prices_at = _run_dp(groups, top_residual, unit_costs, group_cost_fn, tables)
    out: dict[int, dict[tuple, int]] = {}
    for b in budgets:
        final = prices_at[b - start_cost]
        out[b] = {g.key: final[i] for i, g in enumerate(groups)}
    return out


def heterogeneous_price_scan(
    groups,
    residual: int,
    unit_costs: Sequence[int],
    group_cost_fn: Callable,
    phase2: Sequence[float],
    utopia_o1: float,
    utopia_o2: float,
) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Algorithm 3's budget scan for one budget: the one-budget slice of
    :func:`heterogeneous_closeness_sweep`.

    Builds the dense phase-1 tables from *group_cost_fn* (same
    reachable-price sizing as :func:`budget_indexed_dp_fast`) and
    returns ``(prices, tables)`` — the tables let the caller read
    achieved objective values without re-evaluating the cost function.
    """
    tables = _cost_tables(groups, residual, unit_costs, group_cost_fn)
    (final,) = heterogeneous_closeness_sweep(
        groups,
        [residual],
        unit_costs,
        group_cost_fn,
        phase2,
        [(utopia_o1, utopia_o2)],
        phase1_tables=tables,
    )
    return final, tables


def _check_phase1_tables(
    groups, residual, unit_costs, group_cost_fn, phase1_tables
):
    """Build dense phase-1 tables, or validate caller-shared ones."""
    if phase1_tables is None:
        return _cost_tables(groups, residual, unit_costs, group_cost_fn)
    phase1_tables = list(phase1_tables)
    for t, u in zip(phase1_tables, unit_costs):
        if len(t) < 2 + residual // u:
            raise ModelError(
                "shared phase-1 table too short for this residual; "
                f"need {2 + residual // u} entries, got {len(t)}"
            )
    return phase1_tables


def heterogeneous_closeness_sweep(
    groups,
    residuals: Sequence[int],
    unit_costs: Sequence[int],
    group_cost_fn: Callable,
    phase2: Sequence[float],
    utopias: Sequence[tuple[float, float]],
    phase1_tables: Sequence[np.ndarray] | None = None,
) -> list[tuple[int, ...]]:
    """One-pass Algorithm-3 closeness scan for many budgets at once.

    ``residuals[k]`` and ``utopias[k] = (o1*, o2*)`` describe budget
    ``k``; the return value is the final price tuple per budget, each
    **bit-identical** to an individual :func:`heterogeneous_price_scan`
    with that budget's utopia point.

    Why this is subtle: the DP *state* (the candidate price vectors and
    their raw objective coordinates ``(O1, O2)``) does not depend on
    the terminal budget, but the *decision* at each level compares
    closeness values ``|O1 − O1*| + |O2 − O2*|`` against
    budget-specific utopia coordinates with a ``1e-15`` strict-
    improvement margin — so a last-ulp tie can break differently for
    different budgets.  The sweep therefore walks one shared
    trajectory, evaluating each candidate's ``(O1, O2)`` **once** per
    level (the expensive fused table pass) and replaying only the
    cheap per-budget closeness comparison — in the seed's exact
    accumulation order, so every float matches.  On the rare level
    where two live budgets disagree about the winning candidate, the
    shared walk stops being valid for them and each disagreeing budget
    forks into a private continuation of the seed loop from the shared
    prefix.  Agreement is the overwhelmingly common case (in exact
    arithmetic the argmin is utopia-independent), so the sweep is one
    pass in practice while staying bit-exact even on adversarial ties.
    """
    if len(residuals) != len(utopias):
        raise ModelError(
            f"residuals/utopias length mismatch: "
            f"{len(residuals)} vs {len(utopias)}"
        )
    if not residuals:
        return []
    n = len(groups)
    residuals = [int(r) for r in residuals]
    for r in residuals:
        if r < 0:
            raise ModelError(f"residual must be >= 0, got {r}")
    max_residual = max(residuals)
    phase1_tables = _check_phase1_tables(
        groups, max_residual, unit_costs, group_cost_fn, phase1_tables
    )
    p1 = [t.tolist() for t in phase1_tables]
    ph2 = [float(v) for v in phase2]
    indices = range(n)
    scan = tuple(zip(range(n), unit_costs))

    def objective(prev: tuple[int, ...], bump: int) -> tuple[float, float]:
        # Raw (O1, O2) of `prev` with group `bump` raised one price
        # step (bump < 0 evaluates `prev` itself).  Accumulation order
        # matches the seed's sum()/max() so downstream closeness
        # values — and therefore tie decisions — are bit-identical.
        o1 = 0.0
        o2 = -np.inf
        for j in indices:
            p = prev[j] + 1 if j == bump else prev[j]
            v = p1[j][p - 1]
            o1 += v
            t = v + ph2[j]
            if t > o2:
                o2 = t
        return o1, o2

    def closeness(o1: float, o2: float, k: int) -> float:
        u1, u2 = utopias[k]
        return abs(o1 - u1) + abs(o2 - u2)

    def finish(
        prefix: list[tuple[int, ...]], start_x: int, k: int, value: float
    ):
        # Private continuation of the seed loop for budget `k` after a
        # tie disagreement: identical semantics to running the whole
        # scan alone, because the shared prefix was decision-identical
        # and `value` is the incumbent closeness carried from it.
        prices_at = list(prefix)
        for x in range(start_x, residuals[k] + 1):
            best_value = value
            best_i = -1
            best_prev = prices_at[x - 1]
            for i, u in scan:
                if u > x:
                    continue
                prev = prices_at[x - u]
                o1, o2 = objective(prev, i)
                candidate = closeness(o1, o2, k)
                if candidate < best_value - _TIE_EPS:
                    best_value = candidate
                    best_i = i
                    best_prev = prev
            if best_i >= 0:
                lst = list(best_prev)
                lst[best_i] += 1
                prices_at.append(tuple(lst))
            else:
                prices_at.append(best_prev)
            value = best_value
        return prices_at[residuals[k]]

    base_prices = tuple([1] * n)
    prices_at: list[tuple[int, ...]] = [base_prices]
    objs: list[tuple[float, float]] = [objective(base_prices, -1)]
    live = list(range(len(residuals)))
    cur_val = {k: closeness(*objs[0], k) for k in live}
    finals: dict[int, tuple[int, ...]] = {}

    for x in range(1, max_residual + 1):
        live = [k for k in live if residuals[k] >= x]
        if not live:
            break
        # Evaluate each candidate's raw objective once for all budgets.
        candidates = []
        for i, u in scan:
            if u > x:
                continue
            prev = prices_at[x - u]
            o1, o2 = objective(prev, i)
            candidates.append((i, prev, o1, o2))
        chosen: dict[int, int] = {}
        chosen_val: dict[int, float] = {}
        for k in live:
            best_value = cur_val[k]
            best_i = -1
            for i, _prev, o1, o2 in candidates:
                candidate = closeness(o1, o2, k)
                if candidate < best_value - _TIE_EPS:
                    best_value = candidate
                    best_i = i
            chosen[k] = best_i
            chosen_val[k] = best_value
        agreed = set(chosen.values())
        if len(agreed) > 1:
            # Last-ulp tie broke differently across budgets: the
            # shared trajectory can no longer serve all of them.  Every
            # still-live budget forks into its own seed-exact
            # continuation from the (decision-identical) prefix.
            for k in live:
                finals[k] = finish(prices_at, x, k, cur_val[k])
            live = []
            break
        best_i = agreed.pop()
        if best_i >= 0:
            entry = next(c for c in candidates if c[0] == best_i)
            lst = list(entry[1])
            lst[best_i] += 1
            prices_at.append(tuple(lst))
            objs.append((entry[2], entry[3]))
        else:
            prices_at.append(prices_at[x - 1])
            objs.append(objs[x - 1])
        for k in live:
            cur_val[k] = chosen_val[k]

    for k in range(len(residuals)):
        if k not in finals:
            finals[k] = prices_at[residuals[k]]
    return [finals[k] for k in range(len(residuals))]
