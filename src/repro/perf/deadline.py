"""Batched kernels for the deadline-constrained comparator ([29]).

:mod:`repro.core.deadline` answers the dual question — cheapest spend
meeting a deadline — through one quantity: a group's completion term
``P(all n members finish by t) = (1 − sf)^n``.  This module is the only
place that turns ``(group, price, t)`` rows into those terms:

* :func:`group_rate_row` — one member task's phase-rate row at a price
  (``price=None`` is instant acceptance: the processing phases alone).
* :func:`completion_terms` — the guarded ``(1 − sf)^n`` terms of many
  rows in one :func:`repro.perf.cache.shared_ladder_sf_batch` call
  over the process-level shared weight ladders.
* :class:`DeadlineKernel` — per-(group, price) completion terms at one
  deadline, filled in doubling price blocks and reused by the greedy
  ascent, the trim loop and the achieved-probability report.  The
  candidate scan scores **all** groups' +1 increments in one array op.
* :func:`processing_ceilings` — every deadline's feasibility ceiling
  (instant acceptance) in one batched call.
* :func:`deadline_quantile_bisection` — array bisection for
  :func:`repro.core.deadline.latency_quantile`: one vector of
  midpoints (one per requested confidence) per iteration, every
  group's term on the whole vector in one batched call.  A single
  confidence follows the exact float path of the seed's scalar
  bisection — results are bit-identical.
* the **comparator registry** (:func:`get_deadline_comparator`, a
  :class:`~repro.registry.Registry`): ``"batched"`` and
  ``"reference"`` both resolve to the kernel-backed grid solver
  :func:`repro.core.deadline.min_cost_for_deadline_sweep` (the names
  survive in stored configs and CLI flags; the seed implementation
  stays in :mod:`repro.perf.reference` as the test oracle).  Custom
  solvers with the sweep signature are registrable and immediately
  usable by the frontier sweep and the CLI.

Bit-identity with the seed's fresh-ladder scalar terms rests on two
facts certified by tests: a shared ladder's weights are independent of
its extension history, and each row of
:func:`~repro.stats.phase_type._sf_rows_at` performs the same float
operations as the scalar one-shot evaluation at that row's time,
whatever else shares its batch.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ModelError
from ..registry import Registry
from .cache import shared_ladder_sf_batch

__all__ = [
    "DeadlineKernel",
    "completion_terms",
    "group_rate_row",
    "deadline_quantile_bisection",
    "processing_ceilings",
    "register_deadline_comparator",
    "get_deadline_comparator",
    "available_deadline_comparators",
    "DEFAULT_DEADLINE_COMPARATOR",
]

#: Log value standing in for log(0) — matches the seed comparator's
#: ``_safe_log`` sentinel so greedy gains compare identically.
_LOG_ZERO = -1e30


def _safe_log(x: float) -> float:
    if x <= 0.0:
        return _LOG_ZERO
    return math.log(x)


def group_rate_row(
    group, price: Optional[int], include_processing: bool = True
) -> tuple:
    """One member task's phase rates: k on-hold phases at *price*, then
    (with *include_processing*) k processing phases.

    ``price=None`` is instant acceptance (price → ∞): the on-hold phases
    vanish and only the processing phases remain — the feasibility
    ceiling's row.
    """
    rates = (
        [] if price is None else [group.onhold_rate(int(price))]
    ) * group.repetitions
    if include_processing:
        rates += [group.processing_rate] * group.repetitions
    return tuple(map(float, rates))


def completion_terms(
    rows: Sequence[tuple], sizes: Sequence[int], t, warm: bool = False
) -> list[float]:
    """``P(all members of a group finish by t)`` for many rows at once.

    Row *i* is a member's :func:`group_rate_row` and ``sizes[i]`` its
    group's member count; *t* is a scalar shared by every row or one
    time per row.  Members are independent, so a term is the member
    cdf to the n-th power, 0.0 where that cdf is not positive.  One
    :func:`~repro.perf.cache.shared_ladder_sf_batch` call evaluates
    every row (``warm=True`` batch-builds missing ladders first).  The
    power runs through python's float pow: numpy's vectorized pow
    differs from libm in the last ulp, which would break bit-identity
    with the seed's scalar terms at knife-edge bisection midpoints.
    """
    sfs = shared_ladder_sf_batch(rows, t, warm=warm).tolist()
    return [
        0.0 if (member := 1.0 - sf) <= 0.0 else member**size
        for sf, size in zip(sfs, sizes)
    ]


class DeadlineKernel:
    """Memoized per-(group, price) completion terms at one deadline.

    One kernel serves one ``(groups, deadline, include_processing)``
    triple.  Every term is computed at most once, by
    :func:`completion_terms` in doubling price blocks — so a frontier
    sweeping many deadlines over the same groups re-derives *no*
    ladder, only the cheap Poisson mixing per new ``(price, deadline)``
    pair — and every value is bit-identical to the seed's fresh-ladder
    scalar evaluation.
    """

    #: Smallest price block warmed at once; blocks then double so the
    #: total over-warming stays within ~2× of the visited price range.
    _WARM_CHUNK = 8

    def __init__(
        self,
        groups: Sequence,
        deadline: float,
        include_processing: bool = True,
        price_cap: Optional[int] = None,
        profile_table: Optional[dict] = None,
        ceiling: Optional[float] = None,
    ) -> None:
        if not groups:
            raise ModelError("need at least one task group")
        if deadline < 0:
            raise ModelError(f"deadline must be >= 0, got {deadline}")
        self.groups = tuple(groups)
        self.deadline = float(deadline)
        self.include_processing = bool(include_processing)
        self.price_cap = None if price_cap is None else int(price_cap)
        self.unit_costs = np.array(
            [g.unit_cost for g in self.groups], dtype=float
        )
        self._group_cdf: dict[tuple[int, int], float] = {}
        self._log_term: dict[tuple[int, int], float] = {}
        self._warm_hi = [0] * len(self.groups)
        # A sweep precomputes every deadline's ceiling in one batched
        # pass and hands it in; a standalone kernel computes its own
        # on first use.
        self._ceiling: Optional[float] = ceiling
        self._next_buf: Optional[np.ndarray] = None
        self._gain_buf: Optional[np.ndarray] = None
        # (group index, price) -> normalized rate tuple.  Deadline
        # sweeps pass one shared dict so the pricing-curve evaluations
        # and profile normalization happen once per sweep, not once
        # per deadline (completion terms stay per-kernel — they depend
        # on the deadline; the rate profiles do not).
        self._profiles: dict = {} if profile_table is None else profile_table

    def _warm_multi(self, targets: Sequence[tuple[int, int]]) -> None:
        """Fill the completion-term tables for several groups at once.

        The greedy ascent visits prices in +1 steps and advances every
        group together, so warming doubling blocks for **all** lagging
        groups in one call turns the two per-probe python costs into
        one batched call each: the ladder recurrences run as a single
        lock-step matrix recurrence (phase counts padded inside
        :func:`repro.stats.phase_type.batch_weight_ladders`) and the
        Poisson mixing as one padded-window pass
        (:func:`completion_terms`).  Every term lands in the (group,
        price) memo, so the candidate scan and the trim loop read pure
        table lookups.
        """
        keys: list[tuple[int, int]] = []
        rows: list[tuple] = []
        sizes: list[int] = []
        for gi, price in targets:
            if price <= self._warm_hi[gi]:
                continue
            lo = self._warm_hi[gi] + 1
            hi = max(lo + self._WARM_CHUNK - 1, 2 * self._warm_hi[gi])
            if self.price_cap is not None:
                # The doubling growth never crosses the cap; only an
                # explicit beyond-cap probe (an external caller — the
                # greedy stays within it) may push past.
                hi = min(hi, self.price_cap)
            hi = max(hi, int(price))
            if hi < lo:
                continue
            group = self.groups[gi]
            for p in range(lo, hi + 1):
                key = (gi, p)
                row = self._profiles.get(key)
                if row is None:
                    row = group_rate_row(group, p, self.include_processing)
                    self._profiles[key] = row
                keys.append(key)
                rows.append(row)
            sizes.extend([group.size] * (hi - lo + 1))
            self._warm_hi[gi] = hi
        if not rows:
            return
        terms = completion_terms(rows, sizes, self.deadline, warm=True)
        for key, value in zip(keys, terms):
            self._group_cdf[key] = value
            self._log_term[key] = _safe_log(value)

    def prewarm(self, prices: Sequence[int]) -> None:
        """Warm every group's table through its current price at once.

        Called by the greedy driver before the ascent so the first
        block of every group shares one batched build/mix, and by any
        caller about to probe a whole price vector.
        """
        self._warm_multi(
            [(gi, int(p)) for gi, p in enumerate(prices)]
        )

    def group_cdf(self, gi: int, price: int) -> float:
        """``P(every task of group gi finishes by the deadline)``.

        Memoized; a price past the warmed range warms its block first
        (the memo holds every price from 1 through the warmed top).
        Prices start at one unit, so a lower price is a
        :class:`~repro.errors.ModelError`.
        """
        key = (gi, int(price))
        hit = self._group_cdf.get(key)
        if hit is None:
            if key[1] < 1:
                raise ModelError(f"price must be >= 1, got {price}")
            self._warm_multi([key])
            hit = self._group_cdf[key]
        return hit

    def log_term(self, gi: int, price: int) -> float:
        """``log`` of :meth:`group_cdf` with the seed's log(0) sentinel."""
        key = (gi, int(price))
        hit = self._log_term.get(key)
        if hit is not None:
            return hit
        value = _safe_log(self.group_cdf(gi, price))
        self._log_term[key] = value
        return value

    def log_terms(self, prices: np.ndarray) -> np.ndarray:
        """Current per-group log completion terms as one array."""
        return np.array(
            [self.log_term(i, int(p)) for i, p in enumerate(prices)],
            dtype=float,
        )

    def best_increment(
        self, prices: np.ndarray, cur_terms: np.ndarray, max_price: int
    ) -> tuple[int, float, float]:
        """Score all groups' +1 price increments in one array op.

        Returns ``(group index, gain, new log term)`` of the group
        whose increment buys the largest probability gain per budget
        unit, with the seed's first-wins tie-breaking (``np.argmax``
        keeps the first maximum, like the scalar scan's strict ``>``).
        ``(-1, -inf, 0.0)`` when every group sits at *max_price*.

        The scratch buffers are kernel-owned: a greedy ascent calls
        this once per price increment, and reallocating three small
        arrays per step would dominate the (table-lookup) scan itself.
        """
        if self._next_buf is None:
            self._next_buf = np.empty(len(self.groups))
            self._gain_buf = np.empty(len(self.groups))
        next_terms, gains = self._next_buf, self._gain_buf
        if any(
            p < max_price and p + 1 > self._warm_hi[i]
            for i, p in enumerate(prices)
        ):
            # One group crossed its warmed range.  Groups within a
            # chunk of their own boundary ride along (the greedy
            # raises every group's price at a similar pace, so their
            # next blocks would open within a few steps anyway) —
            # merging keeps the ladder builds in one lock-step batch.
            # Ride-along targets are clamped to max_price so a group
            # already warmed to the cap never probes a price the cap
            # excluded.
            self._warm_multi(
                [
                    (i, min(max(int(p) + 1, self._warm_hi[i] + 1), max_price))
                    for i, p in enumerate(prices)
                    if p < max_price
                    and self._warm_hi[i] < max_price
                    and p + self._WARM_CHUNK > self._warm_hi[i]
                ]
            )
        capped = False
        for i, p in enumerate(prices):
            if p < max_price:
                next_terms[i] = self.log_term(i, int(p) + 1)
            else:
                next_terms[i] = 0.0
                capped = True
        np.subtract(next_terms, cur_terms, out=gains)
        gains /= self.unit_costs
        if capped:
            gains[prices >= max_price] = -np.inf
        best = int(np.argmax(gains))
        best_gain = float(gains[best])
        if best_gain == -np.inf:
            return -1, best_gain, 0.0
        return best, best_gain, float(next_terms[best])

    def completion_probability(
        self,
        prices: np.ndarray,
        override: Optional[tuple[int, int]] = None,
    ) -> float:
        """Product of group cdfs at *prices*, all terms memo lookups.

        ``override=(gi, price)`` substitutes one group's price — the
        trim loop's candidate decrement — without copying the vector.
        Multiplication order and the early exit at 0.0 match the seed
        ``completion_probability`` exactly.
        """
        prob = 1.0
        for gi in range(len(self.groups)):
            price = int(prices[gi])
            if override is not None and override[0] == gi:
                price = int(override[1])
            prob *= self.group_cdf(gi, price)
            if prob == 0.0:
                return 0.0
        return prob

    def processing_ceiling(self) -> float:
        """Completion probability with instant acceptance (price → ∞).

        The price-independent feasibility ceiling: only the processing
        phases remain (see :func:`processing_ceilings`).
        """
        if not self.include_processing:
            raise ModelError(
                "the processing ceiling is undefined when processing "
                "phases are excluded"
            )
        if self._ceiling is None:
            self._ceiling = processing_ceilings(
                self.groups, [self.deadline]
            )[self.deadline]
        return self._ceiling

    def cache_stats(self) -> dict:
        """Memo sizes — how many (group, price) terms this kernel holds."""
        return {
            "group_cdf_entries": len(self._group_cdf),
            "log_term_entries": len(self._log_term),
            "warmed_prices": list(self._warm_hi),
        }


def processing_ceilings(
    groups: Sequence, deadlines: Sequence[float]
) -> dict[float, float]:
    """Every deadline's feasibility ceiling in one batched pass.

    The ceiling is the completion probability with instant acceptance
    (price → ∞): the product of the groups' processing-only terms, in
    group order with no early exit — the seed's ceiling, term for
    term.  All (group, deadline) terms go through one
    :func:`completion_terms` call, which is what lets a sweep hand
    every kernel its ceiling.
    """
    groups = tuple(groups)
    if not groups:
        raise ModelError("need at least one task group")
    deadlines = [float(d) for d in deadlines]
    n = len(groups)
    terms = completion_terms(
        [group_rate_row(g, None) for g in groups] * len(deadlines),
        [g.size for g in groups] * len(deadlines),
        np.repeat(np.asarray(deadlines, dtype=float), n),
    )
    return {
        deadline: math.prod(terms[i * n : (i + 1) * n])
        for i, deadline in enumerate(deadlines)
    }


def deadline_quantile_bisection(
    groups: Sequence,
    group_prices: dict,
    confidences: np.ndarray,
    include_processing: bool = True,
    n_iterations: int = 80,
) -> np.ndarray:
    """Array bisection for latency quantiles at several confidences.

    For each requested confidence the bisection maintains its own
    ``(lo, hi)`` bracket; every iteration evaluates each group's sf on
    the **whole midpoint vector** (one midpoint per confidence), so
    the per-iteration cost is one array kernel call per group instead
    of one fresh scalar kernel per (group, confidence).

    Each midpoint's sf is accumulated over exactly its own truncation
    window (:func:`~repro.stats.phase_type._sf_rows_at` semantics), so
    every entry is **bitwise** what the scalar per-confidence
    bisection computes: multi-confidence batches equal per-point
    evaluation exactly, not just to tolerance, and a single confidence
    is bit-identical to the seed ``latency_quantile``.
    """
    from ..core.latency import group_onhold_latency, group_processing_latency

    confidences = np.atleast_1d(np.asarray(confidences, dtype=float))
    if confidences.size == 0:
        raise ModelError("need at least one confidence")
    if np.any((confidences <= 0.0) | (confidences >= 1.0)):
        raise ModelError(
            f"confidences must be in (0,1), got {confidences.tolist()}"
        )
    groups = tuple(groups)
    rows = [
        group_rate_row(g, group_prices[g.key], include_processing)
        for g in groups
    ]
    sizes = [g.size for g in groups]

    def completion(t_vec: np.ndarray) -> np.ndarray:
        # Every (group, midpoint) term in one call, each row's mixing
        # window sized from its own q·t; then the product over groups
        # in group order — the scalar path's accumulation (its early
        # exit at 0.0 only skips multiplications by zero).
        n = t_vec.size
        terms = completion_terms(
            [row for row in rows for _ in range(n)],
            [size for size in sizes for _ in range(n)],
            np.tile(t_vec, len(rows)),
        )
        prob = np.ones_like(t_vec)
        for group_terms in np.array(terms).reshape(len(rows), n):
            prob = prob * group_terms
        return prob

    # Bracket: sum of group means, doubled until every confidence is
    # cleared (the scalar path's loop, vectorized over confidences).
    start = sum(
        group_onhold_latency(g, group_prices[g.key])
        + (group_processing_latency(g) if include_processing else 0.0)
        for g in groups
    )
    hi = np.full_like(confidences, max(start, 1e-9))
    while True:
        unmet = completion(hi) < confidences
        if not np.any(unmet):
            break
        hi = np.where(unmet, hi * 2.0, hi)
        if np.any(hi > 1e12):
            raise ModelError("quantile search diverged; rates too small?")
    lo = np.zeros_like(hi)
    for _ in range(n_iterations):
        mid = 0.5 * (lo + hi)
        meets = completion(mid) >= confidences
        hi = np.where(meets, mid, hi)
        lo = np.where(meets, lo, mid)
    return hi


# ---------------------------------------------------------------------------
# comparator registry
# ---------------------------------------------------------------------------

#: Name resolved when callers pass ``comparator=None``.
DEFAULT_DEADLINE_COMPARATOR = "batched"

#: What every ``comparator=`` parameter resolves through (a name,
#: ``None`` or a :class:`repro.api.RunConfig`).  The builtins are
#: registered by :mod:`repro.core.deadline`, which ``import repro``
#: always runs.
_COMPARATORS = Registry(
    "deadline comparator",
    default=DEFAULT_DEADLINE_COMPARATOR,
    unwrap="comparator",
)


def register_deadline_comparator(
    name: str, comparator: Callable, replace: bool = False
) -> Callable:
    """Register a min-cost-for-deadline solver under *name*.

    Registered names are accepted wherever a ``comparator=`` parameter
    appears (``deadline_cost_frontier``, ``run_deadline_sweep``, the
    CLI ``deadline`` command).  Every comparator has the
    :func:`repro.core.deadline.min_cost_for_deadline_sweep` signature:
    it tunes a whole deadline grid and returns a ``deadline -> result``
    dict.
    """
    return _COMPARATORS.register(name, comparator, replace=replace)


#: Resolve a ``comparator=`` argument (a name, ``None`` or a config
#: object) to the registered solver.
get_deadline_comparator = _COMPARATORS.resolve

#: Registered comparator names, sorted (CLI choices come from here).
available_deadline_comparators = _COMPARATORS.names
