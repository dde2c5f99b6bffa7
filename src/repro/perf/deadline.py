"""Batched kernels for the deadline-constrained comparator ([29]).

:mod:`repro.core.deadline` answers the dual question — cheapest spend
meeting a deadline — by a greedy price ascent whose every probe is a
phase-type cdf at one scalar deadline.  The seed implementation rebuilt
a :class:`~repro.stats.phase_type.WeightLadder` per probe and re-probed
the same ``(group, price)`` pairs many times (the candidate scan
touches every group at every step; the minimality trim re-evaluates
the whole price vector per candidate decrement).  This module makes
those probes array-shaped and memoized while staying **bit-identical**
to the seed comparator:

* :class:`DeadlineKernel` — per-(group, price) completion terms at one
  deadline, computed once through the process-level shared ladders
  (:func:`repro.perf.cache.shared_ladder_sf`) and reused by the greedy
  ascent, the trim loop, and the achieved-probability report.  The
  candidate scan scores **all** groups' +1 increments in one array op.
* :func:`deadline_quantile_bisection` — array bisection for
  :func:`repro.core.deadline.latency_quantile`: one vector of
  midpoints (one per requested confidence) per iteration, each group's
  sf evaluated on the whole midpoint vector via the
  :func:`~repro.stats.phase_type._sf_from_ladder` array path.  A
  single confidence degenerates to length-1 vectors, which follow the
  exact float path of the scalar bisection — results are bit-identical.
* the **comparator registry** (:func:`get_deadline_comparator`, a
  :class:`~repro.registry.Registry`): ``"batched"`` and
  ``"reference"`` both resolve to the kernel-backed grid solver
  :func:`repro.core.deadline.min_cost_for_deadline_sweep` (the names
  survive in stored configs and CLI flags; the seed implementation
  stays in :mod:`repro.perf.reference` as the test oracle).  Custom
  solvers with the sweep signature are registrable and immediately
  usable by the frontier sweep and the CLI.

Bit-identity rests on two facts certified by tests: a shared ladder's
weights are independent of its extension history, and a length-1 grid
through :func:`~repro.stats.phase_type._sf_from_ladder` performs the
same float operations as the scalar one-shot evaluation.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ModelError
from ..registry import Registry
from .cache import shared_ladder_sf, shared_ladder_sf_batch

__all__ = [
    "DeadlineKernel",
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


class DeadlineKernel:
    """Memoized per-(group, price) completion terms at one deadline.

    One kernel serves one ``(groups, deadline, include_processing)``
    triple.  Every term is computed at most once, through the
    process-level shared weight ladders — so a frontier sweeping many
    deadlines over the same groups re-derives *no* ladder, only the
    cheap Poisson mixing per new ``(price, deadline)`` pair — and every
    value is bit-identical to the seed's fresh-ladder scalar
    evaluation.
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
        self._grid = np.array([self.deadline], dtype=float)
        self.unit_costs = np.array(
            [g.unit_cost for g in self.groups], dtype=float
        )
        self._group_cdf: dict[tuple[int, int], float] = {}
        self._log_term: dict[tuple[int, int], float] = {}
        self._warm_hi = [0] * len(self.groups)
        # A sweep precomputes every deadline's ceiling in one batched
        # pass (bit-identical to the per-kernel evaluation) and hands
        # it in; a standalone kernel computes its own on first use.
        self._ceiling: Optional[float] = ceiling
        self._next_buf: Optional[np.ndarray] = None
        self._gain_buf: Optional[np.ndarray] = None
        # (group index, price) -> normalized rate tuple.  Deadline
        # sweeps pass one shared dict so the pricing-curve evaluations
        # and profile normalization happen once per sweep, not once
        # per deadline (completion terms stay per-kernel — they depend
        # on the deadline; the rate profiles do not).
        self._profiles: dict = {} if profile_table is None else profile_table

    def _rates_at(self, gi: int, price: int) -> tuple:
        key = (gi, int(price))
        row = self._profiles.get(key)
        if row is None:
            g = self.groups[gi]
            rates = [g.onhold_rate(int(price))] * g.repetitions
            if self.include_processing:
                rates += [g.processing_rate] * g.repetitions
            row = tuple(float(r) for r in rates)
            self._profiles[key] = row
        return row

    def _warm(self, gi: int, price: int) -> None:
        """Fill the completion-term tables for one group's price block."""
        self._warm_multi([(gi, int(price))])

    def _warm_multi(self, targets: Sequence[tuple[int, int]]) -> None:
        """Fill the completion-term tables for several groups at once.

        The greedy ascent visits prices in +1 steps and advances every
        group together, so warming doubling blocks for **all** lagging
        groups in one call turns the two per-probe python costs into
        one batched call each: the ladder recurrences run as a single
        lock-step matrix recurrence (phase counts padded inside
        :func:`repro.stats.phase_type.batch_weight_ladders`) and the
        Poisson mixing as one padded-window pass
        (:func:`repro.perf.cache.shared_ladder_sf_batch`).  Every term
        lands in the (group, price) memo, so the candidate scan and
        the trim loop read pure table lookups.
        """
        rows: list[tuple] = []
        spans: list[tuple[int, int, int]] = []
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
            spans.append((gi, lo, hi))
            rows.extend(self._rates_at(gi, p) for p in range(lo, hi + 1))
            self._warm_hi[gi] = hi
        if not rows:
            return
        sfs = shared_ladder_sf_batch(rows, self.deadline, warm=True)
        pos = 0
        for gi, lo, hi in spans:
            size = self.groups[gi].size
            for p in range(lo, hi + 1):
                member = 1.0 - float(sfs[pos])
                value = 0.0 if member <= 0.0 else member**size
                self._group_cdf[(gi, p)] = value
                self._log_term[(gi, p)] = _safe_log(value)
                pos += 1

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

        Memoized; bit-identical to the seed ``_group_cdf_at``.
        """
        key = (gi, int(price))
        hit = self._group_cdf.get(key)
        if hit is not None:
            return hit
        if price > self._warm_hi[gi]:
            self._warm(gi, int(price))
            hit = self._group_cdf.get(key)
            if hit is not None:
                return hit
        rates = self._rates_at(gi, int(price))
        member = 1.0 - float(shared_ladder_sf(rates, self._grid)[0])
        value = 0.0 if member <= 0.0 else member**self.groups[gi].size
        self._group_cdf[key] = value
        return value

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
        phases remain.  Matches the seed's ceiling product term for
        term (no early exit, same member-power guard).
        """
        if not self.include_processing:
            raise ModelError(
                "the processing ceiling is undefined when processing "
                "phases are excluded"
            )
        if self._ceiling is None:
            rows = [
                tuple([g.processing_rate] * g.repetitions)
                for g in self.groups
            ]
            # One mixing pass for all groups; the ladders themselves
            # build (once per sweep) inside the shared cache — mixed
            # repetition counts are fine, only the warm path needs
            # lock-step rows.
            sfs = shared_ladder_sf_batch(rows, self.deadline).tolist()
            ceiling = 1.0
            for g, sf in zip(self.groups, sfs):
                member = 1.0 - sf
                ceiling *= member**g.size if member > 0 else 0.0
            self._ceiling = ceiling
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

    The per-(group, deadline) sf terms go through a single
    :func:`~repro.perf.cache.shared_ladder_sf_batch` call (per-row
    times), and each deadline's product is accumulated exactly like
    :meth:`DeadlineKernel.processing_ceiling` — values are
    bit-identical to the per-kernel evaluation, which is what lets a
    sweep hand them to its kernels.
    """
    groups = tuple(groups)
    if not groups:
        raise ModelError("need at least one task group")
    deadlines = [float(d) for d in deadlines]
    rows = [
        tuple([g.processing_rate] * g.repetitions) for g in groups
    ]
    sfs = shared_ladder_sf_batch(
        rows * len(deadlines),
        np.repeat(np.asarray(deadlines, dtype=float), len(rows))
        if deadlines
        else 0.0,
    )
    ceilings: dict[float, float] = {}
    pos = 0
    for deadline in deadlines:
        ceiling = 1.0
        for g in groups:
            member = 1.0 - float(sfs[pos])
            ceiling *= member**g.size if member > 0 else 0.0
            pos += 1
        ceilings[deadline] = ceiling
    return ceilings


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
    profiles = []
    for g in groups:
        rates = [g.onhold_rate(int(group_prices[g.key]))] * g.repetitions
        if include_processing:
            rates += [g.processing_rate] * g.repetitions
        profiles.append((tuple(float(r) for r in rates), g.size))

    def completion(t_vec: np.ndarray) -> np.ndarray:
        # Product over groups in group order with the member-power
        # guard — the same accumulation the scalar path performs (its
        # early exit at 0.0 only skips multiplications by zero).  The
        # n-th power runs through python's float pow: numpy's
        # vectorized pow differs from libm in the last ulp, which
        # would break the bit-identity contract at knife-edge
        # midpoints; the vector is one midpoint per confidence, so the
        # python loop is negligible next to the sf kernel.
        prob = np.ones_like(t_vec)
        for rates, size in profiles:
            # One padded-window row per midpoint, each sized from its
            # own q·t — row i is bitwise shared_ladder_sf(rates, [t_i])[0].
            sf = shared_ladder_sf_batch([rates] * t_vec.size, t_vec)
            member = 1.0 - sf
            powered = np.fromiter(
                ((m**size if m > 0.0 else 0.0) for m in member.tolist()),
                dtype=float,
                count=member.size,
            )
            prob = prob * powered
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
