"""Exact cdf of sums of independent exponential phases (phase-type).

A task's full latency is a chain of exponential phases (one on-hold +
one processing phase per repetition).  Its distribution is a
hypoexponential / phase-type law; the textbook closed form (partial
fractions) is numerically catastrophic for repeated or nearly-equal
rates, so we evaluate the cdf by **uniformization** instead:

    S(t) = P(chain not absorbed by t)
         = Σ_{n>=0} e^{-qt} (qt)^n / n! · w_n

where ``q = max rate`` and ``w_n`` is the probability that the
discrete uniformized chain has not been absorbed after ``n`` steps.
The series is truncated when the Poisson tail is below ``tol``;
every term is non-negative, so there is no cancellation and the result
is accurate to the truncation tolerance for *any* rate multiset.

Two performance-relevant pieces are factored out so the batch engine
(:mod:`repro.perf.cache`) can reuse and memoize them:

* :class:`WeightLadder` — the ``w_n`` series for one rate profile,
  extensible in place (a longer grid only computes the *new* terms);
* :func:`_poisson_mix_windows` — the ``E[w_N], N ~ Poisson(qt)``
  accumulation, vectorized over all grid points in chunked windows
  instead of one python iteration per point.  Its Poisson blocks
  depend on ``q·t`` alone, so every profile sharing a grid and a
  uniformization rate ``q`` is mixed from one set of blocks
  (:func:`_sf_from_ladders`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import ModelError

__all__ = [
    "WeightLadder",
    "batch_weight_ladders",
    "hypoexponential_cdf",
    "hypoexponential_sf",
    "hypoexponential_mean",
]

#: Upper bound on the element count of one window matrix in
#: :func:`_poisson_mix_windows` (float64 → ~32 MB per temporary).
_MIX_CHUNK_ELEMENTS = 4_000_000

#: The truncation tolerance the historical window constants (12σ half
#: width, +30/+25 slack) were sized for.
_DEFAULT_TOL = 1e-12


def _tail_width(tol: float) -> float:
    """Poisson-window half-width multiplier for truncation tolerance *tol*.

    The historical bound used a fixed ``12·√(qt+1)`` half-width, sized
    for the ``1e-12`` default; the window grows ~√log(1/tol), so the
    multiplier scales as ``12·√(log₁₀(1/tol)/12)``.  At the default the
    scale is **exactly** 1.0 (``-log10(1e-12)`` evaluates to 12.0 in
    IEEE double), keeping default results bit-identical to the
    historical constants.
    """
    if not 0.0 < tol < 1.0:
        raise ModelError(f"tol must be in (0, 1), got {tol}")
    return 12.0 * math.sqrt(max(-math.log10(tol), 1.0) / 12.0)


def _mix_terms(qt_max: float, tol: float = _DEFAULT_TOL) -> int:
    """Terms so the Poisson(qt_max) tail beyond the bound is < *tol*.

    Shared by :func:`_sf_from_ladder` and the deadline kernels' batch
    ladder warming, so both size ladders from the same formula.
    """
    return int(qt_max + _tail_width(tol) * math.sqrt(qt_max + 1.0) + 30.0)


class WeightLadder:
    """``w_n`` — non-absorption probabilities of one uniformized chain.

    State j = "currently in phase j" (0-based); absorption = all phases
    done.  One uniformized step moves phase j forward with probability
    ``rates[j]/q`` and stays put otherwise.  The recurrence is kept
    incremental: :meth:`get` extends the cached series in place, so a
    caller that later needs more terms (a wider grid, a larger ``qt``)
    only pays for the new ones.
    """

    def __init__(self, rates: Sequence[float], q: float | None = None) -> None:
        rates = [float(r) for r in rates]
        if not rates:
            raise ModelError("need at least one phase rate")
        if any(not math.isfinite(r) or r <= 0 for r in rates):
            raise ModelError(f"all rates must be positive and finite, got {rates}")
        self.q = float(q) if q is not None else max(rates)
        move = np.asarray(rates, dtype=float) / self.q
        self._move = move
        self._stay = 1.0 - move
        v = np.zeros(len(rates))
        v[0] = 1.0
        self._v = v
        self._w = np.empty(0)

    def get(self, n_terms: int) -> np.ndarray:
        """First *n_terms* weights ``w_0 .. w_{n_terms-1}`` (read-only view)."""
        done = len(self._w)
        if n_terms > done:
            w = np.empty(n_terms)
            w[:done] = self._w
            v, stay, move = self._v, self._stay, self._move
            for n in range(done, n_terms):
                w[n] = v.sum()
                nxt = v * stay
                nxt[1:] += v[:-1] * move[:-1]
                # mass v[m-1]*move[m-1] flows to absorption and is dropped
                v = nxt
            self._v = v
            self._w = w
        out = self._w[:n_terms]
        out.flags.writeable = False
        return out

    @property
    def n_computed(self) -> int:
        return len(self._w)


def _survival_weights(rates: Sequence[float], q: float, n_terms: int) -> np.ndarray:
    """One-shot ``w_n`` series (kept for tests / reference callers)."""
    return WeightLadder(rates, q).get(n_terms)


def batch_weight_ladders(
    rate_rows: Sequence[Sequence[float]], n_terms: int
) -> list[WeightLadder]:
    """Many profiles' weight ladders from one vectorized recurrence.

    The recurrence advances every row in lock-step as
    ``(n_rows, n_phases)`` matrix ops, so the python-level iteration
    count is ``n_terms`` instead of ``n_rows · n_terms``.  Rows with
    fewer phases are padded to the widest row with extra phases at the
    row's own uniformization rate ``q``: flow is strictly forward, so
    the padded tail receives mass but never feeds back — the real
    phases evolve bitwise as in the unpadded recurrence, and each
    row's weights/state are read from its real-phase prefix only.

    Each returned :class:`WeightLadder` is pre-filled with *n_terms*
    terms **bit-identical** to what its own scalar :meth:`get` would
    compute — the per-row ops are the same IEEE operations and numpy's
    last-axis reduction matches the 1-D ``v.sum()`` association — and
    carries the exact recurrence state, so later extension to more
    terms continues the same series.
    """
    if n_terms < 0:
        raise ModelError(f"n_terms must be >= 0, got {n_terms}")
    ladders = [WeightLadder(row) for row in rate_rows]
    if not ladders:
        return ladders
    widths = [len(ladder._move) for ladder in ladders]
    m_max = max(widths)
    q = np.array([ladder.q for ladder in ladders])
    rates = np.repeat(q[:, None], m_max, axis=1)
    for i, row in enumerate(rate_rows):
        rates[i, : widths[i]] = [float(r) for r in row]
    move = rates / q[:, None]
    stay = 1.0 - move
    move_head = move[:, :-1].copy()
    # All recurrence states are stacked and summed once at the end:
    # the last-axis reduction of the stack is bitwise the per-step
    # ``v.sum()``, and the loop body shrinks to three out= ufunc calls
    # on views hoisted out of the loop.
    states = np.empty((n_terms + 1, len(ladders), m_max))
    states[0] = 0.0
    states[0, :, 0] = 1.0
    rows = list(states)
    heads = [r[:, :-1] for r in rows]
    tails = [r[:, 1:] for r in rows]
    flow = np.empty_like(move_head)
    for n in range(n_terms):
        nxt = rows[n + 1]
        np.multiply(rows[n], stay, out=nxt)
        np.multiply(heads[n], move_head, out=flow)
        np.add(tails[n + 1], flow, out=tails[n + 1])
    for i, ladder in enumerate(ladders):
        m = widths[i]
        if n_terms:
            ladder._w = states[:n_terms, i, :m].sum(axis=1)
        else:
            ladder._w = np.empty(0)
        ladder._v = states[n_terms, i, :m].copy()
    return ladders


#: First lookahead of the chunk planner; grown 4× until a chunk closes.
_PLAN_LOOKAHEAD = 64


def _mix_chunks(lo: np.ndarray, hi: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Greedy chunks ``(start, stop, lo_u, hi_u)`` of consecutive points.

    A chunk grows point by point while its *union* window
    ``[lo_u, hi_u]`` stays within 2× the joining point's own window
    (else a wide-qt chunk pads every row to the full span) and the
    chunk matrix within :data:`_MIX_CHUNK_ELEMENTS`.  The first point
    always joins.  Each chunk's close is found in numpy: running
    ``minimum``/``maximum`` of the windows from the chunk start, then
    the first point violating either cap.  A chunk of width ``w`` at
    its start cannot hold more than ``_MIX_CHUNK_ELEMENTS // w`` rows,
    so the scan never looks further than that; it starts short and
    widens, so a scrambled grid's one-point chunks stay cheap.
    """
    n_points = len(lo)
    width = hi - lo + 1
    chunks = []
    i = 0
    while i < n_points:
        limit = min(n_points, i + _MIX_CHUNK_ELEMENTS // int(width[i]) + 1)
        stop = min(limit, i + _PLAN_LOOKAHEAD)
        while True:
            lo_run = np.minimum.accumulate(lo[i:stop])
            hi_run = np.maximum.accumulate(hi[i:stop])
            union = hi_run - lo_run + 1
            rows = np.arange(1, stop - i + 1)
            over = (union > 2 * width[i:stop]) | (
                union * rows > _MIX_CHUNK_ELEMENTS
            )
            over[0] = False
            k = int(over.argmax())
            if over[k]:
                break
            if stop == limit:
                k = stop - i
                break
            stop = min(limit, i + 4 * (stop - i))
        chunks.append((i, i + k, int(lo_run[k - 1]), int(hi_run[k - 1])))
        i += k
    return chunks


def _poisson_blocks(qt: np.ndarray, n_terms: int, tol: float = _DEFAULT_TOL):
    """Yield ``(points, lo_u, hi_u, pmf)`` — the Poisson mixing blocks.

    ``pmf[r, c]`` is ``pois(lo_u + c; qt[points][r])`` over the chunk's
    union window (see :func:`_mix_chunks`), built in log space: the
    Poisson mass concentrates in ``qt ± O(√qt)``, and accumulating only
    that window avoids the ``exp(-qt)`` underflow of the naive
    recurrence.  Terms a point gains beyond its own window only *add*
    Poisson mass below the truncation tolerance.  A block depends on
    ``qt``, ``n_terms`` and *tol* alone, so every weight series mixed on
    the same ``qt`` shares it.
    """
    from scipy.special import gammaln

    half = (_tail_width(tol) * np.sqrt(qt + 1.0) + 25.0).astype(np.int64)
    base = qt.astype(np.int64)
    lo = np.maximum(0, base - half)
    hi = np.minimum(n_terms, base + half)
    log_qt = np.log(qt)
    for start, stop, lo_u, hi_u in _mix_chunks(lo, hi):
        points = slice(start, stop)
        ns = np.arange(lo_u, hi_u + 1, dtype=float)
        log_fact = gammaln(ns + 1.0)
        log_pmf = np.multiply.outer(log_qt[points], ns)
        log_pmf -= qt[points, None]
        log_pmf -= log_fact[None, :]
        np.exp(log_pmf, out=log_pmf)
        yield points, lo_u, hi_u, log_pmf


def _poisson_mix_windows(
    qt: np.ndarray, weights: Sequence[np.ndarray], tol: float = _DEFAULT_TOL
) -> np.ndarray:
    """``Σ_n pois(n; qt_i)·w_n = E[w_N], N ~ Poisson(qt_i)`` per point,
    one row per weight series in *weights* (all of one length).

    The window half-width scales with *tol* (see :func:`_tail_width`);
    the 1e-12 default reproduces the historical constants exactly.
    Each block is built once and mixed into every row with one
    matrix-vector product, so extra series sharing ``qt`` cost a matvec
    per block, not a block build.
    """
    qt = np.asarray(qt, dtype=float)
    acc = np.empty((len(weights), len(qt)))
    n_terms = len(weights[0]) - 1
    for points, lo_u, hi_u, pmf in _poisson_blocks(qt, n_terms, tol):
        for row, w in zip(acc, weights):
            row[points] = pmf @ w[lo_u : hi_u + 1]
    return acc


def _sf_rows_at(
    ladders: Sequence[WeightLadder], t, tol: float = _DEFAULT_TOL
) -> np.ndarray:
    """sf of many (rate profile, time) rows, one padded pass.

    *t* is a scalar shared by every row or an array with one entry per
    row (a deadline sweep batches every grid point's
    processing-ceiling term this way).  Row *i* is **bit-identical**
    to ``_sf_from_ladder(ladders[i], np.array([t_i]))[0]``: the
    per-row window bounds use the same formulas, the log-pmf
    construction applies the same elementwise operation sequence, and
    the final accumulation is the same ``(1, W) @ w`` product per row.
    The batching only amortizes the python/ufunc dispatch over rows —
    the deadline kernels use it to fill a whole block of candidate
    prices' completion terms per call.
    """
    from scipy.special import gammaln

    n_rows = len(ladders)
    out = np.ones(n_rows)
    t_arr = np.broadcast_to(
        np.asarray(t, dtype=float), (n_rows,)
    )
    if np.isnan(t_arr).any():
        raise ModelError("sf evaluation time must not be NaN")
    qs = np.array([ladder.q for ladder in ladders])
    qt_all = qs * t_arr
    # An infinite t has sf exactly 0 (every phase has completed) and
    # cannot size a Poisson window.
    infinite = qt_all == np.inf
    out[infinite] = 0.0
    # A negative t has sf exactly 1 and a zero qt cannot enter the
    # log-space mixing — both match the scalar kernel's guards.
    idx = np.nonzero((qt_all > 0) & ~infinite)[0]
    if idx.size == 0:
        return out

    width = _tail_width(tol)
    qt = qt_all[idx]
    n_terms = (qt + width * np.sqrt(qt + 1.0) + 30.0).astype(np.int64)
    half = (width * np.sqrt(qt + 1.0) + 25.0).astype(np.int64)
    base = qt.astype(np.int64)
    lo = np.maximum(0, base - half)
    hi = np.minimum(n_terms, base + half)
    weights = [
        ladders[int(i)].get(int(n) + 1) for i, n in zip(idx, n_terms)
    ]
    span = int((hi - lo).max()) + 1
    ns = (lo[:, None] + np.arange(span)[None, :]).astype(float)
    # gammaln over the union range once, gathered per row: the gathered
    # values are bitwise the per-row gammaln(ns + 1.0) (same float
    # inputs), at a fraction of the transcendental calls.
    lo_min = int(lo.min())
    union = np.arange(lo_min, int((lo + span - 1).max()) + 1, dtype=float)
    log_fact_union = gammaln(union + 1.0)
    log_fact = log_fact_union[
        (lo - lo_min)[:, None] + np.arange(span)[None, :]
    ]
    log_pmf = np.log(qt)[:, None] * ns
    log_pmf -= qt[:, None]
    log_pmf -= log_fact
    np.exp(log_pmf, out=log_pmf)
    acc = np.empty(idx.size)
    for r in range(idx.size):
        w = int(hi[r] - lo[r]) + 1
        acc[r] = (log_pmf[r : r + 1, :w] @ weights[r][lo[r] : hi[r] + 1])[0]
    out[idx] = np.clip(acc, 0.0, 1.0)
    return out


def hypoexponential_sf(rates: Sequence[float], t, tol: float = _DEFAULT_TOL):
    """Survival function ``P(Σ Exp(rates_i) > t)`` by uniformization.

    Parameters
    ----------
    rates:
        Positive phase rates (any multiplicities).
    t:
        Scalar or array of evaluation times.
    tol:
        Poisson-tail truncation tolerance: both the ``n_terms``
        truncation of the weight series and the per-point mixing
        windows are sized so the neglected Poisson mass is below
        *tol*.  The 1e-12 default is bit-identical to the historical
        fixed bound.
    """
    ladder = WeightLadder(rates)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = _sf_from_ladder(ladder, t_arr, tol=tol)
    return out if np.ndim(t) else float(out[0])


def _sf_terms(q: float, t_arr: np.ndarray, tol: float = _DEFAULT_TOL) -> int:
    """Weights a ladder of uniformization rate *q* must supply for the
    sf on *t_arr* (0 when no point needs mixing)."""
    # Guard the q·t product, not t alone: a subnormal t can underflow
    # to q·t == 0, which the log-space accumulation cannot represent
    # (sf is exactly 1 there anyway, as it is for t < 0).
    qt = q * t_arr
    qt = qt[qt > 0]
    if not qt.size:
        return 0
    return _mix_terms(float(qt.max()), tol) + 1


def _sf_from_weights(
    qs: Sequence[float],
    weights: Sequence[np.ndarray],
    t_arr: np.ndarray,
    tol: float = _DEFAULT_TOL,
) -> list[np.ndarray]:
    """sf rows on *t_arr* from each profile's rate ``qs[i]`` and its
    weight series ``weights[i]`` (``_sf_terms(qs[i], t_arr)`` terms).

    Profiles sharing ``q`` share ``q·t``, so they are mixed in one
    :func:`_poisson_mix_windows` pass: one set of Poisson blocks, one
    matvec per profile and block.  Reads the weight arrays only, so
    it needs no lock around ladders a caller extends elsewhere.
    """
    out = [np.ones_like(t_arr) for _ in qs]
    by_q: dict[float, list[int]] = {}
    for row, q in enumerate(qs):
        by_q.setdefault(q, []).append(row)
    for q, rows in by_q.items():
        qt = q * t_arr
        positive = qt > 0
        if not np.any(positive):
            continue
        acc = _poisson_mix_windows(
            qt[positive], [weights[row] for row in rows], tol=tol
        )
        for row, mixed in zip(rows, acc):
            out[row][positive] = np.clip(mixed, 0.0, 1.0)
    return out


def _sf_from_ladders(
    ladders: Sequence[WeightLadder],
    t_arr: np.ndarray,
    tol: float = _DEFAULT_TOL,
) -> list[np.ndarray]:
    """Shared sf kernel: every rate profile's sf on *t_arr*, one
    uniformization pass per distinct ``q`` (see :func:`_sf_from_weights`).

    :mod:`repro.perf.cache` runs the same computation in its two
    halves: the ladder extension under its lock, the mixing outside.
    """
    weights = [ladder.get(_sf_terms(ladder.q, t_arr, tol)) for ladder in ladders]
    return _sf_from_weights(
        [ladder.q for ladder in ladders], weights, t_arr, tol=tol
    )


def _sf_from_ladder(
    ladder: WeightLadder, t_arr: np.ndarray, tol: float = _DEFAULT_TOL
) -> np.ndarray:
    """One rate profile's sf on *t_arr* (:func:`_sf_from_ladders` of one)."""
    return _sf_from_ladders([ladder], t_arr, tol=tol)[0]


def hypoexponential_cdf(rates: Sequence[float], t, tol: float = _DEFAULT_TOL):
    """cdf ``P(Σ Exp(rates_i) <= t)``; see :func:`hypoexponential_sf`."""
    sf = hypoexponential_sf(rates, t, tol=tol)
    return 1.0 - sf


def hypoexponential_mean(rates: Sequence[float]) -> float:
    """``E[Σ Exp(rates_i)] = Σ 1/rates_i`` (exact)."""
    rates = [float(r) for r in rates]
    if not rates:
        raise ModelError("need at least one phase rate")
    if any(r <= 0 for r in rates):
        raise ModelError(f"all rates must be positive, got {rates}")
    return sum(1.0 / r for r in rates)
