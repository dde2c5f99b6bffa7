"""Process-level memo caches for phase-type latency kernels.

The paper's sweeps (Fig. 2 budget curves, Pareto fronts, exhaustive
reference searches) evaluate :func:`repro.core.latency.expected_job_latency`
thousands of times, and most of those evaluations share work at two
levels:

* **Uniformization weights** depend only on the *rate profile* — not on
  the evaluation grid.  One :class:`~repro.stats.phase_type.WeightLadder`
  per profile, extended in place as wider grids appear, removes the
  dominant O(n_terms · n_phases) recurrence from every repeat call.
* **Full cdf arrays** depend on (rate profile, grid).  Sweeps that
  re-score the same allocation (Pareto fronts, repeated budgets,
  :func:`repro.perf.batch.evaluate_allocations` with a shared grid) hit
  this second layer and skip the kernel entirely.

Both caches are process-global, bounded LRU, and safe to clear at any
time (:func:`clear_phase_caches`); entries are returned as read-only
arrays so a hit can never be corrupted by a caller.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from threading import Lock
from typing import Sequence

import numpy as np

from ..errors import ModelError
from ..stats.phase_type import (
    WeightLadder,
    _sf_from_weights,
    _sf_rows_at,
    _sf_terms,
    batch_weight_ladders,
)

__all__ = [
    "cached_hypoexponential_sf",
    "cached_hypoexponential_sf_many",
    "cached_hypoexponential_cdf",
    "shared_ladder_sf_batch",
    "survival_weights",
    "phase_cache_stats",
    "clear_phase_caches",
    "configure_phase_cache",
    "export_ladder_state",
    "warm_ladders",
]

_lock = Lock()
# A pool worker forked while another thread holds the lock would start
# with it held and deadlock on its first cache access: hold it across
# the fork, then release it on both sides.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_lock.acquire,
        after_in_parent=_lock.release,
        after_in_child=_lock.release,
    )

#: rate profile -> WeightLadder (unbounded: one small entry per profile)
_ladders: "OrderedDict[tuple, WeightLadder]" = OrderedDict()

#: (rate profile, grid signature) -> sf array (bounded LRU)
_sf_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()

_max_sf_entries = 2048
_max_ladders = 65536

_stats = {"sf_hits": 0, "sf_misses": 0, "ladder_hits": 0, "ladder_misses": 0}


def _rates_key(rates: Sequence[float]) -> tuple:
    if type(rates) is tuple:
        # Fast path for pre-normalized profiles (the deadline sweep
        # tables).  Tuples of np.float64 are fine too: they hash and
        # compare equal to the float tuples they mirror.
        key = rates
    else:
        key = tuple(float(r) for r in rates)
    if not key:
        raise ModelError("need at least one phase rate")
    return key


def _grid_key(grid: np.ndarray) -> tuple:
    # tobytes() makes the key exact for arbitrary grids; the (len,
    # first, last) prefix keeps hash collisions between similar
    # linspace grids from costing full-byte comparisons.
    return (grid.shape[0], float(grid[0]), float(grid[-1]), grid.tobytes())


def _ladder_for(key: tuple) -> WeightLadder:
    ladder = _ladders.get(key)
    if ladder is None:
        _stats["ladder_misses"] += 1
        ladder = WeightLadder(key)
        _ladders[key] = ladder
        while len(_ladders) > _max_ladders:
            _ladders.popitem(last=False)
    else:
        _stats["ladder_hits"] += 1
        _ladders.move_to_end(key)
    return ladder


def survival_weights(rates: Sequence[float], n_terms: int) -> np.ndarray:
    """Cached uniformization weights ``w_0 .. w_{n_terms-1}``.

    Keyed by the rate profile alone, so the same profile evaluated on
    ever-wider grids keeps extending one ladder instead of recomputing
    it from scratch.
    """
    with _lock:
        return _ladder_for(_rates_key(rates)).get(n_terms)


def cached_hypoexponential_sf(rates: Sequence[float], grid: np.ndarray) -> np.ndarray:
    """Memoized ``P(Σ Exp(rates_i) > t)`` on *grid* (read-only array)."""
    return cached_hypoexponential_sf_many([rates], grid)[0]


def cached_hypoexponential_sf_many(
    profiles: Sequence[Sequence[float]], grid: np.ndarray
) -> list[np.ndarray]:
    """Memoized sf of every rate profile in *profiles* on one *grid*.

    Hits are served from the LRU; the misses are computed together, so
    misses sharing a uniformization rate ``q`` share one set of
    Poisson mixing blocks (:func:`~repro.stats.phase_type._sf_from_weights`).
    Counters move once per profile, as for one
    :func:`cached_hypoexponential_sf` call each: a profile repeated in
    *profiles* counts as a hit after its first occurrence.

    The lock covers the LRU and the ladder lookups/extensions only.
    The mixing runs unlocked: it reads the weight arrays fetched under
    the lock, and a ladder extension never writes an array it has
    handed out (it allocates a longer one).
    """
    grid = np.asarray(grid, dtype=float)
    gkey = _grid_key(grid)
    keys = [(_rates_key(rates), gkey) for rates in profiles]
    out: list = [None] * len(keys)
    misses: dict[tuple, list[int]] = {}
    with _lock:
        for pos, key in enumerate(keys):
            if key in misses:
                _stats["sf_hits"] += 1
                misses[key].append(pos)
                continue
            hit = _sf_cache.get(key)
            if hit is not None:
                _stats["sf_hits"] += 1
                _sf_cache.move_to_end(key)
                out[pos] = hit
            else:
                _stats["sf_misses"] += 1
                misses[key] = [pos]
        if not misses:
            return out
        ladders = [_ladder_for(key[0]) for key in misses]
        weights = [ladder.get(_sf_terms(ladder.q, grid)) for ladder in ladders]
    rows = _sf_from_weights([ladder.q for ladder in ladders], weights, grid)
    with _lock:
        for (key, positions), sf in zip(misses.items(), rows):
            sf.flags.writeable = False
            _sf_cache[key] = sf
            for pos in positions:
                out[pos] = sf
        while len(_sf_cache) > _max_sf_entries:
            _sf_cache.popitem(last=False)
    return out


def cached_hypoexponential_cdf(rates: Sequence[float], grid: np.ndarray) -> np.ndarray:
    """Memoized cdf on *grid*; complements :func:`cached_hypoexponential_sf`."""
    return 1.0 - cached_hypoexponential_sf(rates, grid)


def _install_ladders(needs: dict) -> int:
    """Batch-build the ladders *needs* asks for, install them, trim the
    table (lock held); returns how many were built.

    *needs* maps a rate profile to the number of terms its ladder must
    hold; a profile whose installed ladder already holds that many is
    left untouched.  A too-short ladder is rebuilt rather than
    extended: the recurrence is deterministic in (profile, n_terms),
    so the rebuild's prefix is bitwise the ladder it replaces, and one
    lock-step rebuild (:func:`~repro.stats.phase_type.batch_weight_ladders`)
    beats the per-term scalar extension it avoids.
    """
    build = []
    for key, need in needs.items():
        ladder = _ladders.get(key)
        if ladder is None or ladder.n_computed < need:
            build.append(key)
    if not build:
        return 0
    n_terms = max(needs[key] for key in build)
    for key, ladder in zip(build, batch_weight_ladders(build, n_terms)):
        _stats["ladder_misses"] += 1
        _ladders[key] = ladder
    while len(_ladders) > _max_ladders:
        _ladders.popitem(last=False)
    return len(build)


def shared_ladder_sf_batch(
    profiles: Sequence[Sequence[float]],
    t,
    warm: bool = False,
) -> np.ndarray:
    """sf of many (profile, time) rows through the shared ladders.

    One padded-window pass (:func:`repro.stats.phase_type._sf_rows_at`)
    for every row; row *i* is bit-identical to the one-shot
    :func:`~repro.stats.phase_type.hypoexponential_sf` of
    ``profiles[i]`` at ``t_i``.  The deadline kernels probe profiles at
    thousands of *distinct* times that never repeat, so this path
    shares the weight ladders — the dominant per-probe cost — and
    skips the grid LRU, whose entries such probes would only evict.
    *t* is a scalar shared by all rows or an array with one entry per
    profile (a deadline sweep's ceiling terms batch the whole grid
    this way).

    ``warm=True`` batch-builds missing (or too-short) ladders first in
    one lock-step recurrence — how the deadline kernels fill whole
    candidate-price blocks with one lock acquisition and one key pass.
    Each ladder's requirement is sized from its **own** ``q·t`` (the
    same bound the sf evaluation will request), so a ladder already
    long enough for this *t* is never rebuilt just because it shares a
    batch with a hotter profile.
    """
    from ..stats.phase_type import _mix_terms

    keys = [_rates_key(p) for p in profiles]
    t_arr = np.broadcast_to(np.asarray(t, dtype=float), (len(keys),))
    with _lock:
        if warm:
            needs: dict[tuple, int] = {}
            for key, t_i in zip(keys, t_arr.tolist()):
                if t_i <= 0:
                    continue
                need = _mix_terms(max(key) * t_i) + 1
                if needs.get(key, 0) < need:
                    needs[key] = need
            _install_ladders(needs)
        ladders = [_ladder_for(k) for k in keys]
        return _sf_rows_at(ladders, t_arr)


def phase_cache_stats() -> dict:
    """Counters + sizes of the process-level phase-kernel caches."""
    with _lock:
        return {
            **_stats,
            "sf_entries": len(_sf_cache),
            "ladder_entries": len(_ladders),
            "max_sf_entries": _max_sf_entries,
        }


def clear_phase_caches() -> None:
    """Drop all cached kernels and reset the hit/miss counters."""
    with _lock:
        _ladders.clear()
        _sf_cache.clear()
        for k in _stats:
            _stats[k] = 0


def export_ladder_state(limit: int | None = 256) -> list:
    """JSON-able snapshot of the warm weight ladders, most recent last.

    Each entry is ``[rate profile, n_computed]`` — everything needed to
    rebuild the ladder bit-identically elsewhere (the recurrence is
    deterministic).  ``limit`` keeps the snapshot wire-friendly by
    dropping the least recently used profiles first; ``None`` exports
    everything.  This is what the process executor ships to freshly
    spawned pool workers so small batches don't pay per-worker cold
    ladder builds (see :meth:`repro.exec.ProcessExecutor`).
    """
    with _lock:
        entries = [
            [[float(r) for r in key], int(ladder.n_computed)]
            for key, ladder in _ladders.items()
        ]
    if limit is not None and len(entries) > limit:
        entries = entries[-int(limit):]
    return entries


def warm_ladders(state) -> int:
    """Rebuild the ladders described by an :func:`export_ladder_state`
    snapshot; returns how many were built.

    The inverse half of the warm-up handshake, run inside a pool
    worker.  Tolerant of malformed entries (a bad snapshot must never
    kill a worker — it just stays cold for that profile); ladders
    already at least as long as requested are left untouched.  Rebuilt
    ladders are bitwise what the exporting process holds: the
    uniformization recurrence is deterministic in (profile, n_terms).
    """
    needs: dict[tuple, int] = {}
    for entry in state or ():
        try:
            rates, n_computed = entry
            key = tuple(float(r) for r in rates)
            need = int(n_computed)
        except (TypeError, ValueError):
            continue
        if not key or need < 1:
            continue
        if needs.get(key, 0) < need:
            needs[key] = need
    with _lock:
        return _install_ladders(needs)


def configure_phase_cache(max_sf_entries: int | None = None) -> None:
    """Resize the cdf LRU (each entry holds one grid-sized float array)."""
    global _max_sf_entries
    if max_sf_entries is not None:
        if max_sf_entries < 1:
            raise ModelError(
                f"max_sf_entries must be >= 1, got {max_sf_entries}"
            )
        with _lock:
            _max_sf_entries = int(max_sf_entries)
            while len(_sf_cache) > _max_sf_entries:
                _sf_cache.popitem(last=False)
