"""Tests for the process-level phase-kernel caches."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.errors import ModelError
from repro.perf.cache import (
    cached_hypoexponential_cdf,
    cached_hypoexponential_sf,
    cached_hypoexponential_sf_many,
    clear_phase_caches,
    configure_phase_cache,
    phase_cache_stats,
    survival_weights,
)
from repro.stats.phase_type import (
    WeightLadder,
    hypoexponential_cdf,
    hypoexponential_sf,
)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_phase_caches()
    yield
    clear_phase_caches()
    configure_phase_cache(max_sf_entries=2048)


class TestWeightLadder:
    def test_matches_one_shot_weights(self):
        rates = [3.0, 1.0, 1.0, 0.5]
        ladder = WeightLadder(rates)
        full = WeightLadder(rates).get(200)
        # Extending in three steps must give the same series bitwise.
        ladder.get(50)
        ladder.get(120)
        np.testing.assert_array_equal(ladder.get(200), full)
        assert ladder.n_computed == 200

    def test_weights_are_decreasing_probabilities(self):
        w = WeightLadder([2.0, 1.0]).get(100)
        assert w[0] == 1.0
        assert np.all(np.diff(w) <= 1e-15)
        assert np.all((w >= 0.0) & (w <= 1.0))

    def test_validation(self):
        with pytest.raises(ModelError):
            WeightLadder([])
        with pytest.raises(ModelError):
            WeightLadder([1.0, -2.0])


class TestCachedKernels:
    def test_sf_matches_uncached(self):
        rates = (2.0, 1.0, 4.0)
        grid = np.linspace(0.0, 12.0, 257)
        np.testing.assert_allclose(
            cached_hypoexponential_sf(rates, grid),
            np.asarray(hypoexponential_sf(rates, grid)),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            cached_hypoexponential_cdf(rates, grid),
            np.asarray(hypoexponential_cdf(rates, grid)),
            atol=1e-13,
        )

    def test_repeat_call_hits_cache(self):
        rates = (2.0, 1.0)
        grid = np.linspace(0.0, 8.0, 65)
        first = cached_hypoexponential_sf(rates, grid)
        stats0 = phase_cache_stats()
        second = cached_hypoexponential_sf(rates, grid)
        stats1 = phase_cache_stats()
        assert second is first  # memoized object, not a recompute
        assert stats1["sf_hits"] == stats0["sf_hits"] + 1

    def test_different_grid_same_rates_reuses_ladder(self):
        rates = (2.0, 1.0)
        cached_hypoexponential_sf(rates, np.linspace(0.0, 5.0, 64))
        stats0 = phase_cache_stats()
        cached_hypoexponential_sf(rates, np.linspace(0.0, 9.0, 128))
        stats1 = phase_cache_stats()
        assert stats1["sf_misses"] == stats0["sf_misses"] + 1
        assert stats1["ladder_hits"] == stats0["ladder_hits"] + 1

    def test_result_is_read_only(self):
        out = cached_hypoexponential_sf((1.0,), np.linspace(0.0, 4.0, 16))
        with pytest.raises(ValueError):
            out[0] = 0.5

    def test_lru_eviction(self):
        configure_phase_cache(max_sf_entries=2)
        grid = np.linspace(0.0, 4.0, 16)
        for r in (1.0, 2.0, 3.0):
            cached_hypoexponential_sf((r,), grid)
        assert phase_cache_stats()["sf_entries"] == 2
        with pytest.raises(ModelError):
            configure_phase_cache(max_sf_entries=0)

    def test_survival_weights_cached(self):
        a = survival_weights([2.0, 1.0], 50)
        b = survival_weights([2.0, 1.0], 120)
        np.testing.assert_array_equal(a, b[:50])
        np.testing.assert_array_equal(
            b, WeightLadder([2.0, 1.0]).get(120)
        )

    def test_clear_resets_everything(self):
        cached_hypoexponential_sf((1.0,), np.linspace(0.0, 4.0, 16))
        clear_phase_caches()
        stats = phase_cache_stats()
        assert stats["sf_entries"] == 0
        assert stats["ladder_entries"] == 0
        assert stats["sf_hits"] == 0


class TestSfMany:
    GRID = np.linspace(0.0, 30.0, 1025)
    # Two disjoint sets, each mixing profiles that share q with ones
    # that do not.
    SET_A = [(3.0, 1.0), (3.0, 0.5, 0.5), (2.0,), (3.0, 3.0, 1.0)]
    SET_B = [(4.0, 1.0), (4.0, 4.0), (0.8, 0.8), (1.5, 4.0, 0.2)]

    def test_rows_match_single_profile_calls(self):
        many = cached_hypoexponential_sf_many(self.SET_A, self.GRID)
        clear_phase_caches()
        for rates, row in zip(self.SET_A, many):
            single = cached_hypoexponential_sf(rates, self.GRID)
            assert row.tobytes() == single.tobytes()
            assert not row.flags.writeable

    def test_counters_count_once_per_profile(self):
        cached_hypoexponential_sf(self.SET_A[0], self.GRID)
        before = phase_cache_stats()
        profiles = self.SET_A + [self.SET_A[1]]
        rows = cached_hypoexponential_sf_many(profiles, self.GRID)
        after = phase_cache_stats()
        # SET_A[0] was cached; SET_A[1] repeats, so it is a hit the
        # second time, served by the same array as its first row.
        assert after["sf_hits"] - before["sf_hits"] == 2
        assert after["sf_misses"] - before["sf_misses"] == 3
        assert after["ladder_misses"] - before["ladder_misses"] == 3
        assert rows[-1] is rows[1]
        assert rows[0] is cached_hypoexponential_sf(self.SET_A[0], self.GRID)

    def test_two_threads_match_sequential(self):
        seq_a = cached_hypoexponential_sf_many(self.SET_A, self.GRID)
        seq_b = cached_hypoexponential_sf_many(self.SET_B, self.GRID)
        seq_stats = phase_cache_stats()
        clear_phase_caches()

        results: dict = {}
        barrier = threading.Barrier(2)

        def worker(name, profiles):
            barrier.wait()
            results[name] = cached_hypoexponential_sf_many(profiles, self.GRID)

        threads = [
            threading.Thread(target=worker, args=("a", self.SET_A)),
            threading.Thread(target=worker, args=("b", self.SET_B)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for seq, par in ((seq_a, results["a"]), (seq_b, results["b"])):
            assert [r.tobytes() for r in par] == [r.tobytes() for r in seq]
        assert phase_cache_stats() == seq_stats

    def test_stress_shared_ladders_across_threads(self):
        """More threads than cores extend the same ladders on grids of
        different widths while others mix unlocked: every row must be
        the uncached kernel's bytes, and no counter update is lost."""
        profiles = self.SET_A + self.SET_B
        grids = [np.linspace(0.0, top, 257) for top in (5.0, 20.0, 60.0)]
        expected = {
            (k, i): hypoexponential_sf(rates, grid).tobytes()
            for k, grid in enumerate(grids)
            for i, rates in enumerate(profiles)
        }
        n_threads, rounds = 6, 4
        failures: list = []

        def worker(offset):
            try:
                for r in range(rounds):
                    k = (offset + r) % len(grids)
                    order = profiles[offset:] + profiles[:offset]
                    rows = cached_hypoexponential_sf_many(order, grids[k])
                    for j, row in enumerate(rows):
                        i = (offset + j) % len(profiles)
                        if row.tobytes() != expected[(k, i)]:
                            failures.append((offset, r, i))
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        clear_phase_caches()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(t,))
                for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        stats = phase_cache_stats()
        requested = n_threads * rounds * len(profiles)
        assert stats["sf_hits"] + stats["sf_misses"] == requested
        assert stats["ladder_entries"] == len(profiles)
