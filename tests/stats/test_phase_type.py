"""Unit tests for repro.stats.phase_type (uniformization cdf)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.perf.reference import reference_poisson_mix_windows
from repro.stats import (
    Erlang,
    Exponential,
    Hypoexponential,
    hypoexponential_cdf,
    hypoexponential_mean,
    hypoexponential_sf,
)
from repro.stats import phase_type
from repro.stats.phase_type import (
    WeightLadder,
    _mix_chunks,
    _mix_terms,
    _poisson_mix_windows,
    _sf_from_ladder,
    _sf_from_ladders,
    _sf_rows_at,
    batch_weight_ladders,
)


class TestHypoexponentialCdf:
    def test_single_phase_is_exponential(self):
        t = np.linspace(0, 8, 30)
        np.testing.assert_allclose(
            hypoexponential_cdf([2.0], t),
            np.asarray(Exponential(2.0).cdf(t)),
            atol=1e-10,
        )

    def test_equal_rates_are_erlang(self):
        t = np.linspace(0, 15, 40)
        np.testing.assert_allclose(
            hypoexponential_cdf([1.5] * 4, t),
            np.asarray(Erlang(4, 1.5).cdf(t)),
            atol=1e-10,
        )

    def test_two_distinct_rates_match_closed_form(self):
        t = np.linspace(0, 10, 40)
        np.testing.assert_allclose(
            hypoexponential_cdf([3.0, 1.0], t),
            np.asarray(Hypoexponential(3.0, 1.0).cdf(t)),
            atol=1e-10,
        )

    def test_mixed_multiplicities_mean(self):
        # E from the cdf must equal Σ 1/rate
        rates = [6.0] * 5 + [2.0] * 5
        grid = np.linspace(0, 60, 6000)
        sf = hypoexponential_sf(rates, grid)
        mean = float(np.trapezoid(sf, grid))
        assert mean == pytest.approx(hypoexponential_mean(rates), rel=1e-4)

    def test_order_invariance(self):
        t = np.linspace(0, 10, 25)
        a = hypoexponential_cdf([1.0, 3.0, 2.0], t)
        b = hypoexponential_cdf([3.0, 2.0, 1.0], t)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_monotone_nondecreasing(self):
        t = np.linspace(0, 30, 500)
        cdf = np.asarray(hypoexponential_cdf([0.5, 2.0, 1.0, 1.0], t))
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_bounds(self):
        t = np.linspace(0, 100, 200)
        cdf = np.asarray(hypoexponential_cdf([1.0, 2.0], t))
        assert np.all(cdf >= 0.0)
        assert np.all(cdf <= 1.0)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-8)

    def test_negative_and_zero_time(self):
        assert hypoexponential_sf([1.0, 2.0], -1.0) == 1.0
        assert hypoexponential_cdf([1.0, 2.0], 0.0) == 0.0

    def test_scalar_in_scalar_out(self):
        out = hypoexponential_cdf([1.0, 2.0], 1.5)
        assert isinstance(out, float)

    def test_monte_carlo_agreement(self, rng):
        rates = [4.0, 4.0, 1.0, 0.7]
        draws = sum(rng.exponential(1 / r, size=200_000) for r in rates)
        for q in (0.25, 0.5, 0.9):
            t_q = float(np.quantile(draws, q))
            assert hypoexponential_cdf(rates, t_q) == pytest.approx(q, abs=0.01)

    def test_widely_separated_rates(self):
        # Stiff case: rates spanning 4 orders of magnitude.
        rates = [1000.0, 0.1]
        grid = np.linspace(0, 120, 4000)
        sf = hypoexponential_sf(rates, grid)
        mean = float(np.trapezoid(sf, grid))
        assert mean == pytest.approx(1 / 1000.0 + 1 / 0.1, rel=1e-3)

    def test_input_validation(self):
        with pytest.raises(ModelError):
            hypoexponential_cdf([], 1.0)
        with pytest.raises(ModelError):
            hypoexponential_cdf([1.0, -2.0], 1.0)
        with pytest.raises(ModelError):
            hypoexponential_mean([0.0])


class TestTolTruncation:
    """The tol parameter must actually steer the truncation bounds."""

    RATES = [1.0, 2.0, 3.0]
    T = 5.0

    def _terms_for(self, tol) -> tuple[int, float]:
        ladder = WeightLadder(self.RATES)
        value = float(
            _sf_from_ladder(ladder, np.array([self.T]), tol=tol)[0]
        )
        return ladder.n_computed, value

    def test_looser_tol_truncates_earlier(self):
        loose, v_loose = self._terms_for(1e-4)
        default, v_default = self._terms_for(1e-12)
        tight, v_tight = self._terms_for(1e-30)
        assert loose < default < tight
        # Looser truncation still lands within its own tolerance.
        assert v_loose == pytest.approx(v_default, abs=1e-4)
        assert v_tight == pytest.approx(v_default, abs=1e-12)

    def test_default_tol_is_bit_identical_to_implicit(self):
        implicit = hypoexponential_sf(self.RATES, self.T)
        explicit = hypoexponential_sf(self.RATES, self.T, tol=1e-12)
        assert implicit == explicit

    def test_tol_threads_through_cdf(self):
        loose = hypoexponential_cdf(self.RATES, self.T, tol=1e-3)
        default = hypoexponential_cdf(self.RATES, self.T)
        assert loose == pytest.approx(default, abs=1e-3)

    def test_tol_validation(self):
        for bad in (0.0, -1e-3, 1.0, 2.0):
            with pytest.raises(ModelError):
                hypoexponential_sf(self.RATES, self.T, tol=bad)


class TestBatchWeightLadders:
    """The lock-step batch recurrence must be bitwise the scalar ladder."""

    def test_bitwise_identical_to_scalar(self):
        rows = [tuple([0.5 + 0.3 * p] * 3 + [2.0] * 3) for p in range(12)]
        n_terms = 200
        ladders = batch_weight_ladders(rows, n_terms)
        for row, ladder in zip(rows, ladders):
            reference = WeightLadder(row)
            assert np.array_equal(ladder.get(n_terms), reference.get(n_terms))
            assert np.array_equal(ladder._v, reference._v)

    def test_mixed_phase_counts_are_padded_exactly(self):
        rows = [
            (1.0, 2.0),
            (0.7, 0.7, 3.0, 3.0, 3.0),
            (2.5,),
            (4.0, 0.2, 1.1),
        ]
        n_terms = 150
        ladders = batch_weight_ladders(rows, n_terms)
        for row, ladder in zip(rows, ladders):
            reference = WeightLadder(row)
            assert np.array_equal(ladder.get(n_terms), reference.get(n_terms))
            assert np.array_equal(ladder._v, reference._v)

    def test_extension_continues_the_series(self):
        rows = [(1.0, 3.0), (2.0, 2.0)]
        ladders = batch_weight_ladders(rows, 50)
        for row, ladder in zip(rows, ladders):
            assert np.array_equal(
                ladder.get(120), WeightLadder(row).get(120)
            )

    def test_empty_and_zero_terms(self):
        assert batch_weight_ladders([], 10) == []
        (ladder,) = batch_weight_ladders([(1.0, 2.0)], 0)
        assert ladder.n_computed == 0
        assert np.array_equal(ladder.get(30), WeightLadder((1.0, 2.0)).get(30))

    def test_rejects_negative_terms(self):
        with pytest.raises(ModelError):
            batch_weight_ladders([(1.0,)], -1)


class TestSfRowsAt:
    """The padded-window scalar-t batch must match per-row evaluation."""

    def test_rows_bitwise_match_single_calls(self):
        rows = [
            (1.0, 2.0, 2.0),
            (5.0, 0.4, 0.4),
            (2.2, 2.2, 2.2),
            (0.9,),
        ]
        for t in (0.0, 0.3, 2.0, 9.0):
            ladders = [WeightLadder(row) for row in rows]
            batch = _sf_rows_at(ladders, t)
            for row, value in zip(rows, batch):
                single = float(
                    _sf_from_ladder(WeightLadder(row), np.array([t]))[0]
                )
                assert value == single

    def test_negative_t_is_all_ones(self):
        ladders = [WeightLadder((1.0, 2.0)), WeightLadder((3.0,))]
        assert np.array_equal(_sf_rows_at(ladders, -1.0), np.ones(2))

    def test_infinite_t_is_all_zeros_without_a_cast(self):
        # No Poisson window is sized for q·t = inf: the rows are sf 0
        # outright, and a finite row beside them is unchanged.
        ladders = [WeightLadder((1.0, 2.0)), WeightLadder((3.0,))]
        finite = _sf_rows_at(ladders, 2.0)
        with np.errstate(invalid="raise", over="raise"):
            assert np.array_equal(_sf_rows_at(ladders, np.inf), np.zeros(2))
            mixed = _sf_rows_at(ladders, np.array([2.0, np.inf]))
        assert mixed[0] == finite[0] and mixed[1] == 0.0

    def test_nan_t_is_a_model_error(self):
        ladders = [WeightLadder((1.0, 2.0)), WeightLadder((3.0,))]
        with np.errstate(invalid="raise"):
            with pytest.raises(ModelError, match="NaN"):
                _sf_rows_at(ladders, np.nan)
            with pytest.raises(ModelError, match="NaN"):
                _sf_rows_at(ladders, np.array([1.0, np.nan]))


def _greedy_chunks(lo, hi, budget):
    """The seed planner's per-point loop, boundaries only."""
    chunks, i, n = [], 0, len(lo)
    while i < n:
        lo_u, hi_u, j = int(lo[i]), int(hi[i]), i + 1
        while j < n:
            nl, nh = min(lo_u, int(lo[j])), max(hi_u, int(hi[j]))
            if (nh - nl + 1) > 2 * int(hi[j] - lo[j] + 1) or (
                nh - nl + 1
            ) * (j - i + 1) > budget:
                break
            lo_u, hi_u, j = nl, nh, j + 1
        chunks.append((i, j, lo_u, hi_u))
        i = j
    return chunks


def _grid(kind: str, n: int, seed: int) -> np.ndarray:
    """``qt`` grids of the shapes the planner must get right."""
    rng = np.random.default_rng(seed)
    if kind == "monotone":
        return np.linspace(1e-3, 60.0, n)
    if kind == "scrambled":
        return rng.permutation(np.linspace(1e-3, 60.0, n))
    if kind == "repeated":
        return np.repeat(rng.uniform(0.1, 40.0, max(1, n // 4)), 4)[:n]
    if kind == "single":
        return np.array([rng.uniform(0.01, 80.0)])
    # wide: qt spans four decades, so windows range from ~50 terms to
    # ~2500 and the 2x-own-width cap closes chunks constantly.
    return np.sort(10.0 ** rng.uniform(-2.0, 4.0, n))


_KINDS = ("monotone", "scrambled", "repeated", "single", "wide")


class TestSharedPoissonBlocks:
    """The numpy chunk planner and the shared blocks must reproduce the
    seed per-point kernel (:mod:`repro.perf.reference`) byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        max_width=st.integers(1, 400),
        budget=st.integers(1, 20_000),
        scrambled=st.booleans(),
    )
    def test_planner_matches_greedy_loop(
        self, seed, n, max_width, budget, scrambled
    ):
        rng = np.random.default_rng(seed)
        centers = np.cumsum(rng.integers(-3, 12, n)) + 500
        if scrambled:
            centers = rng.permutation(centers)
        half = rng.integers(0, max_width, n)
        lo = np.maximum(0, centers - half).astype(np.int64)
        hi = (centers + half).astype(np.int64)
        original = phase_type._MIX_CHUNK_ELEMENTS
        phase_type._MIX_CHUNK_ELEMENTS = budget
        try:
            planned = _mix_chunks(lo, hi)
        finally:
            phase_type._MIX_CHUNK_ELEMENTS = original
        assert planned == _greedy_chunks(lo, hi, budget)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(_KINDS),
        n=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
        tol=st.sampled_from((1e-12, 1e-6, 1e-20)),
        n_series=st.integers(1, 4),
    )
    def test_shared_blocks_byte_equal_reference(
        self, kind, n, seed, tol, n_series
    ):
        qt = _grid(kind, n, seed)
        rng = np.random.default_rng(seed)
        n_terms = _mix_terms(float(qt.max()), tol)
        weights = [rng.random(n_terms + 1) for _ in range(n_series)]
        mixed = _poisson_mix_windows(qt, weights, tol=tol)
        for row, w in zip(mixed, weights):
            expected = reference_poisson_mix_windows(qt, w, tol=tol)
            assert row.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("budget", [50, 5_000, 200_000])
    def test_element_budget_cap_byte_equal_reference(self, monkeypatch, budget):
        qt = np.linspace(0.5, 300.0, 257)
        w = np.random.default_rng(budget).random(_mix_terms(300.0) + 1)
        monkeypatch.setattr(phase_type, "_MIX_CHUNK_ELEMENTS", budget)
        got = _poisson_mix_windows(qt, [w])[0]
        assert got.tobytes() == reference_poisson_mix_windows(qt, w).tobytes()

    def test_rows_byte_equal_single_ladder_calls(self):
        # Two profiles share q = 3.0, one shares q = 2.0 with nobody,
        # and one repeats a profile: grouping by q must not change a
        # single byte of any row.
        profiles = [
            (3.0, 1.0, 1.0),
            (3.0, 3.0),
            (2.0, 0.5),
            (1.0, 3.0, 0.25, 0.25),
            (3.0, 1.0, 1.0),
        ]
        for t_arr in (
            np.linspace(0.0, 40.0, 513),
            np.array([-1.0, 0.0, 5e-324, 2.5, 0.7]),
            np.random.default_rng(7).permutation(np.linspace(0, 25, 300)),
            np.array([-2.0, -0.5]),
        ):
            rows = _sf_from_ladders([WeightLadder(p) for p in profiles], t_arr)
            for profile, row in zip(profiles, rows):
                alone = _sf_from_ladder(WeightLadder(profile), t_arr)
                assert row.tobytes() == alone.tobytes()

    def test_sf_matches_reference_kernel(self):
        grid = np.linspace(0.0, 30.0, 2048)
        ladder = WeightLadder((2.0, 0.7, 0.7))
        sf = _sf_from_ladder(ladder, grid)
        qt = ladder.q * grid[1:]
        w = ladder.get(_mix_terms(float(qt.max())) + 1)
        expected = np.clip(reference_poisson_mix_windows(qt, w), 0.0, 1.0)
        assert sf[0] == 1.0
        assert sf[1:].tobytes() == expected.tobytes()
