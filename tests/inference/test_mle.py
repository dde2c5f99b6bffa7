"""Unit tests for repro.inference.mle."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import InferenceError
from repro.inference import (
    estimate_rate_fixed_period,
    estimate_rate_random_period,
)


class TestFixedPeriod:
    def test_mle_is_n_over_t(self):
        est = estimate_rate_fixed_period(20, 4.0)
        assert est.rate == pytest.approx(5.0)
        assert est.method == "fixed_period"

    def test_zero_events_gives_zero_rate(self):
        est = estimate_rate_fixed_period(0, 10.0)
        assert est.rate == 0.0
        assert est.ci_low == 0.0
        assert est.ci_high > 0.0
        assert est.mean_interarrival == np.inf

    def test_ci_contains_rate(self):
        est = estimate_rate_fixed_period(50, 10.0)
        assert est.ci_low < est.rate < est.ci_high

    def test_ci_tightens_with_data(self):
        loose = estimate_rate_fixed_period(10, 2.0)
        tight = estimate_rate_fixed_period(1000, 200.0)
        assert (tight.ci_high - tight.ci_low) < (loose.ci_high - loose.ci_low)

    def test_coverage_monte_carlo(self, rng):
        # The 95% Garwood interval must cover the true rate ~95% of the time.
        lam, t0, trials = 3.0, 20.0, 400
        covered = 0
        for _ in range(trials):
            n = rng.poisson(lam * t0)
            est = estimate_rate_fixed_period(int(n), t0)
            if est.ci_low <= lam <= est.ci_high:
                covered += 1
        assert covered / trials > 0.9

    def test_unbiasedness(self, rng):
        # Appendix A: the fixed-period MLE is unbiased.
        lam, t0 = 2.0, 50.0
        estimates = [
            estimate_rate_fixed_period(int(rng.poisson(lam * t0)), t0).rate
            for _ in range(3000)
        ]
        assert np.mean(estimates) == pytest.approx(lam, rel=0.02)

    def test_validation(self):
        with pytest.raises(InferenceError):
            estimate_rate_fixed_period(-1, 1.0)
        with pytest.raises(InferenceError):
            estimate_rate_fixed_period(5, 0.0)
        with pytest.raises(InferenceError):
            estimate_rate_fixed_period(5, 1.0, confidence=1.5)


class TestRandomPeriod:
    def test_debiased_rate(self):
        est = estimate_rate_random_period(10, 5.0)
        assert est.rate == pytest.approx(9 / 5.0)
        assert "debiased" in est.method

    def test_raw_rate(self):
        est = estimate_rate_random_period(10, 5.0, debias=False)
        assert est.rate == pytest.approx(2.0)

    def test_debias_needs_two_events(self):
        with pytest.raises(InferenceError):
            estimate_rate_random_period(1, 3.0)
        # raw works with one event
        est = estimate_rate_random_period(1, 3.0, debias=False)
        assert est.rate == pytest.approx(1 / 3.0)

    def test_raw_estimator_biased_upward(self, rng):
        # E[N/T] = λN/(N−1): the raw estimator overshoots.
        lam, n, trials = 2.0, 5, 4000
        raw, debiased = [], []
        for _ in range(trials):
            t = rng.gamma(n, 1 / lam)
            raw.append(estimate_rate_random_period(n, t, debias=False).rate)
            debiased.append(estimate_rate_random_period(n, t).rate)
        assert np.mean(raw) == pytest.approx(lam * n / (n - 1), rel=0.03)
        assert np.mean(debiased) == pytest.approx(lam, rel=0.03)

    def test_ci_contains_rate(self):
        est = estimate_rate_random_period(50, 25.0)
        assert est.ci_low < est.rate < est.ci_high

    def test_validation(self):
        with pytest.raises(InferenceError):
            estimate_rate_random_period(0, 1.0)
        with pytest.raises(InferenceError):
            estimate_rate_random_period(5, -1.0)
        with pytest.raises(InferenceError):
            estimate_rate_random_period(5, 1.0, confidence=0.0)


def test_service_import_leaves_scipy_stats_unloaded():
    """The service reaches this module through the AMT workloads but
    never builds an interval, so starting it must not pay for
    ``scipy.stats``: the intervals import it where they use it."""
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli, repro.serve; "
            "print('scipy.stats' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "False"
