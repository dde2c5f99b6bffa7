"""Maximum-likelihood rate estimation (paper §3.3.1 and Appendix A).

Both probe methodologies yield the same estimator:

* **Fixed period** — publish sample tasks, observe ``N`` acceptances
  within a fixed window ``T0``; the Poisson-process likelihood is
  ``λ^N e^{-λ T0}`` and the MLE is ``λ̂ = N / T0``.
* **Random period** — publish tasks, stop after the ``N``-th
  acceptance at elapsed time ``T0``; same likelihood shape, same MLE,
  but biased — Appendix A's correction rescales by ``(N−1)/N``.

The paper writes the random-period correction as ``λ̃ = ((N−1)N)λ̂``
(an obvious typo for the standard ``(N−1)/N`` debiasing of the Gamma
waiting-time estimator: ``E[N/T0] = λ·N/(N−1)``); we implement the
mathematically correct form and note the deviation here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import InferenceError

__all__ = ["RateEstimate", "estimate_rate_fixed_period", "estimate_rate_random_period"]


@dataclass(frozen=True)
class RateEstimate:
    """A rate estimate with its provenance and confidence interval."""

    rate: float
    n_observations: int
    elapsed: float
    method: str
    ci_low: float
    ci_high: float
    confidence: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise InferenceError(f"estimated rate is negative: {self.rate}")

    @property
    def mean_interarrival(self) -> float:
        """1/λ̂ — the estimated expected acceptance time."""
        if self.rate == 0:
            return math.inf
        return 1.0 / self.rate


def _poisson_rate_ci(n: int, t0: float, confidence: float) -> tuple[float, float]:
    """Exact (Garwood) CI for a Poisson rate from ``n`` events in ``t0``."""
    # Imported here, not at module level: the service imports this
    # module (through the AMT workloads) but never builds an interval,
    # and scipy.stats is a large import.
    from scipy import stats as sps

    alpha = 1.0 - confidence
    if n == 0:
        low = 0.0
    else:
        low = sps.chi2.ppf(alpha / 2.0, 2 * n) / (2.0 * t0)
    high = sps.chi2.ppf(1.0 - alpha / 2.0, 2 * (n + 1)) / (2.0 * t0)
    return float(low), float(high)


def estimate_rate_fixed_period(
    n_taken: int, period: float, confidence: float = 0.95
) -> RateEstimate:
    """Fixed-period MLE ``λ̂ = N / T0`` (unbiased; Appendix A).

    Parameters
    ----------
    n_taken:
        Number of probe tasks accepted within the window (>= 0).
    period:
        Window length ``T0`` (> 0).
    confidence:
        Level for the exact Poisson confidence interval.
    """
    if n_taken < 0 or int(n_taken) != n_taken:
        raise InferenceError(f"n_taken must be a non-negative integer, got {n_taken}")
    if not math.isfinite(period) or period <= 0:
        raise InferenceError(f"period must be positive, got {period}")
    if not 0.0 < confidence < 1.0:
        raise InferenceError(f"confidence must be in (0,1), got {confidence}")
    rate = n_taken / period
    low, high = _poisson_rate_ci(int(n_taken), period, confidence)
    return RateEstimate(
        rate=rate,
        n_observations=int(n_taken),
        elapsed=float(period),
        method="fixed_period",
        ci_low=low,
        ci_high=high,
        confidence=confidence,
    )


def estimate_rate_random_period(
    n_events: int,
    elapsed: float,
    confidence: float = 0.95,
    debias: bool = True,
) -> RateEstimate:
    """Random-period MLE: observe until the ``N``-th event at time ``T0``.

    The raw MLE ``N/T0`` overestimates λ because ``T0 ~ Gamma(N, λ)``
    gives ``E[N/T0] = λ N/(N−1)``; *debias* applies the ``(N−1)/N``
    correction (needs ``N >= 2``).
    """
    if n_events < 1 or int(n_events) != n_events:
        raise InferenceError(f"n_events must be a positive integer, got {n_events}")
    if not math.isfinite(elapsed) or elapsed <= 0:
        raise InferenceError(f"elapsed must be positive, got {elapsed}")
    if not 0.0 < confidence < 1.0:
        raise InferenceError(f"confidence must be in (0,1), got {confidence}")
    n = int(n_events)
    rate = n / elapsed
    if debias:
        if n < 2:
            raise InferenceError(
                "debiasing the random-period estimator needs at least 2 events"
            )
        rate = (n - 1) / elapsed
    from scipy import stats as sps

    # CI from the Gamma pivot: 2λT0 ~ chi2(2N).
    alpha = 1.0 - confidence
    low = sps.chi2.ppf(alpha / 2.0, 2 * n) / (2.0 * elapsed)
    high = sps.chi2.ppf(1.0 - alpha / 2.0, 2 * n) / (2.0 * elapsed)
    return RateEstimate(
        rate=float(rate),
        n_observations=n,
        elapsed=float(elapsed),
        method="random_period" + ("_debiased" if debias else ""),
        ci_low=float(low),
        ci_high=float(high),
        confidence=confidence,
    )
