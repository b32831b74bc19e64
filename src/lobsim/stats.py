"""Return and volatility statistics.

Returns are relative price changes over non-overlapping windows; the
normalized series subtracts the sample mean and divides by the sample
standard deviation (population convention throughout, no small-sample
corrections). Tail weight is measured by kurtosis excess, the fourth
standardized moment minus 3: zero for a normal, positive for heavier
tails.

Moments come from one kernel, a streaming central-moment accumulator
(up to the fourth moment): it gives per-run kurtosis, and pools
statistics across seeds without holding every sample. Also provides
histogram / empirical-CCDF estimators and a log-normal reference fit
for volatility distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Histogram",
    "MomentAccumulator",
    "returns",
    "normalize",
    "excess_kurtosis",
    "moving_volatility",
    "estimate_pdf",
    "estimate_ccdf",
    "lognormal_reference",
]

_TINY = np.finfo(np.float64).tiny  # smallest normal float


@dataclass(frozen=True)
class Histogram:
    """Density-normalized histogram (integrates to 1)."""

    edges: np.ndarray
    density: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def returns(prices: np.ndarray, delta_t: int) -> np.ndarray:
    """Relative price changes over non-overlapping delta_t windows.

    r_k = (s((k+1) dt) - s(k dt)) / s(k dt), sampling the input series
    from its first element.
    """
    prices = np.asarray(prices, dtype=np.float64)
    if delta_t < 1:
        raise ValueError("delta_t must be >= 1")
    if prices.size <= delta_t:
        raise ValueError("price series shorter than one return window")
    if np.any(prices <= 0) or not np.all(np.isfinite(prices)):
        raise ValueError("prices must be positive and finite")
    sampled = prices[::delta_t]
    return np.diff(sampled) / sampled[:-1]


def normalize(values: np.ndarray) -> np.ndarray:
    """Standardize returns to sample mean 0 and standard deviation 1."""
    values = np.asarray(values, dtype=np.float64)
    mean = values.mean()
    std = values.std()
    if std == 0.0 or not np.isfinite(std):
        raise ValueError("degenerate return series: zero standard deviation")
    return (values - mean) / std


def excess_kurtosis(values: np.ndarray) -> float:
    """Fourth central moment over sigma^4, minus 3 (population form)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 4:
        raise ValueError("need at least 4 samples for kurtosis")
    kurt = MomentAccumulator().add(values).excess_kurtosis
    if np.isnan(kurt):
        raise ValueError("degenerate series: zero or underflowing variance")
    return kurt


def moving_volatility(values: np.ndarray, n_samples: int) -> np.ndarray:
    """Standard deviation of returns over a sliding window of
    ``n_samples`` consecutive samples, sliding by one sample. Empty
    result when the series is shorter than one window.
    """
    if n_samples < 2:
        raise ValueError("window must cover at least 2 return samples")
    values = np.asarray(values, dtype=np.float64)
    if n_samples > values.size:
        return np.empty(0, dtype=np.float64)
    windows = np.lib.stride_tricks.sliding_window_view(values, n_samples)
    return windows.std(axis=1)


def estimate_pdf(values: np.ndarray) -> Histogram:
    """Density-normalized histogram over Freedman-Diaconis bins."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot estimate a density from no samples")
    if values.min() == values.max():
        # degenerate sample: a single unit-width bin centered on the value
        edges = np.array([values[0] - 0.5, values[0] + 0.5])
        density, edges = np.histogram(values, bins=edges, density=True)
    else:
        density, edges = np.histogram(values, bins="fd", density=True)
    return Histogram(edges=edges, density=density)


def estimate_ccdf(values: np.ndarray,
                  counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Empirical complementary CDF, P(X > x) at each distinct sample value.

    ``counts``, if given, is each value's multiplicity, so a histogram
    need not be expanded into its samples. Returns (x, ccdf) with x
    sorted ascending; the CCDF is monotone nonincreasing, equals
    1 - 1/n at the minimum of a tie-free sample and 0 at the maximum.
    """
    values = np.asarray(values, dtype=np.float64)
    counts = np.asarray(np.ones(values.shape) if counts is None else counts,
                        dtype=np.int64)
    if counts.shape != values.shape or np.any(counts < 0):
        raise ValueError("counts must be one count >= 0 per value")
    held = counts > 0
    xs, inverse = np.unique(values[held], return_inverse=True)
    if xs.size == 0:
        raise ValueError("cannot estimate a CCDF from no samples")
    cum = np.cumsum(np.bincount(inverse, weights=counts[held]))
    return xs, 1.0 - cum / cum[-1]


def lognormal_reference(sigmas: np.ndarray) -> tuple[float, float]:
    """Log-normal fit (location, scale) by moments of log sigma.

    location/scale are the mean and standard deviation of log(sigma);
    an exact log-normal sample recovers its parameters, a constant
    sample yields scale 0.
    """
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if sigmas.size == 0:
        raise ValueError("no volatilities to fit")
    if np.any(sigmas <= 0):
        raise ValueError("volatilities must be positive for a log-normal fit")
    logs = np.log(sigmas)
    return float(logs.mean()), float(logs.std())


class MomentAccumulator:
    """Streaming central moments up to order four, batch by batch.

    Each ``add`` computes the batch's own central sums vectorized and
    merges them into the running sums with the pairwise update, so a
    sequence of batches pools exactly (batch order aside, to rounding)
    and pooled moments never require the raw samples. It holds the
    sample count ``n``, the mean ``m1`` and the central sums ``m2``,
    ``m3``, ``m4`` (the sums of (x - m1)**k; the variance is m2 / n).
    """

    __slots__ = ("n", "m1", "m2", "m3", "m4")

    def __init__(self):
        self.n = 0
        self.m1 = 0.0
        self.m2 = 0.0
        self.m3 = 0.0
        self.m4 = 0.0

    def add(self, values: np.ndarray) -> "MomentAccumulator":
        values = np.asarray(values, dtype=np.float64)
        nb = values.size
        if nb == 0:
            return self
        mean = float(values.mean())
        centered = values - mean
        c2 = centered * centered
        b2 = float(c2.sum())
        b3 = float((c2 * centered).sum())
        b4 = float((c2 * c2).sum())
        na = self.n
        if na == 0:
            self.n, self.m1, self.m2, self.m3, self.m4 = nb, mean, b2, b3, b4
            return self
        n = na + nb
        delta = mean - self.m1
        d_n = delta / n
        m2 = self.m2 + b2 + delta * d_n * na * nb
        m3 = (
            self.m3 + b3
            + delta * d_n**2 * na * nb * (na - nb)
            + 3.0 * d_n * (na * b2 - nb * self.m2)
        )
        m4 = (
            self.m4 + b4
            + delta * d_n**3 * na * nb * (na * na - na * nb + nb * nb)
            + 6.0 * d_n**2 * (na * na * b2 + nb * nb * self.m2)
            + 4.0 * d_n * (na * b3 - nb * self.m3)
        )
        self.m1 += d_n * nb
        self.n, self.m2, self.m3, self.m4 = n, m2, m3, m4
        return self

    @property
    def excess_kurtosis(self) -> float:
        # undefined when the squared sum of squares underflows (zero or
        # subnormal, where it and m4 have lost their precision)
        m2_squared = self.m2 * self.m2
        if self.n == 0 or m2_squared < _TINY:
            return float("nan")
        return self.n * self.m4 / m2_squared - 3.0
