"""Estimators for windowed loss series with honest error bars.

Loss windows are long-range correlated near criticality, so every standard
error here comes from batch means over contiguous blocks rather than the
i.i.d. formulas, which would understate the uncertainty badly in exactly
the regime this package cares about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "WindowedSeries",
    "SummaryStats",
    "ScalarEstimate",
    "CorrelationEstimate",
    "InsufficientWindowsError",
    "DegenerateSeriesError",
    "mean_and_variance",
    "compressibility_estimate",
    "correlation_estimate",
]


class InsufficientWindowsError(RuntimeError):
    """Too few windows to form batch-means errors."""


class DegenerateSeriesError(RuntimeError):
    """A ratio estimator hit a zero or negative denominator."""


@dataclass(frozen=True)
class WindowedSeries:
    """Per-window observations with their window geometry.

    ``window_length`` is in steps for discrete paths and in time units for
    continuous logs; ``spacing`` is the gap between consecutive windows.
    """

    values: np.ndarray = field(repr=False)
    window_length: float
    spacing: float = 0.0

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("window values must be a 1-D array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("window values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_counts(cls, counts, window_length) -> "WindowedSeries":
        return cls(values=np.asarray(counts, dtype=float), window_length=window_length)

    @classmethod
    def from_loss_sample(cls, sample) -> "WindowedSeries":
        return cls(
            values=np.asarray(sample.values, dtype=float),
            window_length=sample.window_length,
            spacing=sample.spacing,
        )

    @property
    def n_windows(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    variance: float
    mean_se: float
    variance_se: float
    n_windows: int
    n_batches: int


@dataclass(frozen=True)
class ScalarEstimate:
    value: float
    se: float


@dataclass(frozen=True)
class CorrelationEstimate:
    lag: int
    value: float
    se: float


def _batches(x: np.ndarray) -> np.ndarray:
    """The leading b * blen values of ``x`` as a (b, blen) view of b
    contiguous batches, b = clip(isqrt(n), 8, 64) and at most n // 2; the
    trailing remainder is dropped."""
    n = x.size
    b = int(min(max(math.isqrt(n), 8), 64, n // 2))
    return x[: b * (n // b)].reshape(b, n // b)


def mean_and_variance(series: WindowedSeries) -> SummaryStats:
    """Unbiased mean and variance with batch-means standard errors.

    The series is cut into contiguous batches (see :func:`_batches`); the
    spread of batch-level means and variances supplies the errors, which
    stays honest under autocorrelation.
    """
    x = series.values
    n = x.size
    if n < 30:
        raise InsufficientWindowsError(f"need at least 30 windows, got {n}")
    blocks = _batches(x)
    b = blocks.shape[0]
    batch_means = blocks.mean(axis=1)
    batch_vars = blocks.var(axis=1, ddof=1)
    return SummaryStats(
        mean=float(x.mean()),
        variance=float(x.var(ddof=1)),
        mean_se=float(batch_means.std(ddof=1) / math.sqrt(b)),
        variance_se=float(batch_vars.std(ddof=1) / math.sqrt(b)),
        n_windows=n,
        n_batches=b,
    )


def compressibility_estimate(series: WindowedSeries) -> ScalarEstimate:
    """Variance-to-mean ratio of window losses, with a delta-method error.

    The mean and variance errors come from batch means; their relative
    errors are combined in quadrature (the covariance term is dropped,
    which is mildly conservative for these positively correlated inputs).
    """
    stats = mean_and_variance(series)
    if stats.mean <= 0.0:
        raise DegenerateSeriesError("compressibility needs a positive mean loss")
    value = stats.variance / stats.mean
    rel = math.sqrt(
        (stats.variance_se / stats.variance) ** 2 + (stats.mean_se / stats.mean) ** 2
    )
    return ScalarEstimate(value=value, se=value * rel)


def correlation_estimate(
    series: WindowedSeries, separations: Sequence[int]
) -> list[CorrelationEstimate]:
    """Normalized window-loss correlations at the given window lags.

    Returns <dx(0) dx(lag)> / <dx^2> per lag with batch-means errors on the
    lag products. Lags count windows; convert with the window geometry when
    comparing against step- or time-separation formulas.
    """
    x = series.values
    n = x.size
    if n < 30:
        raise InsufficientWindowsError(f"need at least 30 windows, got {n}")
    out = []
    centered = x - x.mean()
    denom = float((centered**2).mean())
    if denom <= 0.0:
        raise DegenerateSeriesError("zero variance series has no correlations")
    for lag in separations:
        lag = int(lag)
        if lag < 1:
            raise ValueError("separations must be positive window lags")
        if lag > n // 10:
            raise InsufficientWindowsError(
                f"lag {lag} exceeds a tenth of the {n} available windows"
            )
        prods = centered[:-lag] * centered[lag:]
        bm = _batches(prods).mean(axis=1)
        b = bm.size
        value = float(prods.mean()) / denom
        se = float(bm.std(ddof=1) / math.sqrt(b)) / denom
        out.append(CorrelationEstimate(lag=lag, value=value, se=se))
    return out
