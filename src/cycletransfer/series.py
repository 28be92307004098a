"""Single-channel series utilities: validation, scaling and smoothing.

A series is held as a plain 1-D float64 numpy array. Raw input is checked
once, where it enters the pipeline, by :func:`as_series` (one dimension,
enough samples, all values finite); the stages below take the arrays the
pipeline built and do not check them again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantSeriesError, DataError

# Ranges below this are treated as constant (zero variance).
MIN_RANGE = 1e-12


def as_series(values, min_len: int = 1) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 array and check basic sanity."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DataError(f"expected a 1-D series, got shape {arr.shape}")
    require_length(arr, min_len)
    if not np.all(np.isfinite(arr)):
        raise DataError("series contains NaN or infinite samples")
    return arr


def require_length(series: np.ndarray, min_len: int) -> None:
    """Raise DataError when the series holds fewer than min_len samples."""
    if series.size < min_len:
        raise DataError(f"series has {series.size} samples, need at least {min_len}")


@dataclass(frozen=True)
class ScaleParams:
    """Original-unit bounds of a channel, kept so scaling can be undone."""

    min: float
    max: float


def normalize_minmax(series: np.ndarray) -> tuple[np.ndarray, ScaleParams]:
    """Map a series onto [0, 1] and return the bounds used.

    The minimum maps to exactly 0 and the maximum to exactly 1. A series
    whose range falls below ``MIN_RANGE`` raises ConstantSeriesError; one
    whose range overflows float64, which would make every sample NaN,
    raises DataError.
    """
    lo = float(series.min())
    hi = float(series.max())
    if hi - lo < MIN_RANGE:
        raise ConstantSeriesError(f"series range {hi - lo:g} is below {MIN_RANGE:g}")
    if hi - lo == np.inf:
        raise DataError(f"series range from min {lo:g} to max {hi:g} overflows float64")
    return (series - lo) / (hi - lo), ScaleParams(lo, hi)


def denormalize(series: np.ndarray, params: ScaleParams) -> np.ndarray:
    """Undo :func:`normalize_minmax` using the stored bounds."""
    return series * (params.max - params.min) + params.min


def mean_smoothing(series: np.ndarray, radius: int) -> np.ndarray:
    """Centered moving average with window 2*radius + 1, along the last axis.

    Windows are clipped at the series ends, so boundary samples average
    whatever part of the window exists. ``radius`` must be smaller than
    the series length; radius 0 returns a copy. Each row of a (k, n)
    block comes out with the bits the row gives alone.
    """
    n = series.shape[-1]
    if radius >= n:
        raise DataError(f"radius {radius} must be below the series length {n}")
    if radius == 0:
        return series.copy()
    # Center on the first sample so constant series come back bit-exact.
    base = series[..., :1]
    csum = np.cumsum(series - base, axis=-1)
    csum = np.concatenate((np.zeros(csum.shape[:-1] + (1,)), csum), axis=-1)
    idx = np.arange(n)
    lo = np.maximum(idx - radius, 0)
    hi = np.minimum(idx + radius, n - 1)
    return base + (csum[..., hi + 1] - csum[..., lo]) / (hi - lo + 1)


def exponential_smoothing(series: np.ndarray, alpha: float, radius: int) -> np.ndarray:
    """Weighted window smoother with center weight alpha in (0, 1], along
    the last axis.

    Interior samples become ``alpha*s[i] + beta*sum(s[i-j] + s[i+j])`` for
    j in 1..radius with ``beta = (1 - alpha)/(2*radius)``, so the weights
    add up to one. The first and last ``radius`` samples are copied
    unchanged. ``radius`` must be at least 1 and smaller than the series
    length. Each row of a (k, n) block comes out with the bits the row
    gives alone.
    """
    n = series.shape[-1]
    if radius >= n:
        raise DataError(f"radius {radius} must be below the series length {n}")
    if alpha == 1.0 or 2 * radius >= n:
        # No interior sample is further than radius from both ends, so the
        # boundary-copy rule covers the whole series.
        return series.copy()
    # Center on the first sample so constant series come back bit-exact.
    base = series[..., :1]
    d = series - base
    beta = (1.0 - alpha) / (2.0 * radius)
    csum = np.cumsum(d, axis=-1)
    csum = np.concatenate((np.zeros(csum.shape[:-1] + (1,)), csum), axis=-1)
    center = d[..., radius : n - radius]
    # Each interior window sum of 2*radius + 1 samples, minus its center.
    neighbours = csum[..., 2 * radius + 1 :] - csum[..., : n - 2 * radius] - center
    out = series.copy()
    out[..., radius : n - radius] = base + (alpha * center + beta * neighbours)
    return out


def default_smooth_radius(reference_period: float) -> int:
    """Default window radius for a detected cycle length: max(1, round(l/8))."""
    return max(1, int(round(reference_period / 8.0)))
