"""Single-channel series utilities: validation, scaling and smoothing.

A series is held as a plain 1-D float64 numpy array. Raw input is checked
once, where it enters the pipeline, by :func:`as_series` (one dimension,
enough samples, all values finite). Each check that depends on a series'
length, range or smoothing radius is stated once, as a function that
returns its error: the one-series stages raise it, and a table side's
analysis records it for the row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantSeriesError, DataError, SeasonalityNotFoundError

# Ranges below this are treated as constant (zero variance).
MIN_RANGE = 1e-12


def as_series(values) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 array of at least one sample,
    all finite."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DataError(f"expected a 1-D series, got shape {arr.shape}")
    raise_if_error(length_error(arr.size, 1))
    if not np.all(np.isfinite(arr)):
        raise DataError("series contains NaN or infinite samples")
    return arr


def length_error(n: int, min_len: int) -> DataError | None:
    """The error of a series of n samples where min_len are needed, or None."""
    return DataError(f"series has {n} samples, need at least {min_len}") if n < min_len else None


def range_error(lo: float, hi: float) -> DataError | None:
    """The error of a series with these bounds in :func:`normalize_minmax`,
    or None: a range below MIN_RANGE is constant (ConstantSeriesError), and
    one that overflows float64 would make every sample NaN (DataError)."""
    if hi - lo < MIN_RANGE:
        error, what = ConstantSeriesError, f"{hi - lo:g} is below {MIN_RANGE:g}"
    elif hi - lo == np.inf:
        error, what = DataError, f"from min {lo:g} to max {hi:g} overflows float64"
    else:
        return None
    return error(f"series range {what}")


def radius_error(radius: int, n: int) -> DataError | None:
    """The error of a smoothing radius on a series of n samples, or None."""
    return DataError(f"radius {radius} must be below the series length {n}") if radius >= n else None


def raise_if_error(entry) -> None:
    """Raise ``entry`` when it is a check's error, as a fresh copy since the
    rows of a table side may share one; anything else passes. The checks
    store only ConstantSeriesError, SeasonalityNotFoundError and DataError."""
    if isinstance(entry, ConstantSeriesError):
        raise ConstantSeriesError(*entry.args)
    if isinstance(entry, SeasonalityNotFoundError):
        raise SeasonalityNotFoundError(*entry.args)
    if isinstance(entry, DataError):
        raise DataError(*entry.args)


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
    raise_if_error(range_error(lo, hi))
    return (series - lo) / (hi - lo), ScaleParams(lo, hi)


def denormalize(series: np.ndarray, params: ScaleParams, out: np.ndarray | None = None) -> np.ndarray:
    """Undo :func:`normalize_minmax` using the stored bounds, into ``out``
    when it is given."""
    out = np.multiply(series, params.max - params.min, out=out)
    out += params.min
    return out


def mean_smoothing(series: np.ndarray, radius: int) -> np.ndarray:
    """Centered moving average with window 2*radius + 1, along the last axis.

    Windows are clipped at the series ends, so boundary samples average
    whatever part of the window exists. ``radius`` must be smaller than
    the series length; radius 0 returns a copy. A (k, n) block comes out
    row-major, each row with the bits the row gives alone.
    """
    n = series.shape[-1]
    raise_if_error(radius_error(radius, n))
    if radius == 0:
        return series.copy()
    # Center on the first sample so constant series come back bit-exact.
    base = series[..., :1]
    csum = np.cumsum(series - base, axis=-1)
    csum = np.concatenate((np.zeros(csum.shape[:-1] + (1,)), csum), axis=-1)
    idx = np.arange(n)
    lo = np.maximum(idx - radius, 0)
    hi = np.minimum(idx + radius, n - 1)
    # take, not csum[..., idx], which lays a block out column-major.
    return _clip_to_rows(base + (csum.take(hi + 1, axis=-1) - csum.take(lo, axis=-1)) / (hi - lo + 1), series)


def exponential_smoothing(series: np.ndarray, alpha: float, radius: int) -> np.ndarray:
    """Weighted window smoother with center weight alpha in (0, 1], along
    the last axis.

    Interior samples become ``alpha*s[i] + beta*sum(s[i-j] + s[i+j])`` for
    j in 1..radius with ``beta = (1 - alpha)/(2*radius)``, so the weights
    add up to one. The first and last ``radius`` samples are copied
    unchanged. ``radius`` must be at least 1 and smaller than the series
    length. A (k, n) block comes out row-major, each row with the bits
    the row gives alone.
    """
    n = series.shape[-1]
    raise_if_error(radius_error(radius, n))
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
    return _clip_to_rows(out, series)


def _clip_to_rows(out: np.ndarray, series: np.ndarray) -> np.ndarray:
    """``out`` clipped in place to each row's [min, max] of ``series``: the
    running sums' rounding can leave that range by about n * eps * max|x - x[0]|."""
    return np.clip(out, series.min(axis=-1, keepdims=True), series.max(axis=-1, keepdims=True), out=out)


def default_smooth_radius(reference_period: float) -> int:
    """Default window radius for a detected cycle length: max(1, round(l/8))."""
    return max(1, int(round(reference_period / 8.0)))
