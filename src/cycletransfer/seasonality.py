"""Cycle detection: autocorrelation, power spectrum, dominant frequency.

The cycle length of a series with n samples is estimated as n/f where f
is the spectral bin with the strongest response. The autocorrelation is
computed alongside as a diagnostic; both views should peak consistently
for genuinely periodic data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .series import as_series, require_nonconstant


@dataclass(frozen=True, eq=False)
class SeasonalityReport:
    """Bundle of the per-series cycle diagnostics."""

    acf: np.ndarray
    spectrum: np.ndarray
    dominant_frequency: int
    reference_period: float


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation for lags 0..max_lag.

    acf[k] = sum((x[t]-mean)*(x[t+k]-mean)) / sum((x[t]-mean)**2), with the
    denominator running over the full series. The lag sums come from one
    FFT (Wiener-Khinchin): the mean-removed series is zero-padded to a
    power of two of at least 2n, so the circular correlation equals the
    linear one, and the inverse transform of |F|**2 holds every lag sum.
    Cost is O(n log n) whatever max_lag is. Each lag is divided by the lag-0
    sum taken from the same transform, so acf[0] is exactly 1; the other
    lags match the direct sums to rounding error (below 1e-15 on random
    series).
    """
    x = as_series(series, min_len=2)
    n = x.size
    max_lag = int(max_lag)
    if max_lag < 1:
        raise UsageError("max_lag must be a positive integer")
    if max_lag >= n:
        raise UsageError(f"max_lag {max_lag} must be below the series length {n}")
    require_nonconstant(x)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x - x.mean(), size)
    r = np.fft.irfft(f.real**2 + f.imag**2, size)[: max_lag + 1]
    return r / r[0]


def power_spectrum(series) -> np.ndarray:
    """Power of the mean-removed DFT, |F[k]|**2 / n, for k = 0..floor(n/2).

    The DC bin is forced to zero since the mean is removed before the
    transform.
    """
    x = as_series(series)
    n = x.size
    if n < 4:
        raise DataError(f"need at least 4 samples for a spectrum, got {n}")
    require_nonconstant(x)
    f = np.fft.rfft(x - x.mean())
    spectrum = (f.real**2 + f.imag**2) / n
    spectrum[0] = 0.0
    return spectrum


def dominant_frequency(spectrum) -> int:
    """Index of the strongest spectral bin, searched over bins 1..floor(n/2).

    Ties resolve to the lowest index, i.e. the longest cycle.
    """
    s = np.asarray(spectrum, dtype=float)
    if s.ndim != 1:
        raise UsageError(f"expected a 1-D spectrum, got shape {s.shape}")
    if s.size < 3:
        raise DataError(
            f"spectrum needs at least 2 bins beyond the DC bin, got {s.size} total"
        )
    return int(np.argmax(s[1:])) + 1


def reference_period(n: int, f: int) -> float:
    """Cycle length in frames for a series of n samples peaking at bin f."""
    n = int(n)
    f = int(f)
    if not 1 <= f <= n // 2:
        raise UsageError(f"frequency {f} outside 1..{n // 2} for n={n}")
    return n / f


def analyze_series(series, max_lag: int | None = None) -> SeasonalityReport:
    """Run the full cycle analysis on one series.

    ``max_lag`` defaults to floor(n/2).
    """
    x = as_series(series, min_len=4)
    n = x.size
    if max_lag is None:
        max_lag = n // 2
    acf = autocorrelation(x, max_lag)
    spectrum = power_spectrum(x)
    f = dominant_frequency(spectrum)
    return SeasonalityReport(
        acf=acf,
        spectrum=spectrum,
        dominant_frequency=f,
        reference_period=reference_period(n, f),
    )
