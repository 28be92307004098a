"""Cycle detection: autocorrelation, power spectrum, dominant frequency.

The cycle length of a series with n samples is estimated as n/f where f
is the spectral bin with the strongest response. The autocorrelation is
computed alongside as a diagnostic; both views should peak consistently
for genuinely periodic data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class SeasonalityReport:
    """Bundle of the per-series cycle diagnostics."""

    acf: np.ndarray
    spectrum: np.ndarray
    dominant_frequency: int
    reference_period: float


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation for lags 0..max_lag, 1 <= max_lag < n,
    of a non-constant series.

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
    size = 1 << (2 * series.size - 1).bit_length()
    f = np.fft.rfft(series - series.mean(), size)
    r = np.fft.irfft(f.real**2 + f.imag**2, size)[: max_lag + 1]
    return r / r[0]


def power_spectrum(series: np.ndarray) -> np.ndarray:
    """Power of the mean-removed DFT, |F[k]|**2 / n, for k = 0..floor(n/2).

    The DC bin is forced to zero since the mean is removed before the
    transform.
    """
    f = np.fft.rfft(series - series.mean())
    spectrum = (f.real**2 + f.imag**2) / series.size
    spectrum[0] = 0.0
    return spectrum


def dominant_frequency(spectrum: np.ndarray) -> int:
    """Index of the strongest spectral bin, searched over bins 1..floor(n/2).

    Ties resolve to the lowest index, i.e. the longest cycle.
    """
    return int(np.argmax(spectrum[1:])) + 1


def fisher_g(spectrum: np.ndarray, n: int) -> tuple[float, float]:
    """Fisher's g test for one periodic component in a series of n samples.

    g = max I_k / sum I_k over the bins k = 1..floor((n-1)/2) of the
    power spectrum, so DC and Nyquist are left out. Returns g and the
    p-value m * (1 - g)**(m - 1) for the m bins, capped at 1: the first
    term of Fisher's exact series, which bounds the exact p-value from
    above. A spectrum with no power in those bins gives g = 0 and p = 1.
    """
    power = spectrum[1 : (n - 1) // 2 + 1]
    total = float(power.sum())
    if not total > 0.0:
        return 0.0, 1.0
    m = power.size
    g = float(power.max()) / total
    return g, min(1.0, m * (1.0 - g) ** (m - 1))


def reference_period(n: int, f: int) -> float:
    """Cycle length in frames for a series of n samples peaking at bin f."""
    return n / f


def analyze_series(series: np.ndarray) -> SeasonalityReport:
    """Run the full cycle analysis on a non-constant series of n >= 4
    samples, with the autocorrelation up to lag floor(n/2)."""
    n = series.size
    acf = autocorrelation(series, n // 2)
    spectrum = power_spectrum(series)
    f = dominant_frequency(spectrum)
    return SeasonalityReport(
        acf=acf,
        spectrum=spectrum,
        dominant_frequency=f,
        reference_period=reference_period(n, f),
    )
