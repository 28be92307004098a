"""Cycle detection: autocorrelation, power spectrum, dominant frequency.

The cycle length of a series with n samples is estimated as n/f where f
is the spectral bin with the strongest response. The autocorrelation is
computed alongside as a diagnostic; both views should peak consistently
for genuinely periodic data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Doubles the largest transient of one transform chunk may hold (128 KiB):
# a few hundred-frame rows share a chunk, and long rows go one at a time.
TRANSFORM_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class SeasonalityReport:
    """Bundle of the per-series cycle diagnostics."""

    acf: np.ndarray
    spectrum: np.ndarray
    dominant_frequency: int
    reference_period: float


def _acf_size(n: int) -> int:
    """FFT length of the autocorrelation: a power of two of at least 2n."""
    return 1 << (2 * n - 1).bit_length()


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation for lags 0..max_lag, 1 <= max_lag < n,
    of a non-constant series, along the last axis.

    acf[k] = sum((x[t]-mean)*(x[t+k]-mean)) / sum((x[t]-mean)**2), with the
    denominator running over the full series. The lag sums come from one
    FFT (Wiener-Khinchin): the mean-removed series is zero-padded to a
    power of two of at least 2n, so the circular correlation equals the
    linear one, and the inverse transform of |F|**2 holds every lag sum.
    Cost is O(n log n) whatever max_lag is. Each lag is divided by the lag-0
    sum taken from the same transform, so acf[0] is exactly 1; the other
    lags match the direct sums to rounding error (below 1e-15 on random
    series). Each row of a (k, n) block gets the bits the row gives alone.
    """
    size = _acf_size(series.shape[-1])
    f = np.fft.rfft(series - series.mean(axis=-1, keepdims=True), size)
    r = np.fft.irfft(f.real**2 + f.imag**2, size)[..., : max_lag + 1]
    return r / r[..., :1]


def power_spectrum(series: np.ndarray) -> np.ndarray:
    """Power of the mean-removed DFT, |F[k]|**2 / n, for k = 0..floor(n/2),
    along the last axis.

    The DC bin is forced to zero since the mean is removed before the
    transform. Each row of a (k, n) block gets the bits the row gives
    alone.
    """
    f = np.fft.rfft(series - series.mean(axis=-1, keepdims=True))
    spectrum = (f.real**2 + f.imag**2) / series.shape[-1]
    spectrum[..., 0] = 0.0
    return spectrum


def dominant_frequency(spectrum: np.ndarray) -> int | list[int]:
    """Index of the strongest spectral bin, searched over bins 1..floor(n/2),
    along the last axis: an int for one spectrum, a list of ints, one per
    row, for a (k, n // 2 + 1) block of them.

    Ties resolve to the lowest index, i.e. the longest cycle.
    """
    return (np.argmax(spectrum[..., 1:], axis=-1) + 1).tolist()


def fisher_g_rows(spectra: np.ndarray, n: int) -> list[tuple[float, float]]:
    """Fisher's g test for one periodic component (R. A. Fisher, 1929,
    Proc. R. Soc. A 125:54-59) on each row of a (k, n // 2 + 1) block of
    power spectra of n-sample series: a (g, p) pair of floats per row.

    g = max I_k / sum I_k over the bins k = 1..floor((n-1)/2), so DC and
    Nyquist are left out, from one sum and one max along the rows. p is
    m * (1 - g)**(m - 1) for the m bins, capped at 1: the first term of
    Fisher's exact series, which bounds the exact p-value from above. A
    row with no power in those bins gives g = 0 and p = 1.
    """
    power = spectra[:, 1 : (n - 1) // 2 + 1]
    m = power.shape[1]
    out = []
    for total, top in zip(power.sum(axis=1).tolist(), power.max(axis=1, initial=0.0).tolist()):
        g = top / total if total > 0.0 else 0.0
        out.append((g, min(1.0, m * (1.0 - g) ** (m - 1)) if total > 0.0 else 1.0))
    return out


def reference_period(n: int, f: int) -> float:
    """Cycle length in frames for a series of n samples peaking at bin f."""
    return n / f


def analyze_rows(rows: np.ndarray) -> list[SeasonalityReport]:
    """Run the full cycle analysis on each row of a (k, n) block of
    non-constant series, n >= 4, with the autocorrelation up to lag
    floor(n/2).

    Each row's report holds the bits :func:`analyze_series` gives for
    that row alone. The rows go through the transforms in chunks whose
    largest transient, the autocorrelation's padded spectrum of
    _acf_size(n) + 2 doubles per row, stays within TRANSFORM_CHUNK
    doubles; a chunk holds one row at least. The chunks fill one block of
    acf and spectrum rows, so each report's arrays are rows of that block.
    """
    k, n = rows.shape
    step = max(1, TRANSFORM_CHUNK // (_acf_size(n) + 2))
    acf, spectrum = np.empty((2, k, n // 2 + 1))
    for start in range(0, k, step):
        acf[start : start + step] = autocorrelation(rows[start : start + step], n // 2)
        spectrum[start : start + step] = power_spectrum(rows[start : start + step])
    return [
        SeasonalityReport(acf=a, spectrum=s, dominant_frequency=f, reference_period=reference_period(n, f))
        for a, s, f in zip(acf, spectrum, dominant_frequency(spectrum))
    ]


def analyze_series(series: np.ndarray) -> SeasonalityReport:
    """Run the full cycle analysis on a non-constant series of n >= 4
    samples, with the autocorrelation up to lag floor(n/2)."""
    return analyze_rows(series[np.newaxis])[0]
