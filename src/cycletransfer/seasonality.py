"""Cycle detection: autocorrelation, power spectrum, dominant frequency.

The cycle length of a series with n samples is estimated as n/f where f
is the spectral bin with the strongest response. The autocorrelation is a
diagnostic that only the report writes, so it is computed where a report
can write it (the target of a transfer, and ``analyze``), on the shortest
wrap-free transform; both views should peak consistently for genuinely
periodic data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Doubles the largest transient of one transform chunk may hold (128 KiB):
# the padded autocorrelation spectrum of each row where it is computed, the
# power spectrum's n + 2 doubles where it is not. A few hundred-frame rows
# share a chunk, and long rows go one at a time.
TRANSFORM_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class SeasonalityReport:
    """Bundle of the per-series cycle diagnostics. ``acf`` is None where
    no report can write it: on the reference side of a transfer."""

    acf: np.ndarray | None
    spectrum: np.ndarray
    dominant_frequency: int
    reference_period: float


def _acf_size(n: int, max_lag: int) -> int:
    """FFT length of the autocorrelation of n samples up to lag max_lag:
    the smallest 5-smooth integer (2**a * 3**b * 5**c) of at least
    n + max_lag, the shortest length at which no lag up to max_lag wraps.

    Each product p of a power of 5 and a power of 3 is lifted to n + max_lag
    by the smallest power of two; the least of those products is the length.
    """
    need = n + max_lag
    size = 1 << (need - 1).bit_length()
    p5 = 1
    while p5 < size:
        p = p5
        while p < size:
            size = min(size, p << (-(-need // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return size


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation for lags 0..max_lag, 1 <= max_lag < n,
    of a non-constant series, along the last axis.

    acf[k] = sum((x[t]-mean)*(x[t+k]-mean)) / sum((x[t]-mean)**2), with the
    denominator running over the full series. The lag sums come from one
    FFT (Wiener-Khinchin): the mean-removed series is zero-padded to the
    smallest 5-smooth length N >= n + max_lag (:func:`_acf_size`). A
    circular lag-k sum of length N adds x[t]*x[t+k-N] only for t >= N - k,
    where x is zero, so every lag up to max_lag equals the linear sum, and
    the inverse transform of |F|**2 holds them all. numpy's FFT runs
    2-, 3- and 5-smooth lengths at full speed.
    Cost is O(n log n) whatever max_lag is. Each lag is divided by the lag-0
    sum taken from the same transform, so acf[0] is exactly 1; the other
    lags match the direct sums to rounding error (below 1e-15 on random
    series). Each row of a (k, n) block gets the bits the row gives alone.
    """
    size = _acf_size(series.shape[-1], max_lag)
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


def analyze_rows(rows: np.ndarray, *, with_acf: bool = True) -> tuple[list[SeasonalityReport], np.ndarray]:
    """Run the full cycle analysis on each row of a (k, n) block of
    non-constant series, n >= 4, with the autocorrelation up to lag
    floor(n/2), or with ``acf`` None when ``with_acf`` is false. Returns
    the reports and the (k, n // 2 + 1) block of their spectra.

    Each row's report holds the bits :func:`analyze_series` gives for
    that row alone. The rows go through the transforms in chunks whose
    largest transient stays within TRANSFORM_CHUNK doubles: per row, the
    autocorrelation's padded spectrum of _acf_size(n, n // 2) + 2 doubles,
    or the power spectrum's n + 2 without it; a chunk holds one row at
    least. The chunks fill a block of spectrum rows, and a block of acf
    rows only when the acf is computed, so each report's arrays are rows
    of those blocks.
    """
    k, n = rows.shape
    max_lag = n // 2
    step = max(1, TRANSFORM_CHUNK // ((_acf_size(n, max_lag) if with_acf else n) + 2))
    spectrum = np.empty((k, max_lag + 1))
    acf = np.empty((k, max_lag + 1)) if with_acf else [None] * k
    for start in range(0, k, step):
        if with_acf:
            acf[start : start + step] = autocorrelation(rows[start : start + step], max_lag)
        spectrum[start : start + step] = power_spectrum(rows[start : start + step])
    reports = [
        SeasonalityReport(acf=a, spectrum=s, dominant_frequency=f, reference_period=reference_period(n, f))
        for a, s, f in zip(acf, spectrum, dominant_frequency(spectrum))
    ]
    return reports, spectrum


def analyze_series(series: np.ndarray) -> SeasonalityReport:
    """Run the full cycle analysis on a non-constant series of n >= 4
    samples, with the autocorrelation up to lag floor(n/2)."""
    reports, _ = analyze_rows(series[np.newaxis])
    return reports[0]
