import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycletransfer.errors import DataError
from cycletransfer.seasonality import (
    analyze_series,
    autocorrelation,
    dominant_frequency,
    fisher_g,
    power_spectrum,
    reference_period,
)
from cycletransfer.tableio import PoseTable
from cycletransfer.transfer import analyze_table


def sinusoid(n, cycles, phase=0.0):
    t = np.arange(n, dtype=float)
    return np.sin(2.0 * np.pi * (cycles * t / n + phase))


def test_acf_lag_zero_is_one():
    rng = np.random.Generator(np.random.PCG64(0))
    acf = autocorrelation(rng.standard_normal(50), 10)
    assert acf[0] == 1.0


@pytest.mark.parametrize("n", [10, 11, 40, 81])
def test_acf_alternating_closed_form(n):
    x = np.array([1.0 if t % 2 == 0 else -1.0 for t in range(n)])
    acf = autocorrelation(x, 2)
    # Biased estimator: n-1 products of -1 over a denominator of n.
    assert acf[1] == pytest.approx(-(n - 1) / n, rel=1e-12)


def test_acf_peak_matches_cycle_length():
    x = sinusoid(80, 5)
    acf = autocorrelation(x, 40)
    lags = np.arange(8, 25)
    assert lags[np.argmax(acf[8:25])] == 16


@given(st.integers(8, 64), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_acf_bounded(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal(n)
    acf = autocorrelation(x, n // 2)
    assert np.all(np.abs(acf) <= 1.0 + 1e-9)


def test_spectrum_pure_sinusoid_single_bin():
    s = power_spectrum(sinusoid(80, 5))
    assert int(np.argmax(s)) == 5
    others = np.delete(s, 5)
    assert np.all(others < 1e-20 * s[5])


def test_fisher_g_pure_sinusoid_has_all_power_in_one_bin():
    n = 80
    g, p = fisher_g(power_spectrum(sinusoid(n, 5)), n)
    assert g == pytest.approx(1.0, abs=1e-12)
    assert p < 1e-300


def test_fisher_g_hand_computed():
    # n = 9: bins 1..4, m = 4; g = 3/4 and p = 4 * (1/4)**3.
    assert fisher_g(np.array([0.0, 1.0, 3.0, 0.0, 0.0]), 9) == (0.75, 0.0625)


@pytest.mark.parametrize("n", [10, 40])
def test_fisher_g_zero_power_is_p_one(n):
    # An alternating series puts all its power in the Nyquist bin, which
    # the test leaves out, as it does DC.
    x = np.array([1.0 if t % 2 == 0 else -1.0 for t in range(n)])
    assert fisher_g(power_spectrum(x), n) == (0.0, 1.0)
    assert fisher_g(np.zeros(n // 2 + 1), n) == (0.0, 1.0)


def test_fisher_g_counts_the_last_bin_for_odd_n():
    # For odd n the last bin is not Nyquist; for even n it is.
    spectrum = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 2.0])
    assert fisher_g(spectrum, 11) == (1.0, 0.0)
    assert fisher_g(spectrum, 10) == (0.0, 1.0)


def test_spectrum_too_short():
    # The sample count is checked before the analysis reaches the spectrum.
    table = PoseTable(["c"], np.array([[0.0], [1.0], [0.0]]))
    with pytest.raises(DataError, match="^channel 'c': series has 3 samples, need at least 4$"):
        analyze_table(table)


def test_spectrum_nonnegative_and_dc_free():
    rng = np.random.Generator(np.random.PCG64(7))
    s = power_spectrum(rng.standard_normal(100))
    assert s[0] == 0.0
    assert np.all(s >= 0.0)


@pytest.mark.parametrize("n", [64, 65, 128, 255])
def test_spectrum_parseval(n):
    rng = np.random.Generator(np.random.PCG64(n))
    x = rng.standard_normal(n)
    s = power_spectrum(x)
    # Reassemble the full-spectrum sum from the half spectrum: interior
    # bins appear twice by conjugate symmetry, the Nyquist bin (even n
    # only) and DC once.
    if n % 2 == 0:
        total = s[0] + 2.0 * s[1:-1].sum() + s[-1]
    else:
        total = s[0] + 2.0 * s[1:].sum()
    expected = float(np.sum((x - x.mean()) ** 2))
    assert total == pytest.approx(expected, rel=1e-9)


def test_spectrum_offset_invariant():
    x = sinusoid(80, 3)
    np.testing.assert_allclose(power_spectrum(x), power_spectrum(x + 17.5), atol=1e-9)


def test_dominant_frequency_peak_bin():
    assert dominant_frequency(power_spectrum(sinusoid(80, 5))) == 5


def test_dominant_frequency_tie_breaks_low():
    s = np.zeros(41)
    s[3] = 2.0
    s[7] = 2.0
    assert dominant_frequency(s) == 3


def test_dominant_frequency_all_equal():
    s = np.ones(41)
    s[0] = 0.0
    assert dominant_frequency(s) == 1


def test_reference_period_examples():
    assert reference_period(80, 5) == 16.0
    assert reference_period(90, 1) == 90.0
    assert reference_period(100, 8) == 12.5


@given(st.integers(8, 400), st.integers(1, 4))
def test_reference_period_times_frequency(n, f):
    f = min(f, n // 2)
    assert reference_period(n, f) * f == n


@pytest.mark.parametrize("cycles", [2, 3, 5, 10, 20])
def test_sinusoid_cycle_count_recovered(cycles):
    x = sinusoid(80, cycles) + 3.0
    assert dominant_frequency(power_spectrum(x)) == cycles


def test_analyze_series_bundle():
    report = analyze_series(sinusoid(80, 5))
    assert report.dominant_frequency == 5
    assert report.reference_period == 16.0
    assert report.acf.size == 41
    assert report.acf[0] == 1.0
