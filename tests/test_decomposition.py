import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from cycletransfer.decomposition import (
    FALLING,
    RISING,
    Crossover,
    find_crossovers,
    fit_trend,
    scaled_abscissa,
    validate_periods,
)
from cycletransfer.config import MAX_TREND_ORDER, RunConfig
from cycletransfer.errors import SeasonalityNotFoundError, UsageError


def test_scaled_abscissa_endpoints():
    t = scaled_abscissa(5)
    assert t[0] == -1.0
    assert t[-1] == 1.0
    assert t.size == 5


def test_fit_trend_exact_line():
    t = np.arange(50, dtype=float)
    x = 2.0 * t + 1.0
    model = fit_trend(x, 5, 3)
    np.testing.assert_allclose(model.values, x, atol=1e-8)


def test_fit_trend_exact_cubic():
    t = np.arange(100, dtype=float)
    x = 1.0 - 0.5 * t + 0.02 * t ** 2 + 0.001 * t ** 3
    # In the rescaled abscissa the cubic's leading coefficient is about
    # 121, so the cycle-count bound must sit above that for the true
    # order to be eligible.
    model = fit_trend(x, 30, 200)
    assert model.order == 3
    assert not model.fallback
    np.testing.assert_allclose(model.values, x, atol=1e-7)


def test_fit_trend_constant_falls_back():
    x = np.full(40, 3.0)
    model = fit_trend(x, 5, 2)
    assert model.fallback
    assert model.order == 1
    np.testing.assert_allclose(model.values, x, atol=1e-9)


def test_fit_trend_shift_invariance():
    rng = np.random.Generator(np.random.PCG64(11))
    coef = rng.uniform(-1, 1, 4)
    x = npoly.polyval(scaled_abscissa(120), coef)
    a = fit_trend(x, 10, 5)
    b = fit_trend(x + 100.0, 10, 5)
    np.testing.assert_allclose(b.values - a.values, np.full(120, 100.0), atol=1e-9)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_fit_trend_recovers_exact_polynomials(order):
    rng = np.random.Generator(np.random.PCG64(order))
    coef = rng.uniform(-2.0, 2.0, order + 1)
    if abs(coef[order]) < 0.5:
        coef[order] = 0.5
    x = npoly.polyval(scaled_abscissa(100), coef)
    model = fit_trend(x, 30, 10)
    assert model.order == order
    np.testing.assert_allclose(model.values, x, atol=1e-7)


def test_fit_trend_validation():
    # max_order is refused where the run's settings enter; the analysis
    # caps it at n - 1 and passes the dominant bin, at least 1, as f.
    with pytest.raises(UsageError, match="max_order must be >= 1, got 0"):
        RunConfig(max_order=0)
    with pytest.raises(UsageError, match=f"max_order must be <= {MAX_TREND_ORDER}, got 51"):
        RunConfig(max_order=MAX_TREND_ORDER + 1)
    assert RunConfig(max_order=MAX_TREND_ORDER).max_order == MAX_TREND_ORDER


def test_find_crossovers_hand_example():
    smoothed = np.array([1.0, 1.0, -1.0, -1.0, 1.0])
    trend = np.zeros(5)
    assert find_crossovers(smoothed, trend) == [
        Crossover(2, FALLING),
        Crossover(4, RISING),
    ]


def test_find_crossovers_zero_run_single_crossover():
    # Zeros side with their successor, so the run [0, 0] crossing from
    # positive to negative registers once, at the first zero.
    smoothed = np.array([1.0, 0.0, 0.0, -1.0])
    trend = np.zeros(4)
    assert find_crossovers(smoothed, trend) == [Crossover(1, FALLING)]


def test_find_crossovers_identical_inputs_error():
    x = np.array([0.3, 0.8, 0.1, 0.4])
    with pytest.raises(SeasonalityNotFoundError, match="never crosses its trend"):
        find_crossovers(x, x)


def test_find_crossovers_length_mismatch():
    with pytest.raises(ValueError):
        find_crossovers(np.zeros(4), np.ones(5))


def test_find_crossovers_sin_with_trend_spacing():
    t = np.arange(80, dtype=float)
    x = np.sin(2.0 * np.pi * t / 16.0) + 0.01 * t
    model = fit_trend(x, 30, 5)
    cross = find_crossovers(x, model.values)
    rising = [c.index for c in cross if c.direction == RISING]
    gaps = np.diff(rising)
    assert gaps.size >= 3
    assert np.all(np.abs(gaps - 16) <= 2)


def test_find_crossovers_alternating_directions():
    rng = np.random.Generator(np.random.PCG64(5))
    x = np.sin(2.0 * np.pi * np.arange(60) / 12.0) + 0.05 * rng.standard_normal(60)
    cross = find_crossovers(x, np.zeros(60))
    indices = [c.index for c in cross]
    assert indices == sorted(indices)
    directions = [c.direction for c in cross]
    for a, b in zip(directions, directions[1:]):
        assert a != b


def test_validate_periods_example():
    seg = validate_periods([0, 15, 31], 16.0, 0.8)
    np.testing.assert_array_equal(seg.period_starts, [0, 15, 31])
    assert seg.periods == [(0, 15), (15, 31)]
    np.testing.assert_array_equal(seg.period_lengths, [15, 16])


def test_validate_periods_gap_outside_window():
    with pytest.raises(SeasonalityNotFoundError):
        validate_periods([0, 40], 16.0, 0.8)


def test_validate_periods_single_candidate():
    with pytest.raises(SeasonalityNotFoundError):
        validate_periods([7], 16.0, 0.8)


def test_validate_periods_drops_outlier():
    seg = validate_periods([0, 16, 32, 90], 16.0, 0.8)
    np.testing.assert_array_equal(seg.period_starts, [0, 16, 32])
    assert seg.periods == [(0, 16), (16, 32)]


def test_validate_periods_idempotent():
    seg = validate_periods([0, 15, 31, 46, 63], 16.0, 0.8)
    again = validate_periods(seg.period_starts, 16.0, 0.8)
    np.testing.assert_array_equal(again.period_starts, seg.period_starts)
    assert again.periods == seg.periods


def test_validate_periods_lengths_inside_window():
    seg = validate_periods([0, 15, 31, 46, 63], 16.0, 0.8)
    for length in seg.period_lengths:
        assert abs(length - 16.0) < 0.2 * 16.0


def test_validate_periods_validation():
    # alpha is refused where the run's settings enter; the candidates and
    # the reference period come from the analysis, increasing and positive.
    for alpha in (0.0, 1.0, 1.5):
        with pytest.raises(UsageError, match=rf"alpha must lie in \(0, 1\), got {alpha}"):
            RunConfig(alpha=alpha)


def test_covered_frames_concatenates_periods():
    seg = validate_periods([0, 15, 31], 16.0, 0.8)
    np.testing.assert_array_equal(seg.covered_frames(), np.arange(31))
