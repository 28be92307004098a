import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycletransfer.decomposition import (
    FALLING,
    RISING,
    Crossover,
    find_crossovers,
    fit_trend,
    scaled_abscissa,
    trend_probes,
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


def trend_columns(rng, n, k):
    """k columns of n frames: polynomials, cycles on a slope, noise and
    constants, each at its own scale."""
    t = scaled_abscissa(n)
    kinds = [
        lambda: npoly.polyval(t, rng.uniform(-2.0, 2.0, rng.integers(1, 8))),
        lambda: np.sin(2.0 * np.pi * rng.uniform(2.0, 20.0) * t) + rng.uniform(-1.0, 1.0) * t,
        lambda: rng.standard_normal(n),
        lambda: np.full(n, rng.uniform(-1.0, 1.0)),
    ]
    cols = [kinds[rng.integers(len(kinds))]() * 10.0 ** rng.integers(-3, 4) for _ in range(k)]
    return np.column_stack(cols)


@given(st.integers(8, 400), st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_trend_probes_columns_match_one_column_probes(n, k, seed, data):
    # One solve over a shared design matrix (so a shared SVD and rank)
    # gives each column the probe it gets alone, up to rounding. The
    # monomial design's conditioning grows about 2.3x per degree, and so
    # does that rounding: the worst relative difference measured over
    # n = 8..600 was 1e-11 at degree 12, 3e-10 at 16 and 1e-4 at 30. High
    # degrees are why the probe only chooses the order; the pipeline's
    # differential tests check that the chosen orders agree.
    max_order = data.draw(st.integers(1, min(12, n - 1)))
    columns = trend_columns(np.random.Generator(np.random.PCG64(seed)), n, k)
    probes = trend_probes(columns, max_order)
    assert probes.shape == (max_order + 1, k)
    for j in range(k):
        alone = trend_probes(columns[:, j], max_order)
        np.testing.assert_allclose(probes[:, j], alone, rtol=0, atol=1e-9 * np.max(np.abs(alone)))
        # A one-column matrix gives the bits of the series itself.
        np.testing.assert_array_equal(trend_probes(columns[:, j : j + 1], max_order)[:, 0], alone)


@given(st.integers(8, 400), st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.data())
@settings(max_examples=60, deadline=None)
def test_fit_trend_with_own_probe_and_ramp_is_bit_identical(n, seed, f, data):
    max_order = data.draw(st.integers(1, min(30, n - 1)))
    x = trend_columns(np.random.Generator(np.random.PCG64(seed)), n, 1)[:, 0]
    t = scaled_abscissa(n)
    alone = fit_trend(x, max_order, f)
    line = npoly.polyfit(t, x, 1)
    given_parts = fit_trend(x, max_order, f, probe=trend_probes(x, max_order), line=(line, npoly.polyval(t, line)))
    assert (given_parts.order, given_parts.fallback) == (alone.order, alone.fallback)
    np.testing.assert_array_equal(given_parts.coefficients, alone.coefficients)
    np.testing.assert_array_equal(given_parts.values, alone.values)


def test_fit_trend_reads_the_probe_it_is_given():
    # The probe alone chooses the order; the refit at that order, or the
    # given line at order 1, supplies the coefficients.
    t = scaled_abscissa(100)
    x = 1.0 + 0.5 * t - 2.0 * t ** 3
    probe = np.zeros(11)
    probe[2] = 1.0
    model = fit_trend(x, 10, 5, probe=probe)
    assert (model.order, model.fallback) == (2, False)
    np.testing.assert_array_equal(model.coefficients, npoly.polyfit(t, x, 2))
    line = np.array([0.25, 0.5])
    ramp = npoly.polyval(t, line)
    model = fit_trend(x, 10, 5, probe=np.zeros(11), line=(line, ramp))
    assert (model.order, model.fallback) == (1, True)
    assert model.coefficients is line and model.values is ramp


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
