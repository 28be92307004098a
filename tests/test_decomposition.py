import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycletransfer.decomposition import (
    find_crossovers,
    fit_trend,
    gram_fits,
    scaled_abscissa,
    sign_changes,
    trend_orders,
    validate_periods,
)
from cycletransfer.config import MAX_TREND_ORDER, RunConfig
from cycletransfer.errors import SeasonalityNotFoundError, UsageError


def test_scaled_abscissa_endpoints():
    t = scaled_abscissa(5)
    assert t[0] == -1.0
    assert t[-1] == 1.0
    assert t.size == 5


@pytest.mark.parametrize("n", [2, 3, 100, 101, 600, 6000, 60000])
def test_scaled_abscissa_is_antisymmetric_bit_for_bit(n):
    # The fits fold each row about the middle frame, which needs
    # t[n - 1 - i] == -t[i] exactly; linspace(-1, 1, n) misses that by
    # up to 3.3e-16 at these n.
    t = scaled_abscissa(n)
    assert np.array_equal(t, -t[::-1])
    np.testing.assert_allclose(t, np.linspace(-1.0, 1.0, n), rtol=0, atol=4e-16)


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


@given(st.integers(2, 400), st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_gram_fits_give_each_row_its_one_row_fit(n, k, seed, data):
    # Every coefficient is an np.sum along the row, so sharing a block
    # with other rows changes no bit, at any degree.
    # The order rule and the trend walk on the block give each row its
    # one-row fit_trend.
    max_order = data.draw(st.integers(1, 30))
    f = data.draw(st.lists(st.integers(1, 60), min_size=k, max_size=k))
    rows = np.ascontiguousarray(trend_columns(np.random.Generator(np.random.PCG64(seed)), n, k).T)
    fits = gram_fits(rows, max_order)
    d = min(max_order, n - 1)
    assert fits.orthogonal.shape == fits.monomial.shape == (k, d + 1) and fits.ramp.shape == (k, n)
    orders, fallbacks = trend_orders(fits.monomial, f)
    trends = fits.trends(orders)
    for i, row in enumerate(rows):
        batched, alone = fits.row(i), gram_fits(row[np.newaxis].copy(), max_order).row(0)
        for name in ("ratios", "orthogonal", "monomial", "ramp"):
            np.testing.assert_array_equal(getattr(batched, name), getattr(alone, name))
        for order in range(1, d + 1):
            np.testing.assert_array_equal(batched.trend(order), alone.trend(order))
        model = fit_trend(row, max_order, f[i])
        assert (int(orders[i]), bool(fallbacks[i])) == (model.order, model.fallback)
        np.testing.assert_array_equal(trends[i], model.values)


@given(st.integers(2, 400), st.integers(2, 12), st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_trend_walk_gives_each_row_its_one_row_trend(n, k, seed, data):
    # Mixed orders, 1 and d among them: each row's values are its own
    # first terms, whatever orders the other rows of the block have.
    rows = np.ascontiguousarray(trend_columns(np.random.Generator(np.random.PCG64(seed)), n, k).T)
    fits = gram_fits(rows, data.draw(st.integers(1, 30)))
    d = fits.orthogonal.shape[1] - 1
    orders = np.array([1, d] + data.draw(st.lists(st.integers(1, d), min_size=k - 2, max_size=k - 2)))
    orders = orders[np.random.Generator(np.random.PCG64(seed)).permutation(k)]
    trends = fits.trends(orders)
    assert trends.shape == (k, n)
    for i, order in enumerate(orders.tolist()):
        np.testing.assert_array_equal(trends[i], fits.row(i).trend(order))
    # A row block taken out of the fits gives the same rows again.
    subset = [k - 1, 0]
    np.testing.assert_array_equal(fits.row(subset).trends(orders[subset]), trends[subset])


@given(st.integers(2, 400), st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_reversing_the_frames_mirrors_each_fit_exactly(n, k, seed, data):
    # On the antisymmetric grid P_j(-x) = (-1)^j P_j(x), and reversing a
    # row swaps its halves: its even half is the same sum and its odd half
    # the same difference negated. So its odd-j coefficients flip sign
    # exactly, its trend order stays and its trend values come out
    # reversed, bit for bit.
    max_order = data.draw(st.integers(1, 30))
    f = data.draw(st.lists(st.integers(1, 60), min_size=k, max_size=k))
    rows = np.ascontiguousarray(trend_columns(np.random.Generator(np.random.PCG64(seed)), n, k).T)
    fits, mirrored = gram_fits(rows, max_order), gram_fits(rows[:, ::-1].copy(), max_order)
    signs = (-1.0) ** np.arange(fits.orthogonal.shape[1])
    assert np.array_equal(mirrored.orthogonal, signs * fits.orthogonal)
    orders, fallbacks = trend_orders(fits.monomial, f)
    mirrored_orders, mirrored_fallbacks = trend_orders(mirrored.monomial, f)
    np.testing.assert_array_equal(mirrored_orders, orders)
    np.testing.assert_array_equal(mirrored_fallbacks, fallbacks)
    assert mirrored.trends(orders).tobytes() == np.ascontiguousarray(fits.trends(orders)[:, ::-1]).tobytes()
    assert mirrored.ramp.tobytes() == np.ascontiguousarray(fits.ramp[:, ::-1]).tobytes()


def gram_polynomials(fit, n):
    """P_0..P_d of a fit at the n points, by its recurrence, on the whole grid."""
    t = scaled_abscissa(n)
    polynomials = [np.ones(n), t]
    for ratio in fit.ratios[1:-1]:
        polynomials.append(t * polynomials[-1] - ratio * polynomials[-2])
    return np.array(polynomials)


@given(st.integers(2, 400), st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.data())
@settings(max_examples=60, deadline=None)
def test_gram_fits_are_nested_and_the_order_1_trend_is_the_ramp(n, seed, f, data):
    max_order = data.draw(st.integers(1, 30))
    x = trend_columns(np.random.Generator(np.random.PCG64(seed)), n, 1)[:, 0]
    fit = gram_fits(x[np.newaxis], max_order).row(0)
    # The order-1 trend is the ramp; the ramp is the first two terms.
    np.testing.assert_array_equal(fit.trend(1), fit.ramp)
    polynomials = gram_polynomials(fit, n)
    np.testing.assert_array_equal(fit.ramp, fit.orthogonal[0] * polynomials[0] + fit.orthogonal[1] * polynomials[1])
    # A lower degree is the first terms of the same fit.
    low = gram_fits(x[np.newaxis], data.draw(st.integers(1, max_order))).row(0)
    np.testing.assert_array_equal(low.orthogonal, fit.orthogonal[: low.orthogonal.size])
    np.testing.assert_array_equal(low.ramp, fit.ramp)
    model = fit_trend(x, max_order, f)
    np.testing.assert_array_equal(model.values, fit.trend(model.order))
    if model.order == 1:
        np.testing.assert_array_equal(model.values, fit.ramp)


@given(st.integers(8, 400), st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=100, deadline=None)
def test_gram_fits_agree_with_polyfit(n, seed, data):
    max_order = data.draw(st.integers(1, min(12, n - 1)))
    x = trend_columns(np.random.Generator(np.random.PCG64(seed)), n, 1)[:, 0]
    fit = gram_fits(x[np.newaxis], max_order).row(0)
    t = scaled_abscissa(n)
    expected = npoly.polyval(t, npoly.polyfit(t, x, max_order))
    atol = 1e-9 * max(float(np.max(np.abs(x))), np.finfo(float).tiny)
    np.testing.assert_allclose(fit.trend(max_order), expected, rtol=0, atol=atol)
    # The fit in powers of x, which the trend order rule reads.
    np.testing.assert_allclose(npoly.polyval(t, fit.monomial), expected, rtol=0, atol=atol)


def test_gram_basis_stays_orthogonal():
    # The worst cosine between two basis polynomials measured over
    # n = 8..400 is 3.4e-9, at n = 30 and d = 29.
    worst = 0.0
    for n in range(8, 401):
        fit = gram_fits(np.zeros((1, n)), 30)
        polynomials = gram_polynomials(fit, n)
        assert polynomials.shape == (min(30, n - 1) + 1, n)
        # The basis fitted on itself: each row's fit converted to powers of
        # x takes the values the recurrence gives the same coefficients.
        fits = gram_fits(polynomials, 30)
        values = [fits.row(j).trend(polynomials.shape[0] - 1) for j in range(polynomials.shape[0])]
        np.testing.assert_allclose(npoly.polyval(scaled_abscissa(n), fits.monomial.T), values, rtol=0, atol=1e-9)
        gram = polynomials @ polynomials.T
        norms = np.sqrt(np.diag(gram))
        cosines = np.abs(gram / np.outer(norms, norms)) - np.eye(norms.size)
        worst = max(worst, float(cosines.max()))
    assert worst < 1e-7


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
    # d falls at 2 and rises at 4; only the rising change starts a period.
    np.testing.assert_array_equal(find_crossovers(smoothed, trend), [4])


def test_find_crossovers_zero_run_single_crossover():
    # Zeros side with their successor, so the run [0, 0] crossing from
    # positive to negative registers once, at the first zero. It falls, so
    # no period starts there, but the series does cross its trend.
    smoothed = np.array([1.0, 0.0, 0.0, -1.0])
    trend = np.zeros(4)
    assert sign_changes((smoothed - trend)[np.newaxis])[1].tolist() == [1]
    assert find_crossovers(smoothed, trend).size == 0


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
    gaps = np.diff(find_crossovers(x, model.values))
    assert gaps.size >= 3
    assert np.all(np.abs(gaps - 16) <= 2)


def test_sign_changes_alternate_directions():
    rng = np.random.Generator(np.random.PCG64(5))
    x = np.sin(2.0 * np.pi * np.arange(60) / 12.0) + 0.05 * rng.standard_normal(60)
    row_of, index, rising = sign_changes(np.array([x, -x, x[::-1]]))
    for r in range(3):
        mine = row_of == r
        assert mine.sum() >= 8
        assert np.all(np.diff(index[mine]) > 0)
        assert np.all(rising[mine][1:] != rising[mine][:-1])


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
