import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cycletransfer.config import RunConfig
from cycletransfer.errors import ConstantSeriesError, DataError, UsageError
from cycletransfer.series import (
    ScaleParams,
    as_series,
    default_smooth_radius,
    denormalize,
    exponential_smoothing,
    mean_smoothing,
    normalize_minmax,
)

finite_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def varied_series(min_size=2, max_size=64):
    return (
        hnp.arrays(np.float64, st.integers(min_size, max_size), elements=finite_values)
        .filter(lambda a: np.ptp(a) > 1e-6)
    )


def test_as_series_basic():
    x = as_series([1, 2, 3])
    assert x.dtype == np.float64
    assert x.shape == (3,)


def test_as_series_rejects_bad_input():
    with pytest.raises(ValueError):
        as_series([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_series([1.0, np.nan])
    with pytest.raises(ValueError):
        as_series([1.0, np.inf])
    with pytest.raises(ValueError):
        as_series([])


def test_normalize_example():
    normed, params = normalize_minmax(np.array([2.0, 4.0, 6.0]))
    np.testing.assert_allclose(normed, [0.0, 0.5, 1.0], atol=0)
    assert params == ScaleParams(2.0, 6.0)


def test_normalize_already_unit_range():
    normed, params = normalize_minmax(np.array([0.0, 1.0, 0.5]))
    np.testing.assert_array_equal(normed, [0.0, 1.0, 0.5])
    assert params == ScaleParams(0.0, 1.0)


def test_normalize_constant_errors():
    with pytest.raises(ConstantSeriesError):
        normalize_minmax(np.array([5.0, 5.0, 5.0]))
    # Constant means a range of at most 4 float64 spacings at the values'
    # magnitude, whatever their units; a range of 5 is normalized.
    eps = 2.0**-52
    for scale in (1.0, 2.0**-900, 2.0**900):
        with pytest.raises(ConstantSeriesError, match="series range is at most 4 float64 spacings"):
            normalize_minmax(scale * np.array([1.0, 1.0 + 4 * eps]))
        normed, _ = normalize_minmax(scale * np.array([1.0, 1.0 + 5 * eps]))
        np.testing.assert_array_equal(normed, [0.0, 1.0])
    normed, _ = normalize_minmax(np.array([0.0, 1e-300, 0.5e-300]))
    np.testing.assert_array_equal(normed, [0.0, 1.0, 0.5])


def test_normalize_rejects_range_overflow():
    # max - min is inf, which would make every normalized sample NaN.
    with pytest.raises(DataError, match=r"range from min -1.5e\+308 to max 1.5e\+308 overflows float64"):
        normalize_minmax(np.array([-1.5e308, 0.0, 1.5e308]))
    normed, _ = normalize_minmax(np.array([-0.8e308, 0.0, 0.8e308]))
    np.testing.assert_array_equal(normed, [0.0, 0.5, 1.0])


def test_denormalize_example():
    restored = denormalize(np.array([0.0, 0.5, 1.0]), ScaleParams(2.0, 6.0))
    np.testing.assert_allclose(restored, [2.0, 4.0, 6.0], atol=0)


@given(varied_series())
def test_normalize_round_trip(x):
    normed, params = normalize_minmax(x)
    assert normed.min() == 0.0
    assert normed.max() == 1.0
    np.testing.assert_allclose(denormalize(normed, params), x, atol=1e-12 * max(1.0, np.ptp(x)))


def test_mean_smoothing_example():
    out = mean_smoothing(np.array([0.0, 0.0, 3.0, 0.0, 0.0]), 1)
    np.testing.assert_allclose(out, [0.0, 1.0, 1.0, 1.0, 0.0], atol=1e-12)


def test_mean_smoothing_zero_radius_is_identity():
    x = np.array([1.0, -2.0, 3.5])
    out = mean_smoothing(x, 0)
    np.testing.assert_array_equal(out, x)
    assert out is not x


def test_mean_smoothing_radius_validation():
    # A negative radius is refused where the run's settings enter.
    with pytest.raises(UsageError, match="smooth_radius must be >= 0, got -1"):
        RunConfig(smooth_radius=-1)
    with pytest.raises(DataError, match="radius 3 must be below the series length 3"):
        mean_smoothing(np.array([1.0, 2.0, 3.0]), 3)


# The running sums' rounding left this row's range by 1.5e-9 (mean) and
# 1.05e-9 (exponential) before the smoothers clipped their output.
SPIKE = np.r_[999999.1, np.zeros(31)]


@given(varied_series(min_size=3), st.integers(0, 5))
@example(SPIKE, 1)
def test_mean_smoothing_stays_in_range(x, radius):
    radius = min(radius, x.size - 1)
    out = mean_smoothing(x, radius)
    assert out.min() >= x.min() - 1e-9 * max(1.0, abs(x.min()))
    assert out.max() <= x.max() + 1e-9 * max(1.0, abs(x.max()))


@given(varied_series(min_size=3), st.floats(0.05, 1.0), st.integers(1, 5))
@example(SPIKE, 0.5, 1)
def test_exponential_smoothing_stays_in_range(x, alpha, radius):
    radius = min(radius, x.size - 1)
    out = exponential_smoothing(x, alpha, radius)
    assert out.min() >= x.min() - 1e-9 * max(1.0, abs(x.min()))
    assert out.max() <= x.max() + 1e-9 * max(1.0, abs(x.max()))


@given(st.floats(-100, 100, allow_nan=False), st.integers(3, 20), st.integers(1, 4))
def test_mean_smoothing_preserves_constants(value, n, radius):
    radius = min(radius, n - 1)
    out = mean_smoothing(np.full(n, value), radius)
    np.testing.assert_array_equal(out, np.full(n, value))


def test_exponential_smoothing_example():
    out = exponential_smoothing(np.array([0.0, 0.0, 3.0, 0.0, 0.0]), 0.5, 1)
    np.testing.assert_allclose(out, [0.0, 0.75, 1.5, 0.75, 0.0], atol=1e-12)


def test_exponential_smoothing_alpha_one_is_identity():
    x = np.array([1.0, 4.0, -2.0, 0.5])
    np.testing.assert_array_equal(exponential_smoothing(x, 1.0, 1), x)


def test_exponential_smoothing_alpha_validation():
    # alpha and a zero radius are refused where the run's settings enter;
    # only the radius against the series length depends on the series.
    with pytest.raises(UsageError, match=r"exp_alpha must lie in \(0, 1\], got 0\.0"):
        RunConfig(exp_alpha=0.0)
    with pytest.raises(UsageError, match=r"exp_alpha must lie in \(0, 1\], got 1\.5"):
        RunConfig(exp_alpha=1.5)
    with pytest.raises(UsageError, match="smooth_radius must be >= 1 for exponential smoothing"):
        RunConfig(smooth_kind="exponential", smooth_radius=0)
    with pytest.raises(DataError, match="radius 3 must be below the series length 3"):
        exponential_smoothing(np.array([1.0, 2.0, 3.0]), 0.5, 3)


@given(
    st.floats(-50, 50, allow_nan=False),
    st.integers(4, 30),
    st.floats(0.1, 1.0),
    st.integers(1, 3),
)
@settings(max_examples=60)
def test_exponential_smoothing_weights_sum_to_one(value, n, alpha, radius):
    # Constant input must come back unchanged for any valid alpha/radius,
    # which is equivalent to the kernel weights summing to one.
    radius = min(radius, n - 1)
    out = exponential_smoothing(np.full(n, value), alpha, radius)
    np.testing.assert_allclose(out, np.full(n, value), atol=1e-10)


def test_exponential_smoothing_copies_boundaries():
    x = np.array([5.0, 1.0, 2.0, 3.0, -7.0])
    out = exponential_smoothing(x, 0.3, 2)
    assert out[0] == x[0]
    assert out[-1] == x[-1]


@pytest.mark.parametrize("n", [4, 9, 45])
@pytest.mark.parametrize("radius", [1, 3, "n - 1"])
def test_smoothers_return_row_major_blocks_of_one_row_results(n, radius):
    # The side step subtracts each row's trend from the smoothed block in
    # place and hands it to sign_changes; both smoothers give it one layout.
    radius = n - 1 if radius == "n - 1" else radius
    block = np.random.Generator(np.random.PCG64(n)).standard_normal((5, n)) * [[1e-3], [1.0], [7.0], [1e3], [0.5]]
    for name, smooth in (
        ("mean", lambda x: mean_smoothing(x, radius)),
        ("exponential", lambda x: exponential_smoothing(x, 0.4, radius)),
    ):
        out = smooth(block)
        assert out.shape == block.shape and out.flags.c_contiguous, name
        for row, got in zip(block, out):
            np.testing.assert_array_equal(got, smooth(row), err_msg=name)


@pytest.mark.parametrize(
    "period,expected",
    [(16.0, 2), (8.0, 1), (3.0, 1), (40.0, 5), (12.5, 2)],
)
def test_default_smooth_radius(period, expected):
    assert default_smooth_radius(period) == expected


def test_default_radius_is_below_every_series_length():
    # The side step checks only a set radius against n: a default radius
    # is largest at f = 1, where the reference period is n itself.
    assert all(default_smooth_radius(n / 1) < n for n in range(4, 100_001))
