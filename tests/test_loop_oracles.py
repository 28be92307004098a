"""Array implementations checked against plain loops that define them.

Each oracle below is the straightforward per-sample or per-pair loop the
vectorised function replaces. Integer results must match exactly; the
autocorrelation sums in another order, so it gets a tolerance.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycletransfer.decomposition import (
    MIN_LEAD_COEF,
    REL_COEF_FLOOR,
    PeriodSegmentation,
    crossing_error,
    find_crossovers,
    sign_changes,
    trend_orders,
    validate_period_rows,
    validate_periods,
)
from cycletransfer.errors import SeasonalityNotFoundError
from cycletransfer.seasonality import _acf_size, autocorrelation, fisher_g_rows
from cycletransfer.series import exponential_smoothing
from cycletransfer.transfer import _frame_intervals, apply_transfer, build_phi


def acf_oracle(x, max_lag):
    d = x - x.mean()
    n = d.size
    return np.array([np.dot(d[: n - k], d[k:]) for k in range(max_lag + 1)]) / np.dot(d, d)


def crossovers_oracle(sign):
    sign = list(sign)
    for i in range(len(sign) - 2, -1, -1):
        if sign[i] == 0:
            sign[i] = sign[i + 1]
    return [
        (i, "rising" if sign[i] > 0 else "falling")
        for i in range(1, len(sign))
        if sign[i - 1] != 0 and sign[i] != 0 and sign[i - 1] != sign[i]
    ]


def validate_oracle(cand, l, alpha):
    window = (1.0 - alpha) * l
    retained = [p for p in cand if any(q != p and abs(abs(q - p) - l) < window for q in cand)]
    periods = [(a, b) for a, b in zip(retained, retained[1:]) if abs((b - a) - l) < window]
    return retained, periods


def interval_sizes(length, l_min):
    """Interval sizes of a period of L frames cut evenly into l intervals:
    interval j holds frames ceil(j L / l) to ceil((j + 1) L / l) - 1."""
    edges = [-(-j * length // l_min) for j in range(l_min + 1)]
    return [b - a for a, b in zip(edges, edges[1:])]


def phi_oracle(periods, l_min):
    frames, interval = [], []
    for start, end in periods:
        frames.extend(range(start, end))
        for j, size in enumerate(interval_sizes(end - start, l_min), start=1):
            interval.extend([j] * size)
    return frames, interval


def two_phase_transfer_oracle(trend, mean_factor, periods, reference_period):
    """The two-phase fill that apply_transfer's one interval rule replaces.

    Frames inside periods take the per-period map first. Each frame left
    over is then anchored at the end of the last period before it, found
    with searchsorted, or at the first start for the leading gap, and
    placed on a grid of the reference period rounded to a whole frame.
    """
    n, l_min = trend.size, mean_factor.size
    applied = np.empty(n)
    transferred = np.zeros(n, dtype=bool)
    frames, interval = phi_oracle(periods, l_min)
    applied[frames] = mean_factor[np.array(interval, dtype=int) - 1]
    transferred[frames] = True
    l_int = max(1, int(round(reference_period)))
    ends = np.array([end for _, end in periods])
    outside = np.nonzero(~transferred)[0]
    anchor_idx = np.searchsorted(ends, outside, side="right") - 1
    anchors = np.where(anchor_idx < 0, periods[0][0], ends[np.maximum(anchor_idx, 0)])
    offsets = (outside - anchors) % l_int
    ends_of_intervals = np.cumsum(interval_sizes(l_int, l_min))
    applied[outside] = mean_factor[np.searchsorted(ends_of_intervals, offsets, side="right")]
    return trend + applied, applied, transferred


def exponential_oracle(series, alpha, radius):
    n = series.size
    if alpha == 1.0 or 2 * radius >= n:
        return series.copy()
    beta = (1.0 - alpha) / (2.0 * radius)
    out = series.copy()
    for i in range(radius, n - radius):
        out[i] = alpha * series[i] + beta * sum(series[i - j] + series[i + j] for j in range(1, radius + 1))
    return out


def trend_order_oracle(coefficients, f):
    """The trend order rule as a scan down from the highest power."""
    magnitudes = [abs(c) for c in coefficients]
    floor = max(MIN_LEAD_COEF, REL_COEF_FLOOR * max(magnitudes))
    order = next((k for k in range(len(magnitudes) - 1, 0, -1) if floor < magnitudes[k] < f), None)
    return (1, True) if order is None else (order, False)


def fisher_oracle(spectrum, n):
    """Fisher's g and p of one spectrum, its bins summed as one 1-D array."""
    power = spectrum[1 : (n - 1) // 2 + 1]
    total = float(power.sum())
    if not total > 0.0:
        return 0.0, 1.0
    g = float(power.max()) / total
    return g, min(1.0, power.size * (1.0 - g) ** (power.size - 1))


def segmentation(start, lengths):
    bounds = np.concatenate([[start], np.cumsum(lengths) + start]).tolist()
    return PeriodSegmentation(
        period_starts=np.asarray(bounds, dtype=int),
        periods=list(zip(bounds[:-1], bounds[1:])),
        reference_period=10.0,
        alpha=0.8,
    )


@given(st.integers(2, 300), st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_acf_matches_direct_sums(n, seed, data):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4) + rng.uniform(-50, 50)
    max_lag = data.draw(st.integers(1, n - 1))
    acf = autocorrelation(x, max_lag)
    assert acf.shape == (max_lag + 1,)
    assert acf[0] == 1.0
    np.testing.assert_allclose(acf, acf_oracle(x, max_lag), rtol=0, atol=1e-12)


def is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_acf_length_is_the_shortest_wrap_free_5_smooth_one():
    for n in range(2, 201):
        for max_lag in range(1, n):
            size = _acf_size(n, max_lag)
            assert is_5_smooth(size) and size >= n + max_lag, (n, max_lag, size)
            assert not any(is_5_smooth(m) for m in range(n + max_lag, size)), (n, max_lag, size)


def test_acf_matches_direct_sums_at_every_lag_of_short_series():
    # Every max_lag of every short length: the largest lags are the first
    # to wrap around when the padded length is too short.
    rng = np.random.Generator(np.random.PCG64(12))
    for n in range(2, 41):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4) + rng.uniform(-50, 50)
        for max_lag in range(1, n):
            acf = autocorrelation(x, max_lag)
            assert acf[0] == 1.0
            np.testing.assert_allclose(acf, acf_oracle(x, max_lag), rtol=0, atol=1e-12, err_msg=f"{n=} {max_lag=}")


@given(
    st.integers(2, 400),
    st.integers(0, 2 ** 32 - 1),
    st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_exponential_smoothing_matches_window_loop(n, seed, alpha, data):
    rng = np.random.Generator(np.random.PCG64(seed))
    scale = 10.0 ** rng.integers(-3, 4)
    x = scale * (rng.standard_normal(n) + rng.uniform(-5, 5))
    radius = data.draw(st.integers(1, n - 1))
    got = exponential_smoothing(x, alpha, radius)
    np.testing.assert_allclose(got, exponential_oracle(x, alpha, radius), rtol=0, atol=1e-12 * np.ptp(x))
    # Boundary samples are copied, and a constant series comes back bit-exact.
    np.testing.assert_array_equal(got[:radius], x[:radius])
    np.testing.assert_array_equal(got[n - radius :], x[n - radius :])
    flat = np.full(n, x[0])
    np.testing.assert_array_equal(exponential_smoothing(flat, alpha, radius), flat)


signs = st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=1, max_size=60)


@given(signs, st.integers(0, 10), st.floats(-3.0, 3.0))
@settings(max_examples=300, deadline=None)
def test_find_crossovers_matches_loop(sign, zero_tail, level):
    # Zero runs come from the 0 entries, all-zero tails from zero_tail.
    sign = np.array(sign + [0.0] * zero_tail)
    trend = np.full(sign.size, level)
    smoothed = trend + sign * np.linspace(0.5, 2.0, sign.size)
    expected = crossovers_oracle(np.sign(smoothed - trend))
    if not expected:
        with pytest.raises(SeasonalityNotFoundError, match="never crosses its trend"):
            find_crossovers(smoothed, trend)
        return
    got = find_crossovers(smoothed, trend)
    assert got.dtype == np.intp
    assert got.tolist() == [i for i, direction in expected if direction == "rising"]


@st.composite
def sign_blocks(draw):
    """A (k, n) block of differences from a trend: rows of any signs, rows
    of one sign, rows that fall once, each with leading and trailing runs
    of exact zeros and zeros inside, at magnitudes from 1e-300 to 1e300."""
    n = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["any", "one sign", "falls once"]))
        if kind == "any":
            row = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=n, max_size=n))
        elif kind == "one sign":
            side = draw(st.sampled_from([-1.0, 1.0]))
            row = draw(st.lists(st.sampled_from([side, 0.0]), min_size=n, max_size=n))
        else:
            cut = draw(st.integers(0, n))
            row = [draw(st.sampled_from([1.0 if i < cut else -1.0, 0.0])) for i in range(n)]
        row = np.array(row)
        row[: draw(st.integers(0, n))] = 0.0
        row[n - draw(st.integers(0, n)) :] = 0.0
        magnitudes = draw(st.lists(st.sampled_from([1e-300, 1e-12, 0.5, 3.0, 1e300]), min_size=n, max_size=n))
        rows.append(row * magnitudes)
    return np.array(rows)


@given(sign_blocks())
@settings(max_examples=300, deadline=None)
def test_sign_changes_match_loop_row_by_row(d):
    row_of, index, changes = sign_changes(d)
    # A smoother may hand over its rows in column-major order.
    for got, expected in zip(sign_changes(np.asfortranarray(d)), (row_of, index, changes)):
        np.testing.assert_array_equal(got, expected)
    assert np.all(np.diff(row_of * d.shape[1] + index) > 0)  # row-major order
    assert changes.shape == (d.shape[0],)
    for r, row in enumerate(d):
        expected = crossovers_oracle(np.sign(row))
        assert index[row_of == r].tolist() == [i for i, direction in expected if direction == "rising"]
        assert changes[r] == len(expected)
        error = crossing_error(changes[r])
        assert (error is None) == bool(expected)
        if error is not None:
            assert str(error) == "series never crosses its trend"
            with pytest.raises(SeasonalityNotFoundError, match="never crosses its trend"):
                find_crossovers(row, np.zeros(row.size))
        else:
            # find_crossovers is the one-row form of the block pass.
            got = find_crossovers(row, np.zeros(row.size))
            assert got.tolist() == [i for i, direction in expected if direction == "rising"]


@given(
    st.one_of(st.integers(1, 60).map(float), st.floats(0.5, 60.0)),
    st.one_of(st.sampled_from([0.5, 0.75, 0.8, 0.9]), st.floats(0.01, 0.99)),
    st.integers(0, 50),
    st.data(),
)
@settings(max_examples=400, deadline=None)
def test_validate_periods_matches_pairwise_scan(l, alpha, start, data):
    # Integer l with these alphas puts window edges on integer gaps; gaps
    # drawn up to 2.5 l land on both edges and on either side of them.
    gaps = data.draw(st.lists(st.integers(1, int(2.5 * l) + 2), max_size=30))
    cand = np.cumsum([start] + gaps).tolist()
    retained, periods = validate_oracle(cand, l, alpha)
    if len(retained) < 2 or not periods:
        with pytest.raises(SeasonalityNotFoundError):
            validate_periods(cand, l, alpha)
        return
    seg = validate_periods(cand, l, alpha)
    assert seg.period_starts.tolist() == retained
    assert seg.periods == periods


@st.composite
def candidate_rows(draw, alpha):
    """One row of a validation block: its reference period and its strictly
    increasing candidate starts. Rows may hold no candidate or one, may
    have a reference period no integer gap passes (0.5, whose window stays
    below half a frame), and draw half their gaps from the integers on and
    beside the window's edges."""
    l = draw(st.one_of(st.integers(1, 40).map(float), st.floats(0.5, 40.0), st.just(0.5)))
    window = (1.0 - alpha) * l
    edges = sorted({max(1, g) for e in (l - window, l + window) for g in range(int(e) - 1, int(e) + 3)})
    gap = st.one_of(st.integers(1, int(2.5 * l) + 2), st.sampled_from(edges))
    start = draw(st.integers(0, 50))
    size = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 25)))
    cand = np.cumsum([start] + draw(st.lists(gap, min_size=size - 1, max_size=size - 1))) if size else []
    return l, list(cand)


@given(st.one_of(st.sampled_from([0.5, 0.75, 0.8, 0.9]), st.floats(0.01, 0.99)).flatmap(
    lambda alpha: st.tuples(st.just(alpha), st.lists(candidate_rows(alpha), min_size=1, max_size=8))
))
@settings(max_examples=300, deadline=None)
# Row 0's starts are 200 apart, far outside its passing gaps of 33 to 47
# frames, while row 1's first start lies 41 keys past 200 in the first
# example and 40 frames below it in the second: only the same-row test
# keeps every start of row 0 out.
@example((0.8, [(40.0, [0, 200]), (40.0, [40, 80])]))
@example((0.8, [(40.0, [0, 200]), (40.0, [160, 200])]))
# An empty row between two rows with candidates.
@example((0.8, [(40.0, [0, 40, 80]), (25.0, []), (40.0, [5, 45, 85])]))
def test_validate_period_rows_match_one_row_form_and_pairwise_scan(case):
    # One pair of probes over a block of rows gives every row what the
    # one-row form and the pairwise scan give it alone: the same starts,
    # periods and error message.
    alpha, rows = case
    got = validate_period_rows(
        [m for m, (_, row) in enumerate(rows) for _ in row],
        [c for _, row in rows for c in row],
        [l for l, _ in rows],
        alpha,
    )
    assert len(got) == len(rows)
    for (l, row), entry in zip(rows, got):
        retained, periods = validate_oracle(row, l, alpha)
        if len(retained) < 2 or not periods:
            message = f"{len(retained)} retained starts and {len(periods)} periods; need at least 2 starts forming 1 period"
            assert isinstance(entry, SeasonalityNotFoundError) and str(entry) == message
            with pytest.raises(SeasonalityNotFoundError) as alone:
                validate_periods(row, l, alpha)
            assert str(alone.value) == message
            continue
        alone = validate_periods(row, l, alpha)
        assert entry.period_starts.tolist() == alone.period_starts.tolist() == retained
        assert entry.periods == alone.periods == periods
        assert entry.reference_period == alone.reference_period == l


@pytest.mark.parametrize("alpha", [0.5, 0.75, 0.8, 0.9])
def test_validate_periods_window_edges(alpha):
    # The last start's only neighbour sits on or next to a window edge, so
    # whether it is retained hinges on the strict inequality.
    for l in range(1, 41):
        window = (1.0 - alpha) * l
        for edge in (l - window, l + window):
            for g in range(max(1, int(edge) - 1), int(edge) + 3):
                cand = [0, l, 2 * l, 2 * l + g]
                seg = validate_periods(cand, float(l), alpha)
                retained, periods = validate_oracle(cand, float(l), alpha)
                assert (seg.period_starts.tolist(), seg.periods) == (retained, periods), (l, g)


@given(st.integers(1, 8), st.integers(1, 30), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_trend_orders_match_the_scan_row_by_row(k, d, seed):
    # Magnitudes across the floor and the cycle count, exact zeros among them.
    rng = np.random.Generator(np.random.PCG64(seed))
    block = rng.choice([-1.0, 1.0], (k, d + 1)) * 10.0 ** rng.uniform(-13.0, 2.5, (k, d + 1))
    block[rng.random((k, d + 1)) < 0.2] = 0.0
    f = rng.integers(1, 60, k).tolist()
    orders, fallbacks = trend_orders(block, f)
    assert list(zip(orders.tolist(), fallbacks.tolist())) == [trend_order_oracle(c, fc) for c, fc in zip(block, f)]


@given(st.integers(1, 8), st.integers(1, 400), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_fisher_g_rows_match_the_one_row_sums(k, n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    spectra = rng.exponential(1.0, (k, n // 2 + 1)) * 10.0 ** rng.uniform(-5.0, 5.0, (k, 1))
    spectra[rng.random(k) < 0.2] = 0.0
    assert fisher_g_rows(spectra, n) == [fisher_oracle(row, n) for row in spectra]


@given(st.integers(1, 12), st.lists(st.integers(0, 20), max_size=8), st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_build_phi_matches_per_period_loop(l_min, extra, start):
    lengths = [l_min + e for e in extra]
    seg = segmentation(start, lengths)
    frames, interval = phi_oracle(seg.periods, l_min)
    imap = build_phi(seg, l_min)
    assert imap.frames.tolist() == frames
    assert imap.interval.tolist() == interval
    assert imap.counts.tolist() == np.bincount(np.array(interval, dtype=int) - 1, minlength=l_min).tolist()
    assert np.diff(seg.bounds, axis=1)[:, 0].tolist() == lengths


@given(st.integers(1, 80), st.integers(1, 20))
@settings(max_examples=300, deadline=None)
def test_interval_rule_matches_size_grid(length, l_min):
    # Lengths below l_min occur only on the periodic extension grid.
    _, grid = phi_oracle([(0, length)], l_min)
    got = _frame_intervals(*np.array([[length], [0], [length], [l_min], [1]])) + 1
    assert got.tolist() == grid


@given(
    st.integers(1, 12),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 20)), min_size=1, max_size=6),
    st.integers(0, 30),
    st.floats(0.5, 40.0),
    st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_apply_transfer_matches_two_phase_fill(l_min, layout, tail, reference_period, seed):
    # layout holds (gap before, extra length) per period: a leading gap,
    # gaps between periods or none, one period or several; tail is the
    # trailing gap, and a reference period rounding below l_min leaves
    # intervals of the extension grid empty.
    periods, end = [], 0
    for gap, extra in layout:
        periods.append((end + gap, end + gap + l_min + extra))
        end = periods[-1][1]
    seg = PeriodSegmentation(
        period_starts=np.unique(np.ravel(periods)),
        periods=periods,
        reference_period=reference_period,
        alpha=0.8,
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    trend = rng.standard_normal(end + tail)
    factor = rng.standard_normal(l_min)
    refined = apply_transfer(trend, factor, seg)
    values, applied, transferred = two_phase_transfer_oracle(trend, factor, periods, reference_period)
    np.testing.assert_array_equal(refined.applied_factor, applied)
    np.testing.assert_array_equal(refined.transferred, transferred)
    np.testing.assert_array_equal(refined.values, values)
    frames, interval = phi_oracle(periods, l_min)
    imap = build_phi(seg, l_min)
    assert (imap.frames.tolist(), imap.interval.tolist()) == (frames, interval)
