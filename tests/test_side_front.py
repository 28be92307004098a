"""The analysis of a table side against the one-series stages.

The side step runs every stage once over all rows of a side:
normalization, the least-squares fits, the spectrum, the autocorrelation,
Fisher's g gate, the trend order rule and trend walk, the smoother (once
per smoothing radius, into one block), the crossovers and the period
validation. Each row must come out with the bits the one-series stages
give it, and must fail the same check with the same message, in the same
order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycletransfer.seasonality
from cycletransfer.config import RunConfig
from cycletransfer.decomposition import (
    find_crossovers,
    fit_trend,
    gram_fits,
    validate_periods,
)
from cycletransfer.errors import ConstantSeriesError, CycleTransferError, DataError, SeasonalityNotFoundError
from cycletransfer.seasonality import (
    TRANSFORM_CHUNK,
    analyze_rows,
    autocorrelation,
    dominant_frequency,
    fisher_g_rows,
    power_spectrum,
)
from cycletransfer.series import (
    default_smooth_radius,
    exponential_smoothing,
    length_error,
    mean_smoothing,
    normalize_minmax,
    raise_if_error,
)
from cycletransfer.tableio import PoseTable
from cycletransfer.transfer import (
    MAX_SEASONALITY_P,
    STATUS_PASSTHROUGH,
    STATUS_SKIPPED,
    STATUS_TRANSFERRED,
    SequenceDiagnostics,
    _analyze_side,
    analyze_table,
    transfer_channel,
    transfer_table,
)


def analysis_alone(x, cfg):
    """One series through the one-series stages, in the order the
    analysis checks them; the error it meets instead, if any."""
    n = x.size
    try:
        raise_if_error(length_error(n, 2))
        normalized, scale = normalize_minmax(x)
        cyclic = normalized - gram_fits(normalized[np.newaxis], 1).ramp[0]
        if float(np.ptp(cyclic)) < 1e-12:
            raise ConstantSeriesError("series is a plain ramp, no cyclic part to analyze")
        raise_if_error(length_error(n, 4))
        spectrum = power_spectrum(cyclic)
        f = dominant_frequency(spectrum)
        radius = cfg.smooth_radius
        if radius is None:
            radius = default_smooth_radius(n / f)
        if cfg.smooth_kind == "exponential":
            smoothed = exponential_smoothing(normalized, cfg.exp_alpha, radius)
        else:
            smoothed = mean_smoothing(normalized, radius)
    except CycleTransferError as exc:
        return exc
    # The trend is fitted afresh, by a one-row pass, and must equal the
    # side step's bit for bit.
    trend = fit_trend(normalized, min(cfg.max_order, n - 1), f)
    segmentation = failure = rising_candidates = None
    g, p = fisher_g_rows(spectrum[np.newaxis], n)[0]
    try:
        if p > MAX_SEASONALITY_P:
            raise SeasonalityNotFoundError(
                f"no significant cycle: Fisher's g = {g:.3g}, p = {p:.3g} > {MAX_SEASONALITY_P}"
            )
        rising_candidates = 0
        rising = find_crossovers(smoothed, trend.values)
        rising_candidates = rising.size
        segmentation = validate_periods(rising, n / f, cfg.alpha)
    except SeasonalityNotFoundError as exc:
        failure = str(exc)
    return {
        "scale": scale,
        "acf": autocorrelation(cyclic, n // 2),
        "spectrum": spectrum,
        "dominant_frequency": f,
        "reference_period": n / f,
        "smooth_radius": radius,
        "trend": trend,
        "segmentation": segmentation,
        "failure": failure,
        "rising_candidates": rising_candidates,
        "gate": (g, p),
    }


def assert_same_as_alone(entry, alone):
    """A side step's entry for a row against the row's analysis alone."""
    if isinstance(alone, CycleTransferError):
        assert type(alone) in (ConstantSeriesError, DataError)
        assert (type(entry), str(entry)) == (type(alone), str(alone))
        return
    assert isinstance(entry, SequenceDiagnostics), entry
    np.testing.assert_array_equal(entry.report.acf, alone["acf"])
    np.testing.assert_array_equal(entry.report.spectrum, alone["spectrum"])
    assert entry.scale == alone["scale"]
    assert entry.report.dominant_frequency == alone["dominant_frequency"]
    assert type(entry.report.dominant_frequency) is int
    assert entry.report.reference_period == alone["reference_period"]
    assert entry.smooth_radius == alone["smooth_radius"]
    trend = alone["trend"]
    assert (entry.trend.order, entry.trend.fallback) == (trend.order, trend.fallback)
    assert (type(entry.trend.order), type(entry.trend.fallback)) == (int, bool)
    np.testing.assert_array_equal(entry.trend.values, trend.values)
    # The gate's g and p, kept for every analysed row, are fisher_g_rows'.
    assert (entry.fisher_g, entry.fisher_p) == alone["gate"]
    assert entry.failure == alone["failure"]
    assert entry.rising_candidates == alone["rising_candidates"]
    if alone["segmentation"] is None:
        assert entry.segmentation is None
    else:
        np.testing.assert_array_equal(entry.segmentation.period_starts, alone["segmentation"].period_starts)
        assert entry.segmentation.periods == alone["segmentation"].periods


@st.composite
def side_rows(draw):
    """A (k, n) block of series of one side: cycles of different periods
    (so the default radii differ between rows), white noise, constants,
    plain ramps and offsets of either sign."""
    n = draw(st.sampled_from([2, 3, 4, 5, 8, 8, 13, 32, 61, 200]))
    k = draw(st.integers(1, 7))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    t = np.arange(n, dtype=float)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["cycle", "cycle", "noise", "flat", "ramp"]), min_size=k, max_size=k)):
        scale = 10.0 ** rng.uniform(-3, 3)
        if kind == "cycle":
            period = rng.uniform(2.5, max(3.0, n / 1.5))
            row = np.sin(2 * np.pi * t / period + rng.uniform(0, 6)) + rng.uniform(-0.01, 0.01) * t
            row = row + 0.2 * rng.standard_normal(n)
        elif kind == "noise":
            row = rng.standard_normal(n)
        elif kind == "flat":
            row = np.zeros(n)
        else:
            row = t.copy()
        rows.append(scale * row + rng.uniform(-100, 100))
    return np.array(rows)


configs = st.builds(
    dict,
    smooth_kind=st.sampled_from(["mean", "exponential"]),
    smooth_radius=st.sampled_from([None, None, 1, 3, 250]),
    exp_alpha=st.sampled_from([0.5, 0.2]),
    max_order=st.sampled_from([30, 30, 1, 3, 12]),
    alpha=st.sampled_from([0.8, 0.5]),
)


@settings(max_examples=300, deadline=None)
@given(side_rows(), configs)
def test_side_analysis_equals_the_one_series_analysis_row_by_row(rows, config):
    cfg = RunConfig(**config)
    entries = _analyze_side(rows.copy(), cfg)
    assert len(entries) == rows.shape[0]
    for row, entry in zip(rows, entries):
        assert_same_as_alone(entry, analysis_alone(row, cfg))


def test_a_block_of_every_outcome_gives_each_row_its_analysis_alone():
    # Rows in four smoothing radius groups (1, 2, 4 and 8 frames) that meet
    # every outcome a row of a side can have.
    cfg = RunConfig(smooth_kind="exponential")
    n = 64
    t = np.arange(n, dtype=float)
    s = 2.0 * t / (n - 1) - 1.0
    rng = np.random.Generator(np.random.PCG64(5))
    rows = np.array([
        np.sin(2 * np.pi * t / 32 + 0.3) + 0.01 * t,
        3.0 * np.sin(2 * np.pi * t / 16 + 1.0) - 2.0,
        np.sin(2 * np.pi * t / 8 + 0.5) + 0.05 * rng.standard_normal(n),
        rng.standard_normal(n),
        # Never crosses its trend, by a margin far above rounding: the
        # order rule keeps the quadratic fit (the sextic's coefficients sit
        # below its floor), the smoother runs below a concave parabola by
        # about 3e-3 inside, and on the 8 copied frames at each end the
        # sextic's part beyond the quadratic fit is negative (d <= -3e-10).
        -((t / n) ** 2) + 1e-7 * (s**6 - 1.68 * s**4),
        np.where(t < 20, 0.0, 1.0) + 0.1 * np.sin(2 * np.pi * t / 5),
        np.full(n, 7.0),
        0.5 * t - 3.0,
    ])
    entries = _analyze_side(rows.copy(), cfg)
    for row, entry in zip(rows, entries):
        assert_same_as_alone(entry, analysis_alone(row, cfg))
    analysed = entries[:6]
    assert [entry.smooth_radius for entry in analysed] == [4, 2, 1, 1, 8, 8]
    assert [entry.segmentation is not None for entry in analysed] == [True] * 3 + [False] * 3
    assert analysed[3].failure.startswith("no significant cycle: Fisher's g = ")
    assert [entry.failure for entry in analysed[4:]] == [
        "series never crosses its trend",
        "0 retained starts and 0 periods; need at least 2 starts forming 1 period",
    ]
    assert [str(entry) for entry in entries[6:]] == [
        "series range is at most 4 float64 spacings, so the series is constant",
        "series is a plain ramp, no cyclic part to analyze",
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6),
    st.sampled_from([8, 9, 16, 45, 128, 301]),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 1.0),
)
def test_stages_along_the_last_axis_equal_their_one_row_calls(k, n, seed, alpha):
    rng = np.random.Generator(np.random.PCG64(seed))
    block = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
    radius = int(rng.integers(1, n))
    got = {
        "spectrum": power_spectrum(block),
        "acf": autocorrelation(block, n // 2),
        "mean": mean_smoothing(block, radius),
        "mean_0": mean_smoothing(block, 0),
        "exponential": exponential_smoothing(block, alpha, radius),
    }
    for i, row in enumerate(block):
        alone = {
            "spectrum": power_spectrum(row),
            "acf": autocorrelation(row, n // 2),
            "mean": mean_smoothing(row, radius),
            "mean_0": mean_smoothing(row, 0),
            "exponential": exponential_smoothing(row, alpha, radius),
        }
        for name, value in alone.items():
            np.testing.assert_array_equal(got[name][i], value, err_msg=name)
    frequencies = [dominant_frequency(s) for s in got["spectrum"]]
    assert {type(f) for f in frequencies} == {int}
    assert dominant_frequency(got["spectrum"]) == frequencies


def test_transforms_stay_within_the_budget(monkeypatch):
    # 40 rows of 300 frames pad to 450 = 2 * 3**2 * 5**2 >= 300 + 150 for
    # the autocorrelation, so 36 rows of 450 + 2 doubles go in each chunk of
    # TRANSFORM_CHUNK = 2**14.
    shapes = []
    recorded = cycletransfer.seasonality.autocorrelation

    def recording(series, max_lag):
        shapes.append(series.shape)
        return recorded(series, max_lag)

    monkeypatch.setattr(cycletransfer.seasonality, "autocorrelation", recording)
    rows = np.random.Generator(np.random.PCG64(4)).standard_normal((40, 300))
    reports, spectra = analyze_rows(rows)
    assert shapes == [(36, 300), (4, 300)]
    assert max(k for k, _ in shapes) * (450 + 2) <= TRANSFORM_CHUNK
    assert len(reports) == 40
    assert analyze_rows(rows[:2])[0][1].reference_period == reports[1].reference_period
    # The spectra block holds the reports' spectra as its rows.
    assert spectra.shape == (40, 151)
    assert all(np.shares_memory(report.spectrum, spectra) for report in reports)
    assert np.array_equal(spectra, [report.spectrum for report in reports])


def test_a_transfer_computes_the_target_acf_alone(monkeypatch):
    # The report writes only the target's acf, so the reference side goes
    # without one: only the target's live selected rows are transformed.
    n = 240
    t = np.arange(n, dtype=float)
    cols = _columns(n, t)
    names = ["wave", "flat", "wave2", "ramp"]
    ref = PoseTable(names, np.column_stack([cols["wave2"], cols["wave"], cols["wave"], cols["wave2"]]))
    tgt = _table(cols, names)
    cfg = RunConfig(channel_filter=["wave", "flat", "wave2"])
    inputs = []
    recorded = cycletransfer.seasonality.autocorrelation

    def recording(series, max_lag):
        inputs.append(series.copy())
        return recorded(series, max_lag)

    monkeypatch.setattr(cycletransfer.seasonality, "autocorrelation", recording)
    _, diags = transfer_table(ref, tgt, cfg)
    during_transfer = np.concatenate(inputs)
    inputs.clear()
    target_alone = analyze_table(tgt, cfg)
    # "flat" is skipped and "ramp" filtered out, so "wave" and "wave2" are
    # the target's live rows.
    assert during_transfer.shape == (2, n)
    np.testing.assert_array_equal(during_transfer, np.concatenate(inputs))
    assert [diags[name].status for name in names] == [STATUS_TRANSFERRED, STATUS_SKIPPED, STATUS_TRANSFERRED, STATUS_PASSTHROUGH]
    for name in ("wave", "wave2"):
        assert diags[name].reference.report.acf is None
        np.testing.assert_array_equal(diags[name].target.report.acf, target_alone[name].target.report.acf)
    _, diag = transfer_channel(cols["wave2"], cols["wave"])
    assert diag.reference.report.acf is None
    for name, diag in analyze_table(ref).items():
        assert diag.target.report.acf.size == n // 2 + 1 and diag.target.report.acf[0] == 1.0, name


def _columns(n, t):
    wave = np.sin(2.0 * np.pi * (t + 0.5) / 16.0)
    return {
        "wave": wave + 0.003 * t,
        "flat": np.full(n, 4.0),
        "ramp": np.linspace(-2.0, 5.0, n),
        "big": 1.5e308 * wave,
        "out": 0.8e308 * wave,
        "wave2": 2.0 * np.sin(2.0 * np.pi * t / 24.0),
    }


def _table(columns, names):
    return PoseTable(names, np.column_stack([columns[name] for name in names]))


def _message(fn, *args):
    with pytest.raises(CycleTransferError) as info:
        fn(*args)
    return info.type, str(info.value)


def test_error_and_skip_precedence_in_table_order():
    n = 240
    t = np.arange(n, dtype=float)
    cols = _columns(n, t)
    overflow = _message(normalize_minmax, cols["big"])
    assert overflow[0] is DataError

    # Constant and plain-ramp channels are skipped with their own reason;
    # the first channel in table order that fails otherwise names the error.
    diags = analyze_table(_table(cols, ["flat", "wave", "ramp", "wave2"]))
    assert [d.status for d in diags.values()] == [STATUS_SKIPPED, STATUS_PASSTHROUGH, STATUS_SKIPPED, STATUS_PASSTHROUGH]
    assert diags["flat"].detail == "series range is at most 4 float64 spacings, so the series is constant"
    assert diags["ramp"].detail == "series is a plain ramp, no cyclic part to analyze"
    for names, culprit in ((["flat", "ramp", "big", "wave"], "big"), (["wave", "big", "flat"], "big")):
        with pytest.raises(DataError) as info:
            analyze_table(_table(cols, names))
        assert str(info.value) == f"channel '{culprit}': {overflow[1]}"
        table = _table(cols, names)
        with pytest.raises(DataError) as info:
            transfer_table(table, table)
        assert str(info.value) == f"channel '{culprit}': {overflow[1]}"

    # An overflow of the transfer step is its channel's last error: a
    # channel before it that fails the analysis comes first, one after it
    # does not.
    output = "trend plus transferred pattern overflows float64"
    for names, culprit, text in (
        (["out", "big"], "out", output),
        (["big", "out"], "big", overflow[1]),
        (["flat", "out", "big"], "out", output),
    ):
        table = _table(cols, names)
        with pytest.raises(DataError) as info:
            transfer_table(table, table)
        assert str(info.value) == f"channel '{culprit}': {text}"

    # A fixed radius >= n fails after the range and ramp checks: skipped
    # channels before it stay skipped, an overflowing range comes first.
    wide = RunConfig(smooth_radius=n)
    radius = f"radius {n} must be below the series length {n}"
    for names, culprit, text in (
        (["flat", "ramp", "wave2", "big"], "wave2", radius),
        (["flat", "big", "wave"], "big", overflow[1]),
    ):
        for run in (lambda tab: analyze_table(tab, wide), lambda tab: transfer_table(tab, tab, wide)):
            with pytest.raises(DataError) as info:
                run(_table(cols, names))
            assert str(info.value) == f"channel '{culprit}': {text}"


def test_reference_fails_before_target():
    n = 240
    t = np.arange(n, dtype=float)
    cols = _columns(n, t)
    names = ["a", "b", "c"]
    # a: constant reference, overflowing target -> skipped, reference's reason.
    # b: plain-ramp reference, constant target -> skipped, reference's reason.
    # c: overflowing reference, constant target -> the reference's error.
    ref = PoseTable(names, np.column_stack([cols["flat"], cols["ramp"], cols["big"]]))
    tgt = PoseTable(names, np.column_stack([cols["big"], cols["flat"], cols["flat"]]))
    with pytest.raises(DataError) as info:
        transfer_table(ref, tgt)
    assert str(info.value) == f"channel 'c': {_message(normalize_minmax, cols['big'])[1]}"
    out, diags = transfer_table(ref, tgt, RunConfig(channel_filter=["a", "b"]))
    assert diags["a"].detail == "reference: series range is at most 4 float64 spacings, so the series is constant"
    assert diags["b"].detail == "reference: series is a plain ramp, no cyclic part to analyze"
    np.testing.assert_array_equal(out.values, tgt.values)
    # The reason names the flat side, swapped or not, and the side that was
    # analysed keeps its diagnostics.
    wave, flat = PoseTable(["s"], cols["wave"][:, None]), PoseTable(["s"], cols["flat"][:, None])
    for pair, side, kept in (((wave, flat), "target", "reference"), ((flat, wave), "reference", "target")):
        out, diags = transfer_table(*pair)
        diag = diags["s"]
        constant = "series range is at most 4 float64 spacings, so the series is constant"
        assert (diag.status, diag.detail) == (STATUS_SKIPPED, f"{side}: {constant}")
        assert getattr(diag, side) is None and getattr(diag, kept).segmentation is not None
        np.testing.assert_array_equal(out.values, pair[1].values)
    # The target's error shows once the reference passes.
    tgt = PoseTable(["w"], cols["big"][:, None])
    with pytest.raises(DataError, match="channel 'w': series range from min"):
        transfer_table(PoseTable(["w"], cols["wave"][:, None]), tgt)
    out, diags = transfer_table(PoseTable(["w"], cols["wave"][:, None]), PoseTable(["w"], cols["wave2"][:, None]))
    assert diags["w"].status == STATUS_TRANSFERRED


@pytest.mark.xfail(
    strict=True,
    reason="known defect: cycle detection removes only a straight line, so a curved trend's "
    "leakage into bin 1 hides the cycle and the channel is skipped",
)
def test_cycle_on_a_curved_trend_is_found():
    t = np.arange(400, dtype=float)
    x = 1e-4 * (t - 200.0) ** 2 + np.sin(2.0 * np.pi * t / 16.0)
    diag = analyze_table(PoseTable(["c"], x[:, None]))["c"]
    assert diag.target.report.reference_period == 16.0
    assert diag.status == STATUS_PASSTHROUGH
