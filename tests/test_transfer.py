import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycletransfer.transfer
from cycletransfer.config import RunConfig
from cycletransfer.decomposition import PeriodSegmentation, gram_fits, validate_periods
from cycletransfer.errors import DataError, UsageError
from cycletransfer.series import normalize_minmax, raise_if_error
from cycletransfer.tableio import PoseTable, write_report
from cycletransfer.transfer import (
    STATUS_PASSTHROUGH,
    STATUS_SKIPPED,
    STATUS_TRANSFERRED,
    MAX_SEASONALITY_P,
    ChannelDiagnostics,
    _analyze_side,
    _lmins,
    _periods,
    analyze_table,
    apply_transfer,
    build_phi,
    extract_additive,
    mean_additive_factor,
    transfer_channel,
    transfer_table,
)


def analyze_alone(x, cfg):
    """One sequence's analysis, the sequence being a table side of one row."""
    entry = _analyze_side(x[np.newaxis].copy(), cfg)[0]
    raise_if_error(entry)
    return entry


def seg_from_lengths(lengths, reference_period, start=0):
    """Contiguous segmentation with the given period lengths."""
    starts = [start]
    for length in lengths:
        starts.append(starts[-1] + int(length))
    periods = list(zip(starts[:-1], starts[1:]))
    return PeriodSegmentation(
        period_starts=np.asarray(starts, dtype=int),
        periods=periods,
        reference_period=float(reference_period),
        alpha=0.8,
    )


def phase_shifted_sin(n, period, phase=0.5):
    t = np.arange(n, dtype=float)
    return np.sin(2.0 * np.pi * (t + phase) / period)


def lmin(ref_seg, target_seg):
    """The transfer step's l_min rule (_lmins) on one pair of segmentations."""
    return int(_lmins(_periods([ref_seg], 0), _periods([target_seg], 0))[0])


def test_compute_lmin_examples():
    assert lmin(seg_from_lengths([16, 15, 17], 16), seg_from_lengths([20, 21], 20)) == 15
    assert lmin(seg_from_lengths([16, 16], 16), seg_from_lengths([16], 16)) == 16
    assert lmin(seg_from_lengths([10], 10), seg_from_lengths([30], 30)) == 10


def test_build_phi_one_frame_per_interval():
    seg = seg_from_lengths([16, 16], 16)
    imap = build_phi(seg, 16)
    assert imap.counts.size == 16
    np.testing.assert_array_equal(imap.frames, np.arange(32))
    np.testing.assert_array_equal(imap.interval, np.tile(np.arange(1, 17), 2))
    np.testing.assert_array_equal(imap.counts, np.full(16, 2))


def test_build_phi_remainder_to_front():
    imap5 = build_phi(seg_from_lengths([5], 5), 3)
    np.testing.assert_array_equal(imap5.interval, [1, 1, 2, 2, 3])
    imap7 = build_phi(seg_from_lengths([7], 7), 3)
    np.testing.assert_array_equal(imap7.interval, [1, 1, 1, 2, 2, 3, 3])


def test_build_phi_counts_match_period_frames():
    seg = seg_from_lengths([9, 11, 10], 10)
    imap = build_phi(seg, 4)
    assert imap.counts.sum() == 30
    assert imap.frames.size == 30


def test_extract_additive_zero_residual():
    trend = np.linspace(0.0, 5.0, 32)
    seg = seg_from_lengths([16, 16], 16)
    np.testing.assert_array_equal(extract_additive(trend, trend, build_phi(seg, 16)), np.zeros(32))


def test_extract_additive_constant_offset():
    trend = np.linspace(0.0, 5.0, 32)
    seg = seg_from_lengths([16, 16], 16)
    out = extract_additive(trend + 0.5, trend, build_phi(seg, 16))
    np.testing.assert_allclose(out, np.full(32, 0.5), atol=1e-12)


def test_extract_additive_sinusoid_residual():
    t = np.arange(48, dtype=float)
    trend = 0.1 * t + 2.0
    wave = np.sin(2.0 * np.pi * t / 16.0)
    seg = seg_from_lengths([16, 16], 16)
    out = extract_additive(trend + wave, trend, build_phi(seg, 16))
    np.testing.assert_allclose(out, wave[:32], atol=1e-12)


def test_extract_additive_restricts_to_segmented_frames():
    t = np.arange(40, dtype=float)
    seg = seg_from_lengths([16], 16, start=4)
    out = extract_additive(t, np.zeros(40), build_phi(seg, 16))
    np.testing.assert_array_equal(out, t[4:20])


def test_mean_factor_identical_periods():
    seg = seg_from_lengths([4, 4], 4)
    imap = build_phi(seg, 4)
    one_period = np.array([0.3, -1.2, 0.7, 2.5])
    residual = np.tile(one_period, 2)
    np.testing.assert_array_equal(mean_additive_factor(residual, imap), one_period)


def test_mean_factor_two_value_mean():
    seg = seg_from_lengths([3, 3], 3)
    imap = build_phi(seg, 3)
    residual = np.array([1.0, 5.0, -2.0, 3.0, 5.0, -2.0])
    np.testing.assert_allclose(mean_additive_factor(residual, imap), [2.0, 5.0, -2.0])


def test_mean_factor_matches_group_by_oracle():
    rng = np.random.Generator(np.random.PCG64(21))
    seg = seg_from_lengths([9, 10, 11], 10)
    imap = build_phi(seg, 4)
    residual = rng.standard_normal(imap.frames.size)
    got = mean_additive_factor(residual, imap)
    expected = np.array(
        [residual[imap.interval == j].mean() for j in range(1, 5)]
    )
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_apply_transfer_zero_factor_returns_trend():
    trend = np.linspace(-1.0, 1.0, 40)
    seg = seg_from_lengths([16, 16], 16)
    refined = apply_transfer(trend, np.zeros(16), seg)
    np.testing.assert_array_equal(refined.values, trend)
    np.testing.assert_array_equal(refined.applied_factor, np.zeros(40))


def test_apply_transfer_alternating_pattern():
    seg = seg_from_lengths([2, 2, 2], 2)
    refined = apply_transfer(np.zeros(8), np.array([1.0, 2.0]), seg)
    np.testing.assert_array_equal(refined.values, [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
    np.testing.assert_array_equal(refined.transferred, [True] * 6 + [False] * 2)


def test_apply_transfer_reconstruction_oracle():
    rng = np.random.Generator(np.random.PCG64(3))
    n = 50
    trend = rng.standard_normal(n).cumsum() * 0.1
    seg = seg_from_lengths([10, 10, 10], 10, start=5)
    imap = build_phi(seg, 5)
    factor = rng.standard_normal(5)
    refined = apply_transfer(trend, factor, seg)
    np.testing.assert_array_equal(refined.values, trend + refined.applied_factor)
    for frame, j in zip(imap.frames, imap.interval):
        assert refined.applied_factor[frame] == factor[j - 1]
    inside = np.zeros(n, dtype=bool)
    inside[5:35] = True
    np.testing.assert_array_equal(refined.transferred, inside)
    # The leading and trailing gaps reuse the factor on a periodic grid,
    # so every applied value still comes from the factor table.
    assert set(np.unique(refined.applied_factor)) <= set(factor)


def test_apply_transfer_extension_is_periodic():
    seg = seg_from_lengths([4], 4, start=4)
    factor = np.array([1.0, 2.0, 3.0, 4.0])
    refined = apply_transfer(np.zeros(16), factor, seg)
    np.testing.assert_array_equal(refined.values, np.tile(factor, 4))


@given(st.integers(3, 8), st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_apply_transfer_piecewise_constant(l_min, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    lengths = rng.integers(l_min, l_min + 6, size=3)
    seg = seg_from_lengths(lengths, float(np.mean(lengths)), start=int(rng.integers(0, 4)))
    n = int(seg.periods[-1][1] + rng.integers(0, 6))
    trend = rng.standard_normal(n)
    factor = rng.standard_normal(l_min)
    refined = apply_transfer(trend, factor, seg)
    # The additive split is stored explicitly, so the distinct-value bound
    # can be checked without reintroducing subtraction rounding.
    deltas = refined.applied_factor[refined.transferred]
    assert np.unique(deltas).size <= l_min
    np.testing.assert_array_equal(refined.values, refined.trend + refined.applied_factor)


def test_transfer_channel_reduces_noise():
    t_ref = np.arange(80, dtype=float)
    reference = np.sin(2.0 * np.pi * t_ref / 16.0)
    t = np.arange(200, dtype=float)
    truth = 0.01 * t + np.sin(2.0 * np.pi * t / 16.0)
    rng = np.random.Generator(np.random.PCG64(3))
    noisy = truth + 0.2 * rng.standard_normal(200)
    refined, diag = transfer_channel(reference, noisy)
    assert diag.status == STATUS_TRANSFERRED
    rmse_noisy = np.sqrt(np.mean((noisy - truth) ** 2))
    rmse_refined = np.sqrt(np.mean((refined.values - truth) ** 2))
    assert rmse_refined < rmse_noisy


def test_transfer_channel_self_transfer():
    clean = phase_shifted_sin(80, 8)
    refined, diag = transfer_channel(clean, clean)
    assert diag.status == STATUS_TRANSFERRED
    rms = np.sqrt(np.mean((refined.values - clean) ** 2))
    assert rms < 0.1


def test_transfer_channel_white_noise_falls_back():
    reference = phase_shifted_sin(80, 16)
    rng = np.random.Generator(np.random.PCG64(6))
    noise = rng.standard_normal(120)
    refined, diag = transfer_channel(reference, noise)
    assert diag.status == STATUS_SKIPPED
    assert diag.detail
    np.testing.assert_array_equal(refined.values, noise)
    assert not refined.transferred.any()


@pytest.mark.parametrize(
    "ref_kind, tgt_kind, side, kept",
    [("flat", "wave", "reference", "target"), ("wave", "flat", "target", "reference"), ("ramp", "wave", "reference", "target")],
)
def test_transfer_channel_skips_a_flat_or_ramp_side_as_a_table_does(ref_kind, tgt_kind, side, kept):
    # A constant or plain-ramp sequence is a skip alone as in a table: the
    # same status, reason and kept side. The target comes back as its own
    # trend, nothing applied; its fitted trend stays in the diagnostics.
    n = 120
    t = np.arange(n, dtype=float)
    columns = {"wave": phase_shifted_sin(n, 16) + 0.01 * t, "flat": np.full(n, 4.0), "ramp": np.linspace(-2.0, 5.0, n)}
    reference, target = columns[ref_kind], columns[tgt_kind]
    refined, diag = transfer_channel(reference, target)
    _, diags = transfer_table(PoseTable(["s"], reference[:, None]), PoseTable(["s"], target[:, None]))
    table = diags["s"]
    assert (diag.status, diag.detail) == (table.status, table.detail)
    assert diag.status == STATUS_SKIPPED and diag.detail.startswith(f"{side}: ")
    assert getattr(diag, side) is None and getattr(table, side) is None
    alone, in_table = getattr(diag, kept), getattr(table, kept)
    assert alone.trend.order == in_table.trend.order
    np.testing.assert_array_equal(alone.trend.values, in_table.trend.values)
    np.testing.assert_array_equal(refined.values, target)
    np.testing.assert_array_equal(refined.trend, target)
    np.testing.assert_array_equal(refined.applied_factor, np.zeros(n))
    assert not refined.transferred.any()


def test_white_noise_skips_at_the_significance_gate():
    # Under white noise Fisher's p-value bound falls at or below
    # MAX_SEASONALITY_P for at most that share of sequences, so nearly
    # every noise target is skipped, and left as it was.
    n, k = 300, 200
    rng = np.random.Generator(np.random.PCG64(2024))
    names = [f"noise_{i}" for i in range(k)]
    reference = PoseTable(names, np.tile(phase_shifted_sin(n, 20)[:, None], k))
    target = PoseTable(names, rng.standard_normal((n, k)))
    out, diags = transfer_table(reference, target)
    gated = [
        name for name, d in diags.items()
        if d.status == STATUS_SKIPPED and d.detail.startswith("target: no significant cycle: Fisher's g = ")
    ]
    assert len(gated) >= (1.0 - 3.0 * MAX_SEASONALITY_P) * k
    for name in gated:
        np.testing.assert_array_equal(out.channel(name), target.channel(name))


def test_noisy_cycles_pass_the_significance_gate():
    # Periods and noise as the benchmark draws them: every channel transfers.
    n_ref, n_tgt, k = 200, 400, 40
    rng = np.random.Generator(np.random.PCG64(2025))
    periods = rng.uniform(12.0, 40.0, k)
    phases = rng.uniform(0.0, 1.0, k)
    names = [f"wave_{i}" for i in range(k)]

    def side(n, sigma):
        t = np.arange(n, dtype=float)[:, None]
        waves = np.sin(2.0 * np.pi * (t / periods + phases))
        return PoseTable(names, waves + sigma * rng.standard_normal((n, k)))

    _, diags = transfer_table(side(n_ref, 0.05), side(n_tgt, 0.3))
    assert [d.status for d in diags.values()] == [STATUS_TRANSFERRED] * k


def test_skip_reason_names_each_side_without_periods():
    # Channel "both" pairs two noise sequences, "ref" a noise reference with
    # a wave target, "tgt" the other way round.
    n = 200
    rng = np.random.Generator(np.random.PCG64(7))
    wave = phase_shifted_sin(n, 16)
    noise_a, noise_b = rng.standard_normal((2, n))
    names = ["both", "ref", "tgt"]
    ref = PoseTable(names, np.column_stack([noise_a, noise_a, wave]))
    tgt = PoseTable(names, np.column_stack([noise_b, wave, noise_b]))
    out, diags = transfer_table(ref, tgt)
    np.testing.assert_array_equal(out.values, tgt.values)
    gate = "no significant cycle: Fisher's g = "
    for name, failing in (("both", ["reference", "target"]), ("ref", ["reference"]), ("tgt", ["target"])):
        diag = diags[name]
        reasons = [f"{side}: {getattr(diag, side).failure}" for side in failing]
        assert (diag.status, diag.detail) == (STATUS_SKIPPED, "; ".join(reasons)), name
        assert all(getattr(diag, side).failure.startswith(gate) for side in failing), name
        assert [side for side in ("reference", "target") if getattr(diag, side).failure] == failing, name
        refined, alone = transfer_channel(ref.channel(name), tgt.channel(name))
        np.testing.assert_array_equal(refined.values, tgt.channel(name))
        assert (alone.status, alone.detail) == (diag.status, diag.detail), name
        assert [(seq.failure, seq.fisher_g) for seq in (alone.reference, alone.target)] == [
            (seq.failure, seq.fisher_g) for seq in (diag.reference, diag.target)
        ], name
    analyzed = analyze_table(tgt)
    for name in ("both", "tgt"):
        diag = analyzed[name]
        assert (diag.status, diag.detail, diag.reference) == (STATUS_SKIPPED, diag.target.failure, None), name
        assert diag.detail.startswith(gate), name
    assert (analyzed["ref"].status, analyzed["ref"].detail) == (STATUS_PASSTHROUGH, None)


def test_gate_keeps_the_trend_of_a_skipped_sequence():
    rng = np.random.Generator(np.random.PCG64(6))
    seq = analyze_alone(0.01 * np.arange(200.0) + rng.standard_normal(200), RunConfig())
    assert seq.segmentation is None
    assert seq.failure.startswith("no significant cycle: Fisher's g = ")
    assert seq.failure.endswith(" > 0.01")
    assert seq.trend.values.shape == (200,)


def test_transfer_channel_deterministic():
    reference = phase_shifted_sin(80, 16)
    rng = np.random.Generator(np.random.PCG64(12))
    t = np.arange(200, dtype=float)
    noisy = 0.01 * t + phase_shifted_sin(200, 16) + 0.2 * rng.standard_normal(200)
    first, _ = transfer_channel(reference, noisy)
    second, _ = transfer_channel(reference, noisy)
    np.testing.assert_array_equal(first.values, second.values)
    np.testing.assert_array_equal(first.applied_factor, second.applied_factor)


def test_transfer_channel_reconstruction_identity():
    reference = phase_shifted_sin(80, 16)
    t = np.arange(200, dtype=float)
    rng = np.random.Generator(np.random.PCG64(14))
    noisy = 0.01 * t + phase_shifted_sin(200, 16) + 0.2 * rng.standard_normal(200)
    refined, diag = transfer_channel(reference, noisy)
    assert diag.status == STATUS_TRANSFERRED
    np.testing.assert_array_equal(refined.values, refined.trend + refined.applied_factor)
    deltas = refined.applied_factor[refined.transferred]
    assert np.unique(deltas).size <= diag.l_min


def test_transfer_channel_too_short():
    with pytest.raises(DataError, match="at least 8 frames per sequence"):
        transfer_channel(np.arange(7, dtype=float), phase_shifted_sin(80, 16))


def two_channel_tables():
    names = ["swing", "still"]
    ref = np.column_stack([phase_shifted_sin(80, 16), np.full(80, 2.0)])
    rng = np.random.Generator(np.random.PCG64(9))
    t = np.arange(160, dtype=float)
    noisy = 0.01 * t + phase_shifted_sin(160, 16) + 0.15 * rng.standard_normal(160)
    tgt = np.column_stack([noisy, np.full(160, 2.0)])
    return PoseTable(names, ref), PoseTable(names, tgt)


def test_transfer_table_mixed_channels():
    ref_table, tgt_table = two_channel_tables()
    out, diags = transfer_table(ref_table, tgt_table)
    assert out.channel_names == ["swing", "still"]
    assert diags["swing"].status == STATUS_TRANSFERRED
    assert diags["still"].status == STATUS_SKIPPED
    np.testing.assert_array_equal(out.channel("still"), tgt_table.channel("still"))
    assert not np.array_equal(out.channel("swing"), tgt_table.channel("swing"))


def test_transfer_table_empty_filter_is_identity():
    ref_table, tgt_table = two_channel_tables()
    out, diags = transfer_table(ref_table, tgt_table, RunConfig(channel_filter=[]))
    np.testing.assert_array_equal(out.values, tgt_table.values)
    assert all(d.status == STATUS_PASSTHROUGH for d in diags.values())


def test_transfer_table_zero_channels():
    ref = PoseTable([], np.empty((50, 0)))
    target = PoseTable([], np.empty((40, 0)))
    out, diags = transfer_table(ref, target)
    assert out.channel_names == []
    assert out.values.shape == (40, 0)
    assert diags == {}


def test_transfer_table_channel_set_mismatch():
    ref_table, tgt_table = two_channel_tables()
    renamed = PoseTable(["swing", "other"], tgt_table.values)
    with pytest.raises(DataError, match="channel sets differ"):
        transfer_table(ref_table, renamed)


def test_transfer_table_unknown_filter_name():
    ref_table, tgt_table = two_channel_tables()
    with pytest.raises(DataError, match="filter names not present in table"):
        transfer_table(ref_table, tgt_table, RunConfig(channel_filter=["nope"]))


def pose_72_tables():
    """72 channels, 3 of them periodic, the rest frozen joints."""
    n_ref, n_tgt = 80, 160
    names = [f"joint_{i}" for i in range(72)]
    seasonal = {"joint_4": 16, "joint_20": 10, "joint_63": 8}
    rng = np.random.Generator(np.random.PCG64(33))
    ref_cols, tgt_cols = [], []
    for name in names:
        if name in seasonal:
            period = seasonal[name]
            ref_cols.append(phase_shifted_sin(n_ref, period))
            t = np.arange(n_tgt, dtype=float)
            tgt_cols.append(
                0.01 * t + phase_shifted_sin(n_tgt, period) + 0.1 * rng.standard_normal(n_tgt)
            )
        else:
            level = float(rng.uniform(-2.0, 2.0))
            ref_cols.append(np.full(n_ref, level))
            tgt_cols.append(np.full(n_tgt, level))
    return (
        PoseTable(names, np.column_stack(ref_cols)),
        PoseTable(names, np.column_stack(tgt_cols)),
        set(seasonal),
    )


def test_transfer_table_pose_sized():
    ref_table, tgt_table, seasonal = pose_72_tables()
    out, diags = transfer_table(ref_table, tgt_table)
    transferred = {name for name, d in diags.items() if d.status == STATUS_TRANSFERRED}
    assert transferred == seasonal
    for name in set(tgt_table.channel_names) - seasonal:
        np.testing.assert_array_equal(out.channel(name), tgt_table.channel(name))


def test_mean_factor_exact_on_identical_periods_via_pipeline():
    # Two bit-identical periods with a zero trend: each interval averages
    # two equal values, which is exact in floating point.
    rng = np.random.Generator(np.random.PCG64(40))
    one_period = rng.standard_normal(12)
    values = np.tile(one_period, 2)
    seg = validate_periods([0, 12, 24], 12.0, 0.8)
    imap = build_phi(seg, 12)
    raw = extract_additive(values, np.zeros(24), imap)
    np.testing.assert_array_equal(mean_additive_factor(raw, imap), one_period)


def test_analyze_table_statuses():
    rng = np.random.Generator(np.random.PCG64(6))
    values = np.column_stack(
        [phase_shifted_sin(120, 12), rng.standard_normal(120), np.full(120, 1.5)]
    )
    table = PoseTable(["wave", "noise", "flat"], values)
    diags = analyze_table(table)
    assert diags["wave"].status == STATUS_PASSTHROUGH
    assert diags["wave"].target is not None
    assert diags["wave"].target.report.reference_period == 12.0
    assert diags["noise"].status == STATUS_SKIPPED
    assert diags["flat"].status == STATUS_SKIPPED


def test_analyze_table_filter():
    table = PoseTable(["a", "b"], np.column_stack([phase_shifted_sin(80, 16)] * 2))
    diags = analyze_table(table, RunConfig(channel_filter=["a"]))
    assert diags["a"].target is not None
    assert diags["b"].status == STATUS_PASSTHROUGH
    assert diags["b"].target is None


@functools.cache
def four_channel_tables():
    """Periodic channels of two periods, white noise and a constant, as
    per-channel reference and target columns, plus the transfer of the
    tables in this channel order with no filter."""
    rng = np.random.Generator(np.random.PCG64(21))
    t = np.arange(160, dtype=float)
    ref = {
        "swing": phase_shifted_sin(80, 16),
        "fast": phase_shifted_sin(80, 10, phase=2.0),
        "noise": rng.standard_normal(80),
        "still": np.full(80, -1.0),
    }
    tgt = {
        "swing": 0.01 * t + phase_shifted_sin(160, 16) + 0.15 * rng.standard_normal(160),
        "fast": phase_shifted_sin(160, 10) + 0.1 * rng.standard_normal(160),
        "noise": rng.standard_normal(160),
        "still": np.full(160, -1.0),
    }
    out, diags = transfer_table(
        PoseTable(list(ref), np.column_stack(list(ref.values()))),
        PoseTable(list(tgt), np.column_stack(list(tgt.values()))),
    )
    return ref, tgt, out, diags


CHANNELS = ["swing", "fast", "noise", "still"]


@settings(max_examples=25, deadline=None)
@given(
    ref_order=st.permutations(CHANNELS),
    tgt_order=st.permutations(CHANNELS),
    channel_filter=st.none() | st.lists(st.sampled_from(CHANNELS), unique=True),
)
def test_transfer_table_invariant_to_channel_order_and_other_channels(
    ref_order, tgt_order, channel_filter
):
    # Each channel's output depends on that channel alone: not on the
    # order of either table, nor on which other channels are selected.
    ref_cols, tgt_cols, base_out, base_diags = four_channel_tables()
    assert {d.status for d in base_diags.values()} == {STATUS_TRANSFERRED, STATUS_SKIPPED}
    ref = PoseTable(ref_order, np.column_stack([ref_cols[name] for name in ref_order]))
    tgt = PoseTable(tgt_order, np.column_stack([tgt_cols[name] for name in tgt_order]))
    out, diags = transfer_table(ref, tgt, RunConfig(channel_filter=channel_filter))
    assert out.channel_names == tgt_order
    assert list(diags) == tgt_order
    for name in tgt_order:
        if channel_filter is None or name in channel_filter:
            np.testing.assert_array_equal(out.channel(name), base_out.channel(name))
            assert diags[name].status == base_diags[name].status
        else:
            np.testing.assert_array_equal(out.channel(name), tgt_cols[name])
            assert diags[name].status == STATUS_PASSTHROUGH


@st.composite
def mixed_table_pairs(draw):
    """A reference and a target table of the same small mix of periodic,
    white-noise, constant and plain-ramp channels; a periodic channel
    shares its period between the two tables."""
    n_ref, n_tgt = draw(st.sampled_from([16, 40, 97])), draw(st.sampled_from([16, 40, 97, 150]))
    kinds = draw(st.lists(st.sampled_from(["cycle", "cycle", "noise", "flat", "ramp"]), min_size=2, max_size=7))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    tables = [np.empty((n_ref, len(kinds))), np.empty((n_tgt, len(kinds)))]
    for c, kind in enumerate(kinds):
        period = rng.uniform(3.0, 20.0)
        for table in tables:
            n = table.shape[0]
            t = np.arange(n, dtype=float)
            if kind == "cycle":
                column = np.sin(2 * np.pi * t / period + rng.uniform(0, 6)) + rng.uniform(-0.02, 0.02) * t
                column += 0.2 * rng.standard_normal(n)
            elif kind == "noise":
                column = rng.standard_normal(n)
            elif kind == "flat":
                column = np.full(n, rng.uniform(-5, 5))
            else:
                column = rng.uniform(-2, 2) * t
            table[:, c] = 10.0 ** rng.uniform(-3, 3) * column + rng.uniform(-100, 100)
    names = [f"c{c}" for c in range(len(kinds))]
    return PoseTable(names, tables[0]), PoseTable(names, tables[1])


@settings(max_examples=40, deadline=None)
@given(mixed_table_pairs())
def test_every_refined_series_is_its_trend_plus_its_applied_factor(tables):
    # Transferred or skipped, flat, ramp, noise or cycle: transfer_channel's
    # refined values are exactly trend + applied_factor.
    ref, tgt = tables
    for name in tgt.channel_names:
        refined, diag = transfer_channel(ref.channel(name), tgt.channel(name))
        np.testing.assert_array_equal(refined.values, refined.trend + refined.applied_factor, err_msg=name)
        if diag.status == STATUS_SKIPPED:
            np.testing.assert_array_equal(refined.values, tgt.channel(name), err_msg=name)


@settings(max_examples=40, deadline=None)
@given(
    mixed_table_pairs() | st.integers(0, 2**32 - 1).map(lambda seed: wide_tables(seed)[1:]),
    st.sampled_from([RunConfig(), RunConfig(smooth_kind="exponential"), RunConfig(max_order=3)]),
    st.data(),
)
def test_permuting_the_channels_permutes_every_output_bit_for_bit(tables, cfg, data):
    # Every row of a side step and of the transfer step gets the bits it
    # gets alone, so the channels' order in both tables changes nothing
    # but the order of the outputs: on small mixed tables and on 60-channel
    # ones whose transferred channels differ in l_min.
    ref, tgt = tables
    perm = data.draw(st.permutations(range(len(ref.channel_names))))
    names = [ref.channel_names[i] for i in perm]
    out, diags = transfer_table(ref, tgt, cfg)
    out_p, diags_p = transfer_table(PoseTable(names, ref.values[:, perm]), PoseTable(names, tgt.values[:, perm]), cfg)
    assert out_p.channel_names == names and list(diags_p) == names
    assert np.ascontiguousarray(out_p.values).tobytes() == np.ascontiguousarray(out.values[:, perm]).tobytes()
    for name in names:
        assert (diags_p[name].status, diags_p[name].detail) == (diags[name].status, diags[name].detail)
    with tempfile.TemporaryDirectory() as tmp:
        write_report(diags_p, Path(tmp) / "permuted.json")
        write_report({name: diags[name] for name in names}, Path(tmp) / "reordered.json")
        assert (Path(tmp) / "permuted.json").read_bytes() == (Path(tmp) / "reordered.json").read_bytes()


@settings(max_examples=30, deadline=None)
@given(
    mixed_table_pairs() | st.integers(0, 2**32 - 1).map(lambda seed: wide_tables(seed)[1:]),
    st.sampled_from([RunConfig(), RunConfig(smooth_kind="exponential"), RunConfig(max_order=3)]),
    st.sampled_from([-900, -60, -9, -1, 1, 7]),
)
def test_scaling_both_tables_by_a_power_of_two_scales_every_output_exactly(tables, cfg, k):
    # Every decision runs on min-max normalized values, which scaling by
    # 2**k leaves bit for bit, so every decision stays and every output
    # value in the tables' units scales by exactly 2**k. At k = -60 and
    # -900 the ranges fall far below 1e-12 while the values stay normal,
    # so the constant-series test is judged at the values' own scale too.
    ref, tgt = tables
    a = 2.0**k
    out, diags = transfer_table(ref, tgt, cfg)
    out_a, diags_a = transfer_table(
        PoseTable(ref.channel_names, ref.values * a), PoseTable(tgt.channel_names, tgt.values * a), cfg
    )
    assert np.array_equal(out_a.values, a * out.values)
    for name, diag in diags.items():
        scaled = diags_a[name]
        assert (scaled.status, scaled.detail, scaled.l_min) == (diag.status, diag.detail, diag.l_min), name
        assert _orders(scaled) == _orders(diag), name
        assert_same_array(scaled.mean_factor, None if diag.mean_factor is None else a * diag.mean_factor, name)
        for seq, seq_a in ((diag.reference, scaled.reference), (diag.target, scaled.target)):
            assert_same_array(_starts(seq_a), _starts(seq), name)
            if seq is not None:
                assert (seq_a.scale.min, seq_a.scale.max) == (a * seq.scale.min, a * seq.scale.max), name


def test_run_config_rejects_exponential_zero_radius():
    with pytest.raises(UsageError, match="smooth_radius must be >= 1 for exponential"):
        RunConfig(smooth_kind="exponential", smooth_radius=0)
    assert RunConfig(smooth_kind="mean", smooth_radius=0).smooth_radius == 0
    assert RunConfig(smooth_kind="exponential", smooth_radius=None).smooth_radius is None


def test_run_config_rejects_unknown_smooth_kind():
    with pytest.raises(UsageError, match="unknown smooth_kind 'median'"):
        RunConfig(smooth_kind="median")


@pytest.mark.parametrize(
    "kwargs, message",
    [({"smooth_radius": float("inf")}, "smooth_radius must be finite, got inf"),
     ({"max_order": float("inf")}, "max_order must be <= 50, got inf")],
    ids=["smooth_radius", "max_order"],
)
def test_run_config_rejects_infinite_settings(kwargs, message):
    # int(inf) raises OverflowError, an error outside both families.
    with pytest.raises(UsageError) as info:
        RunConfig(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kwargs, message",
    [({"max_order": 2.9}, "max_order must be a whole number, got 2.9"),
     ({"smooth_radius": 2.5}, "smooth_radius must be a whole number, got 2.5")],
    ids=["max_order", "smooth_radius"],
)
def test_run_config_rejects_fractional_settings(kwargs, message):
    # int() would round them down without a word.
    with pytest.raises(UsageError) as info:
        RunConfig(**kwargs)
    assert str(info.value) == message
    whole = RunConfig(max_order=3.0, smooth_radius=2.0)
    assert (type(whole.max_order), type(whole.smooth_radius)) == (int, int)


def test_run_config_rejects_a_bare_channel_string():
    # A string is a sequence of characters, so "abc" would select 'a', 'b' and 'c'.
    with pytest.raises(UsageError, match="channel_filter must be a list of channel names, got 'abc'"):
        RunConfig(channel_filter="abc")
    assert RunConfig(channel_filter=["abc"]).channel_filter == ["abc"]


DYADIC_STEP = 2.0 ** -10


@st.composite
def dyadic_pairs(draw):
    """Reference and target channels of one period whose values are
    multiples of 2**-10 below 2**20 in magnitude, so adding an integer or
    scaling by a power of two is exact."""
    period = draw(st.integers(6, 24))
    amplitude = draw(st.floats(0.5, 100.0))
    slope = draw(st.floats(-0.02, 0.02))
    noise = draw(st.sampled_from([0.0, 0.05, 0.3, 2.0]))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))

    def channel(n):
        t = np.arange(n, dtype=float)
        x = amplitude * (phase_shifted_sin(n, period) + slope * t + noise * rng.standard_normal(n))
        return np.round(x / DYADIC_STEP) * DYADIC_STEP

    return channel(draw(st.integers(3 * period, 8 * period))), channel(draw(st.integers(3 * period, 12 * period)))


def _segmentations(diag):
    return [
        None if seq.segmentation is None else seq.segmentation.periods
        for seq in (diag.reference, diag.target)
    ]


@settings(max_examples=60, deadline=None)
@given(dyadic_pairs(), st.integers(-(2**20), 2**20), st.integers(-8, 8))
def test_transfer_commutes_with_target_shift_and_reference_scale(pair, d, k):
    reference, target = pair
    a = 2.0**k
    base, base_diag = transfer_channel(reference, target)
    shifted, shifted_diag = transfer_channel(reference, target + d)
    scaled, scaled_diag = transfer_channel(reference * a, target)
    for diag in (shifted_diag, scaled_diag):
        assert diag.status == base_diag.status
        assert _segmentations(diag) == _segmentations(base_diag)
    # Target + d: the pattern is unchanged and the output moves by d.
    np.testing.assert_array_equal(shifted.applied_factor, base.applied_factor)
    np.testing.assert_allclose(shifted.values - d, base.values, rtol=0, atol=1e-9 * (1 + abs(d)))
    # Reference * a: the pattern scales by a, the target's trend stays.
    np.testing.assert_array_equal(scaled.applied_factor, a * base.applied_factor)
    np.testing.assert_array_equal(scaled.trend, base.trend)


@settings(max_examples=60, deadline=None)
@given(dyadic_pairs())
def test_pipeline_builds_what_the_stages_assume(pair):
    # The stages do not check their inputs; these are the conditions the
    # analysis makes true for them.
    reference, target = pair
    _, diag = transfer_channel(reference, target)
    # Only the target's acf is computed: no report writes the reference's.
    assert diag.reference.report.acf is None
    assert diag.target.report.acf.size == target.size // 2 + 1
    for seq, n in ((diag.reference, reference.size), (diag.target, target.size)):
        assert 1 <= seq.report.dominant_frequency <= n // 2
        assert seq.trend.values.size == n
        assert 1 <= seq.smooth_radius < n
        if seq.segmentation is not None:
            starts = seq.segmentation.period_starts
            assert np.all(np.diff(starts) > 0) and starts[0] >= 0 and starts[-1] <= n
            assert seq.segmentation.reference_period > 0
    if diag.status == STATUS_TRANSFERRED:
        for seq in (diag.reference, diag.target):
            assert 1 <= diag.l_min <= np.diff(seq.segmentation.bounds, axis=1).min()
        assert diag.mean_factor.size == diag.l_min
        assert np.all(np.isfinite(diag.mean_factor))


def wide_tables(seed, n_ref=300, n_tgt=600):
    """Reference and target tables of 60 channels in random order: 48
    periodic (periods of 12-40 frames with a second harmonic, a slope and
    noise), 9 white noise, 3 constant."""
    rng = np.random.Generator(np.random.PCG64(seed))
    kinds = rng.permutation(["periodic"] * 48 + ["noise"] * 9 + ["constant"] * 3)
    ref, tgt = [], []
    for kind in kinds:
        if kind == "periodic":
            period, amplitude = rng.uniform(12.0, 40.0), rng.uniform(0.5, 2.0)
            harmonic = rng.uniform(0.0, 0.3)
        for cols, n, noise in ((ref, n_ref, 0.05), (tgt, n_tgt, 0.3)):
            t = np.arange(n, dtype=float)
            if kind == "periodic":
                w = 2.0 * np.pi * t / period + rng.uniform(0.0, 2.0 * np.pi)
                drift = rng.uniform(-0.5, 0.5) * t / (n - 1)
                cycle = np.sin(w) + harmonic * np.sin(2.0 * w)
                cols.append(amplitude * (cycle + drift + noise * rng.standard_normal(n)))
            elif kind == "noise":
                cols.append(rng.uniform(-1.0, 1.0) + rng.standard_normal(n))
            else:
                cols.append(np.full(n, rng.uniform(-1.0, 1.0)))
    names = [f"c{i:02d}" for i in range(kinds.size)]
    return names, PoseTable(names, np.column_stack(ref)), PoseTable(names, np.column_stack(tgt))


def _starts(seq):
    return None if seq is None or seq.segmentation is None else seq.segmentation.period_starts


def _orders(diag):
    return [
        None if seq is None else (seq.trend.order, seq.trend.fallback)
        for seq in (diag.reference, diag.target)
    ]


def assert_same_array(got, want, name):
    assert (got is None) == (want is None), name
    if want is not None:
        assert np.array_equal(got, want), name


def assert_matches_per_channel_transfers(ref, tgt, out, diags, cfg, tmp_path):
    """transfer_table's output, statuses, skip reasons, kept sides and
    their trend orders, l_min, mean patterns, target period starts and
    report bytes equal those of transfer_channel run on each channel
    alone, constant and plain-ramp channels included."""
    selected = set(tgt.channel_names if cfg.channel_filter is None else cfg.channel_filter)
    alone_diags = {}
    for name in tgt.channel_names:
        if name not in selected:
            alone_diags[name] = ChannelDiagnostics(status=STATUS_PASSTHROUGH)
            assert diags[name].status == STATUS_PASSTHROUGH, name
            np.testing.assert_array_equal(out.channel(name), tgt.channel(name))
            continue
        alone, diag = transfer_channel(ref.channel(name), tgt.channel(name), cfg)
        alone_diags[name] = diag
        assert diags[name].status == diag.status, name
        assert diags[name].detail == diag.detail, name
        assert _orders(diags[name]) == _orders(diag), name
        assert_same_array(diags[name].l_min, diag.l_min, name)
        assert_same_array(diags[name].mean_factor, diag.mean_factor, name)
        assert_same_array(*(_starts(d.target) for d in (diags[name], diag)), name)
        np.testing.assert_array_equal(out.channel(name), alone.values)
    write_report(diags, tmp_path / "table.json")
    write_report(alone_diags, tmp_path / "alone.json")
    assert (tmp_path / "table.json").read_bytes() == (tmp_path / "alone.json").read_bytes()


@pytest.mark.parametrize("max_order", [30, 12])
@pytest.mark.parametrize("seed", range(1, 11))
def test_side_probes_choose_the_per_channel_trend_orders(seed, max_order, tmp_path):
    # Each table side's fits come from one pass over all its channels;
    # every channel keeps the trend order, the status and the bits of
    # refined values it gets alone. At max_order 30 every sequence here
    # falls back to order 1; at 12 the orders run from 2 to 12.
    _, ref, tgt = wide_tables(seed)
    cfg = RunConfig(max_order=max_order)
    out, diags = transfer_table(ref, tgt, cfg)
    assert_matches_per_channel_transfers(ref, tgt, out, diags, cfg, tmp_path)


@pytest.mark.parametrize(
    "settings",
    [
        {"smooth_kind": "exponential"},
        {"smooth_kind": "exponential", "smooth_radius": 3, "exp_alpha": 0.3},
        {"smooth_radius": 0},
        {"smooth_radius": 3},
        {"alpha": 0.6},
        {"channel_filter": "every third"},
        {"channel_filter": "odd", "smooth_kind": "exponential", "max_order": 5},
    ],
    ids=["exponential", "exponential_r3", "radius_0", "radius_3", "alpha_0.6", "filter_thirds", "filter_odd"],
)
@pytest.mark.parametrize("seed", [2, 7])
def test_side_front_end_gives_each_channel_its_own_bits(seed, settings, tmp_path):
    # The side step batches normalization, the line, the transforms and
    # the smoother over all selected channels of a side; each channel
    # still ends exactly as it does alone, under every smoother setting
    # and channel subset.
    names, ref, tgt = wide_tables(seed)
    subsets = {"every third": names[::3], "odd": names[1::2]}
    if "channel_filter" in settings:
        settings = dict(settings, channel_filter=subsets[settings["channel_filter"]])
    cfg = RunConfig(**settings)
    out, diags = transfer_table(ref, tgt, cfg)
    assert {d.status for d in diags.values()} >= {STATUS_TRANSFERRED, STATUS_SKIPPED}
    assert_matches_per_channel_transfers(ref, tgt, out, diags, cfg, tmp_path)


def gapped_tables(seed, n_ref=300, n_tgt=600):
    """Reference and target tables of 12 periodic channels, periods of
    12-40 frames, whose cycles start late and stop early on both sides:
    before and after them each side holds only faint noise, so every
    segmentation has a long leading and trailing gap, and the channels
    differ in l_min."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ref, tgt = [], []
    for period in rng.uniform(12.0, 40.0, size=12):
        for cols, n, noise in ((ref, n_ref, 0.05), (tgt, n_tgt, 0.3)):
            t = np.arange(n, dtype=float)
            lead, tail = rng.integers(n // 8, n // 4, size=2)
            active = (t >= lead) & (t < n - tail)
            wave = np.sin(2.0 * np.pi * t / period + rng.uniform(0.0, 2.0 * np.pi))
            cols.append(np.where(active, wave + noise * rng.standard_normal(n), 0.01 * rng.standard_normal(n)))
    names = [f"g{i:02d}" for i in range(12)]
    return names, PoseTable(names, np.column_stack(ref)), PoseTable(names, np.column_stack(tgt))


@pytest.mark.parametrize("channels", [None, "g09,g02,g05,g11"], ids=["all", "channels_option"])
@pytest.mark.parametrize("seed", [4, 9])
def test_transfer_pass_over_gapped_channels_of_their_own_l_min(seed, channels, tmp_path):
    # The one transfer pass numbers each channel's intervals after the
    # channels before it; channels with their own l_min and with frames
    # before their first period and after their last still get the bits
    # they get alone, also when a --channels list picks some of them.
    _, ref, tgt = gapped_tables(seed)
    cfg = RunConfig(channel_filter=None if channels is None else channels.split(","))
    out, diags = transfer_table(ref, tgt, cfg)
    transferred = [d for d in diags.values() if d.status == STATUS_TRANSFERRED]
    assert len(transferred) == len(cfg.channel_filter or diags)
    assert len({d.l_min for d in transferred}) > 1
    for d in transferred:
        for seq, n in ((d.reference, ref.n_frames), (d.target, tgt.n_frames)):
            bounds = seq.segmentation.bounds
            assert bounds[0, 0] >= 20 and n - bounds[-1, 1] >= 20
    assert_matches_per_channel_transfers(ref, tgt, out, diags, cfg, tmp_path)


def test_each_side_is_fitted_in_one_pass(monkeypatch, tmp_path):
    # 57 of the 60 channels have a range to normalize; each side fits
    # them all in one orthogonal-polynomial pass, and with max_order 5
    # some of them still take trends above order 1.
    shapes = []

    def recording(rows, max_order):
        shapes.append((rows.shape, max_order))
        return gram_fits(rows, max_order)

    monkeypatch.setattr(cycletransfer.transfer, "gram_fits", recording)
    _, ref, tgt = wide_tables(11)
    cfg = RunConfig(max_order=5)
    out, diags = transfer_table(ref, tgt, cfg)
    assert shapes == [((57, 300), 5), ((57, 600), 5)]
    assert {_orders(d)[1][0] for d in diags.values() if d.target is not None} - {1}
    assert_matches_per_channel_transfers(ref, tgt, out, diags, cfg, tmp_path)


def test_analyze_table_side_probe_leaves_errors_to_the_channels():
    # Constant and overflowing columns get no fit, a plain ramp gets one
    # it never uses; each channel still ends as its own analysis says.
    n = 240
    t = np.arange(n, dtype=float)
    columns = {
        "wave": phase_shifted_sin(n, 16) + 0.004 * t,
        "flat": np.full(n, 2.5),
        "ramp": np.linspace(-1.0, 3.0, n),
        "slow": 2.0 * phase_shifted_sin(n, 24) - 1e-5 * (t - 100.0) ** 2,
    }
    table = PoseTable(list(columns), np.column_stack(list(columns.values())))
    diags = analyze_table(table)
    statuses = [d.status for d in diags.values()]
    assert statuses == [STATUS_PASSTHROUGH, STATUS_SKIPPED, STATUS_SKIPPED, STATUS_PASSTHROUGH]
    assert diags["flat"].detail == "series range is at most 4 float64 spacings, so the series is constant"
    assert diags["ramp"].detail == "series is a plain ramp, no cyclic part to analyze"
    for name in ("wave", "slow"):
        alone = analyze_alone(table.channel(name), RunConfig())
        got = diags[name].target
        assert (got.trend.order, got.trend.fallback) == (alone.trend.order, alone.trend.fallback)
        np.testing.assert_array_equal(got.trend.values, alone.trend.values)
        assert got.segmentation.periods == alone.segmentation.periods

    # The first overflowing channel in table order names the error, with
    # the message its own normalization gives.
    huge = 1.5e308 * phase_shifted_sin(n, 16)
    with pytest.raises(DataError) as expected:
        normalize_minmax(huge)
    names = ["wave", "flat", "big", "ramp", "big2", "slow"]
    values = np.column_stack(
        [columns["wave"], columns["flat"], huge, columns["ramp"], -huge, columns["slow"]]
    )
    with pytest.raises(DataError) as info:
        analyze_table(PoseTable(names, values))
    assert str(info.value) == f"channel 'big': {expected.value}"


def rate_tables(seed, rho, channels=40, n_tgt=600):
    """Reference and target tables of periodic channels filmed at two frame
    rates, with the benchmark's parameters, and the target's noise-free
    values. Each channel draws a period P of 12-40 target frames, an
    amplitude and a second harmonic of at most 0.3; the reference holds
    300 rho frames at period rho P and noise 0.05, the target n_tgt frames
    at period P and noise 0.3 (as shares of the amplitude), each with its
    own phase, offset and drift."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ref, tgt, truth = [], [], []
    for _ in range(channels):
        period, amplitude = rng.uniform(12.0, 40.0), rng.uniform(0.5, 2.0)
        harmonic, harmonic_phase = rng.uniform(0.0, 0.3), rng.uniform(0.0, 2.0 * np.pi)
        for cols, n, p, noise in ((ref, round(300 * rho), rho * period, 0.05), (tgt, n_tgt, period, 0.3)):
            t = np.arange(n, dtype=float)
            w = 2.0 * np.pi * t / p + rng.uniform(0.0, 2.0 * np.pi)
            clean = rng.uniform(-1.0, 1.0) + rng.uniform(-0.5, 0.5) * t / (n - 1)
            clean = amplitude * (clean + np.sin(w) + harmonic * np.sin(2.0 * w + harmonic_phase))
            cols.append(clean + noise * amplitude * rng.standard_normal(n))
        truth.append(clean)
    names = [f"r{i:02d}" for i in range(channels)]
    return PoseTable(names, np.column_stack(ref)), PoseTable(names, np.column_stack(tgt)), np.column_stack(truth)


@pytest.mark.parametrize("rho", [0.75, 1.5])
@pytest.mark.parametrize("seed", range(3))
def test_transfer_across_frame_rates_lowers_the_error(seed, rho):
    # Cameras at other frame rates give periods between l_min and 2 l_min
    # frames, which the even interval rule cuts at their own phase. Mean
    # gain (worst channel) at seeds 0/1/2: at rho 0.75 0.522 (0.209),
    # 0.565 (0.338), 0.540 (0.196); at rho 1.5 0.577 (0.315), 0.567
    # (0.251), 0.556 (0.291). The larger-first rule gave -0.387 (-0.718),
    # -0.348, -0.343 (-0.802) and 0.063 (-0.445), -0.024, 0.074 (-0.362).
    ref, tgt, truth = rate_tables(seed, rho)
    out, _ = transfer_table(ref, tgt)
    gains = 1.0 - np.sqrt(np.mean((out.values - truth) ** 2, axis=0) / np.mean((tgt.values - truth) ** 2, axis=0))
    assert gains.mean() > 0.45
    assert gains.min() > 0.0
