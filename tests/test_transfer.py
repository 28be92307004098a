import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycletransfer.config import RunConfig
from cycletransfer.decomposition import PeriodSegmentation, validate_periods
from cycletransfer.errors import DataError, UsageError
from cycletransfer.tableio import PoseTable
from cycletransfer.transfer import (
    STATUS_PASSTHROUGH,
    STATUS_SKIPPED,
    STATUS_TRANSFERRED,
    IntervalMap,
    analyze_table,
    apply_transfer,
    build_phi,
    compute_lmin,
    extract_additive,
    mean_additive_factor,
    transfer_channel,
    transfer_table,
)


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


def test_compute_lmin_examples():
    assert compute_lmin(seg_from_lengths([16, 15, 17], 16), seg_from_lengths([20, 21], 20)) == 15
    assert compute_lmin(seg_from_lengths([16, 16], 16), seg_from_lengths([16], 16)) == 16
    assert compute_lmin(seg_from_lengths([10], 10), seg_from_lengths([30], 30)) == 10


def test_build_phi_one_frame_per_interval():
    seg = seg_from_lengths([16, 16], 16)
    imap = build_phi(seg, 16)
    assert imap.l_min == 16
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


def test_build_phi_rejects_short_period():
    with pytest.raises(DataError, match=r"period \[5, 7\) holds 2 frames, fewer than l_min=3"):
        build_phi(seg_from_lengths([5, 2], 5), 3)
    with pytest.raises(ValueError):
        build_phi(seg_from_lengths([5], 5), 0)


def test_extract_additive_zero_residual():
    trend = np.linspace(0.0, 5.0, 32)
    seg = seg_from_lengths([16, 16], 16)
    np.testing.assert_array_equal(extract_additive(trend, trend, seg), np.zeros(32))


def test_extract_additive_constant_offset():
    trend = np.linspace(0.0, 5.0, 32)
    seg = seg_from_lengths([16, 16], 16)
    out = extract_additive(trend + 0.5, trend, seg)
    np.testing.assert_allclose(out, np.full(32, 0.5), atol=1e-12)


def test_extract_additive_sinusoid_residual():
    t = np.arange(48, dtype=float)
    trend = 0.1 * t + 2.0
    wave = np.sin(2.0 * np.pi * t / 16.0)
    seg = seg_from_lengths([16, 16], 16)
    out = extract_additive(trend + wave, trend, seg)
    np.testing.assert_allclose(out, wave[:32], atol=1e-12)


def test_extract_additive_restricts_to_segmented_frames():
    t = np.arange(40, dtype=float)
    seg = seg_from_lengths([16], 16, start=4)
    out = extract_additive(t, np.zeros(40), seg)
    np.testing.assert_array_equal(out, t[4:20])


def test_extract_additive_length_mismatch():
    seg = seg_from_lengths([16], 16)
    with pytest.raises(UsageError, match="lengths differ: 20 != 19"):
        extract_additive(np.zeros(20), np.zeros(19), seg)
    with pytest.raises(UsageError, match="reaches frame 15 but series ends at 9"):
        extract_additive(np.zeros(10), np.zeros(10), seg)


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


def test_mean_factor_length_mismatch():
    imap = build_phi(seg_from_lengths([4], 4), 4)
    with pytest.raises(UsageError, match="residual has 3 values for 4 mapped frames"):
        mean_additive_factor(np.zeros(3), imap)


def test_mean_factor_empty_interval_is_an_error():
    # Interval 3 of 3 gets no frame; a real error, not an assert, so the
    # check survives python -O instead of returning nan.
    imap = IntervalMap(
        l_min=3, frames=np.arange(4), interval=np.array([1, 1, 2, 2]), counts=np.array([2, 2, 0])
    )
    with pytest.raises(DataError, match="interval 3 of 3"):
        mean_additive_factor(np.ones(4), imap)


def test_apply_transfer_zero_factor_returns_trend():
    trend = np.linspace(-1.0, 1.0, 40)
    seg = seg_from_lengths([16, 16], 16)
    imap = build_phi(seg, 16)
    refined = apply_transfer(trend, np.zeros(16), imap, seg, 16.0)
    np.testing.assert_array_equal(refined.values, trend)
    np.testing.assert_array_equal(refined.applied_factor, np.zeros(40))


def test_apply_transfer_alternating_pattern():
    seg = seg_from_lengths([2, 2, 2], 2)
    imap = build_phi(seg, 2)
    refined = apply_transfer(np.zeros(8), np.array([1.0, 2.0]), imap, seg, 2.0)
    np.testing.assert_array_equal(refined.values, [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
    np.testing.assert_array_equal(refined.transferred, [True] * 6 + [False] * 2)


def test_apply_transfer_reconstruction_oracle():
    rng = np.random.Generator(np.random.PCG64(3))
    n = 50
    trend = rng.standard_normal(n).cumsum() * 0.1
    seg = seg_from_lengths([10, 10, 10], 10, start=5)
    imap = build_phi(seg, 5)
    factor = rng.standard_normal(5)
    refined = apply_transfer(trend, factor, imap, seg, 10.0)
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
    imap = build_phi(seg, 4)
    factor = np.array([1.0, 2.0, 3.0, 4.0])
    refined = apply_transfer(np.zeros(16), factor, imap, seg, 4.0)
    np.testing.assert_array_equal(refined.values, np.tile(factor, 4))


def test_apply_transfer_factor_length_mismatch():
    seg = seg_from_lengths([4], 4)
    imap = build_phi(seg, 4)
    with pytest.raises(UsageError, match="mean factor has 3 entries for l_min=4"):
        apply_transfer(np.zeros(8), np.zeros(3), imap, seg, 4.0)


@given(st.integers(3, 8), st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_apply_transfer_piecewise_constant(l_min, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    lengths = rng.integers(l_min, l_min + 6, size=3)
    seg = seg_from_lengths(lengths, float(np.mean(lengths)), start=int(rng.integers(0, 4)))
    imap = build_phi(seg, l_min)
    n = int(seg.periods[-1][1] + rng.integers(0, 6))
    trend = rng.standard_normal(n)
    factor = rng.standard_normal(l_min)
    refined = apply_transfer(trend, factor, imap, seg, float(np.mean(lengths)))
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
    raw = extract_additive(values, np.zeros(24), seg)
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


def test_run_config_rejects_exponential_zero_radius():
    with pytest.raises(UsageError, match="smooth_radius must be >= 1 for exponential"):
        RunConfig(smooth_kind="exponential", smooth_radius=0)
    assert RunConfig(smooth_kind="mean", smooth_radius=0).smooth_radius == 0
    assert RunConfig(smooth_kind="exponential", smooth_radius=None).smooth_radius is None
