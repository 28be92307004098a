"""Moving the repeating pattern of a reference series onto a target.

Both series are segmented into periods independently. The reference's
residual around its trend is averaged per within-period interval, and
that mean pattern is added onto the target's trend, interval by
interval. No cross-sequence phase search takes place: each sequence is
anchored at its own rising crossovers.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .config import SMOOTH_EXPONENTIAL, RunConfig
from .decomposition import (
    RISING,
    PeriodSegmentation,
    TrendModel,
    find_crossovers,
    fit_trend,
    scaled_abscissa,
    trend_probes,
    validate_periods,
)
from .errors import ConstantSeriesError, CycleTransferError, DataError, SeasonalityNotFoundError
from .seasonality import SeasonalityReport, analyze_series, fisher_g
from .series import (
    MIN_RANGE,
    ScaleParams,
    as_series,
    default_smooth_radius,
    denormalize,
    exponential_smoothing,
    mean_smoothing,
    normalize_minmax,
    require_length,
)
from .tableio import PoseTable

STATUS_TRANSFERRED = "transferred"
STATUS_SKIPPED = "skipped_no_seasonality"
STATUS_PASSTHROUGH = "passthrough"

MIN_TRANSFER_LENGTH = 8
# A sequence whose Fisher's g p-value exceeds this shows no significant
# cycle and is skipped rather than segmented.
MAX_SEASONALITY_P = 0.01


@dataclass(eq=False)
class IntervalMap:
    """Assignment of segmented frames to within-period intervals.

    Each period of length L is cut into ``l_min`` contiguous intervals
    whose sizes differ by at most one, larger ones first. ``frames`` holds
    the covered frame indices in order and ``interval`` the 1-based
    interval index of each. ``counts`` totals the frames per interval over
    all periods.
    """

    l_min: int
    frames: np.ndarray
    interval: np.ndarray
    counts: np.ndarray


@dataclass(eq=False)
class AdditiveFactor:
    """Reference residual (values minus trend) and its per-interval means."""

    frames: np.ndarray
    raw: np.ndarray
    mean_factor: np.ndarray


@dataclass(eq=False)
class RefinedSeries:
    """Transfer output: values = trend + applied_factor, frame by frame.

    ``transferred`` is True where the frame sat inside a detected target
    period; False marks frames filled by periodic extension of the
    interval grid (trend-only frames outside the segmented region).
    """

    values: np.ndarray
    trend: np.ndarray
    applied_factor: np.ndarray
    transferred: np.ndarray


@dataclass(eq=False)
class SequenceDiagnostics:
    """Per-sequence analysis artifacts gathered during a transfer."""

    report: SeasonalityReport
    trend: TrendModel
    segmentation: PeriodSegmentation | None
    scale: ScaleParams
    smooth_radius: int
    failure: str | None = None


@dataclass(eq=False)
class ChannelDiagnostics:
    """What happened to one channel, and every intermediate worth plotting."""

    status: str
    reference: SequenceDiagnostics | None = None
    target: SequenceDiagnostics | None = None
    l_min: int | None = None
    factor: AdditiveFactor | None = None
    detail: str | None = None


def compute_lmin(ref_seg: PeriodSegmentation, target_seg: PeriodSegmentation) -> int:
    """Shortest period length across both segmentations."""
    return int(min(ref_seg.period_lengths.min(), target_seg.period_lengths.min()))


def _interval_of(offsets, length, l_min: int) -> np.ndarray:
    """0-based interval of each within-period offset, in closed form.

    A period of ``length`` frames is cut into l_min contiguous intervals:
    the first r = length % l_min hold q + 1 = length // l_min + 1 frames,
    the rest q. Offsets below r * (q + 1) fall in interval o // (q + 1),
    later ones in r + (o - r * (q + 1)) // q. ``length`` is one value or
    one per offset. Lengths below l_min (q = 0) leave trailing intervals
    empty, which only ever happens on the periodic extension grid.
    """
    q, r = np.divmod(length, l_min)
    head = r * (q + 1)
    # Where q is 0 every offset lies below head, so the divisor guard
    # only keeps the unused branch free of a division by zero.
    return np.where(offsets < head, offsets // (q + 1), r + (offsets - head) // np.maximum(q, 1))


def build_phi(segmentation: PeriodSegmentation, l_min: int) -> IntervalMap:
    """Map every segmented frame to its within-period interval.

    ``l_min`` is at most the shortest period, as :func:`compute_lmin`
    makes it, so every interval holds at least one frame of each period.
    Array code, O(frames): each frame's offset from its period start comes
    from np.repeat and :func:`_interval_of` turns it into the interval, so
    there is no loop over periods or frames.
    """
    lengths = segmentation.period_lengths
    frames = segmentation.covered_frames()
    starts = np.repeat(frames[np.cumsum(lengths) - lengths], lengths)
    interval = _interval_of(frames - starts, np.repeat(lengths, lengths), l_min) + 1
    counts = np.bincount(interval - 1, minlength=l_min)
    return IntervalMap(l_min=l_min, frames=frames, interval=interval, counts=counts)


def extract_additive(
    values: np.ndarray, trend: np.ndarray, segmentation: PeriodSegmentation
) -> np.ndarray:
    """Residual values minus trend over the segmented frames only."""
    frames = segmentation.covered_frames()
    return values[frames] - trend[frames]


def mean_additive_factor(residual: np.ndarray, interval_map: IntervalMap) -> np.ndarray:
    """Per-interval means of the residual (one value per mapped frame),
    length l_min."""
    sums = np.bincount(interval_map.interval - 1, weights=residual, minlength=interval_map.l_min)
    return sums / interval_map.counts


def apply_transfer(
    trend: np.ndarray,
    mean_factor: np.ndarray,
    interval_map: IntervalMap,
    segmentation: PeriodSegmentation,
    reference_period: float,
) -> RefinedSeries:
    """Add the mean pattern (l_min values) onto a trend, interval by interval.

    Inside detected periods the interval map decides which mean-factor
    entry lands on each frame. Frames outside the segmented region reuse
    the grid periodically with the reference period rounded to the
    nearest whole frame, anchored at the nearest period boundary; those
    frames are flagged as extension rather than genuine transfer.
    """
    n = trend.size
    applied = np.empty(n)
    transferred = np.zeros(n, dtype=bool)

    frames = interval_map.frames
    applied[frames] = mean_factor[interval_map.interval - 1]
    transferred[frames] = True

    l_int = max(1, int(round(reference_period)))
    ends = np.array([end for _, end in segmentation.periods])
    first_start = segmentation.periods[0][0]
    outside = np.nonzero(~transferred)[0]
    if outside.size:
        # Anchor each uncovered frame at the nearest boundary on its left:
        # the first period start for the leading gap, otherwise the end of
        # the preceding period. Python's modulo keeps offsets in range for
        # frames left of the anchor.
        anchor_idx = np.searchsorted(ends, outside, side="right") - 1
        anchors = np.where(anchor_idx < 0, first_start, ends[np.maximum(anchor_idx, 0)])
        offsets = (outside - anchors) % l_int
        applied[outside] = mean_factor[_interval_of(offsets, l_int, interval_map.l_min)]
    values = trend + applied
    return RefinedSeries(values=values, trend=trend.copy(), applied_factor=applied, transferred=transferred)


def _analyze_sequence(
    x: np.ndarray, cfg: RunConfig, probe: np.ndarray | None = None
) -> SequenceDiagnostics:
    """Normalize, detect the cycle, fit the trend, segment into periods.

    ``x`` is a finite 1-D float64 array, as a PoseTable column or
    :func:`transfer_channel` provides it. The conditions on the sequence
    are checked here, in this order: at least 2 samples; a range of at
    least MIN_RANGE and a cyclic part left after ramp removal (both
    ConstantSeriesError); at least 4 samples. The smoother then checks
    its radius against n. The stages take what this function built
    without checking it again.

    The trend stays in normalized units; a caller that needs it in
    original units denormalizes it with the diagnostics' scale.
    Segmentation failures (no significant cycle by Fisher's g test at
    MAX_SEASONALITY_P, no crossovers, validation rejecting the
    candidates) are recorded on the diagnostics instead of raised, so the
    caller can fall back to passing the channel through. The gate runs
    after the trend fit, so a skipped sequence keeps its trend.

    Cycle detection runs on ramp-removed values: a least-squares line is
    subtracted first, because a ramp's spectral leakage into the lowest
    bins can outweigh a genuine cycle whose frequency falls between bins.
    That line is also the order-1 trend. ``probe`` is the sequence's trend
    probe from its table side (see :func:`_side_probes`); without it
    :func:`fit_trend` probes the sequence alone.
    """
    n = x.size
    require_length(x, 2)
    normalized, scale = normalize_minmax(x)
    t_axis = scaled_abscissa(n)
    line = npoly.polyfit(t_axis, normalized, 1)
    ramp = npoly.polyval(t_axis, line)
    cyclic = normalized - ramp
    if float(np.ptp(cyclic)) < MIN_RANGE:
        raise ConstantSeriesError("series is a plain ramp, no cyclic part to analyze")
    require_length(x, 4)
    report = analyze_series(cyclic)
    radius = cfg.smooth_radius
    if radius is None:
        radius = default_smooth_radius(report.reference_period)
    if cfg.smooth_kind == SMOOTH_EXPONENTIAL:
        smoothed = exponential_smoothing(normalized, cfg.exp_alpha, radius)
    else:
        smoothed = mean_smoothing(normalized, radius)
    trend = fit_trend(
        normalized, min(cfg.max_order, n - 1), report.dominant_frequency, probe=probe, line=line
    )

    segmentation = None
    failure = None
    try:
        g, p = fisher_g(report.spectrum, n)
        if p > MAX_SEASONALITY_P:
            raise SeasonalityNotFoundError(
                f"no significant cycle: Fisher's g = {g:.3g}, p = {p:.3g} > {MAX_SEASONALITY_P}"
            )
        crossovers = find_crossovers(smoothed, trend.values)
        rising = [c.index for c in crossovers if c.direction == RISING]
        segmentation = validate_periods(rising, report.reference_period, cfg.alpha)
    except SeasonalityNotFoundError as exc:
        failure = str(exc)

    return SequenceDiagnostics(
        report=report,
        trend=trend,
        segmentation=segmentation,
        scale=scale,
        smooth_radius=radius,
        failure=failure,
    )


def transfer_channel(
    reference, target, config: RunConfig | None = None, *, probes=(None, None)
) -> tuple[RefinedSeries, ChannelDiagnostics]:
    """Refine one target channel using one reference channel.

    Both series are analyzed independently (scale-free steps run on
    normalized values). The reference residual is taken against its trend
    in original units and its per-interval means are added onto the
    target's trend, also in original units, so patterns keep their
    physical amplitude across differently scaled sequences.

    When either sequence fails segmentation the target comes back
    unchanged with status "skipped_no_seasonality". A refined series that
    overflows float64, which a range near its limit can cause, raises
    DataError.

    ``probes`` holds the reference's and the target's trend probes when
    :func:`transfer_table` has probed each table side at once; None
    probes the sequence alone.
    """
    cfg = config if config is not None else RunConfig()
    ref_x = as_series(reference)
    tgt_x = as_series(target)
    if ref_x.size < MIN_TRANSFER_LENGTH or tgt_x.size < MIN_TRANSFER_LENGTH:
        raise DataError(
            f"transfer needs at least {MIN_TRANSFER_LENGTH} frames per sequence, "
            f"got {ref_x.size} and {tgt_x.size}"
        )

    ref = _analyze_sequence(ref_x, cfg, probes[0])
    tgt = _analyze_sequence(tgt_x, cfg, probes[1])
    # Back in original units a range near float64's limit can overflow;
    # the finiteness check below reports that instead of numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        tgt_trend = denormalize(tgt.trend.values, tgt.scale)

    if ref.segmentation is None or tgt.segmentation is None:
        reasons = []
        if ref.failure:
            reasons.append(f"reference: {ref.failure}")
        if tgt.failure:
            reasons.append(f"target: {tgt.failure}")
        refined = RefinedSeries(
            values=tgt_x.copy(),
            trend=tgt_trend,
            applied_factor=np.zeros(tgt_x.size),
            transferred=np.zeros(tgt_x.size, dtype=bool),
        )
        diag = ChannelDiagnostics(
            status=STATUS_SKIPPED,
            reference=ref,
            target=tgt,
            detail="; ".join(reasons),
        )
        return refined, diag

    ref_seg = ref.segmentation
    tgt_seg = tgt.segmentation
    l_min = compute_lmin(ref_seg, tgt_seg)
    ref_map = build_phi(ref_seg, l_min)
    tgt_map = build_phi(tgt_seg, l_min)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = extract_additive(ref_x, denormalize(ref.trend.values, ref.scale), ref_seg)
        mean_factor = mean_additive_factor(raw, ref_map)
        refined = apply_transfer(
            tgt_trend,
            mean_factor,
            tgt_map,
            tgt_seg,
            tgt.report.reference_period,
        )
    if not np.all(np.isfinite(refined.values)):
        raise DataError("trend plus transferred pattern overflows float64")
    diag = ChannelDiagnostics(
        status=STATUS_TRANSFERRED,
        reference=ref,
        target=tgt,
        l_min=l_min,
        factor=AdditiveFactor(frames=ref_map.frames, raw=raw, mean_factor=mean_factor),
    )
    return refined, diag


def _side_probes(table: PoseTable, selected: set[str], cfg: RunConfig) -> dict[str, np.ndarray]:
    """Trend probes of the selected channels of one table side, by name.

    Each channel is normalized as :func:`normalize_minmax` does it, with
    the same bits, and the columns go through :func:`trend_probes` in
    blocks of at most max_order + 1, so the right-hand sides never
    outgrow the Vandermonde matrix polyfit builds anyway. Raises nothing:
    channels that normalize_minmax rejects (range below MIN_RANGE or
    overflowing) get no probe, and neither does a table too short to
    transfer, so every error still comes from the channel's own analysis,
    in table order.
    """
    n = table.n_frames
    if n < MIN_TRANSFER_LENGTH:
        return {}
    names = table.channel_names
    lo = table.values.min(axis=0)
    with np.errstate(over="ignore"):
        span = table.values.max(axis=0) - lo
    columns = [i for i, name in enumerate(names) if name in selected and MIN_RANGE <= span[i] < np.inf]
    max_order = min(cfg.max_order, n - 1)
    probes = {}
    for start in range(0, len(columns), max_order + 1):
        block = columns[start : start + max_order + 1]
        normalized = (table.values[:, block] - lo[block]) / span[block]
        probes.update(zip([names[i] for i in block], trend_probes(normalized, max_order).T))
    return probes


@contextmanager
def _channel_step(name: str, diagnostics: dict[str, ChannelDiagnostics]):
    """The outcome rule transfer_table and analyze_table share, per channel.

    A constant series ends the step as "skipped_no_seasonality" with its
    message; any other CycleTransferError is raised again as its own class,
    prefixed with the channel's name.
    """
    try:
        yield
    except ConstantSeriesError as exc:
        diagnostics[name] = ChannelDiagnostics(status=STATUS_SKIPPED, detail=str(exc))
    except CycleTransferError as exc:
        raise type(exc)(f"channel {name!r}: {exc}") from exc


def _selected_channels(table: PoseTable, cfg: RunConfig) -> set[str]:
    if cfg.channel_filter is None:
        return set(table.channel_names)
    unknown = sorted(set(cfg.channel_filter) - set(table.channel_names))
    if unknown:
        raise DataError(f"filter names not present in table: {unknown}")
    return set(cfg.channel_filter)


def transfer_table(
    ref_table: PoseTable, target_table: PoseTable, config: RunConfig | None = None
) -> tuple[PoseTable, dict[str, ChannelDiagnostics]]:
    """Refine every selected target channel against its reference twin.

    Channel sets must match exactly. The output is a copy of the target's
    values into which each refined column is written. Filtered-out channels
    keep their values as "passthrough", skipped ones (see
    :func:`_channel_step` and :func:`transfer_channel`) as
    "skipped_no_seasonality". Each table side gets one batched trend probe
    (:func:`_side_probes`), which only chooses the trend orders.
    """
    cfg = config if config is not None else RunConfig()
    if set(ref_table.channel_names) != set(target_table.channel_names):
        only_ref = sorted(set(ref_table.channel_names) - set(target_table.channel_names))
        only_tgt = sorted(set(target_table.channel_names) - set(ref_table.channel_names))
        raise DataError(
            f"channel sets differ; only in reference: {only_ref}, only in target: {only_tgt}"
        )
    selected = _selected_channels(target_table, cfg)
    ref_probes = _side_probes(ref_table, selected, cfg)
    tgt_probes = _side_probes(target_table, selected, cfg)

    values = target_table.values.copy()
    diagnostics: dict[str, ChannelDiagnostics] = {}
    for i, name in enumerate(target_table.channel_names):
        if name not in selected:
            diagnostics[name] = ChannelDiagnostics(status=STATUS_PASSTHROUGH)
            continue
        with _channel_step(name, diagnostics):
            refined, diagnostics[name] = transfer_channel(
                ref_table.channel(name), target_table.channel(name), cfg,
                probes=(ref_probes.get(name), tgt_probes.get(name)),
            )
            values[:, i] = refined.values
    return PoseTable(list(target_table.channel_names), values), diagnostics


def analyze_table(table: PoseTable, config: RunConfig | None = None) -> dict[str, ChannelDiagnostics]:
    """Run the per-sequence analysis on every selected channel of a table.

    Channels that segment cleanly get status "passthrough" (nothing is
    modified by analysis); constant ones and ones that fail segmentation get
    "skipped_no_seasonality" with the reason in ``detail``, by the rule
    :func:`transfer_table` uses; filtered-out channels get "passthrough" with
    empty diagnostics. The trend orders come from one batched probe of
    the selected channels (:func:`_side_probes`).
    """
    cfg = config if config is not None else RunConfig()
    selected = _selected_channels(table, cfg)
    probes = _side_probes(table, selected, cfg)
    out: dict[str, ChannelDiagnostics] = {}
    for name in table.channel_names:
        if name not in selected:
            out[name] = ChannelDiagnostics(status=STATUS_PASSTHROUGH)
            continue
        with _channel_step(name, out):
            seq = _analyze_sequence(table.channel(name), cfg, probes.get(name))
            status = STATUS_PASSTHROUGH if seq.segmentation is not None else STATUS_SKIPPED
            out[name] = ChannelDiagnostics(status=status, target=seq, detail=seq.failure)
    return out
