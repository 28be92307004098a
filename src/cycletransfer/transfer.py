"""Moving the repeating pattern of a reference series onto a target.

Both series are segmented into periods independently. The reference's
residual around its trend is averaged per within-period interval, and
that mean pattern is added onto the target's trend, interval by
interval. No cross-sequence phase search takes place: each sequence is
anchored at its own rising crossovers.

Each sequence's analysis (cycle, trend, periods) runs in its table
side's step (:func:`_analyze_side`), over all the side's selected
channels at once, with the bits each channel gets alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .config import SMOOTH_EXPONENTIAL, RunConfig
from .decomposition import (
    PeriodSegmentation,
    TrendModel,
    crossing_error,
    fit_trend,
    gram_fits,
    sign_changes,
    validate_periods,
)
from .errors import ConstantSeriesError, CycleTransferError, DataError, SeasonalityNotFoundError
# analyze_series, normalize_minmax and find_crossovers are not called here:
# the side step runs their row-batched forms. They stay importable from this
# module, where the benchmark's tracer (bench/tracing.py) looks them up.
from .decomposition import find_crossovers  # noqa: F401
from .seasonality import SeasonalityReport, analyze_rows, analyze_series, fisher_g  # noqa: F401
from .series import (
    MIN_RANGE,
    ScaleParams,
    as_series,
    default_smooth_radius,
    denormalize,
    exponential_smoothing,
    length_error,
    mean_smoothing,
    normalize_minmax,  # noqa: F401
    radius_error,
    raise_if_error,
    range_error,
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
    """One sequence's analysis: its cycle report, its trend in normalized
    units, its periods, and the bounds and radius it was analyzed with.
    ``failure`` says why a sequence that was analyzed has no periods.
    ``rising_candidates`` counts the rising crossovers that period
    validation started from; it is None when the seasonality gate stopped
    the sequence first."""

    report: SeasonalityReport
    trend: TrendModel
    segmentation: PeriodSegmentation | None
    scale: ScaleParams
    smooth_radius: int
    failure: str | None = None
    rising_candidates: int | None = None


@dataclass(eq=False)
class ChannelDiagnostics:
    """What happened to one channel, and every intermediate worth plotting."""

    status: str
    reference: SequenceDiagnostics | None = None
    target: SequenceDiagnostics | None = None
    l_min: int | None = None
    mean_factor: np.ndarray | None = None
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


def _frame_intervals(segmentation: PeriodSegmentation, n: int, l_min: int):
    """0-based interval and inside-a-period flag of every frame 0..n-1.

    The frames form alternating segments: gap, period, gap, ..., gap (any
    of them may be empty). A period is cut into l_min intervals from its
    own start and length (:func:`_interval_of`). A gap reuses the grid
    periodically with the segmentation's reference period rounded to a
    whole frame (at least 1), counted from the end of the period before
    it, or from the first start for the leading gap. Array code, O(n):
    each segment's anchor and length are expanded with np.repeat.
    """
    bounds = segmentation.bounds
    sizes = np.diff(np.concatenate([[0], bounds.ravel(), [n]]))
    # The leading gap counts back from the first start; with no period
    # the only segment is that gap, and any anchor will do.
    anchors = np.concatenate([bounds[:1, 0] if bounds.size else [0], bounds.ravel()])
    lengths = np.full(sizes.size, max(1, int(round(segmentation.reference_period))))
    lengths[1::2] = segmentation.period_lengths
    frame_lengths = np.repeat(lengths, sizes)
    offsets = (np.arange(n) - np.repeat(anchors, sizes)) % frame_lengths
    inside = np.repeat(np.arange(sizes.size) % 2 == 1, sizes)
    return _interval_of(offsets, frame_lengths, l_min), inside


def build_phi(segmentation: PeriodSegmentation, l_min: int) -> IntervalMap:
    """Map every segmented frame to its within-period interval.

    Takes the frames inside periods from :func:`_frame_intervals`, the one
    rule that also places every target frame in :func:`apply_transfer`.
    ``l_min`` is at most the shortest period, as :func:`compute_lmin` makes
    it, so every interval holds at least one frame of each period.
    """
    n = int(segmentation.bounds[:, 1].max(initial=0))
    interval, inside = _frame_intervals(segmentation, n, l_min)
    interval = interval[inside] + 1
    counts = np.bincount(interval - 1, minlength=l_min)
    return IntervalMap(l_min=l_min, frames=np.flatnonzero(inside), interval=interval, counts=counts)


def extract_additive(values: np.ndarray, trend: np.ndarray, interval_map: IntervalMap) -> np.ndarray:
    """Residual values minus trend over the map's frames only, one value
    per mapped frame, in the map's order."""
    frames = interval_map.frames
    return values[frames] - trend[frames]


def mean_additive_factor(residual: np.ndarray, interval_map: IntervalMap) -> np.ndarray:
    """Per-interval means of the residual (one value per mapped frame),
    length l_min."""
    sums = np.bincount(interval_map.interval - 1, weights=residual, minlength=interval_map.l_min)
    return sums / interval_map.counts


def apply_transfer(trend: np.ndarray, mean_factor: np.ndarray, segmentation: PeriodSegmentation) -> RefinedSeries:
    """Add the mean pattern (l_min values) onto a trend, interval by interval.

    Every frame takes the mean-factor entry of its interval under
    :func:`_frame_intervals`: inside a detected period from the period's
    own grid, outside from the grid repeated with the segmentation's
    reference period rounded to a whole frame. Frames outside the periods
    are flagged as extension rather than genuine transfer.
    """
    interval, transferred = _frame_intervals(segmentation, trend.size, mean_factor.size)
    applied = mean_factor[interval]
    return RefinedSeries(values=trend + applied, trend=trend, applied_factor=applied, transferred=transferred)


def _analyze_side(rows: np.ndarray, cfg: RunConfig) -> list[SequenceDiagnostics | DataError]:
    """The analysis of one table side: a SequenceDiagnostics per row of a
    (k, n) block of series, or the error of the first check the row fails.
    The block is the caller's copy: it is normalized in place.

    Each stage runs as array code along the last axis on every row that
    still needs it, and gives each row the bits it gives the row alone:
    min-max normalization; one fitting pass of degree max_order
    (:func:`gram_fits`), whose first two terms are each row's ramp; the
    spectrum and autocorrelation of the ramp-removed values, since a
    ramp's leakage into the lowest bins can outweigh a cycle between bins
    (:func:`analyze_rows`, in chunks of at most TRANSFORM_CHUNK doubles);
    the smoother, once per radius; and, per radius group, one
    :func:`sign_changes` pass over the smoothed rows less their trends,
    which gives every row its rising crossovers as an index array. The
    trend (:func:`fit_trend` on its row of the fitting pass), Fisher's g
    gate at MAX_SEASONALITY_P and the periods (:func:`validate_periods`)
    still run row by row: each row has its own trend order and its own
    number of candidates, so these are ragged, and the Python they run
    is per row, not per sample. A row that fails the gate, never crosses
    its trend or keeps no period holds its trend and names the reason in
    ``failure``; ``rising_candidates`` is set once the row passes the gate.

    Raises nothing. The checks, in the order a row meets them, are at
    least 2 samples, a range (:func:`range_error`), a cyclic part left
    after the ramp is removed, then the two the whole side shares: at
    least 4 samples and a set radius below n (:func:`radius_error`). A
    default radius, max(1, round(n / (8 f))) with f >= 1, is below every
    n >= 4 (:func:`default_smooth_radius`). The caller raises a row's
    error in table order (:func:`raise_if_error`). The side's blocks die
    with this step.
    """
    k, n = rows.shape
    if n < 2:
        return [length_error(n, 2)] * k
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    out: list = [range_error(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
    ok = [j for j, entry in enumerate(out) if entry is None]
    normalized = rows if len(ok) == k else rows[ok]
    normalized -= lo[ok, np.newaxis]
    normalized /= (hi[ok] - lo[ok])[:, np.newaxis]
    fits = gram_fits(normalized, cfg.max_order)
    cyclic = normalized - fits.ramp
    flat = (np.ptp(cyclic, axis=1) < MIN_RANGE).tolist()
    plain_ramp = ConstantSeriesError("series is a plain ramp, no cyclic part to analyze")
    late = length_error(n, 4) or (None if cfg.smooth_radius is None else radius_error(cfg.smooth_radius, n))
    for i, j in enumerate(ok):
        out[j] = plain_ramp if flat[i] else late
    live = [i for i, j in enumerate(ok) if out[j] is None]
    if not live:
        return out

    reports = analyze_rows(cyclic[live] if len(live) < len(ok) else cyclic)
    del cyclic  # only the transforms read the ramp-removed rows
    radii = [
        default_smooth_radius(report.reference_period) if cfg.smooth_radius is None else cfg.smooth_radius
        for report in reports
    ]
    # i numbers the normalized rows, ok[i] the input rows, g the live ones.
    for radius in sorted(set(radii)):
        group = [g for g, r in enumerate(radii) if r == radius]
        block = normalized[[live[g] for g in group]]
        if cfg.smooth_kind == SMOOTH_EXPONENTIAL:
            d = exponential_smoothing(block, cfg.exp_alpha, radius)
        else:
            d = mean_smoothing(block, radius)
        del block
        trends = []
        for row, g in zip(d, group):
            i = live[g]
            trends.append(fit_trend(normalized[i], cfg.max_order, reports[g].dominant_frequency, fit=fits.row(i)))
            row -= trends[-1].values  # the smoothed row becomes its distance from the trend
        row_of, index, rises = sign_changes(d)
        del d
        changes = np.bincount(row_of, minlength=len(group)).tolist()
        cuts = np.searchsorted(row_of[rises], np.arange(len(group) + 1)).tolist()
        rising = index[rises]
        for m, (g, trend) in enumerate(zip(group, trends)):
            i, report = live[g], reports[g]
            segmentation = failure = rising_candidates = None
            try:
                g_stat, p = fisher_g(report.spectrum, n)
                if p > MAX_SEASONALITY_P:
                    raise SeasonalityNotFoundError(
                        f"no significant cycle: Fisher's g = {g_stat:.3g}, p = {p:.3g} > {MAX_SEASONALITY_P}"
                    )
                rising_candidates = cuts[m + 1] - cuts[m]
                raise_if_error(crossing_error(changes[m]))
                segmentation = validate_periods(rising[cuts[m] : cuts[m + 1]], report.reference_period, cfg.alpha)
            except SeasonalityNotFoundError as exc:
                failure = str(exc)
            scale = ScaleParams(float(lo[ok[i]]), float(hi[ok[i]]))
            out[ok[i]] = SequenceDiagnostics(report, trend, segmentation, scale, radius, failure, rising_candidates)
    return out


def transfer_channel(
    reference, target, config: RunConfig | None = None, *, sides=None
) -> tuple[RefinedSeries, ChannelDiagnostics]:
    """Refine one target channel using one reference channel.

    Both series are analyzed independently (scale-free steps run on
    normalized values). The reference residual is taken against its trend
    in original units over the frames of the one :func:`build_phi` map and
    averaged per interval of that map. The means are added onto the
    target's trend, also in original units, by the same interval rule over
    every target frame (:func:`apply_transfer`), so patterns keep their
    physical amplitude across differently scaled sequences.

    When either sequence fails segmentation the target comes back
    unchanged with status "skipped_no_seasonality". A refined series that
    overflows float64, which a range near its limit can cause, raises
    DataError.

    ``sides`` holds the reference's and the target's entries from their
    table sides' analyses (:func:`_analyze_side`), as
    :func:`transfer_table` passes them; without it each sequence is a
    side of one row. Errors come in the order the analysis meets them:
    the length check here, then the reference's, then the target's.
    """
    cfg = config if config is not None else RunConfig()
    ref_x = as_series(reference)
    tgt_x = as_series(target)
    if ref_x.size < MIN_TRANSFER_LENGTH or tgt_x.size < MIN_TRANSFER_LENGTH:
        raise DataError(
            f"transfer needs at least {MIN_TRANSFER_LENGTH} frames per sequence, "
            f"got {ref_x.size} and {tgt_x.size}"
        )

    if sides is None:
        sides = [_analyze_side(x[np.newaxis].copy(), cfg)[0] for x in (ref_x, tgt_x)]
    for entry in sides:
        raise_if_error(entry)
    ref, tgt = sides
    # Back in original units a range near float64's limit can overflow;
    # the finiteness check below reports that instead of numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        tgt_trend = denormalize(tgt.trend.values, tgt.scale)

    if ref.segmentation is None or tgt.segmentation is None:
        reasons = [f"{side}: {seq.failure}" for side, seq in (("reference", ref), ("target", tgt)) if seq.failure]
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

    interval_map = build_phi(ref.segmentation, compute_lmin(ref.segmentation, tgt.segmentation))
    with np.errstate(over="ignore", invalid="ignore"):
        raw = extract_additive(ref_x, denormalize(ref.trend.values, ref.scale), interval_map)
        mean_factor = mean_additive_factor(raw, interval_map)
        refined = apply_transfer(tgt_trend, mean_factor, tgt.segmentation)
    if not np.all(np.isfinite(refined.values)):
        raise DataError("trend plus transferred pattern overflows float64")
    diag = ChannelDiagnostics(
        status=STATUS_TRANSFERRED,
        reference=ref,
        target=tgt,
        l_min=interval_map.l_min,
        mean_factor=mean_factor,
    )
    return refined, diag


def _table_side(table: PoseTable, selected: set[str], cfg: RunConfig) -> dict[str, SequenceDiagnostics | DataError]:
    """The side step (:func:`_analyze_side`) on the selected columns of a
    table, taken once as a row-contiguous (k, n) block, by channel name."""
    columns = [i for i, name in enumerate(table.channel_names) if name in selected]
    entries = _analyze_side(table.values.T[columns], cfg)
    return {table.channel_names[i]: entry for i, entry in zip(columns, entries)}


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
    "skipped_no_seasonality". Each table side's analysis runs once, on
    all its selected channels (:func:`_table_side`), with the bits each
    channel gets alone.
    """
    cfg = config if config is not None else RunConfig()
    if set(ref_table.channel_names) != set(target_table.channel_names):
        only_ref = sorted(set(ref_table.channel_names) - set(target_table.channel_names))
        only_tgt = sorted(set(target_table.channel_names) - set(ref_table.channel_names))
        raise DataError(
            f"channel sets differ; only in reference: {only_ref}, only in target: {only_tgt}"
        )
    selected = _selected_channels(target_table, cfg)
    ref_side = _table_side(ref_table, selected, cfg)
    tgt_side = _table_side(target_table, selected, cfg)

    values = target_table.values.copy()
    diagnostics: dict[str, ChannelDiagnostics] = {}
    for i, name in enumerate(target_table.channel_names):
        if name not in selected:
            diagnostics[name] = ChannelDiagnostics(status=STATUS_PASSTHROUGH)
            continue
        with _channel_step(name, diagnostics):
            refined, diagnostics[name] = transfer_channel(
                ref_table.channel(name), target_table.channel(name), cfg,
                sides=(ref_side.pop(name), tgt_side.pop(name)),
            )
            values[:, i] = refined.values
    return PoseTable(list(target_table.channel_names), values), diagnostics


def analyze_table(table: PoseTable, config: RunConfig | None = None) -> dict[str, ChannelDiagnostics]:
    """Run the per-sequence analysis on every selected channel of a table.

    Channels that segment cleanly get status "passthrough" (nothing is
    modified by analysis); constant ones and ones that fail segmentation get
    "skipped_no_seasonality" with the reason in ``detail``, by the rule
    :func:`transfer_table` uses; filtered-out channels get "passthrough" with
    empty diagnostics. The analysis runs once on the selected channels
    (:func:`_table_side`).
    """
    cfg = config if config is not None else RunConfig()
    selected = _selected_channels(table, cfg)
    side = _table_side(table, selected, cfg)
    out: dict[str, ChannelDiagnostics] = {}
    for name in table.channel_names:
        if name not in selected:
            out[name] = ChannelDiagnostics(status=STATUS_PASSTHROUGH)
            continue
        with _channel_step(name, out):
            seq = side.pop(name)
            raise_if_error(seq)
            status = STATUS_PASSTHROUGH if seq.segmentation is not None else STATUS_SKIPPED
            out[name] = ChannelDiagnostics(status=status, target=seq, detail=seq.failure)
    return out
