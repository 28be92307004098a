"""Moving the repeating pattern of a reference series onto a target.

Both series are segmented into periods independently. The reference's
residual around its trend is averaged per within-period interval, and
that mean pattern is added onto the target's trend, interval by
interval. No cross-sequence phase search takes place: each sequence is
anchored at its own rising crossovers.

A table runs two kinds of pass, each over many channels at once with
the bits each channel gets alone. Each sequence's analysis (cycle,
trend, periods) runs in its table side's step (:func:`_analyze_side`),
each stage one pass over all the side's selected channels. The transfer
runs in one step (:func:`_transfer_rows`) over all the channels whose
sequences both have periods: one interval map of all the references
(:func:`_interval_map`), their mean patterns (:func:`_mean_patterns`),
and one walk over every target frame (:func:`_applied_factors`), which
gives the pattern block its caller adds the targets' trends onto.
:func:`extract_additive` and :func:`mean_additive_factor` run as they
are in that step, on the map of all the references at once.
:func:`transfer_channel`, :func:`build_phi` and :func:`apply_transfer`
are the one-channel forms of these passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SMOOTH_EXPONENTIAL, RunConfig
from .decomposition import (
    PeriodSegmentation,
    TrendModel,
    crossing_error,
    gram_fits,
    sign_changes,
    trend_orders,
    validate_period_rows,
)
from .errors import ConstantSeriesError, DataError, SeasonalityNotFoundError
# analyze_series, normalize_minmax, fit_trend, find_crossovers,
# validate_periods and denormalize are not called here: the side step and
# the transfer step run their row-batched forms. They stay importable from
# this module, where the benchmark's tracer (bench/tracing.py) looks them up.
from .decomposition import find_crossovers, fit_trend, validate_periods  # noqa: F401
from .seasonality import SeasonalityReport, analyze_rows, fisher_g_rows
from .seasonality import analyze_series  # noqa: F401
from .series import (
    MIN_RANGE,
    ScaleParams,
    as_series,
    default_smooth_radius,
    denormalize,  # noqa: F401
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
# The error of a channel whose refined values overflow float64, which a
# range near its limit can cause.
OVERFLOW = "trend plus transferred pattern overflows float64"


@dataclass(eq=False)
class IntervalMap:
    """Assignment of the frames inside periods to within-period intervals,
    for one row or for k rows laid end to end.

    Each period of length L is cut into its row's l_min contiguous
    intervals spread evenly (Bresenham's rule): offset o from the period's
    start falls in interval j = floor(o l_min / L), which holds offsets
    ceil(j L / l_min) to ceil((j + 1) L / l_min) - 1. ``frames`` holds the
    covered frames in order, as flat indices, and ``interval`` the 1-based
    interval of each. A row's intervals are numbered on from the last one
    of the row before it, so each row has intervals of its own. ``counts``
    totals the frames per interval over all periods.
    """

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
    the sequence first. ``fisher_g`` and ``fisher_p`` are the gate's."""

    report: SeasonalityReport
    trend: TrendModel
    segmentation: PeriodSegmentation | None
    scale: ScaleParams
    smooth_radius: int
    failure: str | None = None
    rising_candidates: int | None = None
    fisher_g: float | None = None
    fisher_p: float | None = None


@dataclass(eq=False)
class ChannelDiagnostics:
    """What happened to one channel: its status, the analysis of each
    sequence that was analyzed, a transferred channel's l_min and mean
    pattern, and in ``detail`` why a channel was skipped."""

    status: str
    reference: SequenceDiagnostics | None = None
    target: SequenceDiagnostics | None = None
    l_min: int | None = None
    mean_factor: np.ndarray | None = None
    detail: str | None = None


def _periods(segmentations, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """The periods of k segmentations whose rows are laid end to end,
    ``stride`` frames apart: each period's [start, end) as flat frame
    indices, an (m, 2) array in row order, and each row's number of
    periods."""
    counts = np.array([len(seg.bounds) for seg in segmentations], dtype=int)
    flat = np.concatenate([seg.bounds for seg in segmentations])
    flat += np.repeat(np.arange(counts.size) * stride, counts)[:, np.newaxis]
    return flat, counts


def _lmins(ref_periods, target_periods) -> np.ndarray:
    """Each row's shortest period across its reference's and its target's
    periods, both given as :func:`_periods` gives them, with at least one
    period per row."""
    return np.minimum(*(
        np.minimum.reduceat(bounds[:, 1] - bounds[:, 0], np.cumsum(counts) - counts)
        for bounds, counts in (ref_periods, target_periods)
    ))


def _frame_intervals(sizes, anchors, lengths, l_mins, per_row) -> np.ndarray:
    """Interval bin of every frame of a walk over the segments of k rows
    laid end to end, per_row[i] segments for row i.

    Segment s holds sizes[s] frames on a grid of lengths[s]-frame periods
    anchored at walk position anchors[s], each cut into its row's l_min
    intervals by the rule of :class:`IntervalMap`; a length below l_min,
    only ever on the extension grid, leaves some intervals empty. A frame's
    bin is its interval plus the l_min of every row before its own.

    Array code, O(frames): one multiply and two integer divisions a frame,
    on int64 offsets, which hold o l_min < n^2. Each segment's constants,
    at most n, are spread over its frames with np.repeat as int32.
    """
    bases = np.repeat(np.cumsum(l_mins) - l_mins, per_row)
    offsets = np.arange(np.sum(sizes), dtype=np.int64)
    offsets -= np.repeat(anchors, sizes)
    lengths = np.repeat(np.asarray(lengths, dtype=np.int32), sizes)
    offsets %= lengths
    offsets *= np.repeat(np.repeat(l_mins, per_row).astype(np.int32), sizes)
    offsets //= lengths
    del lengths
    offsets += np.repeat(bases, sizes)
    return offsets


def _interval_map(periods, l_mins: np.ndarray) -> IntervalMap:
    """The IntervalMap of k rows' periods, given as :func:`_periods` gives
    them, row i's periods cut into l_mins[i] intervals. Only the period
    frames are walked (:func:`_frame_intervals`), each period on its own
    grid."""
    bounds, per_row = periods
    lengths = bounds[:, 1] - bounds[:, 0]
    starts = np.cumsum(lengths) - lengths  # each period's place in the walk
    bins = _frame_intervals(lengths, starts, lengths, l_mins, per_row)
    frames = np.arange(bins.size) + np.repeat(bounds[:, 0] - starts, lengths)
    counts = np.bincount(bins, minlength=int(np.sum(l_mins)))
    bins += 1
    return IntervalMap(frames=frames, interval=bins, counts=counts)


def build_phi(segmentation: PeriodSegmentation, l_min: int) -> IntervalMap:
    """Map every frame inside a period to its within-period interval.

    The one-row form of the map the transfer step builds for all its
    reference rows at once (:func:`_interval_map`). ``l_min`` is at most
    the shortest period, as :func:`_lmins` makes it, so every
    interval holds at least one frame of each period.
    """
    return _interval_map(_periods([segmentation], 0), np.array([l_min]))


def extract_additive(values: np.ndarray, trend: np.ndarray, interval_map: IntervalMap) -> np.ndarray:
    """Residual values minus trend over the map's frames only, one value
    per mapped frame, in the map's order. For a map of k rows, values and
    trend are the flat (k, n) blocks its frames index."""
    frames = interval_map.frames
    return values[frames] - trend[frames]


def mean_additive_factor(residual: np.ndarray, interval_map: IntervalMap) -> np.ndarray:
    """Per-interval means of the residual (one value per mapped frame): l_min
    values for a one-row map, every row's l_min after each other for a map
    of k rows. np.bincount adds each interval's residuals in input order,
    so a row's means have the bits they have on a map of that row alone."""
    sums = np.bincount(interval_map.interval - 1, weights=residual, minlength=interval_map.counts.size)
    return sums / interval_map.counts


def _applied_factors(means: np.ndarray, periods, n: int, reference_periods, l_mins: np.ndarray):
    """The applied factor and the inside-a-period flag of every frame of k
    target rows of n frames, as two (k, n) blocks: each frame takes the
    entry of ``means``, the rows' l_min means after each other, of its
    interval.

    A row's frames form alternating segments: gap, period, gap, ..., gap
    (any of them may be empty), with the periods as :func:`_periods` gives
    them. A period is cut into its row's l_min intervals from its own start
    and length. A gap reuses the grid periodically with the row's reference
    period rounded to a whole frame (at least 1), counted from the end of
    the period before it, or from the row's first start for the leading
    gap; with no period the only segment is that gap, and any anchor will
    do. One walk over all the rows' segments (:func:`_frame_intervals`)
    gives every frame its interval.
    """
    bounds, per_row = periods
    k = per_row.size
    # Each period and the gap after it are two segments; a row's leading
    # gap goes before its first period's pair.
    first = 2 * (np.cumsum(per_row) - per_row)
    starts = np.insert(bounds.ravel(), first, np.arange(k) * n)
    sizes = np.diff(starts, append=k * n)
    lead = first + np.arange(k)  # the leading gaps' places among the segments
    anchors = starts.copy()
    anchors[lead] = np.append(starts, k * n)[lead + 1]
    grids = np.maximum(np.rint(np.asarray(reference_periods, dtype=float)), 1).astype(int)
    pairs = np.column_stack([bounds[:, 1] - bounds[:, 0], np.repeat(grids, per_row)])
    lengths = np.insert(pairs.ravel(), first, grids)
    in_period = np.insert(np.tile([True, False], bounds.shape[0]), first, False)
    bins = _frame_intervals(sizes, anchors, lengths, l_mins, 2 * per_row + 1)
    return means[bins].reshape(k, n), np.repeat(in_period, sizes).reshape(k, n)


def apply_transfer(trend: np.ndarray, mean_factor: np.ndarray, segmentation: PeriodSegmentation) -> RefinedSeries:
    """Add the mean pattern (l_min values) onto a trend, interval by interval.

    Every frame takes the mean-factor entry of its interval: inside a
    detected period from the period's own grid, outside from the grid
    repeated with the segmentation's reference period rounded to a whole
    frame. Frames outside the periods are flagged as extension rather than
    genuine transfer. The one-row form of the transfer step's pass over
    all its target rows (:func:`_applied_factors`).
    """
    (applied,), (transferred,) = _applied_factors(
        mean_factor, _periods([segmentation], 0), trend.size, [segmentation.reference_period], np.array([mean_factor.size])
    )
    return RefinedSeries(values=trend + applied, trend=trend, applied_factor=applied, transferred=transferred)


def _analyze_side(rows: np.ndarray, cfg: RunConfig, *, with_acf: bool = True) -> list[SequenceDiagnostics | DataError]:
    """The analysis of one table side: a SequenceDiagnostics per row of a
    (k, n) block of series, or the error of the first check the row fails.
    The block is the caller's copy: it is normalized in place. Without
    ``with_acf`` the reports hold no autocorrelation: a transfer's
    reference side, which no report writes.

    Each stage runs once, as array code on every row that still needs it,
    and gives each row the bits it gives the row alone: min-max
    normalization; one fitting pass of degree max_order
    (:func:`gram_fits`), whose first two terms are each row's ramp; the
    spectrum and autocorrelation of the ramp-removed values, since a
    ramp's leakage into the lowest bins can outweigh a cycle between bins
    (:func:`analyze_rows`, in chunks of at most TRANSFORM_CHUNK doubles);
    Fisher's g gate at MAX_SEASONALITY_P (:func:`fisher_g_rows`); the
    trend order rule (:func:`trend_orders`) and one trend walk
    (:meth:`GramFit.trends`) that adds each term only to the rows whose
    order needs it; then, on the rows that pass the gate, the smoother,
    once per radius, into one block of their distances from their trends;
    one :func:`sign_changes` pass over that block, which gives the rising
    crossovers of all those rows as a row and an index array, with each
    row's count of sign changes; and one :func:`validate_period_rows`
    pass over those two arrays that turns them into each row's periods.
    A row that fails the gate, never crosses its trend (its count is 0)
    or keeps no period holds its trend and names the reason in
    ``failure``; ``rising_candidates`` is set once the row passes the
    gate. A ramp-only row drops out of the side's blocks once, right
    after the check that finds it.

    Raises nothing. The checks, in the order a row meets them, are at
    least 2 samples, a range (:func:`range_error`), a cyclic part left
    after the ramp is removed, then the two the whole side shares: at
    least 4 samples and a set radius below n (:func:`radius_error`). A
    default radius, max(1, round(n / (8 f))) with f >= 1, is below every
    n >= 4 (:func:`default_smooth_radius`). The caller settles a row's
    error in table order (:func:`_settle`). The side's blocks die
    with this step, except the trends, whose rows the diagnostics hold.
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
    # From here on g numbers the live rows and live[g] is its input row.
    live = [j for j in ok if out[j] is None]
    if not live:
        return out
    if len(live) < len(ok):  # the ramp-only rows drop out of every block once
        alive = [i for i, ramp in enumerate(flat) if not ramp]
        normalized, cyclic, fits = normalized[alive], cyclic[alive], fits.row(alive)

    reports, spectra = analyze_rows(cyclic, with_acf=with_acf)
    del cyclic  # only the transforms read the ramp-removed rows
    gates = fisher_g_rows(spectra, n)
    orders, fallbacks = trend_orders(fits.monomial, [report.dominant_frequency for report in reports])
    trends = fits.trends(orders)
    fixed = cfg.smooth_radius
    radii = [default_smooth_radius(report.reference_period) if fixed is None else fixed for report in reports]
    # Only the rows that pass the gate are segmented, numbered by m.
    passing = [g for g, (_, p) in enumerate(gates) if not p > MAX_SEASONALITY_P]
    groups = sorted({radii[g] for g in passing})
    exponential = cfg.smooth_kind == SMOOTH_EXPONENTIAL
    distance = None if len(groups) == 1 else np.empty((len(passing), n))
    for radius in groups:
        group = [m for m, g in enumerate(passing) if radii[g] == radius]
        block = normalized[[passing[m] for m in group]]
        block = exponential_smoothing(block, cfg.exp_alpha, radius) if exponential else mean_smoothing(block, radius)
        if distance is None:
            distance = block  # one group's smoothed rows are the whole block
        else:
            distance[group] = block
        del block
    # Each smoothed row becomes its distance from its trend.
    distance -= trends if len(passing) == len(live) else trends[passing]
    row_of, index, changes = sign_changes(distance)
    del distance
    rising = np.bincount(row_of, minlength=len(passing)).tolist()
    periods = validate_period_rows(row_of, index, [reports[g].reference_period for g in passing], cfg.alpha)
    slots = iter(range(len(passing)))
    per_row = zip(live, reports, radii, gates, map(TrendModel, orders.tolist(), trends, fallbacks.tolist()))
    for j, report, radius, (g_stat, p), trend in per_row:
        segmentation = failure = rising_candidates = None
        if p > MAX_SEASONALITY_P:
            failure = f"no significant cycle: Fisher's g = {g_stat:.3g}, p = {p:.3g} > {MAX_SEASONALITY_P}"
        else:
            m = next(slots)
            rising_candidates = rising[m]
            outcome = crossing_error(changes[m]) or periods[m]
            if isinstance(outcome, SeasonalityNotFoundError):
                failure = str(outcome)
            else:
                segmentation = outcome
        scale = ScaleParams(float(lo[j]), float(hi[j]))
        out[j] = SequenceDiagnostics(report, trend, segmentation, scale, radius, failure, rising_candidates, g_stat, p)
    return out


def _transfer_rows(ref_rows: np.ndarray, refs, targets):
    """The transfer step of k channels whose sequences all have periods, at
    once: ``ref_rows`` holds their reference values as a (k, n_ref) block in
    original units, ``refs`` and ``targets`` their sequences' analyses.

    Returns the applied factor and the in-period flag of every target
    frame, as two (k, n) blocks (:func:`_applied_factors`), each channel's
    l_min and each channel's mean pattern. The caller adds the targets'
    trends in original units (:func:`_trends`) onto the applied block, so
    patterns keep their physical amplitude across differently scaled
    sequences; back in original units a range near float64's limit can
    overflow, which the caller reports instead of numpy warnings.

    The mean patterns come from the reference rows
    (:func:`_mean_patterns`) and are spread over every target frame by the
    same interval rule. Each channel gets the bits it gets alone.
    """
    n = targets[0].trend.values.size
    ref_periods = _periods([seq.segmentation for seq in refs], ref_rows.shape[1])
    target_periods = _periods([seq.segmentation for seq in targets], n)
    l_mins = _lmins(ref_periods, target_periods)
    with np.errstate(over="ignore", invalid="ignore"):
        means = _mean_patterns(ref_rows, refs, ref_periods, l_mins)
    del ref_rows  # the caller hands the block over, so it is freed here
    reference_periods = [seq.segmentation.reference_period for seq in targets]
    applied, transferred = _applied_factors(means, target_periods, n, reference_periods, l_mins)
    return applied, transferred, l_mins.tolist(), np.split(means, np.cumsum(l_mins)[:-1])


def _mean_patterns(ref_rows: np.ndarray, refs, periods, l_mins: np.ndarray) -> np.ndarray:
    """The reference side of the transfer step: every row's residual against
    its trend in original units, taken over the frames of one interval map
    of all the rows (:func:`_interval_map`), averaged per interval in one
    np.bincount. Returns the rows' l_min means after each other."""
    interval_map = _interval_map(periods, l_mins)
    return mean_additive_factor(extract_additive(ref_rows.ravel(), _trends(refs).ravel(), interval_map), interval_map)


def _trends(seqs) -> np.ndarray:
    """The trends of analyzed sequences of one length in original units, as a
    (k, n) block: the rule of :func:`denormalize`, as one multiply-add on
    the block of their normalized trends."""
    block = np.array([seq.trend.values for seq in seqs])
    block *= np.array([[seq.scale.max - seq.scale.min] for seq in seqs])
    block += np.array([[seq.scale.min] for seq in seqs])
    return block


def _skipped(ref: SequenceDiagnostics, tgt: SequenceDiagnostics) -> ChannelDiagnostics:
    """The diagnostics of a channel one of whose sequences has no periods."""
    reasons = [f"{side}: {seq.failure}" for side, seq in (("reference", ref), ("target", tgt)) if seq.failure]
    return ChannelDiagnostics(status=STATUS_SKIPPED, reference=ref, target=tgt, detail="; ".join(reasons))


def _pair_error(ref, tgt) -> DataError | None:
    """The first error of a channel's analyses, the reference's first. A
    constant or plain-ramp sequence's error names its side, as every skip
    reason of a transfer does."""
    for side, entry in (("reference", ref), ("target", tgt)):
        if isinstance(entry, DataError):
            return ConstantSeriesError(f"{side}: {entry}") if isinstance(entry, ConstantSeriesError) else entry
    return None


def _pair_length_error(n_ref: int, n_tgt: int) -> DataError | None:
    """The error of a reference and a target too short to transfer, or None."""
    if min(n_ref, n_tgt) < MIN_TRANSFER_LENGTH:
        return DataError(
            f"transfer needs at least {MIN_TRANSFER_LENGTH} frames per sequence, got {n_ref} and {n_tgt}"
        )
    return None


def transfer_channel(reference, target, config: RunConfig | None = None) -> tuple[RefinedSeries, ChannelDiagnostics]:
    """Refine one target channel using one reference channel.

    Both series are analyzed independently (scale-free steps run on
    normalized values), each as a table side of one row
    (:func:`_analyze_side`); the transfer is the one-channel form of the
    step :func:`transfer_table` runs on all its channels at once
    (:func:`_transfer_rows`). The reference's report holds no acf, since
    no report writes it.

    When either sequence fails segmentation the target comes back
    unchanged with status "skipped_no_seasonality". A refined series that
    overflows float64, which a range near its limit can cause, raises
    DataError. Errors come in the order the analysis meets them: the
    checks of each series as it enters (:func:`as_series`), the length
    check, then the reference's analysis, then the target's.
    """
    cfg = config if config is not None else RunConfig()
    ref_x = as_series(reference)
    tgt_x = as_series(target)
    raise_if_error(_pair_length_error(ref_x.size, tgt_x.size))
    ref = _analyze_side(ref_x[np.newaxis].copy(), cfg, with_acf=False)[0]
    tgt = _analyze_side(tgt_x[np.newaxis].copy(), cfg)[0]
    raise_if_error(_pair_error(ref, tgt))
    with np.errstate(over="ignore", invalid="ignore"):
        (trend,) = _trends([tgt])
    if ref.segmentation is None or tgt.segmentation is None:
        zeros = np.zeros(tgt_x.size)
        return RefinedSeries(tgt_x.copy(), trend, zeros, zeros.astype(bool)), _skipped(ref, tgt)
    (applied,), (transferred,), (l_min,), (mean_factor,) = _transfer_rows(ref_x[np.newaxis], [ref], [tgt])
    with np.errstate(over="ignore", invalid="ignore"):
        values = trend + applied
    if not np.isfinite(values).all():
        raise DataError(OVERFLOW)
    refined = RefinedSeries(values=values, trend=trend, applied_factor=applied, transferred=transferred)
    return refined, ChannelDiagnostics(STATUS_TRANSFERRED, ref, tgt, l_min, mean_factor)


def _table_side(
    table: PoseTable, selected: set[str], cfg: RunConfig, *, with_acf: bool = True
) -> dict[str, SequenceDiagnostics | DataError]:
    """The side step (:func:`_analyze_side`) on the selected columns of a
    table, taken once as a row-contiguous (k, n) block, by channel name."""
    columns = [i for i, name in enumerate(table.channel_names) if name in selected]
    entries = _analyze_side(table.values.T[columns], cfg, with_acf=with_acf)
    return {table.channel_names[i]: entry for i, entry in zip(columns, entries)}


def _settle(name: str, exc: DataError, reference=None, target=None) -> ChannelDiagnostics:
    """The outcome of a selected channel whose first error is ``exc``, by
    the rule transfer_table and analyze_table share.

    A constant series gives "skipped_no_seasonality" with its message,
    keeping whichever of ``reference`` and ``target`` is a sequence that
    was analyzed; any other error is raised as its own class, prefixed
    with the channel's name.
    """
    if not isinstance(exc, ConstantSeriesError):
        raise type(exc)(f"channel {name!r}: {exc}")
    ref, tgt = (seq if isinstance(seq, SequenceDiagnostics) else None for seq in (reference, target))
    return ChannelDiagnostics(status=STATUS_SKIPPED, reference=ref, target=tgt, detail=str(exc))


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

    Channel sets must match exactly. Three steps, with the bits each
    channel gets alone (:func:`transfer_channel`). Each table side's
    analysis runs once, on all its selected channels (:func:`_table_side`),
    the reference's without the acf that no report writes.
    The transfer step runs once, on all the channels whose sequences both
    have periods (:func:`_transfer_rows`); their trends are added onto the
    pattern block it returns, in place, and the sums are written into a
    copy of the target's values. Then every channel is settled in
    table order: filtered-out channels keep their values as "passthrough",
    skipped ones (see :func:`transfer_channel`) as "skipped_no_seasonality".
    Until that last step a channel's errors are held as values; there each
    channel's first one goes to :func:`_settle`, so the first channel in
    table order that fails names the error, each channel's in the order
    transfer_channel meets them; an overflow of the transfer step is that
    channel's last error.
    """
    cfg = config if config is not None else RunConfig()
    if set(ref_table.channel_names) != set(target_table.channel_names):
        only_ref = sorted(set(ref_table.channel_names) - set(target_table.channel_names))
        only_tgt = sorted(set(target_table.channel_names) - set(ref_table.channel_names))
        raise DataError(
            f"channel sets differ; only in reference: {only_ref}, only in target: {only_tgt}"
        )
    selected = _selected_channels(target_table, cfg)
    ref_side = _table_side(ref_table, selected, cfg, with_acf=False)
    tgt_side = _table_side(target_table, selected, cfg)
    # Of the checks transfer_channel makes as a channel enters, only the
    # lengths can fail on a table's finite columns.
    n_ref, n_tgt = ref_table.n_frames, target_table.n_frames
    short = length_error(n_ref, 1) or length_error(n_tgt, 1) or _pair_length_error(n_ref, n_tgt)

    names = target_table.channel_names
    columns = [
        i for i, name in enumerate(names)
        if short is None and name in selected and all(
            isinstance(seq, SequenceDiagnostics) and seq.segmentation is not None
            for seq in (ref_side[name], tgt_side[name])
        )
    ]
    jobs = [names[i] for i in columns]
    outcomes = {}
    if jobs:
        ref_column = {name: j for j, name in enumerate(ref_table.channel_names)}
        targets = [tgt_side[name] for name in jobs]
        refined, _, l_mins, means = _transfer_rows(
            ref_table.values.T[[ref_column[name] for name in jobs]], [ref_side[name] for name in jobs], targets
        )
        with np.errstate(over="ignore", invalid="ignore"):
            refined += _trends(targets)
        finite = np.isfinite(refined).all(axis=1).tolist()
        outcomes = {
            name: ChannelDiagnostics(STATUS_TRANSFERRED, ref_side[name], tgt_side[name], l_min, mean)
            if ok else DataError(OVERFLOW)
            for name, l_min, mean, ok in zip(jobs, l_mins, means, finite)
        }
    values = target_table.values.copy()
    if jobs:
        values[:, columns] = refined.T

    diagnostics: dict[str, ChannelDiagnostics] = {}
    for name in names:
        if name not in selected:
            diagnostics[name] = ChannelDiagnostics(status=STATUS_PASSTHROUGH)
            continue
        ref, tgt = ref_side[name], tgt_side[name]
        # The transfer step's outcome, else the channel's first error, else its skip.
        outcome = outcomes.get(name) or short or _pair_error(ref, tgt) or _skipped(ref, tgt)
        diagnostics[name] = _settle(name, outcome, ref, tgt) if isinstance(outcome, DataError) else outcome
    return PoseTable(list(names), values), diagnostics


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
        seq = side.pop(name)
        if isinstance(seq, DataError):
            out[name] = _settle(name, seq)
        else:
            status = STATUS_PASSTHROUGH if seq.segmentation is not None else STATUS_SKIPPED
            out[name] = ChannelDiagnostics(status=status, target=seq, detail=seq.failure)
    return out
