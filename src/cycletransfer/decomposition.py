"""Trend fitting and period segmentation.

A series is viewed additively: repeating cycle + slow trend + noise. The
trend is a least-squares polynomial in the frame index; period starts are
the rising crossovers between the smoothed series and that trend, pruned
by a neighbor-spacing test around the detected cycle length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import SeasonalityNotFoundError

RISING = "rising"
FALLING = "falling"

# Fitted leading coefficients below this are treated as numerically zero.
MIN_LEAD_COEF = 1e-10
# Coefficients this far below the probe fit's largest one are rounding
# noise, no matter how far above the absolute floor they sit. A degree-30
# least-squares fit carries relative coefficient noise up to a few 1e-6
# even on exactly representable data (measured on exact cubics and on a
# pure sinusoid whose symmetry zeroes every even power), so an absolute
# floor alone cannot separate "numerically zero" from "small but real".
# A coefficient five decades below the largest one contributes nothing
# visible to the trend values, so rejecting it is always safe.
REL_COEF_FLOOR = 1e-5


@dataclass(eq=False)
class TrendModel:
    """Polynomial trend in the rescaled frame coordinate.

    ``coefficients`` are ascending powers of x where x maps frames 0..n-1
    linearly onto [-1, 1]. ``values`` is the trend evaluated at every
    frame. ``fallback`` marks the order-1 fit used when no candidate order
    passed the leading-coefficient band.
    """

    coefficients: np.ndarray
    order: int
    values: np.ndarray
    fallback: bool = False


def scaled_abscissa(n: int) -> np.ndarray:
    """Frame indices 0..n-1 mapped linearly onto [-1, 1]."""
    return np.linspace(-1.0, 1.0, n)


def fit_trend(series: np.ndarray, max_order: int, f: int) -> TrendModel:
    """Fit the slow trend of a series by polynomial least squares.

    One probe fit at max_order supplies the coefficient sequence; the
    trend order is the highest power whose probe coefficient c_k clears
    the noise floor while staying under f, and the returned model is a
    fresh fit at that order. The floor, max(MIN_LEAD_COEF,
    REL_COEF_FLOOR * max|c|), skips powers that only hold rounding noise;
    the upper bound, with f the number of cycles in the series, rejects
    powers steep enough to belong to the cyclic component rather than the
    trend. When every power fails the test the order-1 fit is returned
    with ``fallback`` set, which is the common outcome on strongly cyclic
    data: every power is busy tracking the cycle, so the trend reduces to
    a plain line.

    Coefficients live on the rescaled abscissa (frames mapped onto
    [-1, 1]). Needs 1 <= max_order < n and f >= 1.
    """
    t = scaled_abscissa(series.size)
    probe, _ = npoly.polyfit(t, series, max_order, full=True)
    floor = max(MIN_LEAD_COEF, REL_COEF_FLOOR * float(np.max(np.abs(probe))))
    for order in range(max_order, 0, -1):
        if floor < abs(probe[order]) < f:
            coef, _ = npoly.polyfit(t, series, order, full=True)
            return TrendModel(coef, order, npoly.polyval(t, coef))
    coef, _ = npoly.polyfit(t, series, 1, full=True)
    return TrendModel(coef, 1, npoly.polyval(t, coef), fallback=True)


class Crossover(NamedTuple):
    index: int
    direction: str


def find_crossovers(smoothed: np.ndarray, trend: np.ndarray) -> list[Crossover]:
    """Indices where the smoothed series crosses its trend, both given as
    arrays of one length.

    The scan looks at the sign of d = smoothed - trend. A crossover sits at
    the smallest index i >= 1 where the sign changes; a zero sample takes
    the side of its successor, so a run of exact zeros yields one
    crossover at the first zero. Direction is RISING when d moves from the
    negative to the positive side.

    Array code, O(n): each zero takes the sign at the index of the next
    nonzero sample, found by a running minimum over the reversed index
    array, and one comparison of neighbours marks the changes. Python only
    touches the crossovers themselves.

    Raises SeasonalityNotFoundError when d never changes sign.
    """
    sign = np.sign(smoothed - trend)
    n = sign.size
    # Index n points at an appended 0, so trailing zeros keep sign 0 and
    # can never register a change.
    nonzero_at = np.where(sign != 0.0, np.arange(n), n)
    next_nonzero = np.minimum.accumulate(nonzero_at[::-1])[::-1]
    filled = np.append(sign, 0.0)[next_nonzero]
    changed = np.nonzero(filled[:-1] * filled[1:] < 0.0)[0] + 1
    if not changed.size:
        raise SeasonalityNotFoundError("series never crosses its trend")
    return [
        Crossover(i, RISING if up else FALLING)
        for i, up in zip(changed.tolist(), (filled[changed] > 0.0).tolist())
    ]


@dataclass(eq=False)
class PeriodSegmentation:
    """Validated period starts and the periods they delimit.

    ``periods`` holds half-open frame ranges [start, end) built from
    consecutive retained starts whose gap sits inside the validation
    window around ``reference_period``.
    """

    period_starts: np.ndarray
    periods: list[tuple[int, int]]
    reference_period: float
    alpha: float

    def _bounds(self) -> np.ndarray:
        return np.asarray(self.periods, dtype=int).reshape(-1, 2)

    @property
    def period_lengths(self) -> np.ndarray:
        """Frames per period, in period order."""
        bounds = self._bounds()
        return bounds[:, 1] - bounds[:, 0]

    def covered_frames(self) -> np.ndarray:
        """All frame indices inside any period, in increasing order.

        Each output position minus the position of its period's first
        frame, plus that period's start; O(frames) array code.
        """
        bounds = self._bounds()
        lengths = bounds[:, 1] - bounds[:, 0]
        firsts = np.cumsum(lengths) - lengths
        return np.arange(lengths.sum()) + np.repeat(bounds[:, 0] - firsts, lengths)


def _gap_range(l: float, window: float) -> tuple[int, int] | None:
    """Smallest and largest integer gap g >= 1 with abs(g - l) < window.

    abs(g - l) falls and then rises as g grows, rounding included, so the
    gaps passing the test form one run of integers. Its ends lie within a
    frame of l -/+ window; the test itself is evaluated on the integers
    around them, exactly as the pairwise scan evaluates it, so gaps on a
    window boundary get the same verdict. None when no gap passes.
    """
    if not np.isfinite(l):
        return None  # abs(g - inf) < inf holds for no g
    edges = np.array([np.ceil(l - window), np.floor(l + window)])
    probe = np.maximum(edges[:, None] + np.arange(-2.0, 3.0), 1.0)
    passing = probe[np.abs(probe - l) < window]
    if not passing.size:
        return None
    return int(passing.min()), int(passing.max())


def validate_periods(candidates, reference_period: float, alpha: float) -> PeriodSegmentation:
    """Prune strictly increasing candidate period starts by neighbor spacing.

    A candidate start p is retained when some other candidate p' sits at a
    distance within (1 - alpha) * reference_period of the reference
    period itself, i.e. abs(abs(p' - p) - l) < (1 - alpha) * l, with l > 0
    and alpha in (0, 1). Retained consecutive pairs whose own gap passes
    the same test become periods.

    The passing gaps form one integer range [gmin, gmax], so each
    candidate needs only two searchsorted probes per side into the sorted
    candidates: O(k log k) for k candidates instead of the O(k**2)
    pairwise scan, with the same verdicts.

    Raises SeasonalityNotFoundError when fewer than two starts survive or
    no consecutive pair forms a period.
    """
    cand = np.asarray(candidates, dtype=int)
    l = reference_period
    window = (1.0 - alpha) * l

    gaps = _gap_range(l, window) if cand.size > 1 else None
    if gaps is None or gaps[0] > cand[-1] - cand[0]:
        retained = cand[:0]
    else:
        # Capping gmax at the candidate span keeps the probes in range.
        gmin, gmax = gaps[0], min(gaps[1], int(cand[-1] - cand[0]))
        right = np.searchsorted(cand, cand + gmax, "right") > np.searchsorted(cand, cand + gmin, "left")
        left = np.searchsorted(cand, cand - gmin, "right") > np.searchsorted(cand, cand - gmax, "left")
        retained = cand[right | left]
    ok = np.abs(np.diff(retained) - l) < window
    periods = list(zip(retained[:-1][ok].tolist(), retained[1:][ok].tolist()))
    if retained.size < 2 or not periods:
        raise SeasonalityNotFoundError(
            f"{retained.size} retained starts and {len(periods)} periods; "
            "need at least 2 starts forming 1 period"
        )
    return PeriodSegmentation(
        period_starts=retained,
        periods=periods,
        reference_period=l,
        alpha=alpha,
    )
