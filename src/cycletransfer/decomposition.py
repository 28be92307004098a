"""Trend fitting and period segmentation.

A series is viewed additively: repeating cycle + slow trend + noise. The
trend is a least-squares polynomial in the frame index, fitted in the
orthogonal polynomials of the frame grid (Forsythe, 1957); period starts
are the rising crossovers between the smoothed series and that trend,
pruned by a neighbor-spacing test around the detected cycle length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import SeasonalityNotFoundError
from .series import raise_if_error

RISING = "rising"
FALLING = "falling"

# Fitted leading coefficients below this are treated as numerically zero.
MIN_LEAD_COEF = 1e-10
# Coefficients this far below the largest one are rounding noise, however
# far above the absolute floor: a fit's conversion to powers of x sums
# terms that grow with the degree. Five decades below the largest one a
# coefficient adds nothing visible to the trend, so rejecting it is safe.
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


@dataclass(frozen=True, eq=False)
class GramFit:
    """Degree-d least-squares fits of the rows of a (k, n) block, or of one
    row (:meth:`row`), in the monic polynomials P_0..P_d orthogonal over
    :func:`scaled_abscissa` (the Gram polynomials), held as their
    recurrence P_{j+1} = (x - shifts[j]) P_j - ratios[j] P_{j-1}, P_0 = 1.
    Row j of ``powers`` is P_j in powers of x. ``orthogonal`` holds the
    coefficients of P_0..P_d, ``monomial`` the fit in ascending powers of
    x less the terms that hold only rounding, and ``abscissa`` the grid
    itself, shared by every row."""

    shifts: np.ndarray
    ratios: np.ndarray
    powers: np.ndarray
    orthogonal: np.ndarray
    monomial: np.ndarray
    abscissa: np.ndarray

    def row(self, i: int) -> GramFit:
        """Row i's fit."""
        return GramFit(self.shifts, self.ratios, self.powers, self.orthogonal[i], self.monomial[i], self.abscissa)

    @property
    def ramp(self) -> np.ndarray:
        """c_0 P_0 + c_1 P_1 of each row, built on each use, so that neither
        the block nor a trend keeps a (k, n) array of ramps alive."""
        return self.orthogonal[..., :1] + self.orthogonal[..., 1:2] * (self.abscissa - self.shifts[0])

    def trend(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """A row's fit of an order up to d, its first order + 1 terms: the
        coefficients in powers of x and the values, the ramp plus the terms
        of P_2..P_order from the recurrence stepped again."""
        t = self.abscissa
        p_prev, p, values = np.ones(t.size), t - self.shifts[0], self.ramp
        for j in range(1, order):
            p_prev, p = p, (t - self.shifts[j]) * p - self.ratios[j] * p_prev
            values = values + self.orthogonal[j + 1] * p
        return np.sum(self.orthogonal[: order + 1] * self.powers[: order + 1, : order + 1].T, axis=-1), values


def gram_fits(rows: np.ndarray, max_order: int) -> GramFit:
    """The :class:`GramFit` of degree d = min(max_order, n - 1) of every
    row of a (k, n) block, n >= 2, by Forsythe's recurrence (G. E.
    Forsythe, 1957, J. SIAM 5(2):74-88).

    One pass steps P_0..P_d once, keeping only the last two (at 200k
    frames 31 of them would take 50 MB), and takes each coefficient
    c_j = <row, P_j> / <P_j, P_j> as an np.sum along the row (numpy's
    pairwise sum, no BLAS), so the bits depend neither on the thread count
    nor on which rows share the block. The fits are nested: the first
    j + 1 coefficients are the degree-j fit. Before the conversion to
    powers of x, a term whose share |c_j| * ||P_j|| is at most n * eps
    times the norm of the row's shares is zeroed, as polyfit's rcond
    drops what holds only rounding.
    """
    k, n = rows.shape
    d = min(max_order, n - 1)
    t = scaled_abscissa(n)
    shifts, ratios, norms = np.zeros(d), np.zeros(d), np.empty(d + 1)
    powers = np.eye(d + 1)  # row j becomes P_j; ratios[0] = 0 keeps row -1 out
    orthogonal = np.empty((k, d + 1))
    product = np.empty_like(rows)
    p_prev, p = np.zeros(n), np.ones(n)
    for j in range(d + 1):
        norms[j] = np.sum(p * p)
        orthogonal[:, j] = np.sum(np.multiply(rows, p, out=product), axis=1) / norms[j]
        if j < d:
            shifts[j] = np.sum(t * p * p) / norms[j]
            ratios[j] = norms[j] / norms[j - 1] if j else 0.0
            p_prev, p = p, (t - shifts[j]) * p - ratios[j] * p_prev
            powers[j + 1, 1:] = powers[j, :-1]
            powers[j + 1] -= shifts[j] * powers[j] + ratios[j] * powers[j - 1]
    weights = np.abs(orthogonal) * np.sqrt(norms)
    cut = n * np.finfo(float).eps * np.sqrt(np.sum(weights * weights, axis=1, keepdims=True))
    monomial = np.sum(np.where(weights > cut, orthogonal, 0.0)[:, np.newaxis, :] * powers.T, axis=-1)
    return GramFit(shifts, ratios, powers, orthogonal, monomial, t)


def fit_trend(series: np.ndarray, max_order: int, f: int, fit: GramFit | None = None) -> TrendModel:
    """Fit the slow trend of a series by polynomial least squares.

    The degree-max_order fit (:func:`gram_fits`) in powers of x supplies
    the coefficient sequence; the trend order is the highest power whose
    coefficient c_k clears the noise floor while staying under f, and the
    model is the nested fit's first terms up to that order. The floor,
    max(MIN_LEAD_COEF, REL_COEF_FLOOR * max|c|), skips powers that only
    hold rounding noise; the upper bound, with f the number of cycles in
    the series, rejects powers steep enough to belong to the cyclic
    component rather than the trend. When every power fails the test the
    order-1 fit, the ramp, is returned with ``fallback`` set, the common
    outcome on strongly cyclic data: every power is busy tracking the
    cycle, so the trend reduces to a plain line. ``fit`` is the series'
    row of its table side's :func:`gram_fits`; without it the series is
    fitted here. Needs max_order >= 1, n >= 2 and f >= 1.
    """
    if fit is None:
        fit = gram_fits(series[np.newaxis], max_order).row(0)
    magnitudes = np.abs(fit.monomial).tolist()
    floor = max(MIN_LEAD_COEF, REL_COEF_FLOOR * max(magnitudes))
    order = next((k for k in range(len(magnitudes) - 1, 0, -1) if floor < magnitudes[k] < f), None)
    fallback = order is None
    if fallback:
        order = 1
    coefficients, values = fit.trend(order)
    return TrendModel(coefficients, order, values, fallback=fallback)


class Crossover(NamedTuple):
    index: int
    direction: str


def sign_changes(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every sign change along the rows of a (k, n) block d, in row-major
    order: the row, the index, and whether d rises there.

    A zero sample first takes the sign of the next nonzero sample of its
    row, or stays 0 when there is none. A change then sits at every index
    i >= 1 whose sign and the one at i - 1 are opposite, so a run of exact
    zeros between two signs yields one change, at its first zero, and
    trailing zeros none. d rises at a change from the negative to the
    positive side.

    Array code, O(kn), one byte per sample: the signs are held as int8,
    and only the zeros, which are rare, are filled, each from the end of
    its run, found by one search among the run ends. Python touches none
    of the samples.
    """
    n = d.shape[1]
    sign = np.subtract(d > 0, d < 0, dtype=np.int8, order="C")  # so that flat is a view
    flat = sign.reshape(-1)
    zeros = np.flatnonzero(flat == 0)
    # The sample after a zero run, where a row's last zero ends a run too.
    after = zeros[(np.diff(zeros, append=-1) != 1) | ((zeros + 1) % n == 0)] + 1
    after = after[np.searchsorted(after, zeros, "right")]
    flat[zeros] = np.where(after % n != 0, flat[after % flat.size], 0)
    row, index = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
    index += 1
    return row, index, sign[row, index] > 0


def crossing_error(changes: int) -> SeasonalityNotFoundError | None:
    """The error of a series whose distance from its trend changes sign
    ``changes`` times, or None."""
    return None if changes else SeasonalityNotFoundError("series never crosses its trend")


def find_crossovers(smoothed: np.ndarray, trend: np.ndarray) -> list[Crossover]:
    """Indices where the smoothed series crosses its trend, both given as
    arrays of one length: the sign changes of d = smoothed - trend as one
    row of :func:`sign_changes`, in index order, with direction RISING
    where d rises and FALLING where it falls.

    This is the one-series form of the rule. The side step
    (``transfer._analyze_side``) takes the rising changes of every row
    that shares a smoothing radius from one :func:`sign_changes` pass
    instead, as index arrays: a call and a list of Crossover tuples per
    row cost more there than the pass itself.

    Raises SeasonalityNotFoundError when d never changes sign.
    """
    _, index, rising = sign_changes((smoothed - trend)[np.newaxis])
    raise_if_error(crossing_error(index.size))
    return [Crossover(i, RISING if up else FALLING) for i, up in zip(index.tolist(), rising.tolist())]


@dataclass(eq=False)
class PeriodSegmentation:
    """Validated period starts and the periods they delimit.

    ``periods`` holds half-open frame ranges [start, end) built from
    consecutive retained starts whose gap sits inside the validation
    window around ``reference_period``. It is not changed after
    construction: :attr:`bounds` holds it as an array from the first use.
    """

    period_starts: np.ndarray
    periods: list[tuple[int, int]]
    reference_period: float
    alpha: float

    @cached_property
    def bounds(self) -> np.ndarray:
        """(periods, 2) array of the [start, end) pairs, built once."""
        return np.asarray(self.periods, dtype=int).reshape(-1, 2)

    @property
    def period_lengths(self) -> np.ndarray:
        """Frames per period, in period order."""
        return self.bounds[:, 1] - self.bounds[:, 0]


def _gap_range(l: float, window: float) -> tuple[int, int] | None:
    """Smallest and largest integer gap g >= 1 with abs(g - l) < window.

    abs(g - l) falls and then rises as g grows, rounding included, so the
    gaps passing the test form one run of integers. Its ends lie within a
    frame of l -/+ window; the test itself is evaluated on the integers
    around them, exactly as the pairwise scan evaluates it, so gaps on a
    window boundary get the same verdict. None when no gap passes.
    """
    l, window = float(l), float(window)
    if not math.isfinite(l):
        return None  # abs(g - inf) < inf holds for no g
    edges = (math.ceil(l - window), math.floor(l + window))
    passing = [g for g in {max(e + step, 1) for e in edges for step in range(-2, 3)} if abs(g - l) < window]
    if not passing:
        return None
    return min(passing), max(passing)


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
