"""Trend fitting and period segmentation.

A series is viewed additively: repeating cycle + slow trend + noise. The
trend is a least-squares polynomial in the frame index, fitted in the
Gram polynomials of the frame grid on one half of it; period starts
are the rising crossovers between the smoothed series and that trend,
pruned by a neighbor-spacing test around the detected cycle length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SeasonalityNotFoundError
from .series import raise_if_error

# The benchmark's tracer (bench/tracing.py) imports this name.
RISING = "rising"

# Fitted leading coefficients below this are treated as numerically zero.
MIN_LEAD_COEF = 1e-10
# Coefficients this far below the largest one are rounding noise, however
# far above the absolute floor: a fit's conversion to powers of x sums
# terms that grow with the degree. Five decades below the largest one a
# coefficient adds nothing visible to the trend, so rejecting it is safe.
REL_COEF_FLOOR = 1e-5


@dataclass(eq=False)
class TrendModel:
    """Polynomial trend of a series: its ``order`` in the frame index and
    its ``values`` at every frame. ``fallback`` marks the order-1 fit used
    when no candidate order passed the leading-coefficient band.
    """

    order: int
    values: np.ndarray
    fallback: bool = False


def scaled_abscissa(n: int) -> np.ndarray:
    """Frames i = 0..n-1, n >= 2, on [-1, 1] as (2i - (n - 1)) / (n - 1), antisymmetric bit for bit."""
    return np.arange(1.0 - n, n, 2.0) / (n - 1)


@dataclass(frozen=True, eq=False)
class GramFit:
    """Degree-d least-squares fits of the rows of a (k, n) block, or of one
    row (:meth:`row`), in the monic Gram polynomials P_0..P_d orthogonal over
    the symmetric grid :func:`scaled_abscissa`, P_{j+1} = x P_j - ratios[j] P_{j-1},
    P_0 = 1, so P_j(-x) = (-1)^j P_j(x). ``orthogonal`` holds their coefficients,
    ``monomial`` the fit in ascending powers of x less the terms that hold
    only rounding, which the trend order rule reads, and ``abscissa`` the grid."""

    ratios: np.ndarray
    orthogonal: np.ndarray
    monomial: np.ndarray
    abscissa: np.ndarray

    def row(self, i) -> GramFit:
        """Row i's fit, or for an index array the block of those rows' fits."""
        return GramFit(self.ratios, self.orthogonal[i], self.monomial[i], self.abscissa)

    @property
    def ramp(self) -> np.ndarray:
        """c_0 P_0 + c_1 P_1 of each row, built on each use, so that neither
        the block nor a trend keeps a (k, n) array of ramps alive."""
        return self.orthogonal[..., :1] + self.orthogonal[..., 1:2] * self.abscissa

    def trends(self, orders: np.ndarray) -> np.ndarray:
        """The values of each row's fit of its own order, orders[i] from 1
        to d, as a (k, n) block, from the grid's non-negative half t: P_j,
        stepped once for all rows, adds c_j P_j to the even or odd sum E or
        O of the rows whose order is at least j, and a row's values are
        E + O at t and E - O at -t, whatever the other rows of the block."""
        n, m = self.abscissa.size, self.abscissa.size // 2
        t = self.abscissa[m:]  # for odd n, t[0] = 0 is the middle frame
        values = np.empty((orders.size, n))
        even, odd = values[:, m:], self.orthogonal[:, 1:2] * t  # E is summed where E + O goes
        even[:] = self.orthogonal[:, :1]
        p_prev, p, step = np.ones(t.size), t.copy(), np.empty(t.size)
        for j in range(1, int(np.max(orders))):  # P_{j+1} written over P_{j-1}, as in gram_fits
            np.subtract(np.multiply(t, p, out=step), np.multiply(p_prev, self.ratios[j], out=p_prev), out=p_prev)
            p_prev, p = p, p_prev
            active = orders > j
            rows = slice(None) if active.all() else np.flatnonzero(active)  # a slice adds in place
            (odd if j % 2 == 0 else even)[rows] += self.orthogonal[rows, j + 1, np.newaxis] * p
        np.subtract(even[:, n - 2 * m :], odd[:, n - 2 * m :], out=values[:, m - 1 :: -1])
        even += odd
        return values


def gram_fits(rows: np.ndarray, max_order: int) -> GramFit:
    """The :class:`GramFit` of degree d = min(max_order, n - 1) of every
    row of a (k, n) block, n >= 2, by Forsythe's recurrence (G. E.
    Forsythe, 1957, J. SIAM 5(2):74-88) in its closed form on this grid,
    ratios[j] = ||P_j||^2 / ||P_{j-1}||^2 = j^2 (n^2 - j^2) / ((4j^2 - 1)
    (n - 1)^2) (Barnard et al., 1998, J. Approx. Theory 94:128-143).

    Each row is folded once into its even half (right half + reversed left
    half) and its odd half (their difference). One pass steps P_0..P_d on
    the non-negative half grid, keeping two, and takes each c_j = <row,
    P_j> / ||P_j||^2 from the half of j's parity as an np.sum along the row
    (pairwise, no BLAS), so the bits depend neither on the thread count nor
    on which rows share the block. The fits are nested: the first j + 1
    coefficients are the degree-j fit. Before the conversion to powers of
    x (``monomial``, which only the trend order rule reads), a term whose
    share |c_j| * ||P_j|| is at most n * eps times the norm of the row's
    shares is zeroed, as polyfit's rcond drops what holds only rounding.
    """
    k, n = rows.shape
    d, m = min(max_order, n - 1), n // 2
    t = scaled_abscissa(n)
    squares = np.arange(d + 1.0) ** 2
    ratios = squares * (n * n - squares) / ((4.0 * squares - 1.0) * (n - 1) ** 2)
    norms = n * np.cumprod(np.concatenate(([1.0], ratios[1:])))
    right, left = rows[:, m:], rows[:, n - m - 1 :: -1]  # for odd n both start at the middle frame
    folds = np.empty((2, k, n - m))  # the even and the odd halves
    np.add(right, left, out=folds[0])
    np.subtract(right, left, out=folds[1])
    folds[0, :, : n % 2] *= 0.5  # so the even half counts the middle frame once
    powers = np.eye(d + 1)  # row j becomes P_j; ratios[0] = 0 keeps row -1 out
    orthogonal, product = np.empty((k, d + 1)), np.empty_like(folds[0])
    p_prev, p, step = np.zeros(n - m), np.ones(n - m), np.empty(n - m)
    for j in range(d + 1):
        orthogonal[:, j] = np.sum(np.multiply(folds[j % 2], p, out=product), axis=1) / norms[j]
        if j < d:  # P_{j+1} = t P_j - ratios[j] P_{j-1}, written over P_{j-1}
            np.subtract(np.multiply(t[m:], p, out=step), np.multiply(p_prev, ratios[j], out=p_prev), out=p_prev)
            p_prev, p = p, p_prev
            powers[j + 1, 1:] = powers[j, :-1]
            powers[j + 1] -= ratios[j] * powers[j - 1]
    weights = np.abs(orthogonal) * np.sqrt(norms)
    cut = n * np.finfo(float).eps * np.sqrt(np.sum(weights * weights, axis=1, keepdims=True))
    monomial = np.sum(np.where(weights > cut, orthogonal, 0.0)[:, np.newaxis, :] * powers.T, axis=-1)
    return GramFit(ratios, orthogonal, monomial, t)


def trend_orders(monomial: np.ndarray, f) -> tuple[np.ndarray, np.ndarray]:
    """The trend order rule of :func:`fit_trend` in one array step on every
    row of a (k, d + 1) block of fits in powers of x (``GramFit.monomial``),
    f[i] the cycle count of row i: each row's order, and whether it fell
    back, as an int and a bool array."""
    magnitudes = np.abs(monomial)
    floor = np.maximum(MIN_LEAD_COEF, REL_COEF_FLOOR * magnitudes.max(axis=1))
    passing = (magnitudes > floor[:, np.newaxis]) & (magnitudes < np.asarray(f)[:, np.newaxis])
    passing[:, 0] = False
    fallback = ~passing.any(axis=1)
    highest = passing.shape[1] - 1 - np.argmax(passing[:, ::-1], axis=1)
    return np.where(fallback, 1, highest), fallback


def fit_trend(series: np.ndarray, max_order: int, f: int) -> TrendModel:
    """Fit the slow trend of a series by polynomial least squares.

    The degree-max_order fit (:func:`gram_fits`) in powers of x supplies
    the coefficient sequence; the trend order is the highest power whose
    coefficient c_k clears the noise floor while staying under f, and the
    model holds that order and the values of the nested fit's first terms
    up to it (:meth:`GramFit.trends`), both taken on half the frame grid.
    The floor, max(MIN_LEAD_COEF, REL_COEF_FLOOR * max|c|), skips powers
    that only hold rounding; the upper bound, with f the number of cycles in
    the series, rejects powers steep enough to belong to the cyclic
    component rather than the trend. When every power fails the test the
    order-1 fit, the ramp, is returned with ``fallback`` set, the common
    outcome on strongly cyclic data: every power is busy tracking the
    cycle, so the trend reduces to a plain line. Needs max_order >= 1,
    n >= 2 and f >= 1.

    This is the one-row form of the order rule (:func:`trend_orders`) and
    the trend walk (:meth:`GramFit.trends`), which the side step
    (``transfer._analyze_side``) runs once on all its rows.
    """
    fit = gram_fits(series[np.newaxis], max_order)
    orders, fallbacks = trend_orders(fit.monomial, [f])
    return TrendModel(int(orders[0]), fit.trends(orders)[0], fallback=bool(fallbacks[0]))


def sign_changes(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rising sign changes along the rows of a (k, n) block d, as their
    rows and indices in row-major order, and each row's count of sign
    changes, rising or falling, as a length-k int array.

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
    rises = sign[row, index] > 0
    return row[rises], index[rises], np.bincount(row, minlength=d.shape[0])


def crossing_error(changes: int) -> SeasonalityNotFoundError | None:
    """The error of a series whose distance from its trend changes sign
    ``changes`` times, or None."""
    return None if changes else SeasonalityNotFoundError("series never crosses its trend")


def find_crossovers(smoothed: np.ndarray, trend: np.ndarray) -> np.ndarray:
    """Period start candidates of one series: the indices, as an int array
    in increasing order, where the smoothed series rises through its trend,
    both given as arrays of one length. They are the rising sign changes
    of d = smoothed - trend as one row of :func:`sign_changes`.

    This is the one-series form of the rule. The side step
    (``transfer._analyze_side``) takes the rising changes of all its gated
    rows from one :func:`sign_changes` pass instead, and hands their
    rows and indices to :func:`validate_period_rows`.

    Raises SeasonalityNotFoundError when d never changes sign, rising or
    falling: the count :func:`sign_changes` gives is 0.
    """
    _, index, (changes,) = sign_changes((smoothed - trend)[np.newaxis])
    raise_if_error(crossing_error(changes))
    return index


class PeriodSegmentation:
    """Validated period starts and the periods they delimit.

    The periods are half-open frame ranges [start, end) built from
    consecutive retained starts whose gap sits inside the validation
    window around ``reference_period``, held once as the (periods, 2) int
    array ``bounds``; :attr:`periods` gives them as a list of pairs.
    """

    def __init__(self, period_starts: np.ndarray, periods, reference_period: float, alpha: float):
        self.period_starts = period_starts
        self.bounds = np.asarray(periods, dtype=int).reshape(-1, 2)
        self.reference_period = reference_period
        self.alpha = alpha

    @property
    def periods(self) -> list[tuple[int, int]]:
        """The [start, end) pairs as a list of int tuples, built on each use."""
        return list(map(tuple, self.bounds.tolist()))


def _gap_ranges(ls: np.ndarray, windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of reference periods l and windows, the smallest and largest
    integer gap g >= 1 with abs(g - l) < window, as two int arrays; the
    empty range [1, 0] where no gap passes.

    abs(g - l) falls and then rises as g grows, rounding included, so the
    gaps passing the test form one run of integers. Its ends lie within a
    frame of l -/+ window; the test itself is evaluated on the integers
    around them, exactly as the pairwise scan evaluates it, so gaps on a
    window boundary get the same verdict.
    """
    with np.errstate(invalid="ignore"):
        edges = np.stack([np.ceil(ls - windows), np.floor(ls + windows)], axis=-1)
    # abs(g - inf) < inf holds for no g, so any edge will do there.
    edges[~np.isfinite(edges)] = 0.0
    gaps = np.maximum(edges[..., np.newaxis] + np.arange(-2.0, 3.0), 1.0).reshape(ls.size, -1)
    passing = np.abs(gaps - ls[:, np.newaxis]) < windows[:, np.newaxis]
    gmin = np.where(passing, gaps, np.inf).min(axis=1)
    gmax = np.where(passing, gaps, 0.0).max(axis=1)
    none = ~passing.any(axis=1)
    gmin[none] = 1.0
    return gmin.astype(int), gmax.astype(int)


def validate_period_rows(row, candidates, reference_periods, alpha: float) -> list:
    """Prune the candidate period starts of k rows by neighbor spacing, as
    :func:`validate_periods` does for one row: ``candidates[i]`` is a start
    of row ``row[i]``, the rows in increasing order, each row's starts
    strictly increasing, and row m has its own reference period
    ``reference_periods[m]``. Returns per row its PeriodSegmentation, or
    the SeasonalityNotFoundError the one-row form raises.

    Each row's passing gaps form one integer range [gmin, gmax]
    (:func:`_gap_ranges`), so a start is kept when the nearest start at
    least gmin away on either side is in its own row and at most gmax
    away. The starts are keyed so that the keys rise row after row, and
    one searchsorted probe per side finds that nearest start for every
    row: O(c log c) for c candidates in all instead of the O(k**2)
    pairwise scan per row, with the same verdicts.
    """
    row = np.asarray(row, dtype=int)
    cand = np.asarray(candidates, dtype=int)
    ls = np.asarray(reference_periods, dtype=float)
    windows = (1.0 - alpha) * ls
    retained = cand
    if cand.size:
        gmin, gmax = _gap_ranges(ls, windows)
        lo, hi = gmin[row], gmax[row]
        key = cand + row * (np.ptp(cand) + 1)
        keep = np.zeros(cand.size, dtype=bool)
        for probe in (np.searchsorted(key, key + lo, "left"), np.searchsorted(key, key - lo, "right") - 1):
            probe = np.clip(probe, 0, cand.size - 1)  # a probe past either end fails the gap test
            gap = np.abs(cand[probe] - cand)
            keep |= (row[probe] == row) & (lo <= gap) & (gap <= hi)
        retained, row = cand[keep], row[keep]
    pair = row[:-1]
    ok = (pair == row[1:]) & (np.abs(np.diff(retained) - ls[pair]) < windows[pair])
    bounds, pair = np.column_stack([retained[:-1][ok], retained[1:][ok]]), pair[ok]
    rows = np.arange(ls.size + 1)
    kept_cuts, pair_cuts = np.searchsorted(row, rows).tolist(), np.searchsorted(pair, rows).tolist()
    out = []
    for m, l in enumerate(reference_periods):
        kept = retained[kept_cuts[m] : kept_cuts[m + 1]]
        periods = bounds[pair_cuts[m] : pair_cuts[m + 1]]
        if kept.size < 2 or not periods.size:
            out.append(SeasonalityNotFoundError(
                f"{kept.size} retained starts and {len(periods)} periods; "
                "need at least 2 starts forming 1 period"
            ))
        else:
            out.append(PeriodSegmentation(period_starts=kept, periods=periods, reference_period=l, alpha=alpha))
    return out


def validate_periods(candidates, reference_period: float, alpha: float) -> PeriodSegmentation:
    """Prune strictly increasing candidate period starts by neighbor spacing.

    A candidate start p is retained when some other candidate p' sits at a
    distance within (1 - alpha) * reference_period of the reference
    period itself, i.e. abs(abs(p' - p) - l) < (1 - alpha) * l, with l > 0
    and alpha in (0, 1). Retained consecutive pairs whose own gap passes
    the same test become periods.

    This is the one-row form of :func:`validate_period_rows`, which the
    side step (``transfer._analyze_side``) runs once on the rising
    crossovers of all its rows that pass the seasonality gate.

    Raises SeasonalityNotFoundError when fewer than two starts survive or
    no consecutive pair forms a period.
    """
    cand = np.asarray(candidates, dtype=int)
    (out,) = validate_period_rows(np.zeros(cand.size, dtype=int), cand, [reference_period], alpha)
    raise_if_error(out)
    return out
