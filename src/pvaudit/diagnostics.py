"""Diagnostic plot series and automated shape reading for a set of p-values.

A collection of two-sided p-values from a single literature is examined three
ways: sorted against rank (where a uniform null is a straight diagonal and a
mixture of null and real effects bends into two regimes), on a -log10
expectation plot against the uniform order statistics, and as a volcano of
effect size against -log10 p. The shape classifier makes the reading
explicit: it fits one line and the best continuous two-segment line to the
sorted p-values and turns the comparison, plus a Kolmogorov-Smirnov
uniformity check, into one of four verdicts.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate
from operator import mul, sub
from typing import NamedTuple

from .model import DerivedDataset
from .stats import loo_influence, effects_from_dataset

__all__ = [
    "OutlierFlag",
    "OutlierReport",
    "PlotSeries",
    "ReferenceLine",
    "ShapeThresholds",
    "ShapeVerdict",
    "classify_pvalues",
    "classify_shape",
    "expectation_plot",
    "flag_outliers",
    "ks_uniform",
    "pvalue_plot",
    "smallest_p_marker",
    "volcano_plot",
]

VERDICTS = ("uniform_null", "significant_effect", "bilinear_mixture", "indeterminate")

# The fewest values the KS test (and with it the two-segment fit) runs on.
KS_MIN_POINTS = 5


class ReferenceLine(NamedTuple):
    """A dashed guide: ``expected_order``, the identity y = x on the expectation
    plot's -log10 scale, whose parameters (1, 0) are its slope and intercept
    for the sidecar CSV; or ``smallest_p_marker`` with the single value
    -log10(1/(n+1))."""

    kind: str
    parameters: tuple[float, ...]


class PlotSeries(NamedTuple):
    """Render-ready points for one diagnostic plot, plus its reference lines;
    ``n`` counts the points."""

    kind: str
    points: tuple[tuple[float, float], ...]
    reference_lines: tuple[ReferenceLine, ...]

    @property
    def n(self) -> int:
        return len(self.points)


class ShapeThresholds(NamedTuple):
    """The fixed cutoffs of :func:`classify_pvalues`.

    The classifier always reads :data:`SHAPE_THRESHOLDS`, the default
    instance; an audit report echoes it under ``shape_thresholds`` so a
    verdict can always be traced back to the rules that produced it:

    - ``ks_alpha``, ``slope_band``: a literature is called uniform when the
      KS test does not reject and the fitted slope of sorted p against
      rank/(n+1) is near one.
    - ``small_p``, ``small_p_majority``, ``adequate_rmse``: a literature is
      called significant when most p-values are small and a single line
      already fits the sorted p-values to within ``adequate_rmse`` RMSE.
    - ``bic_evidence``, ``slope_ratio_max``: the two-segment model wins only
      with strong BIC evidence and a left segment much flatter than the
      right.
    - ``min_points``: below this, every verdict is indeterminate.
    """

    ks_alpha: float = 0.05
    slope_band: tuple[float, float] = (0.8, 1.2)
    small_p: float = 0.05
    small_p_majority: float = 0.5
    adequate_rmse: float = 0.05
    bic_evidence: float = 10.0
    slope_ratio_max: float = 0.25
    min_points: int = 10


SHAPE_THRESHOLDS = ShapeThresholds()


class ShapeVerdict(NamedTuple):
    """Outcome of the shape classification.

    ``breakpoint`` is the rank where the two segments join and is populated
    only when the verdict is ``bilinear_mixture``. Fit fields are reported
    for every verdict so a reader can audit the decision.
    """

    verdict: str
    slope_single: float
    breakpoint: int | None
    sse_single: float
    sse_two_segment: float
    bic_delta: float
    ks_statistic: float
    ks_pvalue: float


class OutlierFlag(NamedTuple):
    row: int
    reason: str


class _DataclassFields:
    """A named tuple's fields as ``dataclasses.Field`` objects, those of a
    dataclass with the same field names, built on read.

    This lets ``dataclasses.replace`` rebuild the type, as
    ``perfbench/traced.py`` does with an OutlierReport. Only a caller of
    ``dataclasses`` reads the attribute, so importing pvaudit stays free of
    that module.
    """

    def __get__(self, obj, cls) -> dict:
        from dataclasses import make_dataclass

        return make_dataclass(cls.__name__, cls._fields).__dataclass_fields__


class OutlierReport(NamedTuple):
    """Rows flagged for exclusion, with the thresholds that produced them."""

    p_threshold: float
    influence_threshold: float | None  # None when the influence rule was off
    flagged: tuple[OutlierFlag, ...]

    __dataclass_fields__ = _DataclassFields()


def smallest_p_marker(n: int) -> float:
    """-log10 of 1/(n+1), the expected magnitude of the smallest of n p-values."""
    if n < 1:
        raise ValueError("marker needs at least one point")
    return -math.log10(1.0 / (n + 1))


def pvalue_plot(ds: DerivedDataset) -> PlotSeries:
    """Sorted p-values against their ranks 1..n."""
    ps = sorted(ds.pvalues)
    points = tuple((float(i), p) for i, p in enumerate(ps, start=1))
    return PlotSeries(kind="pvalue_rank", points=points, reference_lines=())


def expectation_plot(ds: DerivedDataset) -> PlotSeries:
    """Observed -log10 p against expected -log10 of the uniform order statistics.

    Points are emitted in rank order (smallest p last on the x axis is the
    largest expected magnitude, so the first point carries the largest x).
    Reference lines: the identity (slope 1, intercept 0), where a uniform
    sample should fall, and a marker at -log10(1/(n+1)) for the expected
    magnitude of the smallest p-value.
    """
    ps = sorted(ds.pvalues)
    n = len(ps)
    points = tuple(
        (-math.log10(i / (n + 1.0)), -math.log10(p))
        for i, p in enumerate(ps, start=1)
    )
    refs = (
        ReferenceLine(kind="expected_order", parameters=(1.0, 0.0)),
        ReferenceLine(kind="smallest_p_marker", parameters=(smallest_p_marker(n),)),
    )
    return PlotSeries(kind="expectation", points=points, reference_lines=refs)


def volcano_plot(ds: DerivedDataset, exclude: tuple[int, ...] = ()) -> PlotSeries:
    """Risk ratio against -log10 p, in source row order.

    ``exclude`` lists 0-based row indices to drop; the smallest-p marker is
    recomputed for the reduced count, so excluding studies moves the line.
    """
    n_all = len(ds)
    excluded = set(exclude)
    for row in excluded:
        if not 0 <= row < n_all:
            raise ValueError(f"exclude index {row} out of range for {n_all} rows")
    points = tuple(
        (rec.rr, -math.log10(d.p))
        for i, (rec, d) in enumerate(zip(ds.records, ds.derived))
        if i not in excluded
    )
    n = len(points)
    if n == 0:
        raise ValueError("volcano plot needs at least one remaining row")
    refs = (ReferenceLine(kind="smallest_p_marker", parameters=(smallest_p_marker(n),)),)
    return PlotSeries(kind="volcano", points=points, reference_lines=refs)


def ks_uniform(pvalues) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test of the values against Uniform(0, 1).

    Parameters
    ----------
    pvalues : sequence of float
        At least five values, each in (0, 1].

    Returns
    -------
    (statistic, pvalue)
        The exact ECDF sup-distance D and the asymptotic tail probability of
        the Kolmogorov distribution at ``lam = sqrt(n) * D``. The asymptotic
        tail is slightly conservative at small n.

    Notes
    -----
    The tail is summed from one of two series, cut over at ``lam = 0.82``
    where both converge within a few terms. Below it, the Jacobi-theta form
    of the CDF, ``sqrt(2 pi)/lam * sum_k exp(-(2k-1)^2 pi^2 / (8 lam^2))``,
    is subtracted from one. Above it, the alternating series
    ``2 * sum_k (-1)^(k-1) exp(-2 k^2 lam^2)`` gives the tail directly.
    """
    ps = sorted(map(float, pvalues))
    n = len(ps)
    if n < KS_MIN_POINTS:
        raise ValueError(f"KS test needs at least {KS_MIN_POINTS} values, got {n}")
    if not all(0.0 < p <= 1.0 for p in ps):
        raise ValueError("KS test requires every value in (0, 1]")
    return _ks_sorted(ps)


@lru_cache(maxsize=64)
def _grid(n: int) -> tuple[tuple, tuple, tuple, tuple]:
    """What every fit and KS test of n points shares, computed once per n.

    Returns the centred ranks i - (n+1)/2, the ECDF steps i/n and (i-1)/n
    (i = 1..n), and for each candidate join b = 2..n-2 the moments of the
    hinge columns u_i = min(i-b, 0), v_i = max(i-b, 0): (sum u, sum u^2,
    sum v, sum v^2, d) with d the Schur complement
    n - (sum u)^2/sum u^2 - (sum v)^2/sum v^2 of the intercept, which is at
    least 1 there.
    """
    tbar = (n + 1) / 2.0
    hinges = []
    for b in range(2, n - 1):
        m = n - b
        su = -(b - 1) * b / 2.0
        suu = (b - 1) * b * (2 * b - 1) / 6.0
        sv = m * (m + 1) / 2.0
        svv = m * (m + 1) * (2 * m + 1) / 6.0
        hinges.append((su, suu, sv, svv, n - su * su / suu - sv * sv / svv))
    return (
        tuple(i - tbar for i in range(1, n + 1)),
        tuple(i / n for i in range(1, n + 1)),
        tuple(i / n for i in range(n)),
        tuple(hinges),
    )


def _ks_sorted(ps: list[float]) -> tuple[float, float]:
    """:func:`ks_uniform` of values already sorted and checked."""
    n = len(ps)
    _, above, below, _ = _grid(n)
    d = max(max(map(sub, above, ps)), max(map(sub, ps, below)))
    return d, _kolmogorov_sf(math.sqrt(n) * d)


_KS_CUTOVER = 0.82
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _kolmogorov_sf(x: float) -> float:
    """Tail P(K > x) of the Kolmogorov distribution; see :func:`ks_uniform`."""
    if not x > 0.0:
        return 1.0
    if x <= _KS_CUTOVER:
        a = -math.pi * math.pi / (8.0 * x * x)
        cdf_sum = 0.0
        k = 1
        while True:
            term = math.exp(a * (2 * k - 1) ** 2)
            cdf_sum += term
            if term <= 1e-17 * cdf_sum:
                return 1.0 - _SQRT_2PI / x * cdf_sum
            k += 1
    a = -2.0 * x * x
    tail = 0.0
    k = 1
    while True:
        term = math.exp(a * k * k)
        tail += term if k % 2 else -term
        if term <= 1e-17 * tail:
            return 2.0 * tail
        k += 1


def _centred(y: list[float]) -> list[float]:
    """The values less their ``math.fsum`` mean, as both fits take them."""
    ybar = math.fsum(y) / len(y)
    return [v - ybar for v in y]


def _line_fit(c: list[float]) -> tuple[float, float]:
    """Least-squares line through sorted values against x_i = i/(n+1).

    Takes the values centred by :func:`_centred` and returns (slope, sse).
    The sums run over centred ranks (:func:`_grid`) and values with
    ``math.fsum``; sum((i - (n+1)/2)^2) = n(n^2 - 1)/12 exactly.
    """
    n = len(c)
    offsets = _grid(n)[0]
    slope = math.fsum(map(mul, offsets, c)) / (n * (n * n - 1) / 12.0)
    # ``** 2``, not ``r * r``: the two round differently for some doubles,
    # and the printed SSE must not move
    sse = math.fsum([(v - slope * t) ** 2 for t, v in zip(offsets, c)])
    return slope * (n + 1), sse


def _two_segment_fit(c: list[float]) -> tuple[int, float, float, float]:
    """Best continuous two-segment fit of sorted values, joined at a rank.

    Takes the values centred by :func:`_centred`. The model is
    ``y = a + s1 * min(x - xb, 0) + s2 * max(x - xb, 0)`` on x_i = i/(n+1),
    with the join ``xb`` at each candidate rank b in 2..n-2 (so both
    segments keep at least two points). Returns (breakpoint rank, left
    slope, right slope, sse) of the candidate with the least SSE; earlier
    ranks win ties.

    Closed form: work in rank units u_i = min(i-b, 0), v_i = max(i-b, 0)
    (slopes scale by n+1) and the centred values c. The columns have
    disjoint support, so sum u*v = 0 and the 3x3 normal equations reduce to

        SSE(b) = sum c^2 - (r1^2/U + r2^2/V + e^2/d),
        e = P r1/U + Q r2/V,

    with P, U, Q, V the sums of u, u^2, v, v^2 (closed-form in n and b),
    d as in :func:`_grid`, and r1 = sum u*c, r2 = sum v*c read in
    O(1) from prefix sums of c and i*c. One pass over b is O(n) in total.
    The moments depend on n and b only, so they are computed once per n
    (:func:`_grid`) and shared by every fit of that many values.
    The prefix-sum SSE loses digits to cancellation, so the chosen
    breakpoint is refit: its coefficients come from ``math.fsum`` moments
    and its SSE from the explicit residuals.
    """
    n = len(c)
    cum_c = list(accumulate(c))
    cum_ic = list(accumulate(map(mul, range(1, n + 1), c)))
    total_c, total_ic = cum_c[-1], cum_ic[-1]
    scc = math.fsum(map(mul, c, c))
    table = _grid(n)[3]

    best_b, best_sse = 0, math.inf
    # candidate b reads the prefix sums through rank b, at index b - 1
    for b, (su, suu, sv, svv, d), ic, cc in zip(
        range(2, n - 1), table, cum_ic[1:], cum_c[1:]
    ):
        r1 = ic - b * cc
        r2 = (total_ic - ic) - b * (total_c - cc)
        e = su * r1 / suu + sv * r2 / svv
        sse = scc - (r1 * r1 / suu + r2 * r2 / svv + e * e / d)
        if sse < best_sse:
            best_b, best_sse = b, sse

    b = best_b
    su, suu, sv, svv, d = table[b - 2]
    r0 = math.fsum(c)
    # ranks less b: 1-b..0 left of the join, 1..n-b right of it
    r1 = math.fsum(map(mul, range(1 - b, 1), c[:b]))
    r2 = math.fsum(map(mul, range(1, n - b + 1), c[b:]))
    a = (r0 - (su * r1 / suu + sv * r2 / svv)) / d
    left = (r1 - su * a) / suu
    right = (r2 - sv * a) / svv
    sse = math.fsum(
        [(v - a - left * k) ** 2 for k, v in zip(range(1 - b, 1), c[:b])]
        + [(v - a - right * k) ** 2 for k, v in zip(range(1, n - b + 1), c[b:])]
    )
    return b, left * (n + 1), right * (n + 1), sse


def classify_pvalues(pvalues) -> ShapeVerdict:
    """Classify the shape of sorted p-values against rank.

    The sorted p-values are regressed on the normalized ranks i/(n+1). The
    rules fire in a fixed order:

    1. ``uniform_null`` when the KS test does not reject uniformity at
       ``ks_alpha`` and the single-line slope lies within ``slope_band``.
    2. ``significant_effect`` when at least ``small_p_majority`` of the
       values fall below ``small_p`` and one line fits with RMSE at most
       ``adequate_rmse`` (a saturated literature is linear on this plot,
       just not on the diagonal).
    3. ``bilinear_mixture`` when the two-segment model beats the line by
       more than ``bic_evidence`` on the BIC scale and its left slope is
       less than ``slope_ratio_max`` of the right slope.
    4. ``indeterminate`` otherwise, and always when n < ``min_points``.

    BIC is ``n*log(SSE/n) + k*log(n)`` with k = 2 for the line and 4 for the
    two-segment model, so ``bic_delta = n*log(SSE1/SSE2) - 2*log(n)``.
    The cutoffs are those of :data:`SHAPE_THRESHOLDS`.
    """
    t = SHAPE_THRESHOLDS
    ps = sorted(map(float, pvalues))
    n = len(ps)
    # a NaN sorts anywhere, so the ends bound the rest only once none is found
    if ps and (not 0.0 < ps[0] or not ps[-1] <= 1.0 or any(map(math.isnan, ps))):
        raise ValueError("classification requires every p-value in (0, 1]")

    slope = 0.0
    sse1 = 0.0
    if n >= 2:
        c = _centred(ps)
        slope, sse1 = _line_fit(c)

    breakpoint_rank: int | None = None
    left = right = bic_delta = ks_stat = 0.0
    ks_p = 1.0
    sse2 = sse1
    if n >= KS_MIN_POINTS:
        breakpoint_rank, left, right, sse2 = _two_segment_fit(c)
        # The line is nested in the two-segment model; clamp float noise so
        # the inequality holds exactly.
        sse2 = min(sse2, sse1)
        tiny = 1e-300
        bic_delta = n * math.log(max(sse1, tiny) / max(sse2, tiny)) - 2.0 * math.log(n)
        ks_stat, ks_p = _ks_sorted(ps)

    verdict = "indeterminate"
    if n >= t.min_points:
        if ks_p >= t.ks_alpha and t.slope_band[0] <= slope <= t.slope_band[1]:
            verdict = "uniform_null"
        elif (
            bisect_left(ps, t.small_p) / n >= t.small_p_majority
            and math.sqrt(sse1 / n) <= t.adequate_rmse
        ):
            verdict = "significant_effect"
        elif bic_delta > t.bic_evidence and left < t.slope_ratio_max * right:
            verdict = "bilinear_mixture"

    return ShapeVerdict(
        verdict=verdict,
        slope_single=slope,
        breakpoint=breakpoint_rank if verdict == "bilinear_mixture" else None,
        sse_single=sse1,
        sse_two_segment=sse2,
        bic_delta=bic_delta,
        ks_statistic=ks_stat,
        ks_pvalue=ks_p,
    )


def classify_shape(ds: DerivedDataset) -> ShapeVerdict:
    """Classify a dataset's derived p-values; see :func:`classify_pvalues`."""
    return classify_pvalues(ds.pvalues)


def flag_outliers(
    ds: DerivedDataset,
    p_threshold: float = 1e-3,
    influence_threshold: float | None = None,
    manual: tuple[int, ...] = (),
) -> OutlierReport:
    """Flag rows for exclusion by extreme p-value, pooling influence, or hand.

    Parameters
    ----------
    ds : DerivedDataset
        The influence rule pools on the scale its stats were derived on.
    p_threshold : float
        Rows with p strictly below this are flagged ``extreme_p``. Must lie
        in [0, 1); zero disables the rule (no p can be below zero).
    influence_threshold : float or None
        Rows whose leave-one-out influence exceeds this are flagged
        ``high_influence``. None, the default, turns the rule off, and so
        does an infinite value, which the result records as None. The rule
        runs only when the dataset has at least 3 rows.
    manual : tuple of int
        0-based row indices to flag ``manual``.

    Returns
    -------
    OutlierReport
        Flags sorted by row index, one per row. When a row qualifies under
        several rules the reason with the highest precedence wins:
        extreme_p, then high_influence, then manual.
    """
    n = len(ds)
    if not 0.0 <= p_threshold < 1.0:
        raise ValueError(f"p_threshold must lie in [0, 1), got {p_threshold!r}")
    if influence_threshold is not None and not math.isfinite(influence_threshold):
        if math.isnan(influence_threshold):
            raise ValueError("influence_threshold must not be NaN")
        influence_threshold = None
    for row in manual:
        if not 0 <= row < n:
            raise ValueError(f"manual index {row} out of range for {n} rows")

    # Lowest precedence first, so a later rule's reason overwrites an earlier one.
    reasons = dict.fromkeys(manual, "manual")
    if influence_threshold is not None and n >= 3:
        influence = loo_influence(effects_from_dataset(ds))
        for i, value in enumerate(influence):
            if value > influence_threshold:
                reasons[i] = "high_influence"
    for i, d in enumerate(ds.derived):
        if d.p < p_threshold:
            reasons[i] = "extreme_p"

    flagged = tuple(
        OutlierFlag(row=row, reason=reasons[row]) for row in sorted(reasons)
    )
    return OutlierReport(
        flagged=flagged,
        p_threshold=p_threshold,
        influence_threshold=influence_threshold,
    )
