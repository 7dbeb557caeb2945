"""Numerical core: normal tails, interval-to-p reconstruction, ranking, pooling.

The conversion from a reported risk ratio and confidence interval back to a
test statistic follows the standard two-step recipe: recover the standard
error from the interval width, then form z as the distance of the estimate
from the null divided by that standard error. By default the critical value
is the tabulated constant 1.96 (not the exact 97.5% quantile) and the
arithmetic stays on the linear RR scale, which is how such intervals are
usually unwound in practice; both choices can be overridden.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .model import Dataset, DerivedDataset, DerivedStats, StudyRecord

__all__ = [
    "PoolResult",
    "derive_dataset",
    "effects_from_dataset",
    "loo_influence",
    "normal_sf",
    "pool_dl",
    "rank_pvalues",
    "two_sided_critical_value",
]

DEFAULT_CRITICAL_VALUE = 1.96
SCALES = ("linear", "log")

# Smallest positive double. A two-sided p can underflow for |z| beyond ~38.6;
# it is clamped here and flagged rather than ever reported as exactly zero.
P_FLOOR = 5e-324

_SQRT2 = math.sqrt(2.0)


def normal_sf(z: float) -> float:
    """Survival function P(Z >= z) of the standard normal.

    Parameters
    ----------
    z : float
        Finite real argument.

    Returns
    -------
    float
        Upper-tail probability, computed as ``0.5 * erfc(z / sqrt(2))``.

    Notes
    -----
    ``math.erfc`` is correctly rounded to within a few ulp, so the relative
    error of this routine stays below 1e-12 across ``|z| <= 8`` and the
    result remains positive (no underflow to zero) out to ``|z|`` around 38.
    """
    if not math.isfinite(z):
        raise ValueError(f"normal_sf requires a finite argument, got {z!r}")
    return 0.5 * math.erfc(z / _SQRT2)


def _check_level(confidence_level: float) -> None:
    if not 0.0 < confidence_level < 1.0:
        raise ValueError(
            f"confidence_level must be in (0, 1), got {confidence_level!r}"
        )


def two_sided_critical_value(confidence_level: float) -> float:
    """Critical value z* matching a two-sided confidence level.

    For the 95% level this returns the tabulated constant 1.96; other levels
    use the exact normal quantile.
    """
    _check_level(confidence_level)
    if abs(confidence_level - 0.95) < 1e-12:
        return DEFAULT_CRITICAL_VALUE
    # within about 1.1e-16 of 0 or of 1, q rounds to 0.5 or 1: z* would be 0 or inf
    q = 0.5 + confidence_level / 2.0
    if not 0.5 < q < 1.0:
        raise ValueError(
            f"confidence_level {confidence_level!r} is too close to {0 if q == 0.5 else 1} "
            "for a positive, finite critical value"
        )
    from statistics import NormalDist

    return NormalDist().inv_cdf(q)


def _reconstruct(rec: StudyRecord, zstar: float, scale: str) -> tuple[float, float, float, bool]:
    """One record's (se, z, p, p_floored) for a given z*; ``p_floored`` is
    True when p was clamped at the smallest positive double."""
    if scale == "linear":
        width = rec.cl_high - rec.cl_low
        effect = rec.rr - 1.0
    else:
        width = math.log(rec.cl_high) - math.log(rec.cl_low)
        effect = math.log(rec.rr)
    if not width > 0:
        raise ValueError(
            f"interval for {rec.author} {rec.year} has non-positive width"
        )
    se = width / (2.0 * zstar)
    if not 0 < se < math.inf:
        raise ValueError(
            f"interval for {rec.author} {rec.year} gives se {se!r}, not positive and finite"
        )
    z = effect / se
    if not math.isfinite(z):
        raise ValueError(f"study {rec.author} {rec.year} gives z {z!r}, not finite")
    p = 2.0 * normal_sf(abs(z))
    floored = p <= 0.0
    if floored:
        p = P_FLOOR
    return se, z, p, floored


def _ranks(pvalues: Sequence[float]) -> list[int]:
    """Rank of each p-value, 1..n ascending; the stable sort breaks ties by row."""
    ranks = [0] * len(pvalues)
    for rank, i in enumerate(sorted(range(len(pvalues)), key=pvalues.__getitem__), 1):
        ranks[i] = rank
    return ranks


def derive_dataset(
    ds: Dataset,
    *,
    critical_value: float | None = None,
    scale: str = "linear",
) -> DerivedDataset:
    """Reconstruct se, z and the two-sided p of every record, and rank them.

    Takes a parsed :class:`Dataset` and returns a :class:`DerivedDataset`
    with the same records, label and confidence level, in row order. Ranks
    are those :func:`rank_pvalues` assigns. The confidence level must lie
    in (0, 1) even where ``critical_value`` overrides z*, since the result
    records it.

    Parameters
    ----------
    ds : Dataset
        Records with positive risk ratios and limits that bracket them.
    critical_value : float, optional
        Override for z*, positive and finite. When omitted,
        :func:`two_sided_critical_value` of ``ds.confidence_level`` is used
        (1.96 at the 95% level). z* is fixed once, and the result records it
        with ``scale``; pooling, flagging and reports read both from the
        dataset.
    scale : str
        ``"linear"`` works with the interval width as printed and tests
        ``rr - 1``; ``"log"`` takes logs of the limits first and tests
        ``log(rr)``.
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    _check_level(ds.confidence_level)
    if critical_value is None:
        critical_value = two_sided_critical_value(ds.confidence_level)
    if not 0 < critical_value < math.inf:
        raise ValueError(f"critical value must be positive and finite, got {critical_value!r}")
    stats = [_reconstruct(rec, critical_value, scale) for rec in ds.records]
    ranks = _ranks([s[2] for s in stats])
    derived = tuple(DerivedStats(*s, rank) for s, rank in zip(stats, ranks))
    return DerivedDataset(
        ds.records, ds.label, ds.confidence_level,
        derived=derived, scale=scale, critical_value=critical_value,
    )


def rank_pvalues(ds: DerivedDataset) -> DerivedDataset:
    """Assign ranks 1..n by ascending p-value, ties broken by row index.

    Idempotent: re-ranking an already ranked dataset reproduces the same
    ranks. Returns a new DerivedDataset; the input is untouched.
    """
    ranks = _ranks(ds.pvalues)
    return ds._replace(
        derived=tuple(d._replace(rank=r) for d, r in zip(ds.derived, ranks))
    )


def effects_from_dataset(ds: DerivedDataset) -> list[tuple[float, float]]:
    """Per-study (effect, se) pairs for pooling, on the scale ``ds`` was derived on.

    (rr - 1, se) on the linear scale, (log rr, se) on the log scale.
    """
    if ds.scale == "linear":
        return [(rec.rr - 1.0, d.se) for rec, d in zip(ds.records, ds.derived)]
    return [(math.log(rec.rr), d.se) for rec, d in zip(ds.records, ds.derived)]


class PoolResult(NamedTuple):
    """Fixed- and random-effects summary of k (effect, se) pairs.

    ``weights_fixed`` and ``weights_random`` each sum to one.
    ``tau2`` is the moment estimate of between-study variance, clamped at
    zero, and ``i2`` the familiar heterogeneity fraction in [0, 1).
    """

    k: int
    fixed_mean: float
    q: float
    tau2: float
    random_mean: float
    random_se: float
    i2: float
    weights_fixed: tuple[float, ...]
    weights_random: tuple[float, ...]


def _overflow_error(study: int, se: float, context: str = "") -> ValueError:
    return ValueError(
        f"weighted sums overflow{context}; cannot pool (study {study}, se {se!r},"
        " has the largest weight)"
    )


def pool_dl(effects: Sequence[tuple[float, float]]) -> PoolResult:
    """Random-effects pooling by the moment (DerSimonian-Laird) estimator.

    Parameters
    ----------
    effects : sequence of (estimate, se)
        At least two studies; every se must be positive and finite, and
        large enough that its inverse variance, and the weighted sums, are
        finite (``ValueError`` otherwise).

    Returns
    -------
    PoolResult

    Notes
    -----
    With inverse-variance weights ``w_i = 1/se_i^2``:

    - fixed mean  = sum(w y) / sum(w)
    - Q           = sum(w (y - fixed)^2)
    - tau^2       = max(0, (Q - (k-1)) / (sum(w) - sum(w^2) / sum(w)))
    - random weights ``1/(se_i^2 + tau^2)`` give the random mean and its
      standard error ``(sum w*)^(-1/2)``
    - I^2         = max(0, (Q - (k-1)) / Q), zero when Q is zero.

    A homogeneous set (Q <= k-1) collapses to the fixed-effect answer with
    ``tau2 == 0``. Sums are accumulated with ``math.fsum``, and ties in the
    heaviest weight go to the larger effect, so reordering the studies
    reorders the weights and moves no other value. Where Q is so near k-1
    that its rounding could move tau^2 by more than 2^-40 of the heaviest
    study's random variance (a study carrying nearly all the weight, at the
    clamp), tau^2 and I^2 are taken from the weights, fixed mean, Q and
    denominator recomputed in decimal arithmetic to 40 significant digits.
    """
    return _pool([(float(y), float(s)) for y, s in effects])[0]


def _pool(
    pairs: list[tuple[float, float]],
) -> tuple[PoolResult, list[float], float, int, list[float], list[float], float, float, float]:
    """:func:`pool_dl` of float pairs, with the weights, their sum, the heaviest
    study, each effect less its effect, the random weights, the sum of the
    other weights, and the excess ``Q - (k-1)`` that tau^2 was taken from
    with a bound on its rounding error."""
    k = len(pairs)
    if k < 2:
        raise ValueError(f"pooling needs at least two studies, got {k}")
    for i, (y, s) in enumerate(pairs):
        if not (math.isfinite(y) and math.isfinite(s)):
            raise ValueError(f"study {i}: non-finite effect or se")
        if not s > 0:
            raise ValueError(f"study {i}: se must be positive, got {s!r}")
        if not s * s > 0 or not math.isfinite(1.0 / (s * s)):
            raise ValueError(
                f"study {i}: se {s!r} is too small to pool (1/se^2 overflows)"
            )
    w = [1.0 / (s * s) for _, s in pairs]
    # ties in weight go to the larger effect (then se), so row order never moves the centre
    top = max(range(k), key=lambda j: (w[j], pairs[j]))
    try:
        sw = math.fsum(w)
        # Q from deviations off the heaviest study's effect, so the fixed mean's
        # rounding error never meets that study's weight squared
        centre = pairs[top][0]
        dev = [y - centre for y, _ in pairs]
        shift = math.fsum(wi * d for wi, d in zip(w, dev)) / sw
        fixed = centre + shift
        q = math.fsum(wi * (d - shift) ** 2 for wi, d in zip(w, dev))
        # sw - sum(w^2)/sw as the sum of w * (weight outside the study) / sw:
        # every term is positive, and none overflows as w**2 does for se below
        # ~1e-77. sw - w cancels only for the heaviest study, whose outside
        # weight is summed directly, so one dominant study costs no precision.
        outside = [sw - wi for wi in w]
        outside[top] = math.fsum(w[:top] + w[top + 1 :])
        denom = math.fsum(wi * (o / sw) for wi, o in zip(w, outside))
        excess = q - (k - 1)
        i2 = max(0.0, excess / q) if q > 0 else 0.0
        # Q's rounding error is below q_err: a few ulps of q, and of the
        # shift times the spread. Where _tau2 finds that it could move tau^2
        # too far, the excess is taken from 40-digit decimal sums.
        q_err = _CLAMP_MARGIN * (q + abs(shift) * math.sqrt(sw) * math.sqrt(q))
        tau2 = _tau2(excess, q_err, denom, 1.0 / w[top], 0.0) if denom > 0 else 0.0
        if tau2 is None:
            # 40 digits hold the excess to far better than its double's rounding
            tau2, i2, excess = _tau2_at_clamp(pairs, top)
            q_err = _CLAMP_MARGIN * abs(excess)
        wr = [1.0 / (s * s + tau2) for _, s in pairs]
        swr = math.fsum(wr)
        random_mean = math.fsum(wi * y for wi, (y, _) in zip(wr, pairs)) / swr
        sums_finite = all(map(math.isfinite, (fixed, q, tau2, random_mean)))
    except (OverflowError, ValueError, ZeroDivisionError):
        # The inputs are finite and positive, so only a value out of range
        # gets here: fsum overflowing or meeting inf + -inf, or a zero total
        # of weights after every se^2 (or se^2 + tau^2) overflowed.
        sums_finite = False
    if not sums_finite:
        raise _overflow_error(top, pairs[top][1])
    random_se = swr ** -0.5
    pooled = PoolResult(
        k=k,
        fixed_mean=fixed,
        q=q,
        tau2=tau2,
        random_mean=random_mean,
        random_se=random_se,
        i2=i2,
        weights_fixed=tuple(wi / sw for wi in w),
        weights_random=tuple(wi / swr for wi in wr),
    )
    return pooled, w, sw, top, dev, wr, outside[top], excess, q_err


def _tau2_at_clamp(pairs: list[tuple[float, float]], top: int) -> tuple[float, float, float]:
    """DL tau^2 and I^2 of float (effect, se) pairs with the weights, the
    fixed mean, Q and the denominator taken in decimal to 40 digits, formed as
    :func:`_pool` forms them in double: effects less that of the heaviest
    study ``top``, and its outside weight summed directly. Both divide the
    same excess ``Q - (k-1)``, returned third. The context sets every field
    that can change a result, so the caller's ``decimal`` context moves no
    value."""
    from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
    from decimal import DivisionByZero, InvalidOperation, Overflow, localcontext

    context = Context(
        prec=40, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX,
        traps=[DivisionByZero, InvalidOperation, Overflow],
    )
    with localcontext(context):
        # squares as products, which decimal rounds correctly; ** 2 need not be
        w = [1 / (Decimal(s) * Decimal(s)) for _, s in pairs]
        centre = Decimal(pairs[top][0])
        dev = [Decimal(y) - centre for y, _ in pairs]
        # each sum in sorted order, so row order moves no rounding
        sw = sum(sorted(w))
        shift = sum(sorted(wi * d for wi, d in zip(w, dev))) / sw
        spread = [d - shift for d in dev]
        q = sum(sorted(wi * (r * r) for wi, r in zip(w, spread)))
        outside = [sw - wi for wi in w]
        outside[top] = sum(sorted(w[:top] + w[top + 1 :]))
        denom = sum(sorted(wi * (o / sw) for wi, o in zip(w, outside)))
        excess = q - (len(pairs) - 1)
        return max(0.0, float(excess / denom)), max(0.0, float(excess / q)), float(excess)


# Rounding errors are bounded by this share of the values that round: well
# above a few ulps. The random-weight series is used only while each term is
# at most half the last, and cut once r**M is below 2**-55, where its tail is
# under a rounding unit.
_CLAMP_MARGIN = 2.0**-48
# A tau^2 that rounding could move by more than this share of the heaviest
# study's random variance fails _tau2's budget: pool_dl then takes the excess
# from 40-digit decimal sums, and loo_influence pools the subset directly.
_TAU2_NOISE = 2.0**-40
_MAX_SERIES_RATIO = 0.5
_LOG_SERIES_TOL = -55.0 * math.log(2.0)


def _tau2(excess: float, error: float, denom: float, var_t: float,
          denom_error: float) -> float | None:
    """DL tau^2 of a set or of a leave-one-out subset: its excess of Q over
    the degrees of freedom, known to within ``error``, over the denominator
    ``denom``, known to within ``denom_error`` per unit of tau^2. ``var_t`` is
    the heaviest study's variance. The one clamp rule of both.

    0 where even the error cannot lift the excess above 0. None where the
    errors could move tau^2 by more than _TAU2_NOISE of the heaviest study's
    random variance ``var_t + tau^2``.
    """
    if not excess + error > 0.0:
        return 0.0
    tau2 = max(0.0, excess / denom)
    if error + denom_error * tau2 > _TAU2_NOISE * denom * (var_t + tau2):
        return None
    return tau2


def _downdated_tau2(sw: float, rest: tuple[float, float, float], fixed: float, excess: float,
                    error: float, wi: float, yi: float) -> float | None:
    """DL tau^2 of the studies left without (yi, wi), which is not the
    heaviest study t, from full-set sums.

    ``rest`` is ``w_t`` with, over every other study, the sums of ``w`` and
    of ``w (w / w_t)``. Forming the denominator from them cancels nothing
    when study t carries nearly all the weight. ``excess`` is the full set's
    ``Q - (k-1)`` as :func:`_pool` took it, within ``error``.

    Returns None where the denominator is not positive, or where :func:`_tau2`
    finds the rounding could move tau^2 too far; the caller then pools the
    subset directly.
    """
    w_t, s1, s2 = rest
    r1 = s1 - wi
    sw_i = w_t + r1
    # (sw_i^2 - w_t^2 - sum of the others' w^2) / sw_i, with w_t^2 cancelled
    denom = r1 + w_t / sw_i * (r1 - (s2 - wi * (wi / w_t)))
    if not denom > 0.0:
        return None
    d = abs(yi - fixed)
    g = wi * sw / sw_i * d
    # The subset's Q - (k-2) is excess + 1 - g d. Beside the full set's error,
    # the downdate rounds on the scale of 1, of g d and of the fixed mean's own
    # error, and the denominator on that of s1.
    error_i = error + _CLAMP_MARGIN * (1.0 + g * (d + 2.0 * abs(fixed)))
    return _tau2(excess + 1.0 - g * d, error_i, denom, 1.0 / w_t, _CLAMP_MARGIN * s1)


def loo_influence(effects: Sequence[tuple[float, float]]) -> list[float]:
    """Leave-one-out influence of each study on the random-effects mean.

    For each study i the pooled mean is recomputed without it (tau^2
    re-estimated on the reduced set) and the absolute shift is expressed in
    units of the full-set random-effects standard error. Needs k >= 3 so
    every leave-one-out subset can still be pooled.

    Notes
    -----
    The values are the DerSimonian-Laird influences, found without pooling
    every subset. The heaviest study t's subset is pooled directly, and a
    copy of study t takes its influence; for each other study:

    - Fixed part, by downdating the full-set sums in O(1):
      ``W_i = W - w_i``, the excess
      ``Q_i - (k-2) = (Q - (k-1)) + 1 - w_i (y_i - f)^2 W / W_i`` and
      ``tau2_i = max(0, (Q_i - (k-2)) / (W_i - (sum w^2 - w_i^2) / W_i))``.
      The full set's excess ``Q - (k-1)`` and its error bound are the ones
      :func:`pool_dl` took, in decimal where it took decimal sums, and
      ``tau2_i`` is clamped and budgeted by the same rule as its tau^2. The
      denominator is downdated from sums taken without study t, in which
      ``w_t^2`` cancels exactly, so a study carrying nearly all the weight
      costs the others no precision.
    - Random part, by a power series around the full-set ``tau2``. With
      ``u_j = 1/(v_j + tau2)`` and ``d = tau2_i - tau2``,
      ``sum_j 1/(v_j + tau2_i) = sum_m (-d)^m sum_j u_j^(m+1)``, and the
      sum weighted by ``y_j - mean`` has the same form. Terms shrink by
      ``r = |d| max u`` each, so M terms with ``r^M < 2^-55`` reach rounding;
      the study's own term is then subtracted, which cancels at most one
      bit: study t's term is at least as large. (The power sums are taken of
      ``u_j / max u``, which cannot overflow; the scale cancels in the mean.)
      ``y_j - mean`` is taken as ``(y_j - y_t) - sum u (y - y_t) / sum u``,
      as :func:`pool_dl` centres Q, so the rounding of the mean never meets
      the heaviest study's weight.

    Each power sum is taken once, the first time a study's series needs it,
    so the cost is O(k M), with M at most 55 and about 11 on typical sets,
    beside study t's O(k) pooling pass. Another study is pooled directly,
    by the same ``_pool`` pass, only where ``r >= 1/2`` (as when a
    homogeneous set, tau2 = 0, has a heterogeneous subset, or a subset
    clamps a large tau2 to zero), or where the rounding of its downdated
    excess or of the denominator could move tau2_i by more than 2^-40 of the
    subset's heaviest random variance, the budget :func:`pool_dl` keeps (a
    study with nearly all of Q, or a subset whose own excess is within
    rounding of 0). So near the clamp a set whose own tau2 needed decimal
    sums pools no subset in decimal for that alone. Each pooled subset's
    mean, too, is read off the centre above, from the random weights.
    Where one study carries nearly all the weight and tau2 = 0, per-subset
    pooling returns mostly the rounding of the mean; these values do not. On
    3,000 seeded sets with two or three dominant studies every value matched
    exact DL (mpmath) to 2e-12 relative where it exceeds 1e-3, and to 1e-10
    relative plus 2e-15 absolute below.
    """
    pairs = [(float(y), float(s)) for y, s in effects]
    k = len(pairs)
    if k < 3:
        raise ValueError(f"influence needs at least three studies, got {k}")
    full, w, sw, top, dev, u, outside_top, excess, error = _pool(pairs)
    others = w[:top] + w[top + 1 :]
    rest = (w[top], outside_top, math.fsum(x * (x / w[top]) for x in others))
    u_max = max(u)

    # Deviations from the random mean as pool_dl takes Q's: off the heaviest
    # study's effect, less the random-weight shift, so no rounding of the mean
    # itself meets that study's weight. They are in units of the full-set
    # standard error, so a small weight times a small deviation stays normal.
    scaled = powers = [x / u_max for x in u]
    p_sums = [math.fsum(scaled)]
    shift = math.fsum(x * d for x, d in zip(scaled, dev)) / p_sums[0]
    centred = [(d - shift) / full.random_se for d in dev]
    y_sums = [math.fsum(c * x for c, x in zip(centred, powers))]

    # The full mean less the centre, which is only the shift's rounding. The
    # subset's mean less the full mean is then formed from the series terms
    # past the first (what tau2_i changes) and the study's own term, so no
    # rounding of the first term, however large, meets a small shift.
    offset = y_sums[0] / p_sums[0]
    out = []
    for i, (wi, (yi, se)) in enumerate(zip(w, pairs)):
        if i > top and pairs[i] == pairs[top]:
            # a copy of study t has study t's subset, whatever the row order
            out.append(out[top])
            continue
        tau2_i = (None if i == top
                  else _downdated_tau2(sw, rest, full.fixed_mean, excess, error, wi, yi))
        ratio = math.inf if tau2_i is None else (tau2_i - full.tau2) * u_max
        if abs(ratio) < _MAX_SERIES_RATIO:
            terms = 1 if ratio == 0.0 else math.ceil(_LOG_SERIES_TOL / math.log(abs(ratio)))
            while len(p_sums) < terms:
                powers = [x * s for x, s in zip(powers, scaled)]
                p_sums.append(math.fsum(powers))
                y_sums.append(math.fsum(c * x for c, x in zip(centred, powers)))
            b = a = 0.0
            for m in reversed(range(1, terms)):
                b = -ratio * (p_sums[m] + b)
                a = -ratio * (y_sums[m] + a)
            own = 1.0 / ((se * se + tau2_i) * u_max)
            shift_i = (a - offset * b - own * (centred[i] - offset)) / (p_sums[0] + b - own)
            out.append(abs(shift_i))
            continue
        # pooled directly; its mean, too, is taken off the centre
        try:
            weights = _pool(pairs[:i] + pairs[i + 1 :])[0].weights_random
        except ValueError:
            # the subset's sums overflow; name its heaviest study by input row
            j = max((j for j in range(k) if j != i), key=w.__getitem__)
            raise _overflow_error(j, pairs[j][1], f" without study {i}") from None
        mean_i = math.fsum(x * c for x, c in zip(weights, centred[:i] + centred[i + 1 :]))
        out.append(abs(mean_i - offset))
    return out
