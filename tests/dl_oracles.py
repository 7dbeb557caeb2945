"""DerSimonian-Laird oracles over ``(effect, se)`` pairs, for the tests only (they use mpmath).
Not ``oracles``: a tier-1 test imports perfbench's numpy module by that bare name."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from pvaudit import pool_dl


def pool_fraction(effects):
    """DL in exact rationals, keyed by ``pool_dl``'s fields; ``random_se`` alone is a float."""
    ys = [Fraction(y) for y, _ in effects]
    ws = [1 / (Fraction(s) * Fraction(s)) for _, s in effects]
    k = len(ys)
    sw = sum(ws)
    fixed = sum(w * y for w, y in zip(ws, ys)) / sw
    q = sum(w * (y - fixed) ** 2 for w, y in zip(ws, ys))
    # No guard on the denominator: with k >= 2 positive weights, sw^2 > sum(w^2).
    tau2 = max(Fraction(0), (q - (k - 1)) / (sw - sum(w * w for w in ws) / sw))
    wr = [1 / (1 / w + tau2) for w in ws]
    swr = sum(wr)
    return dict(
        fixed_mean=fixed, q=q, tau2=tau2, random_mean=sum(w * y for w, y in zip(wr, ys)) / swr,
        random_se=1 / math.sqrt(float(swr)),
        i2=max(Fraction(0), (q - (k - 1)) / q) if q > 0 else Fraction(0),
    )


def loo_per_subset(effects, rows=None):
    """Leave-one-out influence of ``rows`` (default all) by pooling each subset."""
    full = pool_dl(effects)
    return [
        abs(full.random_mean - pool_dl(effects[:i] + effects[i + 1 :]).random_mean)
        / full.random_se
        for i in (range(len(effects)) if rows is None else rows)
    ]


def loo_mp(effects, rows=None):
    """Leave-one-out DL influence of ``rows`` (default all) in mpmath.

    Carries 40 digits beyond twice the largest decimal exponent of an se, and
    takes every effect as its exact deviation from the heaviest study's, so
    the mean's own magnitude costs nothing and equal effects give exactly 0.
    """
    digits = 40 + 2 * math.ceil(max(abs(math.log10(s)) for _, s in effects))
    with mp.workdps(digits):
        vs = [mp.mpf(s) ** 2 for _, s in effects]
        top = min(range(len(effects)), key=vs.__getitem__)
        devs = [mp.mpf(y) - mp.mpf(effects[top][0]) for y, _ in effects]

        def dl(keep):
            w = [1 / vs[j] for j in keep]
            d = [devs[j] for j in keep]
            sw = mp.fsum(w)
            fixed = mp.fsum(a * b for a, b in zip(w, d)) / sw
            q = mp.fsum(a * (b - fixed) ** 2 for a, b in zip(w, d))
            denom = sw - mp.fsum(a * a for a in w) / sw
            tau2 = max(mp.mpf(0), (q - (len(keep) - 1)) / denom) if denom > 0 else 0
            u = [1 / (vs[j] + tau2) for j in keep]
            return mp.fsum(a * b for a, b in zip(u, d)) / mp.fsum(u), mp.fsum(u)

        k = len(effects)
        mean, su = dl(range(k))
        return [
            float(abs(dl([j for j in range(k) if j != i])[0] - mean) * mp.sqrt(su))
            for i in (range(k) if rows is None else rows)
        ]
