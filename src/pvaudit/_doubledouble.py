"""DerSimonian-Laird tau^2 in double-double arithmetic, for sets at the clamp.

A double-double value is a pair (hi, lo) of doubles whose sum carries about
106 bits. TwoProduct splits each factor by Veltkamp's method, since
``math.fma`` exists only from Python 3.13 (Dekker 1971, Numer. Math. 18:224;
Ogita, Rump & Oishi 2005, SIAM J. Sci. Comput. 26:1955). :mod:`pvaudit.stats`
imports this module only when a set needs it.
"""

from __future__ import annotations

from typing import Iterable

_VELTKAMP = 2.0**27 + 1.0


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _split(a: float) -> tuple[float, float]:
    if abs(a) > 2.0**995:  # _VELTKAMP * a would overflow; scale by 2^28 exactly
        hi, lo = _split(a * 2.0**-28)
        return hi * 2.0**28, lo * 2.0**28
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a: float, b: float) -> tuple[float, float]:
    p = a * b
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _dd_add(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    s, e = _two_sum(x[0], y[0])
    t, f = _two_sum(x[1], y[1])
    s, e = _two_sum(s, e + t)
    return _two_sum(s, e + f)


def _dd_mul(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    p, e = _two_product(x[0], y[0])
    return _two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_div(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    # three quotient digits, each from the remainder the last one leaves
    digits = []
    for _ in range(3):
        digits.append(x[0] / y[0])
        x = _dd_add(x, _dd_mul((-digits[-1], 0.0), y))
    return _dd_add(_two_sum(digits[0], digits[1]), (digits[2], 0.0))


def _dd_sum(values: Iterable[tuple[float, float]]) -> tuple[float, float]:
    total = (0.0, 0.0)
    for x in values:
        total = _dd_add(total, x)
    return total


def dl_tau2(pairs: list[tuple[float, float]], top: int) -> tuple[float, float]:
    """DL tau^2 and I^2 of float (effect, se) pairs with the weights, the
    fixed mean, Q and the denominator in double-double, formed as
    :func:`pvaudit.stats.pool_dl` forms them in double: effects less that of
    the heaviest study ``top``, and its outside weight summed directly. Both
    divide the same excess ``Q - (k-1)``."""
    w = [_dd_div((1.0, 0.0), _two_product(s, s)) for _, s in pairs]
    dev = [_two_sum(y, -pairs[top][0]) for y, _ in pairs]
    sw = _dd_sum(w)
    shift = _dd_div(_dd_sum(map(_dd_mul, w, dev)), sw)
    shift = (-shift[0], -shift[1])
    spread = [_dd_add(d, shift) for d in dev]
    q = _dd_sum(_dd_mul(wi, _dd_mul(r, r)) for wi, r in zip(w, spread))
    outside = [_dd_add(sw, (-wi[0], -wi[1])) for wi in w]
    outside[top] = _dd_sum(w[:top] + w[top + 1 :])
    denom = _dd_sum(_dd_mul(wi, _dd_div(o, sw)) for wi, o in zip(w, outside))
    excess = _dd_add(q, (1.0 - len(pairs), 0.0))
    return max(0.0, _dd_div(excess, denom)[0]), max(0.0, _dd_div(excess, q)[0])
