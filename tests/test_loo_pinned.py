"""Leave-one-out influence pinned bit for bit on seeded sets.

Only the standard library and pvaudit are used, so the pin can be checked on
an interpreter without the test extra::

    PYTHONPATH=src:tests python -c 'import test_loo_pinned as t; print(t.loo_digest())'
"""

from __future__ import annotations

import hashlib
import math
import random

from pvaudit import loo_influence


def _small_sets(rng: random.Random):
    """300 sets of 3 to 60 studies: every third has one study with nearly all
    the weight, and every fifth is near-homogeneous (tau^2 is often 0 for the
    set and positive for a subset, which sends that study to direct pooling)."""
    for n in range(300):
        k = rng.randint(3, 60)
        ses = [math.exp(rng.uniform(-3.0, 0.5)) for _ in range(k)]
        if n % 3 == 0:
            ses[0] = 10.0 ** -rng.uniform(2.0, 8.0)
        if n % 5 == 0:
            ys = [0.1 + 0.5 * se * rng.gauss(0.0, 1.0) for se in ses]
        else:
            ys = [rng.gauss(0.0, 0.3) for _ in range(k)]
        yield list(zip(ys, ses))


def _large_audit_set(rng: random.Random, rows: int = 1200):
    """Linear-scale (rr - 1, se) pairs of a table in the shape of the
    benchmark's large-audit input: 60% null rows, the rest 2 to 3 se
    protective, se log-uniform on 0.025-0.35, 1% narrow intervals, every
    value rounded to two decimals as published tables print them."""
    effects = []
    while len(effects) < rows:
        u = rng.random()
        if u < 0.01:
            rr = 0.78 + rng.randrange(3) / 100
            low, high = rr - 0.01, rr + 0.01
        else:
            se = 0.025 * 14.0 ** rng.random()
            shift = 0.0 if u < 0.6 else -rng.uniform(2.0, 3.0) * se
            rr = 1.0 + shift + rng.gauss(0.0, se)
            low, high = rr - 1.96 * se, rr + 1.96 * se
        rr, low, high = round(rr, 2), round(low, 2), round(high, 2)
        if 0 < low < high and low <= rr <= high:
            effects.append((rr - 1.0, (high - low) / 3.92))
    return effects


def loo_digest() -> str:
    """sha256 over ``repr(loo_influence(e))`` of every seeded set, in order."""
    h = hashlib.sha256()
    for effects in _small_sets(random.Random(29)):
        h.update((repr(loo_influence(effects)) + "\n").encode())
    h.update((repr(loo_influence(_large_audit_set(random.Random(1)))) + "\n").encode())
    return h.hexdigest()


# recorded before leave-one-out decided each study's path in one loop
LOO_DIGEST = "25297eed91141f0d3b1736e8e6da28f383075ea0993a7cf029bee0b16ea29a3c"


def test_loo_influence_bits_pinned():
    assert loo_digest() == LOO_DIGEST
