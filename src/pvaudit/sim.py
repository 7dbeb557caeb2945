"""Seeded simulation of literatures with selective reporting and analysis search.

Draw addressing
---------------
Reproducibility here means every random number has a fixed address. The
generator is counter-based (Philox, 4x64): the key is the user seed and the
counter starts at ``(0, 0, replicate_index, 0)``, so replicate r always reads
the same stream regardless of how many replicates run or in what order.
Within a replicate, study j consumes a fixed block of ``hack_k + 2`` uniform
draws in order:

1. one draw deciding whether the study carries a real effect,
2. ``hack_k`` draws converted to z-statistics (a study "tries" hack_k
   analyses and reports the smallest p, which is what an analysis search
   amounts to),
3. one draw deciding whether a non-significant result is withheld.

Every draw is consumed whether or not its branch is taken, so changing one
parameter never shifts another study's randomness. The whole scheme is
echoed into the simulation report.

The generator is Philox4x64-10 as defined by Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3" (SC'11), which gives the two round multipliers
and the two Weyl key increments below. Counter word 0 is incremented before
each four-word block, so the first block of replicate r is computed from
``(1, 0, r, 0)``, and each 64-bit word x becomes the double
``(x >> 11) * 2**-53``. That is the convention of numpy's ``Philox`` bit
generator and ``Generator.random``, whose streams these are, bit for bit.

The blocks of several replicates are evaluated together, as 128-bit lanes
of four Python integers (one integer per counter word, lane l in bits 128l
up). Each replicate's blocks take consecutive lanes, replicate after
replicate, and counter word 2 of a lane holds its own replicate's index.
This is exact: a block carries no state to the next, so each round is the
same operation on every lane, and a lane's 64-bit word times a 64-bit
multiplier stays below 2**128, so no carry crosses into the next lane; no
counter word passes 2**64 either, as replicate indices stop at 2**64 - 1.
Each round is then a few big-integer operations, not a Python loop per
block or per replicate. ``run_experiment`` takes as many whole replicates
per pass as fit in ``_BATCH_WORDS`` words, and ``generate_literature`` is
the pass of one. The lane layout (the lane masks, counter words 0 and 2,
and the round keys spread over the lanes) depends only on the seed, the
blocks per replicate and the replicates per pass, so it is computed once
and reused by every batch of that shape.

The simulator reads the 53-bit words ``x >> 11`` themselves and turns only
the z draws into doubles. The effect and censor draws are compared as
integers: a word w reads as a uniform below a fraction f exactly when
``w < ceil(f * 2**53)``, because scaling by a power of two is exact. That
gives the same decision as the double comparison, draw for draw.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import chain
from statistics import NormalDist
from typing import NamedTuple

from .diagnostics import KS_MIN_POINTS, SHAPE_THRESHOLDS, VERDICTS, ShapeVerdict, classify_pvalues
from .stats import P_FLOOR

__all__ = [
    "ReplicateOutcome",
    "SimConfig",
    "SimOutcome",
    "generate_literature",
    "greenwald_censor_rate",
    "run_experiment",
]

RNG_ALGORITHM = "philox4x64"
RNG_COUNTER_LAYOUT = "(0, 0, replicate_index, 0)"
SIGNIFICANCE = 0.05

_MASK64 = (1 << 64) - 1
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10

# A 53-bit word w is the uniform w * 2**-53. Before the normal quantile
# transform uniforms must lie strictly inside (0, 1), so only a zero needs
# lifting, to 2**-53 (the word 1).
_WORD_SCALE = 2.0 ** -53
# The 64-bit words of each 128-bit lane's low half, in lane order, from a
# native-order "Q" view of the lanes' bytes.
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)

_SQRT2 = math.sqrt(2.0)

# run_experiment draws the words of as many whole replicates as fit in this
# many words in one pass over the Philox rounds (at least one replicate), so
# a batch's big integers stay a few hundred kilobytes whatever the size of
# a replicate.
_BATCH_WORDS = 2 ** 14

_normal_quantile = NormalDist().inv_cdf


class _SimConfigFields(NamedTuple):
    n_studies: int
    effect_fraction: float = 0.0
    noncentrality: float = 0.0
    censor_rate: float = 0.0
    hack_k: int = 1
    seed: int = 0
    replicates: int = 1


class SimConfig(_SimConfigFields):
    """Parameters of one simulated literature experiment.

    n_studies per replicate; effect_fraction of them drawn around a real
    effect of size noncentrality (on the z scale); censor_rate is the
    probability that a study with p > 0.05 is never reported; hack_k is how
    many analyses each study tries before reporting its best p.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SimConfig:
        self = super().__new__(cls, *args, **kwargs)
        for name in ("n_studies", "hack_k", "seed", "replicates"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_studies < 1:
            raise ValueError(f"n_studies must be at least 1, got {self.n_studies}")
        if not 0.0 <= self.effect_fraction <= 1.0:
            raise ValueError(
                f"effect_fraction must lie in [0, 1], got {self.effect_fraction!r}"
            )
        if not math.isfinite(self.noncentrality):
            raise ValueError("noncentrality must be finite")
        if not 0.0 <= self.censor_rate <= 1.0:
            raise ValueError(
                f"censor_rate must lie in [0, 1], got {self.censor_rate!r}"
            )
        if self.hack_k < 1:
            raise ValueError(f"hack_k must be at least 1, got {self.hack_k}")
        if not 0 <= self.seed < 2 ** 128:
            raise ValueError("seed must be a non-negative integer below 2**128")
        if not 1 <= self.replicates <= 2 ** 64:
            # replicate indices are counter words, below 2**64
            raise ValueError(
                f"replicates must lie in [1, 2**64], got {self.replicates}"
            )
        return self

    @classmethod
    def _make(cls, iterable) -> SimConfig:
        # _replace builds its result here, so it validates too.
        return cls(*iterable)


class ReplicateOutcome(NamedTuple):
    index: int
    pvalues: tuple[float, ...]
    suppressed: int
    verdict: ShapeVerdict


class SimOutcome(NamedTuple):
    """All replicates of one experiment plus the aggregate table."""

    config: SimConfig
    replicates: tuple[ReplicateOutcome, ...]
    verdict_counts: dict[str, int]
    mean_suppressed_fraction: float
    ks_rejection_rate: float


def greenwald_censor_rate(hack_k: int = 1) -> float:
    """Censor rate putting withheld negative studies at ten times the
    reported positive ones, in expectation under the null.

    With k analyses per study the chance of a significant best p under the
    null is s = 1 - 0.95**k. Every significant study is reported; a
    non-significant one is withheld with probability c, so the expected
    withheld-negative to reported-positive ratio is (1-s)c : s. Solving for
    the classic ten-to-one asymmetry gives c = 10 s / (1 - s), clamped to 1
    (10/19 for a single analysis; already saturated at two).
    """
    if hack_k < 1:
        raise ValueError(f"hack_k must be at least 1, got {hack_k}")
    s = 1.0 - (1.0 - SIGNIFICANCE) ** hack_k
    # from hack_k 730 on, s rounds to 1
    return min(1.0, 10.0 * s / (1.0 - s)) if s < 1.0 else 1.0


@lru_cache(maxsize=4)
def _layout(seed: int, blocks: int, streams: int) -> tuple[int, int, int, int, tuple]:
    """The lane layout of ``streams`` streams of ``blocks`` lanes each, stream
    after stream, under key ``seed``: the integer with 1 in every lane (a
    64-bit value times it fills every lane), the mask of every lane's low 64
    bits, counter word 0 (1, 2, ..., blocks within every stream), the stream
    offsets 0, 1, ..., streams - 1 of counter word 2 (the first replicate
    index is added to every lane), and the ten round keys, each key word
    spread over every lane: round i is keyed by the seed's two words plus i
    times the Weyl increments."""
    lanes = blocks * streams
    ones = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
    counters = b"".join(b.to_bytes(16, "little") for b in range(1, blocks + 1))
    offsets = b"".join(r.to_bytes(16, "little") * blocks for r in range(streams))
    k0, k1 = seed & _MASK64, seed >> 64
    keys = []
    for _ in range(_PHILOX_ROUNDS):
        keys.append((k0 * ones, k1 * ones))
        k0 = (k0 + _PHILOX_W0) & _MASK64
        k1 = (k1 + _PHILOX_W1) & _MASK64
    return (ones, _MASK64 * ones, int.from_bytes(counters * streams, "little"),
            int.from_bytes(offsets, "little"), tuple(keys))


def _philox_words(
    seed: int, replicate_index: int, count: int, replicates: int = 1
) -> list[int]:
    """The first ``count`` 53-bit words ``x >> 11`` of each Philox4x64-10
    stream keyed by ``seed`` with counter ``(0, 0, r, 0)``, for the
    ``replicates`` replicates r from ``replicate_index`` on, stream after
    stream; ``replicate_index + replicates`` may not pass 2**64."""
    blocks = (count + 3) // 4
    lanes = blocks * replicates
    ones, low, x0, offsets, keys = _layout(seed, blocks, replicates)
    x1 = x3 = 0
    x2 = replicate_index * ones + offsets
    for k0, k1 in keys:
        p0 = _PHILOX_M0 * x0
        p1 = _PHILOX_M1 * x2
        x0, x1, x2, x3 = (
            ((p1 >> 64) & low) ^ x1 ^ k0,
            p1 & low,
            ((p0 >> 64) & low) ^ x3 ^ k1,
            p0 & low,
        )
    # Bits shifted down from lane b+1 land in lane b's high half, never read.
    size = 16 * lanes
    out = [0] * (4 * lanes)
    for j, x in enumerate((x0, x1, x2, x3)):
        out[j::4] = memoryview((x >> 11).to_bytes(size, sys.byteorder)).cast("Q")[_LOW_WORDS]
    stride = 4 * blocks
    if stride == count:
        return out
    # each stream's last block runs past its count
    return list(chain.from_iterable(out[s : s + count] for s in range(0, len(out), stride)))


def _word_cut(fraction: float) -> int:
    """The int c such that a draw's word w, lifted to ``w or 1``, reads as a
    uniform below ``fraction`` exactly when ``w < c``.

    ``(w or 1) * 2**-53 < fraction`` is ``(w or 1) < fraction * 2**53``: the
    scaling by a power of two is exact, and for an int the bound may be
    rounded up to ``ceil``. A cut of 1 would pass only the word 0, which the
    lift reads as 1, so it passes nothing, as a cut of 0 does.
    """
    c = math.ceil(fraction * 2.0 ** 53)
    return 0 if c == 1 else c


def _literatures(cfg: SimConfig, first: int, replicates: int) -> list[list[float]]:
    """The reported p-values of the replicates ``first``, ``first + 1``, ...,
    one list per replicate, each in study order."""
    hack_k = cfg.hack_k
    width = hack_k + 2
    words = _philox_words(cfg.seed, first, cfg.n_studies * width, replicates)
    effect_cut = _word_cut(cfg.effect_fraction)
    censor_cut = _word_cut(cfg.censor_rate)
    noncentrality = cfg.noncentrality
    quantile, erfc, scale = _normal_quantile, math.erfc, _WORD_SCALE
    # Every study of the batch at once, one strided slice per draw slot.
    shifts = [noncentrality if w < effect_cut else 0.0 for w in words[::width]]
    # 2 * normal_sf(|z|); the halving stays, as 0.5 * x rounds when x is
    # subnormal
    tries = [
        [2.0 * (0.5 * erfc(abs(quantile((w or 1) * scale) + shift) / _SQRT2))
         for w, shift in zip(words[slot::width], shifts)]
        for slot in range(1, hack_k + 1)
    ]
    # min keeps the earliest of equal values, as the draws' order decides
    best = tries[0] if hack_k == 1 else list(map(min, *tries))
    censors = words[width - 1 :: width]
    n = cfg.n_studies
    # p underflows to 0.0 once |z| passes ~38.5; floor it as derivation does
    return [
        [p or P_FLOOR for p, w in zip(best[s : s + n], censors[s : s + n])
         if not (p > SIGNIFICANCE and w < censor_cut)]
        for s in range(0, len(best), n)
    ]


def generate_literature(cfg: SimConfig, replicate_index: int = 0) -> list[float]:
    """The reported p-values of one replicate, in study order."""
    if not 0 <= replicate_index < 2 ** 64:
        raise ValueError(
            f"replicate_index must lie in [0, 2**64), got {replicate_index}"
        )
    return _literatures(cfg, replicate_index, 1)[0]


def run_experiment(cfg: SimConfig) -> SimOutcome:
    """Run every replicate, classify each reported literature, and aggregate.

    Replicates whose reported set is too small to test (< ``KS_MIN_POINTS``
    values) count as indeterminate and do not enter the KS rejection rate
    denominator.
    """
    n = cfg.n_studies
    per_batch = max(1, _BATCH_WORDS // (n * (cfg.hack_k + 2)))
    batches = (
        _literatures(cfg, first, min(per_batch, cfg.replicates - first))
        for first in range(0, cfg.replicates, per_batch)
    )
    outcomes = tuple(
        ReplicateOutcome(r, tuple(kept), n - len(kept), classify_pvalues(kept))
        for r, kept in enumerate(chain.from_iterable(batches))
    )
    counts = dict.fromkeys(VERDICTS, 0)
    for o in outcomes:
        counts[o.verdict.verdict] += 1
    tested = [o.verdict.ks_pvalue for o in outcomes if len(o.pvalues) >= KS_MIN_POINTS]
    rejected = sum(p < SHAPE_THRESHOLDS.ks_alpha for p in tested)
    return SimOutcome(
        config=cfg,
        replicates=outcomes,
        verdict_counts=counts,
        mean_suppressed_fraction=math.fsum(o.suppressed / n for o in outcomes) / len(outcomes),
        ks_rejection_rate=rejected / len(tested) if tested else 0.0,
    )
