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

The blocks of a replicate are evaluated together, as 128-bit lanes of four
Python integers (one integer per counter word, block b in bits 128b up).
This is exact: a block carries no state to the next, so each round is the
same operation on every lane, and a lane's 64-bit word times a 64-bit
multiplier stays below 2**128, so no carry crosses into the next lane. Each
round is then a few big-integer operations, not a Python loop per block.
The round keys spread over the lanes depend only on the seed and the block
count, so they are computed once and reused by every replicate.

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
from statistics import NormalDist
from typing import NamedTuple

from .diagnostics import VERDICTS, ShapeVerdict, classify_pvalues
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
        if self.replicates < 1:
            raise ValueError(f"replicates must be at least 1, got {self.replicates}")
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
    return min(1.0, 10.0 * s / (1.0 - s))


@lru_cache(maxsize=4)
def _lanes(blocks: int) -> tuple[int, int, int]:
    """For ``blocks`` 128-bit lanes: the integer with 1 in every lane (a 64-bit
    value times it fills every lane), the mask of every lane's low 64 bits,
    and the counter word 0 of the lanes, 1, 2, ..., blocks."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * blocks, "little")
    counters = b"".join(b.to_bytes(16, "little") for b in range(1, blocks + 1))
    return ones, _MASK64 * ones, int.from_bytes(counters, "little")


@lru_cache(maxsize=4)
def _round_keys(seed: int, blocks: int) -> tuple[tuple[int, int], ...]:
    """The ten round keys for ``seed``, each key word spread over ``blocks``
    lanes: round i is keyed by the seed's two words plus i times the Weyl
    increments."""
    ones = _lanes(blocks)[0]
    k0, k1 = seed & _MASK64, seed >> 64
    keys = []
    for _ in range(_PHILOX_ROUNDS):
        keys.append((k0 * ones, k1 * ones))
        k0 = (k0 + _PHILOX_W0) & _MASK64
        k1 = (k1 + _PHILOX_W1) & _MASK64
    return tuple(keys)


def _philox_words(seed: int, replicate_index: int, count: int) -> list[int]:
    """The first ``count`` 53-bit words ``x >> 11`` of the Philox4x64-10 stream
    keyed by ``seed`` with counter ``(0, 0, replicate_index, 0)``."""
    blocks = (count + 3) // 4
    ones, low, x0 = _lanes(blocks)
    x1 = x3 = 0
    x2 = replicate_index * ones
    for k0, k1 in _round_keys(seed, blocks):
        p0 = _PHILOX_M0 * x0
        p1 = _PHILOX_M1 * x2
        x0, x1, x2, x3 = (
            ((p1 >> 64) & low) ^ x1 ^ k0,
            p1 & low,
            ((p0 >> 64) & low) ^ x3 ^ k1,
            p0 & low,
        )
    # Bits shifted down from lane b+1 land in lane b's high half, never read.
    size = 16 * blocks
    out = [0] * (4 * blocks)
    for j, x in enumerate((x0, x1, x2, x3)):
        out[j::4] = memoryview((x >> 11).to_bytes(size, sys.byteorder)).cast("Q")[_LOW_WORDS]
    del out[count:]
    return out


def _philox_uniforms(seed: int, replicate_index: int, count: int) -> list[float]:
    """The first ``count`` doubles of the Philox4x64-10 stream keyed by ``seed``
    with counter ``(0, 0, replicate_index, 0)``."""
    return [w * _WORD_SCALE for w in _philox_words(seed, replicate_index, count)]


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


def generate_literature(cfg: SimConfig, replicate_index: int = 0) -> list[float]:
    """The reported p-values of one replicate, in study order."""
    if not 0 <= replicate_index < 2 ** 64:
        raise ValueError(
            f"replicate_index must lie in [0, 2**64), got {replicate_index}"
        )
    hack_k = cfg.hack_k
    width = hack_k + 2
    words = _philox_words(cfg.seed, replicate_index, cfg.n_studies * width)
    effect_cut = _word_cut(cfg.effect_fraction)
    censor_cut = _word_cut(cfg.censor_rate)
    noncentrality = cfg.noncentrality
    quantile, erfc, scale = _normal_quantile, math.erfc, _WORD_SCALE
    reported = []
    for j in range(0, len(words), width):
        shift = noncentrality if words[j] < effect_cut else 0.0
        best_p = math.inf
        for w in words[j + 1 : j + 1 + hack_k]:
            z = quantile((w or 1) * scale) + shift
            # 2 * normal_sf(|z|); the halving stays, as 0.5 * x rounds
            # when x is subnormal
            p = 2.0 * (0.5 * erfc(abs(z) / _SQRT2))
            if p < best_p:
                best_p = p
        if not (best_p > SIGNIFICANCE and words[j + width - 1] < censor_cut):
            # p underflows to 0.0 once |z| passes ~38.5; floor it as derivation does
            reported.append(best_p or P_FLOOR)
    return reported


def run_experiment(cfg: SimConfig) -> SimOutcome:
    """Run every replicate, classify each reported literature, and aggregate.

    Replicates whose reported set is too small to test (< 5 values) count as
    indeterminate and do not enter the KS rejection rate denominator.
    """
    outcomes = []
    counts = dict.fromkeys(VERDICTS, 0)
    suppressed_fracs = []
    ks_total = 0
    ks_rejected = 0
    for r in range(cfg.replicates):
        kept = generate_literature(cfg, r)
        verdict = classify_pvalues(kept)
        n_suppressed = cfg.n_studies - len(kept)
        outcomes.append(
            ReplicateOutcome(
                index=r,
                pvalues=tuple(kept),
                suppressed=n_suppressed,
                verdict=verdict,
            )
        )
        counts[verdict.verdict] += 1
        suppressed_fracs.append(n_suppressed / cfg.n_studies)
        if len(kept) >= 5:
            ks_total += 1
            if verdict.ks_pvalue < SIGNIFICANCE:
                ks_rejected += 1
    return SimOutcome(
        config=cfg,
        replicates=tuple(outcomes),
        verdict_counts=counts,
        mean_suppressed_fraction=math.fsum(suppressed_fracs) / len(suppressed_fracs),
        ks_rejection_rate=(ks_rejected / ks_total) if ks_total else 0.0,
    )
