from __future__ import annotations

import hashlib
import math
from statistics import NormalDist

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.special import ndtr, ndtri

from pvaudit import (
    SimConfig,
    generate_literature,
    greenwald_censor_rate,
    normal_sf,
    run_experiment,
)
from pvaudit import sim
from pvaudit.diagnostics import KS_MIN_POINTS, SHAPE_THRESHOLDS
from pvaudit.report import build_sim_report, dumps
from pvaudit.sim import _philox_words

_MASK64 = (1 << 64) - 1


def _philox_reference(seed: int, replicate_index: int, count: int) -> list[int]:
    """The 53-bit words ``x >> 11`` of Philox4x64-10, one four-word block at a
    time: the simulator's former generator, kept as the reference for the
    lane-packed one."""
    keys = [
        ((seed + i * 0x9E3779B97F4A7C15) & _MASK64,
         ((seed >> 64) + i * 0xBB67AE8584CAA73B) & _MASK64)
        for i in range(10)
    ]
    out: list[int] = []
    for block in range(1, (count + 3) // 4 + 1):
        x0, x1, x2, x3 = block, 0, replicate_index, 0
        for k0, k1 in keys:
            p0 = 0xD2E7470EE14C6C93 * x0
            p1 = 0xCA5A826395121157 * x2
            x0, x1, x2, x3 = (
                (p1 >> 64) ^ x1 ^ k0,
                p1 & _MASK64,
                (p0 >> 64) ^ x3 ^ k1,
                p0 & _MASK64,
            )
        out += [x >> 11 for x in (x0, x1, x2, x3)]
    del out[count:]
    return out


def _numpy_literature(cfg: SimConfig, replicate_index: int) -> list[tuple[float, float]]:
    """(best p, the signed z behind it) of each reported study, by numpy's
    Philox generator and scipy's normal functions: the simulator's former
    implementation, kept as the reference."""
    u = Generator(Philox(key=cfg.seed, counter=[0, 0, replicate_index, 0])).random(
        (cfg.n_studies, cfg.hack_k + 2)
    )
    return _reference_from_uniforms(cfg, u)


def _reference_from_uniforms(cfg: SimConfig, u: np.ndarray) -> list[tuple[float, float]]:
    """The reference's reading of an (n_studies, hack_k + 2) array of draws."""
    u = np.maximum(u, 2.0 ** -53)
    has_effect = u[:, 0] < cfg.effect_fraction
    z = ndtri(u[:, 1 : 1 + cfg.hack_k])
    z = z + np.where(has_effect, cfg.noncentrality, 0.0)[:, None]
    p_all = 2.0 * ndtr(-np.abs(z))
    best = np.argmin(p_all, axis=1)
    rows = np.arange(cfg.n_studies)
    p = p_all[rows, best]
    suppressed = (p > 0.05) & (u[:, 1 + cfg.hack_k] < cfg.censor_rate)
    return [(float(q), float(x)) for q, x in zip(p[~suppressed], z[rows, best][~suppressed])]


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 + 5, 2 ** 128 - 1])
@pytest.mark.parametrize("replicate_index", [0, 1, 599, 2 ** 40])
def test_philox_uniforms_equal_numpy_bit_for_bit(seed, replicate_index):
    # n_studies x (hack_k + 2) draws; most sizes end partway through a block
    for n_studies, hack_k in [(1, 1), (3, 1), (2, 2), (7, 3), (5, 4), (13, 5)]:
        count = n_studies * (hack_k + 2)
        want = Philox(key=seed, counter=[0, 0, replicate_index, 0]).random_raw(count) >> 11
        assert _philox_words(seed, replicate_index, count) == want.tolist(), count


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 + 5, 2 ** 128 - 1])
@pytest.mark.parametrize("replicate_index", [0, 599, 2 ** 40, 2 ** 64 - 1])
def test_philox_lanes_equal_per_block_reference(seed, replicate_index):
    # one block, partial and whole blocks, sim-mixture's 300, and 1001 blocks
    for count in (1, 3, 4, 5, 300, 4 * 1000 + 3):
        want = _philox_reference(seed, replicate_index, count)
        assert _philox_words(seed, replicate_index, count) == want, count


@pytest.mark.parametrize("seed", [0, 2 ** 128 - 1])
@pytest.mark.parametrize("count", [300, 6001])
def test_philox_uniforms_equal_numpy_long_streams(seed, count):
    want = Philox(key=seed, counter=[0, 0, 37, 0]).random_raw(count) >> 11
    assert _philox_words(seed, 37, count) == want.tolist()


# One word count per residue mod 4 (300 is sim-mixture's), so the last block
# of each stream is whole or ends one, two or three words short.
@pytest.mark.parametrize("count", [300, 185, 14, 7])
@pytest.mark.parametrize("seed", [3, 2 ** 128 - 1])
def test_batched_philox_equals_per_replicate_calls(seed, count):
    batch = sim._BATCH_WORDS // count
    for m in (1, 2, batch - 1, batch, batch + 1):
        for first in (0, 12345, 2 ** 64 - m):
            want = [w for r in range(first, first + m) for w in _philox_words(seed, r, count)]
            assert _philox_words(seed, first, count, m) == want, (m, first)


@pytest.mark.parametrize(
    "cfg",
    [
        # 54 replicates a batch: the run ends partway through its third
        SimConfig(n_studies=100, effect_fraction=0.2, noncentrality=3.0, censor_rate=0.3,
                  replicates=120, seed=1),
        # 88 replicates a batch of 185 words each, not whole blocks
        SimConfig(n_studies=37, hack_k=3, censor_rate=greenwald_censor_rate(3),
                  replicates=130, seed=9),
        # 18000 words, more than a batch holds: one replicate at a time
        SimConfig(n_studies=6000, effect_fraction=0.5, noncentrality=2.0, replicates=3, seed=4),
    ],
)
def test_run_experiment_batches_equal_single_replicates(cfg):
    outcome = run_experiment(cfg)
    assert [rep.index for rep in outcome.replicates] == list(range(cfg.replicates))
    for r, rep in enumerate(outcome.replicates):
        assert rep.pvalues == tuple(generate_literature(cfg, r)), r


def _literature_digest(cfg: SimConfig) -> str:
    h = hashlib.sha256()
    for r in range(cfg.replicates):
        h.update((",".join(p.hex() for p in generate_literature(cfg, r)) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "cfg, digest",
    [
        (SimConfig(n_studies=100, effect_fraction=0.2, noncentrality=3.0, censor_rate=0.3,
                   replicates=600, seed=5),
         "8ee65525ec60877646c5481b0a8ce7daceb1f29389a06fb9dddb468cf22fac64"),
        (SimConfig(n_studies=40, hack_k=5, censor_rate=greenwald_censor_rate(5),
                   replicates=300, seed=9),
         "1725863a385260f77603c73e902dedda8d7f82f196838a3ee62f97c7576b6813"),
        (SimConfig(n_studies=60, hack_k=3, noncentrality=-2.5, effect_fraction=0.4,
                   censor_rate=0.5, replicates=300, seed=2 ** 100 + 3),
         "b470daf0d05f6e2611634f0ca597939b40cc76d4bfa1414d54a8d6ba7a83ab54"),
    ],
)
def test_reported_pvalues_pinned(cfg, digest):
    # every replicate's reported p-values, bit for bit, as the numpy-era
    # simulator and the per-block generator produced them
    assert _literature_digest(cfg) == digest


_HALF = 1 << 52  # the word of the uniform 0.5: z 0, p 1


@pytest.mark.parametrize(
    "effect_fraction, censor_rate",
    [(0.5, 0.5), (1e-20, 1e-20), (0.0, 0.0), (1.0, 1.0)],
)
def test_zero_word_lifted_like_reference(monkeypatch, effect_fraction, censor_rate):
    # Three studies, hack_k 2 (words: effect, z, z, censor). A zero word in
    # study 0's effect slot, study 1's second z slot and study 2's censor slot
    # must read as the uniform 2**-53, as the reference's np.maximum has it.
    words = [0, _HALF, _HALF, _HALF,
             _HALF, _HALF, 0, _HALF,
             _HALF, _HALF, _HALF, 0]
    monkeypatch.setattr(sim, "_philox_words", lambda seed, r, count, replicates=1: list(words))
    cfg = SimConfig(n_studies=3, hack_k=2, effect_fraction=effect_fraction,
                    noncentrality=5.0, censor_rate=censor_rate)
    got = generate_literature(cfg, 0)
    want = _reference_from_uniforms(cfg, np.array(words, dtype=float).reshape(3, 4) * 2.0 ** -53)
    assert len(got) == len(want)
    for p, (p_ref, _) in zip(got, want):
        assert p == pytest.approx(p_ref, rel=1e-13, abs=0.0)
    if effect_fraction == 1e-20:
        # the lifted 2**-53 is no effect, and censors no non-significant study
        assert got[0] == 1.0
        assert len(got) == 3


def _per_draw_reference(cfg: SimConfig, u: list[float]) -> list[float]:
    """The simulator's former reading of a replicate's uniforms, one float per
    draw and ``normal_sf`` for the tail: the reference for the word path."""
    if 0.0 in u:
        u = [v or 2.0 ** -53 for v in u]
    width = cfg.hack_k + 2
    reported = []
    for j in range(0, len(u), width):
        shift = cfg.noncentrality if u[j] < cfg.effect_fraction else 0.0
        best_p = math.inf
        for v in u[j + 1 : j + 1 + cfg.hack_k]:
            z = NormalDist().inv_cdf(v) + shift
            p = 2.0 * normal_sf(abs(z))
            if p < best_p:
                best_p = p
        if not (best_p > 0.05 and u[j + width - 1] < cfg.censor_rate):
            reported.append(best_p)
    return reported


def _hex(pvalues):
    return [p.hex() for p in pvalues]


# Fractions on and around the word path's integer cuts: a lifted word w
# passes a fraction f when w * 2**-53 < f. The cut of 0.3 is not an integer.
_CUT_FRACTIONS = (0.0, 1e-20, 2.0 ** -53, 3 * 2.0 ** -53, 0.3, 0.5, 1.0 - 2.0 ** -53, 1.0)


@pytest.mark.parametrize("hack_k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 2 ** 64 + 5, 2 ** 128 - 1])
def test_word_path_equals_per_draw_reference(hack_k, seed):
    for effect_fraction in _CUT_FRACTIONS:
        for censor_rate in _CUT_FRACTIONS:
            cfg = SimConfig(n_studies=30, hack_k=hack_k, seed=seed, noncentrality=2.5,
                            effect_fraction=effect_fraction, censor_rate=censor_rate)
            for r in (0, 7):
                u = Generator(Philox(key=seed, counter=[0, 0, r, 0])).random(
                    cfg.n_studies * (hack_k + 2)
                ).tolist()
                want = _per_draw_reference(cfg, u)
                assert _hex(generate_literature(cfg, r)) == _hex(want)


# Words at the cuts and the ends: 0 (lifted to 1), the neighbours of the
# cuts, the uniform 0.5, and the largest words, whose z mirror the smallest
# ones' so their p tie.
_EDGE_WORDS = (0, 1, 2, 3, 4, int(0.3 * 2 ** 53), int(0.3 * 2 ** 53) + 1, 1 << 52,
               (1 << 53) - 2, (1 << 53) - 1)


@pytest.mark.parametrize("hack_k", [1, 2, 3, 4, 5])
def test_word_path_equals_per_draw_reference_on_edge_words(monkeypatch, hack_k):
    # Study j takes every pairing of effect and censor word; its z words run
    # through the edge words from j on, so each slot meets each of them.
    m = len(_EDGE_WORDS)
    words = []
    for j in range(m * m):
        words.append(_EDGE_WORDS[j // m])
        words += [_EDGE_WORDS[(j + s) % m] for s in range(hack_k)]
        words.append(_EDGE_WORDS[j % m])
    monkeypatch.setattr(sim, "_philox_words", lambda seed, r, count, replicates=1: list(words))
    u = [w * 2.0 ** -53 for w in words]
    # with a shift of 30 the largest words' p is subnormal, where halving
    # and doubling again loses the last bit
    for noncentrality in (0.0, 5.0, 30.0):
        for effect_fraction in _CUT_FRACTIONS:
            for censor_rate in _CUT_FRACTIONS:
                cfg = SimConfig(n_studies=m * m, hack_k=hack_k, noncentrality=noncentrality,
                                effect_fraction=effect_fraction, censor_rate=censor_rate)
                want = _per_draw_reference(cfg, u)
                assert _hex(generate_literature(cfg, 0)) == _hex(want)


@pytest.mark.parametrize(
    "cfg",
    [
        SimConfig(n_studies=300, seed=7),
        SimConfig(n_studies=300, seed=12, effect_fraction=0.3, noncentrality=4.0),
        SimConfig(n_studies=200, seed=5, effect_fraction=0.4, noncentrality=-2.5,
                  censor_rate=0.5, hack_k=3),
        SimConfig(n_studies=100, seed=2 ** 100 + 3, effect_fraction=1.0,
                  noncentrality=9.0, censor_rate=1.0, hack_k=5),
    ],
)
def test_literature_matches_numpy_scipy_reference(cfg):
    for r in (0, 1, 37):
        want = _numpy_literature(cfg, r)
        got = generate_literature(cfg, r)
        assert len(got) == len(want)
        for p, (p_ref, _) in zip(got, want):
            assert p == pytest.approx(p_ref, rel=1e-13, abs=0.0)


def test_config_validation():
    SimConfig(n_studies=1)  # minimal config is fine
    with pytest.raises(ValueError):
        SimConfig(n_studies=0)
    with pytest.raises(ValueError):
        SimConfig(n_studies=10, effect_fraction=1.5)
    with pytest.raises(ValueError):
        SimConfig(n_studies=10, effect_fraction=-0.1)
    with pytest.raises(ValueError):
        SimConfig(n_studies=10, censor_rate=2.0)
    with pytest.raises(ValueError):
        SimConfig(n_studies=10, hack_k=0)
    with pytest.raises(ValueError):
        SimConfig(n_studies=10, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(n_studies=10, replicates=0)
    # replicate indices are Philox counter words, so they stop at 2**64 - 1
    SimConfig(n_studies=10, replicates=2 ** 64)
    with pytest.raises(ValueError, match="replicates"):
        SimConfig(n_studies=10, replicates=2 ** 64 + 1)
    with pytest.raises(ValueError):
        SimConfig(n_studies=10, noncentrality=math.inf)
    # integer fields take ints only, so a bad value fails here, not mid-run
    for field in ("n_studies", "hack_k", "seed", "replicates"):
        for bad in (1.5, 5.0, True, "3", None):
            with pytest.raises(ValueError, match=field):
                SimConfig(**{"n_studies": 10, field: bad})
    SimConfig(n_studies=5, seed=2 ** 128 - 1, hack_k=2, replicates=3)
    # a modified copy is checked the same way
    cfg = SimConfig(n_studies=10)
    assert cfg._replace(hack_k=3) == SimConfig(n_studies=10, hack_k=3)
    for field, bad in (("n_studies", 0), ("censor_rate", 1.5), ("hack_k", 2.0)):
        with pytest.raises(ValueError, match=field):
            cfg._replace(**{field: bad})


def test_generate_is_deterministic():
    cfg = SimConfig(n_studies=40, seed=123, replicates=3)
    assert generate_literature(cfg, 1) == generate_literature(cfg, 1)
    assert generate_literature(cfg, 0) != generate_literature(cfg, 1)


def test_replicates_are_addressable_streams():
    # replicate 3 reads the same draws no matter how many replicates exist
    a = SimConfig(n_studies=25, seed=9, replicates=4)
    b = SimConfig(n_studies=25, seed=9, replicates=10)
    assert generate_literature(a, 3) == generate_literature(b, 3)


def test_seed_changes_stream():
    a = SimConfig(n_studies=25, seed=1)
    b = SimConfig(n_studies=25, seed=2)
    assert generate_literature(a, 0) != generate_literature(b, 0)


def test_negative_replicate_index_rejected():
    with pytest.raises(ValueError):
        generate_literature(SimConfig(n_studies=5), -1)
    with pytest.raises(ValueError):
        generate_literature(SimConfig(n_studies=5), 2 ** 64)


def test_null_pvalues_look_uniform():
    cfg = SimConfig(n_studies=10000, seed=2024)
    ps = np.array(generate_literature(cfg, 0))
    assert ps.size == 10000
    assert np.all((ps > 0) & (ps < 1))
    u = np.sort(ps)
    i = np.arange(1, u.size + 1)
    d = max(np.max(i / u.size - u), np.max(u - (i - 1) / u.size))
    assert d < 0.02


def test_pvalues_match_two_sided_tail():
    # each reported p is the two-sided tail of the z drawn for it
    cfg = SimConfig(n_studies=200, seed=5, effect_fraction=0.4, noncentrality=2.0)
    ps = generate_literature(cfg, 0)
    want = _numpy_literature(cfg, 0)
    assert len(ps) == len(want) == 200
    for p, (_, z) in zip(ps, want):
        assert p == pytest.approx(2.0 * normal_sf(abs(z)), rel=1e-9)


def test_hacking_shifts_pvalues_down():
    n = 10000
    fracs = []
    for k in (1, 2, 3):
        cfg = SimConfig(n_studies=n, seed=77, hack_k=k)
        ps = np.array(generate_literature(cfg, 0))
        fracs.append(float(np.mean(ps < 0.05)))
        assert fracs[-1] == pytest.approx(1.0 - 0.95 ** k, abs=0.01)
    assert fracs[0] < fracs[1] < fracs[2]


def test_full_censoring_keeps_only_significant():
    cfg = SimConfig(n_studies=10000, seed=31, censor_rate=1.0)
    ps = np.array(generate_literature(cfg, 0))
    assert np.all(ps <= 0.05)
    assert ps.size / cfg.n_studies == pytest.approx(0.05, abs=0.01)


def test_mean_reported_count_monotone_in_censor_rate():
    means = []
    for rate in (0.0, 0.5, 1.0):
        cfg = SimConfig(n_studies=50, seed=88, censor_rate=rate, replicates=200)
        counts = [len(generate_literature(cfg, r)) for r in range(cfg.replicates)]
        means.append(float(np.mean(counts)))
    assert means[0] >= means[1] >= means[2]
    assert means[0] == 50.0  # nothing suppressed without censoring


def test_suppressed_plus_reported_is_total():
    cfg = SimConfig(n_studies=60, seed=4, censor_rate=0.7, replicates=20)
    outcome = run_experiment(cfg)
    for rep in outcome.replicates:
        assert rep.suppressed + len(rep.pvalues) == cfg.n_studies


def test_effect_fraction_one_mostly_significant():
    cfg = SimConfig(n_studies=10000, seed=12, effect_fraction=1.0, noncentrality=3.0)
    ps = np.array(generate_literature(cfg, 0))
    # P(|Z + 3| > 1.96) is about 0.85
    assert float(np.mean(ps < 0.05)) == pytest.approx(0.85, abs=0.02)


def test_run_experiment_aggregates():
    # The aggregate table is read off the replicates. The KS rejection rate
    # counts only replicates with at least KS_MIN_POINTS values: all of them,
    # some (n 6, half of the non-significant studies censored), and none
    # (n 4), where the rate is 0.0.
    for cfg, tested in [
        (SimConfig(n_studies=30, seed=19, replicates=25), "all"),
        (SimConfig(n_studies=6, seed=4, replicates=60, censor_rate=0.5), "some"),
        (SimConfig(n_studies=4, seed=4, replicates=20), "none"),
    ]:
        outcome = run_experiment(cfg)
        reps = outcome.replicates
        assert [rep.index for rep in reps] == list(range(cfg.replicates))
        tally = dict.fromkeys(
            ("uniform_null", "significant_effect", "bilinear_mixture", "indeterminate"), 0
        )
        for rep in reps:
            assert rep.suppressed == cfg.n_studies - len(rep.pvalues)
            tally[rep.verdict.verdict] += 1
        assert list(outcome.verdict_counts.items()) == list(tally.items())
        fracs = math.fsum(rep.suppressed / cfg.n_studies for rep in reps) / len(reps)
        assert outcome.mean_suppressed_fraction == fracs
        ks = [rep.verdict.ks_pvalue for rep in reps if len(rep.pvalues) >= KS_MIN_POINTS]
        assert {"all": len(reps), "none": 0}.get(tested, len(ks)) == len(ks)
        if tested == "some":
            assert 0 < len(ks) < len(reps)
        rejected = sum(p < SHAPE_THRESHOLDS.ks_alpha for p in ks)
        assert outcome.ks_rejection_rate == (rejected / len(ks) if ks else 0.0)


def test_run_experiment_reports_are_byte_identical():
    cfg = SimConfig(n_studies=40, seed=55, replicates=10, censor_rate=0.3)
    a = dumps(build_sim_report(run_experiment(cfg)))
    b = dumps(build_sim_report(run_experiment(cfg)))
    assert a == b


def test_greenwald_preset_values():
    assert greenwald_censor_rate(1) == pytest.approx(10.0 / 19.0, rel=1e-12)
    assert greenwald_censor_rate(2) == 1.0
    assert greenwald_censor_rate(5) == 1.0
    # 0.95**k below half an ulp of 1: s rounds to 1, and the rate stays 1
    for hack_k in (730, 1000, 10**6):
        assert greenwald_censor_rate(hack_k) == 1.0
    with pytest.raises(ValueError):
        greenwald_censor_rate(0)


def test_greenwald_preset_hits_ratio_in_expectation():
    # withheld negatives should outnumber reported positives ten to one
    cfg = SimConfig(
        n_studies=20000, seed=99, censor_rate=greenwald_censor_rate(1), hack_k=1
    )
    ps = np.array(generate_literature(cfg, 0))
    suppressed = cfg.n_studies - ps.size
    reported_positive = int(np.sum(ps <= 0.05))
    assert suppressed / reported_positive == pytest.approx(10.0, rel=0.1)
