from __future__ import annotations

import decimal
import math
import random
from fractions import Fraction
from statistics import NormalDist

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from pvaudit import stats as stats_module
from pvaudit import (
    Dataset,
    DerivedDataset,
    StudyRecord,
    derive_dataset,
    effects_from_dataset,
    loo_influence,
    normal_sf,
    parse_dataset,
    pool_dl,
    rank_pvalues,
    two_sided_critical_value,
)

from dl_oracles import loo_mp, loo_per_subset, pool_fraction
from pins import AT_CLAMP

mp.mp.dps = 40


def _rec(rr: float, lo: float, hi: float, author: str = "A", year: int = 2000) -> StudyRecord:
    return StudyRecord(author=author, year=year, ref_id=1, rr=rr, cl_low=lo, cl_high=hi)


def _derive_one(rec: StudyRecord, **kwargs):
    """The derived stats of ``rec`` alone, by a one-record derive_dataset."""
    return derive_dataset(Dataset(records=(rec,)), **kwargs).derived[0]


# ---------------------------------------------------------------- normal_sf

def _sf_oracle(z: float) -> mp.mpf:
    return mp.erfc(mp.mpf(z) / mp.sqrt(2)) / 2


def test_normal_sf_against_high_precision_erfc():
    for z in np.linspace(-8.0, 8.0, 161):
        got = normal_sf(float(z))
        want = _sf_oracle(float(z))
        assert abs(got - want) <= 1e-12 * abs(want), f"z={z}"


def test_normal_sf_oracle_agrees_with_numerical_integration():
    # the erfc oracle itself is cross-checked by integrating the density
    for z in (-3.0, -0.5, 0.0, 1.0, 2.5, 6.0):
        quad = mp.quad(mp.npdf, [z, mp.inf])
        assert abs(quad - _sf_oracle(z)) < mp.mpf("1e-25")


def test_normal_sf_known_points():
    assert normal_sf(0.0) == 0.5
    assert normal_sf(1.959964) == pytest.approx(0.025, abs=1e-9)
    assert normal_sf(1.96) == pytest.approx(0.024997895148220434, rel=1e-12)


def test_normal_sf_positive_in_deep_tail():
    assert 0.0 < normal_sf(8.0) < 1e-15
    assert normal_sf(38.0) > 0.0


def test_normal_sf_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            normal_sf(bad)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
def test_normal_sf_symmetry_and_range(z):
    sf = normal_sf(z)
    assert 0.0 < sf < 1.0
    assert sf + normal_sf(-z) == pytest.approx(1.0, abs=1e-14)


def test_normal_sf_monotone_decreasing():
    grid = np.linspace(-8.0, 8.0, 801)
    values = [normal_sf(float(z)) for z in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


# ------------------------------------------------- critical values / derive

def test_critical_value_convention_and_exact():
    assert two_sided_critical_value(0.95) == 1.96
    assert two_sided_critical_value(0.90) == pytest.approx(1.6448536269514727, rel=1e-12)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            two_sided_critical_value(bad)
    # 0.5 + level/2 rounds to 0.5 or to 1 within about 1.1e-16 of either end
    assert two_sided_critical_value(1.2e-16) > 0.0
    assert two_sided_critical_value(1.0 - 2.0**-52) < math.inf
    for edge, level in ((0, 1e-17), (0, 1.1e-16), (1, 1.0 - 2.0**-53)):
        with pytest.raises(ValueError, match=rf"^confidence_level {level!r} .* to {edge} for"):
            two_sided_critical_value(level)


def test_exact_critical_value_matches_scipy_ndtri():
    levels = np.concatenate(
        [np.linspace(1e-6, 1.0 - 1e-6, 2001), [0.8, 0.9, 0.95, 0.99, 0.999999]]
    )
    for c in levels:
        got = two_sided_critical_value(float(c))
        if c == 0.95:
            assert got == 1.96
            continue
        ref = float(ndtri(0.5 + c / 2.0))
        assert abs(got - ref) <= 1e-14 * ref, c


def test_derive_stats_linear_hand_computed():
    d = _derive_one(_rec(1.5, 1.0, 2.0))
    assert d.se == pytest.approx(1.0 / 3.92, rel=1e-15)
    assert d.z == pytest.approx(0.5 * 3.92, rel=1e-15)
    assert d.z == pytest.approx(1.96, rel=1e-15)
    assert d.p == pytest.approx(0.04999579029644087, rel=1e-12)
    assert d.rank == 1
    assert d.p_floored is False


def test_derive_stats_log_scale():
    # geometric-symmetric interval: log effect is half the log width
    d = _derive_one(_rec(2.0, 1.0, 4.0), scale="log")
    assert d.se == pytest.approx(math.log(4.0) / 3.92, rel=1e-15)
    assert d.z == pytest.approx(1.96, rel=1e-12)
    assert d.p == pytest.approx(0.04999579029644087, rel=1e-12)


def test_derive_stats_null_rr_gives_p_one():
    d = _derive_one(_rec(1.0, 0.5, 1.5))
    assert d.z == 0.0
    assert d.p == 1.0


def test_derive_stats_custom_critical_value():
    exact = NormalDist().inv_cdf(0.975)
    d = _derive_one(_rec(1.5, 1.0, 2.0), critical_value=exact)
    assert d.se == pytest.approx(1.0 / (2 * exact), rel=1e-15)


def test_derive_stats_rejects_bad_inputs():
    with pytest.raises(ValueError):
        _derive_one(_rec(1.0, 1.0, 1.0))  # zero-width interval
    with pytest.raises(ValueError):
        _derive_one(_rec(1.5, 1.0, 2.0), scale="sqrt")
    with pytest.raises(ValueError):
        _derive_one(_rec(1.5, 1.0, 2.0), critical_value=0.0)


def test_derive_dataset_checks_its_parameters_before_any_row():
    # an empty dataset must not come back recording a bad scale or z*
    empty = Dataset(())
    with pytest.raises(ValueError, match="scale must be one of"):
        derive_dataset(empty, scale="bogus", critical_value=-1.0)
    with pytest.raises(ValueError, match="critical value must be positive"):
        derive_dataset(empty, critical_value=-1.0)
    with pytest.raises(ValueError, match="critical value must be positive and finite"):
        derive_dataset(empty, critical_value=math.inf)


@pytest.mark.parametrize("level", [1.5, 0.0, float("nan")])
def test_derive_dataset_checks_the_level_it_records_even_with_a_critical_value(level):
    # z* overridden, the level is still recorded (and echoed by reports)
    with pytest.raises(ValueError, match=r"confidence_level must be in \(0, 1\)"):
        derive_dataset(Dataset((), confidence_level=level), critical_value=2.0)


def test_derive_stats_floors_underflowing_p():
    # |z| around 60: two-sided p underflows and must be clamped, not zeroed
    d = _derive_one(_rec(61.0, 60.0, 62.0))
    assert d.p == 5e-324
    assert d.p > 0.0
    assert d.p_floored is True


def test_derive_dataset_preserves_order():
    ds = parse_dataset(
        "author,year,comment,ref,rr,cl_low,cl_high\n"
        "A,2000,,1,1.2,1.0,1.4\n"
        "B,2001,,2,0.8,0.7,0.9\n"
    )
    out = derive_dataset(ds)
    assert type(out) is DerivedDataset
    assert not hasattr(ds, "derived")  # input untouched
    assert out.records == ds.records
    assert out.derived[0].z > 0 > out.derived[1].z


# ------------------------------------------------------------------ ranking

def _toy_ds(ps_like: list[tuple[float, float, float]]) -> DerivedDataset:
    rows = "".join(
        f"S{i},2000,,{i},{rr},{lo},{hi}\n" for i, (rr, lo, hi) in enumerate(ps_like)
    )
    return derive_dataset(
        parse_dataset("author,year,comment,ref,rr,cl_low,cl_high\n" + rows)
    )


@pytest.mark.parametrize(
    "level, override, zstar",
    [(0.95, None, 1.96), (0.9, None, 1.64485363), (0.9, 2.0, 2.0)],
)
@pytest.mark.parametrize("scale", ["linear", "log"])
def test_derive_dataset_ranks_and_records_its_parameters(level, override, zstar, scale):
    text = "author,year,comment,ref,rr,cl_low,cl_high\n" + "".join(
        f"S{i},2000,,{i},{rr},{lo},{hi}\n"
        for i, (rr, lo, hi) in enumerate([(1.1, 0.9, 1.3), (1.4, 1.0, 1.8), (1.1, 0.9, 1.3)])
    )
    ds = parse_dataset(text, confidence_level=level)
    derived = derive_dataset(ds, critical_value=override, scale=scale)
    assert derived.scale == scale
    assert derived.critical_value == pytest.approx(zstar, rel=1e-8)
    assert [d.rank for d in derived.derived] == [2, 1, 3]
    assert derived == rank_pvalues(derived)
    for rec, d in zip(derived.records, derived.derived):
        # a one-row derive equals that row of the full derive
        alone = derive_dataset(ds._replace(records=(rec,)), critical_value=override, scale=scale)
        assert alone.critical_value == derived.critical_value
        assert alone.derived[0][:3] == d[:3]  # se, z, p


def test_rank_pvalues_orders_by_p():
    ds = _toy_ds([(1.0, 0.5, 1.5), (1.4, 1.0, 1.8), (1.1, 0.9, 1.3)])
    ranked = rank_pvalues(ds)
    ranks = [d.rank for d in ranked.derived]
    # row 1 has the largest |z| hence smallest p
    assert ranks[1] == 1
    assert sorted(ranks) == [1, 2, 3]


def test_rank_pvalues_breaks_ties_by_row_index():
    ds = _toy_ds([(1.2, 1.0, 1.4), (1.2, 1.0, 1.4), (1.0, 0.8, 1.2)])
    ranked = rank_pvalues(ds)
    first, second, third = ranked.derived
    assert first.p == second.p
    assert first.rank == 1
    assert second.rank == 2
    assert third.rank == 3


def test_rank_pvalues_idempotent():
    ds = _toy_ds([(1.0, 0.5, 1.5), (1.4, 1.0, 1.8), (1.1, 0.9, 1.3)])
    once = rank_pvalues(ds)
    twice = rank_pvalues(once)
    assert [d.rank for d in once.derived] == [d.rank for d in twice.derived]


def test_rank_pvalues_requires_derived():
    ds = parse_dataset("author,year,comment,ref,rr,cl_low,cl_high\nA,2000,,1,1.0,0.5,1.5\n")
    with pytest.raises(AttributeError):
        rank_pvalues(ds)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=12))
def test_rank_permutation_property(zs):
    # shared interval width, shifted estimates: p ordering follows the shifts
    rows = [(1.0 + z, 1.0, 2.0) for z in zs]
    ranked = rank_pvalues(_toy_ds(rows))
    ranks = sorted(d.rank for d in ranked.derived)
    assert ranks == list(range(1, len(zs) + 1))
    by_rank = sorted(ranked.derived, key=lambda d: d.rank)
    assert all(a.p <= b.p for a, b in zip(by_rank, by_rank[1:]))


# ------------------------------------------------------------------ pooling

def test_pool_dl_two_study_textbook_case():
    result = pool_dl([(0.0, 0.1), (1.0, 0.1)])
    assert result.k == 2
    assert result.fixed_mean == pytest.approx(0.5, abs=1e-15)
    assert result.q == pytest.approx(50.0, rel=1e-12)
    assert result.tau2 == pytest.approx(0.49, rel=1e-12)
    assert result.random_mean == pytest.approx(0.5, abs=1e-15)
    assert result.random_se == pytest.approx(0.5, rel=1e-12)
    assert result.i2 == pytest.approx(0.98, rel=1e-12)


def test_pool_dl_homogeneous_collapses_to_fixed():
    result = pool_dl([(0.3, 0.2)] * 3)
    assert result.q == 0.0
    assert result.tau2 == 0.0
    assert result.i2 == 0.0
    assert result.fixed_mean == pytest.approx(0.3, rel=1e-15)
    assert result.random_mean == result.fixed_mean
    assert result.weights_fixed == result.weights_random


def test_pool_dl_weights_sum_to_one():
    result = pool_dl([(0.1, 0.05), (-0.2, 0.3), (0.4, 0.12), (0.0, 0.9)])
    assert math.fsum(result.weights_fixed) == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(result.weights_random) == pytest.approx(1.0, abs=1e-12)
    # random-effects weights are more even than fixed-effects ones
    assert max(result.weights_random) <= max(result.weights_fixed) + 1e-15


def test_pool_dl_matches_fraction_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        k = int(rng.integers(2, 11))
        effects = [
            (round(float(rng.normal(0, 1)), 6), round(float(rng.uniform(0.02, 1.5)), 6))
            for _ in range(k)
        ]
        got = pool_dl(effects)
        want = pool_fraction(effects)
        for name in ("fixed_mean", "q", "tau2", "random_mean", "i2"):
            target = float(want[name])
            assert getattr(got, name) == pytest.approx(target, rel=1e-10, abs=1e-12), name
        assert got.random_se == pytest.approx(want["random_se"], rel=1e-10)


_TOO_SMALL = "is too small to pool (1/se^2 overflows)"
_POOL_ERRORS = [
    ([], "pooling needs at least two studies, got 0"),
    ([(0.0, 0.1)], "pooling needs at least two studies, got 1"),
    ([(0.0, 0.1), (math.nan, 0.1)], "study 1: non-finite effect or se"),
    ([(0.0, math.inf), (1.0, 0.1)], "study 0: non-finite effect or se"),
    ([(0.0, 0.1), (1.0, 0.0)], "study 1: se must be positive, got 0.0"),
    ([(0.0, 0.1), (1.0, -0.5)], "study 1: se must be positive, got -0.5"),
    # se squares to zero; se squares to a subnormal whose inverse overflows
    ([(0.0, 0.1), (1.0, 1e-200)], f"study 1: se 1e-200 {_TOO_SMALL}"),
    ([(0.0, 0.1), (1.0, 1e-160)], f"study 1: se 1e-160 {_TOO_SMALL}"),
    # each 1/se^2 is finite, their sum is not
    (
        [(0.2, 1e-154), (0.2, 1e-154), (0.2, 0.1)],
        "weighted sums overflow; cannot pool (study 0, se 1e-154, has the largest weight)",
    ),
]


def test_pool_dl_rejects_bad_input():
    for effects, message in _POOL_ERRORS:
        with pytest.raises(ValueError) as caught:
            pool_dl(effects)
        assert str(caught.value) == message


@pytest.mark.parametrize("dominant_se", [1e-6, 1e-20, 1e-60, 1e-100])
def test_pool_dl_tau2_exact_with_a_dominant_study(dominant_se):
    # One study with nearly all the weight: sum(w) - sum(w^2)/sum(w) must not
    # cancel to rounding noise (it read tau^2 = 0 here from se 1e-20 down).
    rng = np.random.default_rng(3)
    effects = [
        (round(float(rng.normal(0, 0.3)), 6), round(float(rng.uniform(0.05, 0.5)), 6))
        for _ in range(12)
    ]
    effects[0] = (0.1, dominant_se)
    got = pool_dl(effects)
    want = pool_fraction(effects)
    assert want["tau2"] > 0
    for name in ("tau2", "random_mean", "random_se"):
        assert getattr(got, name) == pytest.approx(float(want[name]), rel=1e-12), name


def test_pool_dl_tau2_survives_squared_weight_overflow():
    # At se 1e-100, w^2 = 1/se^4 overflows; tau^2 must not depend on it.
    tiny = pool_dl([(0.1, 1e-100), (0.2, 1e-100), (0.0, 0.1)])
    small = pool_dl([(0.1, 1e-60), (0.2, 1e-60), (0.0, 0.1)])
    assert small.tau2 > 0
    for name in ("tau2", "random_mean", "random_se"):
        assert getattr(tiny, name) == pytest.approx(getattr(small, name), rel=1e-12), name


def _assert_exact_at_the_clamp(effects):
    # tau^2 and I^2 are the exact DL values correctly rounded
    got = pool_dl(effects)
    want = pool_fraction(effects)
    assert (got.tau2, got.i2) == (float(want["tau2"]), float(want["i2"])), effects
    for name in ("random_mean", "random_se"):
        assert abs(getattr(got, name) - float(want[name])) <= 1e-12 * abs(float(want[name])), name
    return want


def _scaled_to_the_clamp(effects):
    # each effect moved about the fixed mean so that Q = k-1 to rounding
    full = pool_dl(effects)
    scale = math.sqrt((len(effects) - 1) / full.q)
    return [(full.fixed_mean + scale * (y - full.fixed_mean), se) for y, se in effects]


def test_pool_dl_tau2_exact_at_the_clamp():
    want = _assert_exact_at_the_clamp(AT_CLAMP)
    assert float(want["q"]) - 10 == pytest.approx(1.73e-15, rel=0.01)
    influence = loo_influence(AT_CLAMP)[0]
    assert influence == pytest.approx(loo_mp(AT_CLAMP, [0])[0], rel=1e-12)
    # A seeded batch with the dominant study anywhere. The other se are whole
    # 64ths, which keeps the oracle's denominators small enough to be quick.
    rng = random.Random(30)
    for _ in range(100):
        k = rng.randint(3, 40)
        effects = [(rng.gauss(0.0, 1.0), rng.randint(13, 64) / 64) for _ in range(k)]
        effects[rng.randrange(k)] = (rng.gauss(0.0, 1.0), 10.0 ** -rng.uniform(3.0, 152.0))
        _assert_exact_at_the_clamp(_scaled_to_the_clamp(effects))


def _clamp_set(k, dominant_se):
    rng = np.random.default_rng(k)
    effects = [(float(rng.normal(0, 1)), float(rng.uniform(0.2, 1.0))) for _ in range(k)]
    effects[0] = (effects[0][0], dominant_se)
    return _scaled_to_the_clamp(effects)


@pytest.mark.parametrize("dominant_se", [1e-3, 1e-5, 1e-8, 1e-152])
@pytest.mark.parametrize("k", [3, 11, 40])
def test_pool_dl_tau2_exact_when_q_is_scaled_to_the_clamp(k, dominant_se):
    want = _assert_exact_at_the_clamp(_clamp_set(k, dominant_se))
    assert abs(float(want["q"]) / (k - 1) - 1) < 1e-14


def test_pool_dl_at_the_clamp_ignores_the_callers_decimal_context():
    sets = [AT_CLAMP, _clamp_set(11, 1e-152)]
    want = [pool_dl(effects) for effects in sets]
    # Context() copies each field it is not given from DefaultContext
    default, current = decimal.DefaultContext, decimal.getcontext()
    saved = default.copy()
    try:
        default.prec, default.rounding, default.Emin, default.Emax = 5, decimal.ROUND_FLOOR, -50, 50
        default.traps[decimal.Inexact] = True
        decimal.setcontext(decimal.Context())
        got = [pool_dl(effects) for effects in sets]
    finally:
        default.prec, default.rounding = saved.prec, saved.rounding
        default.Emin, default.Emax = saved.Emin, saved.Emax
        default.traps[decimal.Inexact] = saved.traps[decimal.Inexact]
        decimal.setcontext(current)
    assert got == want


def _spy(patch: pytest.MonkeyPatch, name: str) -> list[tuple[tuple, object]]:
    """Patch ``stats_module.<name>`` to record each call's (args, result)."""
    calls = []
    real = getattr(stats_module, name)

    def spy(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    patch.setattr(stats_module, name, spy)
    return calls


def test_pool_dl_takes_decimal_sums_only_near_the_clamp(monkeypatch, soy):
    calls = _spy(monkeypatch, "_tau2_at_clamp")
    pool_dl(effects_from_dataset(soy))
    # at the clamp but with even weights, Q's rounding moves no weight
    half = math.sqrt(0.5)
    assert pool_dl([(1.0, 1.0), (-1.0, 1.0), (half, 1.0), (-half, 1.0)]).q == 3.0
    assert calls == []
    pool_dl(AT_CLAMP)
    assert [len(args[0]) for args, _ in calls] == [11]


def test_effects_from_dataset_scales():
    # the effects come out on the scale the dataset was derived on
    ds = parse_dataset("author,year,comment,ref,rr,cl_low,cl_high\nA,2000,,1,1.2,1.0,1.4\n")
    (effect, se), = effects_from_dataset(derive_dataset(ds))
    assert effect == pytest.approx(0.2, rel=1e-12)
    assert se == pytest.approx(0.4 / 3.92, rel=1e-12)
    (effect_log, se_log), = effects_from_dataset(derive_dataset(ds, scale="log"))
    assert effect_log == pytest.approx(math.log(1.2), rel=1e-12)
    assert se_log == pytest.approx(math.log(1.4) / 3.92, rel=1e-12)


# ---------------------------------------------------------------- influence

def test_loo_influence_needs_three():
    for effects in ([], [(0.0, 0.1), (math.nan, 0.1)]):
        with pytest.raises(ValueError) as caught:
            loo_influence(effects)
        assert str(caught.value) == f"influence needs at least three studies, got {len(effects)}"


# Without study 0 every weight underflows to zero; the subset's heaviest
# study is named by its input row.
_VAST_SE = (4e200 - 0.5) / 3.92


@pytest.mark.parametrize(
    "effects, message",
    [
        ([(0.0, 0.1), (0.1, 0.1), (math.nan, 0.1)], "study 2: non-finite effect or se"),
        ([(0.0, 0.1), (0.1, -1.0), (0.2, 0.1)], "study 1: se must be positive, got -1.0"),
        ([(0.0, 0.1), (0.1, 0.1), (0.2, 1e-160)], f"study 2: se 1e-160 {_TOO_SMALL}"),
        (
            [(0.2, 0.1), (0.2, 1e-154), (0.2, 1e-154)],
            "weighted sums overflow; cannot pool (study 1, se 1e-154, has the largest weight)",
        ),
        (
            [(0.1, 0.4 / 3.92)] + [(0.0, _VAST_SE)] * 3,
            "weighted sums overflow without study 0; cannot pool"
            f" (study 1, se {_VAST_SE!r}, has the largest weight)",
        ),
    ],
)
def test_loo_influence_error_messages(effects, message):
    with pytest.raises(ValueError) as caught:
        loo_influence(effects)
    assert str(caught.value) == message


def test_loo_influence_symmetric_studies_equal():
    values = loo_influence([(0.2, 0.1), (0.2, 0.1), (0.2, 0.1)])
    assert values == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_loo_influence_outlier_dominates():
    effects = [(0.0, 0.1)] * 6 + [(2.0, 0.1)]
    values = loo_influence(effects)
    assert int(np.argmax(values)) == 6
    assert values[6] > 3 * max(values[:6])


def test_loo_influence_matches_direct_recomputation():
    effects = [(0.12, 0.06), (-0.05, 0.11), (0.33, 0.09), (0.02, 0.2), (0.18, 0.07)]
    assert loo_influence(effects) == pytest.approx(loo_per_subset(effects), rel=1e-12)


_LOO_KINDS = ("spread", "homogeneous", "clamp", "dominant", "overwhelming", "quiet", "repeated")


@st.composite
def _loo_sets(draw, kinds=_LOO_KINDS):
    """(effect, se) sets with se in [e^-6, e] and effects in [-1, 1].

    Beside plain heterogeneous sets: homogeneous sets (Q < k-1, so tau^2 is
    zero), sets scaled so Q sits within half a unit of k-1 (subsets' tau^2
    at the clamp), one narrow study dominating the weight, one study with
    nearly all of it (se 1e-3 down to 1e-100, the others at least e^-3), and
    sets drawn with replacement from a few (effect, se) pairs, and quiet
    sets: homogeneous, with a study carrying nearly all the weight and Q at
    most 0.9 (k-2), so tau^2 is 0 for the set and every subset. Quiet sets
    keep clear of the clamp, where a dominant study makes DL ill-conditioned:
    a rounding of Q moves tau^2 by about 2^-52 Q over the other studies'
    weight, and that study's weight with it.

    Edge sets sit there on purpose: one study carries nearly all the weight
    (se 1e-3 down to 1e-8, the others at least e^-3) and Q is scaled to k-1,
    so tau^2 is within rounding of the clamp.

    Tied sets draw each se from at most three values, with effects as plain
    sets'.

    Tiered sets have two or three dominant studies, each with se 10^-U(1, 10),
    at rows spread over the set; the others have se at least e^-3. Their
    effects are spread as plain sets', or scaled as homogeneous or clamp sets'
    are. Downdating one dominant study then cancels against the others.
    """
    k = draw(st.integers(min_value=3, max_value=30))
    kind = draw(st.sampled_from(kinds))
    log_se = st.floats(min_value=-6.0, max_value=1.0)
    effect = st.floats(min_value=-1.0, max_value=1.0)
    if kind == "repeated":
        pool = draw(st.lists(st.tuples(effect, log_se), min_size=1, max_size=3))
        picks = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
        return [(y, math.exp(t)) for y, t in picks]
    ses = [math.exp(t) for t in draw(st.lists(log_se, min_size=k, max_size=k))]
    ys = draw(st.lists(effect, min_size=k, max_size=k))
    if kind == "dominant":
        ses = [math.exp(-6.0)] + [max(se, math.exp(-1.0)) for se in ses[1:]]
    elif kind in ("overwhelming", "quiet", "edge"):
        exponent = draw(st.floats(min_value=3.0, max_value=8.0 if kind == "edge" else 100.0))
        ses = [10.0 ** -exponent] + [max(se, math.exp(-3.0)) for se in ses[1:]]
    elif kind == "tied":
        few = draw(st.integers(min_value=1, max_value=3))
        ses = [ses[i % few] for i in range(k)]
    elif kind == "tiered":
        ses = [max(se, math.exp(-3.0)) for se in ses]
        heavy = draw(st.integers(min_value=2, max_value=min(3, k - 1)))
        for n in range(heavy):
            ses[n * k // heavy] = 10.0 ** -draw(st.floats(min_value=1.0, max_value=10.0))
        kind = draw(st.sampled_from(("spread", "homogeneous", "clamp")))
    if kind in ("homogeneous", "clamp", "quiet", "edge"):
        centre = ys[0]
        shifts = draw(
            st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=k, max_size=k)
        )
        spread = [z * se for z, se in zip(shifts, ses)]
        q = pool_dl(list(zip(spread, ses))).q
        if q > 1e-3:
            if kind == "clamp":
                target = draw(st.floats(min_value=k - 1.5, max_value=k - 0.5))
            elif kind == "edge":
                target = k - 1
            else:
                share = draw(st.floats(min_value=0.0, max_value=0.9))
                target = share * (k - 1 if kind == "homogeneous" else k - 2)
            scale = math.sqrt(target / q)
            ys = [centre + scale * d for d in spread]
        else:
            ys = [centre] * k
    return list(zip(ys, ses))


def _mean_is_mostly_rounding(full):
    """tau^2 is 0 and a rounding unit of the pooled mean exceeds 2^-42 of its
    standard error: per-subset pooling then returns mostly that rounding."""
    return full.tau2 == 0.0 and abs(full.random_mean) * 2.0**-52 > 2.0**-42 * full.random_se


@settings(max_examples=200, deadline=None)
@given(_loo_sets())
@example([(0.12, 0.06), (-0.05, 0.11), (0.33, 0.09)])
@example([(0.2, 0.1), (0.25, 0.12), (0.18, 0.3)])
@example([(0.0, 0.1)] * 6 + [(2.0, 0.1)])
@example([(0.3, 1e-8), (0.1, 1.0), (-0.4, 0.7), (0.5, 1.2), (0.2, 0.9)])
# tau^2 = 0, but leaving out the last study gives Q = 2.1 > k-2: tau^2 > 0
@example([(0.3, 1e-8), (0.3 + 1.2**0.5, 1.0), (0.3 - 0.9**0.5, 1.0), (0.3 + 0.1**0.5, 0.5)])
# two equal dominant weights: leaving out either clamps tau^2 to 0, a step
# the series cannot take, so both go to direct pooling
@example([(0.1, 1e-3), (0.3, 1e-3), (0.5, 1.0), (-0.2, 1.0), (0.9, 2.0)])
# study 0 is left out near the clamp: Q's downdate rounds on the scale of Q and
# the fixed mean, far above q_i, so study 0's tau^2 noise is judged on that scale
@example([(-0.75, 1e-8), (0.5, 0.07), (-0.4, 0.12), (0.2, 0.26), (-0.5, 0.07),
          (-0.4, 0.11), (0.35, 0.17), (-0.35, 0.06), (-0.1, 0.08)])
# leaving out study 1 leaves weights 1e-10 beside study 0's 1e300: the others'
# sum rounds to 0 and so does the denominator, so that subset is pooled directly
@example([(0.0, 1e-150), (0.5, 1e-5), (0.1, 1e5), (0.2, 1e5)])
def test_loo_influence_matches_per_subset_pooling(effects):
    # Per-subset pooling is the oracle except where it returns rounding;
    # there, exact DL arithmetic is, with no absolute slack.
    got = loo_influence(effects)
    if _mean_is_mostly_rounding(pool_dl(effects)):
        want, slack = loo_mp(effects), 0.0
    else:
        want, slack = loo_per_subset(effects), 1e-12
    for i, (g, w) in enumerate(zip(got, want, strict=True)):
        assert abs(g - w) <= 1e-10 * abs(w) + slack, (i, g, w)


@settings(max_examples=100, deadline=None)
@given(_loo_sets(kinds=("edge",)))
@example(AT_CLAMP)
# the set and its subset without study 9 are both at their clamp
@example([(1.0, 1e-5)] + [(1.0, 1.0)] * 8 + [(2.00000000035, 1.0), (4.00000000015, 1.0)])
def test_loo_influence_exact_at_the_clamp_with_a_dominant_study(effects):
    # Per-subset pooling returns mostly the rounding of the mean here, and
    # the clamp decides study 0's weight; exact DL arithmetic is the oracle.
    # An influence is a difference of O(1) sums, so it keeps an absolute
    # rounding of about 1e-15 standard errors however small it is.
    got = loo_influence(effects)
    want = loo_mp(effects)
    for i, (g, w) in enumerate(zip(got, want)):
        assert abs(g - w) <= 1e-10 * abs(w) + 2e-15, (i, g, w)


@settings(max_examples=100, deadline=None)
@given(_loo_sets(kinds=("tiered",)))
def test_loo_influence_exact_with_two_or_three_dominant_studies(effects):
    got = loo_influence(effects)
    want = loo_mp(effects)
    for i, (g, w) in enumerate(zip(got, want)):
        assert abs(g - w) <= 1e-10 * abs(w) + 2e-15, (i, g, w)


def test_downdated_tau2_stays_within_its_noise_budget(monkeypatch):
    # Study 1 carries all but about 1e-9 of the weight outside study 0, the
    # heaviest, so leaving it out cancels about 30 bits of the subset's
    # denominator. Every tau^2 the downdate returns is within 2^-40 of the
    # subset's heaviest random variance of the exact value. Study 0's subset
    # is pooled directly, with no downdate.
    effects = [(0.0, 1e-7), (0.0, 1e-4), (-3.0, 2.9)]
    calls = _spy(monkeypatch, "_downdated_tau2")
    loo_influence(effects)
    assert len(calls) == 2
    for i, (_, tau2) in zip((1, 2), calls):
        subset = effects[:i] + effects[i + 1 :]
        exact = pool_fraction(subset)["tau2"]
        budget = 2.0**-40 * (min(Fraction(se) ** 2 for _, se in subset) + exact)
        assert tau2 is None or abs(Fraction(tau2) - exact) <= budget, (i, tau2, exact)


@settings(max_examples=100, deadline=None)
@given(_loo_sets(kinds=_LOO_KINDS + ("edge", "tiered")))
def test_heaviest_studys_subset_is_pooled_directly(effects):
    # The downdate's error budget does not hold for the heaviest study: its
    # y_t - f can be below the rounding of the fixed mean, which q_scale
    # counts only to first order. So its subset is pooled in every call.
    with pytest.MonkeyPatch.context() as patch:
        calls = _spy(patch, "_pool")
        loo_influence(effects)
    # ties in weight go to the larger effect, then the larger se
    weight = [1.0 / (se * se) for _, se in effects]
    top = max(range(len(effects)), key=lambda j: (weight[j], effects[j]))
    assert effects[:top] + effects[top + 1 :] in [pairs for (pairs,), _ in calls]


@settings(max_examples=200, deadline=None)
@given(
    _loo_sets(kinds=("repeated", "tied", "clamp", "edge")).flatmap(
        lambda effects: st.tuples(st.just(effects), st.permutations(range(len(effects))))
    )
)
# the two heaviest weights and their effects are equal, but not their se
@example(([(0.3, 0.11699062008046185), (0.3, 0.11699062008046186), (0.38, 2.0),
           (-0.68, 0.67), (0.97, 1.35)], [4, 3, 2, 1, 0]))
def test_row_order_moves_no_pooled_or_leave_one_out_value(case):
    # Reordering the studies reorders the weights and the influences, bit for
    # bit, and leaves every other pooled value as it was: the centre is the
    # heaviest study, tied weights going to the larger effect, then se.
    effects, order = case
    moved = [effects[j] for j in order]
    full = pool_dl(effects)
    want = full._replace(weights_fixed=tuple(full.weights_fixed[j] for j in order),
                         weights_random=tuple(full.weights_random[j] for j in order))
    assert repr(pool_dl(moved)) == repr(want)
    influence = loo_influence(effects)
    assert repr(loo_influence(moved)) == repr([influence[j] for j in order])


def test_loo_influence_series_ratio_trades_passes_for_terms(monkeypatch):
    # _MAX_SERIES_RATIO trades pooling passes for series terms: beside the
    # full set's pass and the heaviest study's, at the shipped 1/2 one study
    # of this set leaves the series for an O(k) pooling pass of its own; at
    # 0.1 eight do. Near 1 a series would need hundreds of terms.
    rng = random.Random(4)
    effects = [(rng.gauss(0.0, 0.3), rng.uniform(0.05, 0.5)) for _ in range(30)]
    calls = _spy(monkeypatch, "_pool")
    loo_influence(effects)
    assert [len(pairs) for (pairs,), _ in calls] == [30, 29, 29]
    calls.clear()
    monkeypatch.setattr(stats_module, "_MAX_SERIES_RATIO", 0.1)
    loo_influence(effects)
    assert [len(pairs) for (pairs,), _ in calls] == [30] + [29] * 9


def _dominated_set(dominant_se, homogeneous=False):
    """1500 studies, se uniform on 0.05-0.5, study 0's se replaced.

    Effects are spread with sd 0.3 (tau^2 > 0), or, when ``homogeneous``,
    0.3 plus half of each study's se times a standard normal (Q about k/4,
    so tau^2 is 0 for the set and every subset).
    """
    rng = np.random.default_rng(11)
    ses = rng.uniform(0.05, 0.5, 1500)
    ys = rng.normal(0.0, 0.3, 1500)
    if homogeneous:
        ys = 0.3 + 0.5 * ses * rng.standard_normal(1500)
    if dominant_se is not None:
        ses[0] = dominant_se
    return [(float(y), float(s)) for y, s in zip(ys, ses)]


@pytest.mark.parametrize(
    "dominant_se, homogeneous",
    [(None, False), (1e-60, False), (1e-100, False), (1e-60, True)],
    ids=["None", "1e-60", "1e-100", "homogeneous-1e-60"],
)
def test_loo_influence_stays_linear_with_a_dominant_study(monkeypatch, dominant_se, homogeneous):
    # Counts pooling passes, not time: the full set, plus the heaviest study's
    # subset pooled directly. Every other study is downdated.
    effects = _dominated_set(dominant_se, homogeneous)
    calls = _spy(monkeypatch, "_pool")
    values = loo_influence(effects)
    assert [len(pairs) for (pairs,), _ in calls] == [1500, 1499]
    rows = (0, 1, 2, 777, 1499)
    rounding = _mean_is_mostly_rounding(pool_dl(effects))
    assert homogeneous or not rounding
    if rounding:
        want, slack = loo_mp(effects, rows), 0.0
    else:
        want, slack = loo_per_subset(effects, rows), 1e-12
    for i, w in zip(rows, want):
        assert abs(values[i] - w) <= 1e-10 * w + slack, (i, values[i], w)


def _near_clamp_set(se_top, factor):
    """1200 studies near the tau^2 clamp, then one far more precise study.

    se is 0.025 * 14**U(0, 1) and each effect N(0, se^2), drawn from
    ``random.Random(1)``. The deviations from the fixed mean are scaled so
    that Q = factor (k-1) with k = 1201, and the last row is a study at the
    fixed mean with se ``se_top``: a homogeneous-looking literature.
    """
    rng = random.Random(1)
    effects = []
    for _ in range(1200):
        se = 0.025 * 14.0 ** rng.random()
        effects.append((rng.gauss(0.0, se), se))
    full = pool_dl(effects)
    scale = math.sqrt(factor * 1200 / full.q)
    fixed = full.fixed_mean
    return [(fixed + scale * (y - fixed), se) for y, se in effects] + [(fixed, se_top)]


@pytest.mark.parametrize(
    "se_top, factor",
    [(0.002, 1.0001), (0.002, 1.002), (0.002, 1.006), (1e-60, 1.002), (1e-60, 1.006)],
)
def test_loo_influence_pools_no_subset_for_the_full_sets_clamp(monkeypatch, se_top, factor):
    # The full set's tau^2 needs decimal sums below Q = 1.006 (k-1). The
    # downdate reads that decimal excess from the pooling pass, so no subset
    # fails the budget for the full set's rounding alone. (A subset still
    # leaves the series where it moves tau^2 by half of itself: once
    # se_t^2 << tau^2, as at se 1e-60, that is most of them near the clamp.)
    effects = _near_clamp_set(se_top, factor)
    pools = _spy(monkeypatch, "_pool")
    downdates = _spy(monkeypatch, "_downdated_tau2")
    decimal_sums = _spy(monkeypatch, "_tau2_at_clamp")
    values = loo_influence(effects)
    if factor < 1.005:
        assert 1201 in [len(pairs) for (pairs, _), _ in decimal_sums]
        assert sum(tau2 is None for _, tau2 in downdates) <= 1
    if (se_top, factor) == (0.002, 1.0001):
        assert [len(pairs) for (pairs,), _ in pools] == [1201, 1200]
    rows = (0, 1, 600, 1200)
    for i, w in zip(rows, loo_mp(effects, rows)):
        bound = 2e-12 * w if w > 1e-3 else 1e-10 * w + 2e-15
        assert abs(values[i] - w) <= bound, (i, values[i], w)
