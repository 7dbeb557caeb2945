from __future__ import annotations

import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov

from pvaudit import (
    Dataset,
    DerivedDataset,
    DerivedStats,
    SimConfig,
    StudyRecord,
    classify_pvalues,
    classify_shape,
    derive_dataset,
    expectation_plot,
    flag_outliers,
    generate_literature,
    greenwald_censor_rate,
    ks_uniform,
    pvalue_plot,
    smallest_p_marker,
    volcano_plot,
)
from pvaudit.diagnostics import (
    VERDICTS,
    _centred,
    _kolmogorov_sf,
    _line_fit,
    _two_segment_fit,
)
from pvaudit.stats import _ranks


def _ds_from_ps(ps: list[float], rrs: list[float] | None = None) -> DerivedDataset:
    """Dataset with handcrafted derived p-values (records are placeholders)."""
    rrs = rrs if rrs is not None else [1.0] * len(ps)
    records = tuple(
        StudyRecord(author=f"S{i}", year=2000, ref_id=i, rr=rr, cl_low=rr / 2, cl_high=rr * 2)
        for i, rr in enumerate(rrs)
    )
    derived = tuple(
        DerivedStats(se=0.1, z=0.0, p=p, rank=rank) for p, rank in zip(ps, _ranks(ps))
    )
    return DerivedDataset(records, derived=derived, scale="linear", critical_value=1.96)


# -------------------------------------------------------------- plot series

def test_pvalue_plot_ranks_and_sorting():
    ds = _ds_from_ps([0.9, 0.1, 0.5])
    series = pvalue_plot(ds)
    assert series.kind == "pvalue_rank"
    assert series.n == 3
    assert [x for x, _ in series.points] == [1.0, 2.0, 3.0]
    assert [y for _, y in series.points] == [0.1, 0.5, 0.9]
    assert series.reference_lines == ()


def test_expectation_plot_hand_computed():
    ds = _ds_from_ps([0.5, 0.02, 0.2])
    series = expectation_plot(ds)
    assert series.kind == "expectation"
    xs = [x for x, _ in series.points]
    ys = [y for _, y in series.points]
    assert xs == pytest.approx([-math.log10(i / 4.0) for i in (1, 2, 3)])
    assert ys == pytest.approx([-math.log10(p) for p in (0.02, 0.2, 0.5)])
    kinds = [r.kind for r in series.reference_lines]
    assert kinds == ["expected_order", "smallest_p_marker"]
    assert series.reference_lines[0].parameters == (1.0, 0.0)
    assert series.reference_lines[1].parameters[0] == pytest.approx(math.log10(4.0))


def test_smallest_p_marker_values():
    assert smallest_p_marker(50) == pytest.approx(math.log10(51.0), abs=1e-15)
    assert smallest_p_marker(43) == pytest.approx(math.log10(44.0), abs=1e-15)
    with pytest.raises(ValueError):
        smallest_p_marker(0)


def test_volcano_plot_row_order_and_exclusion():
    ds = _ds_from_ps([0.5, 0.001, 0.2, 0.9, 0.04], rrs=[1.1, 0.8, 1.3, 1.0, 0.9])
    full = volcano_plot(ds)
    assert full.kind == "volcano"
    assert full.n == 5
    assert [x for x, _ in full.points] == [1.1, 0.8, 1.3, 1.0, 0.9]
    assert full.points[1][1] == pytest.approx(3.0)
    assert full.reference_lines[0].parameters[0] == pytest.approx(math.log10(6.0))

    reduced = volcano_plot(ds, exclude=(1, 3))
    assert reduced.n == 3
    assert [x for x, _ in reduced.points] == [1.1, 1.3, 0.9]
    assert reduced.reference_lines[0].parameters[0] == pytest.approx(math.log10(4.0))


def test_volcano_plot_rejects_bad_exclusions():
    ds = _ds_from_ps([0.5, 0.2])
    with pytest.raises(ValueError):
        volcano_plot(ds, exclude=(5,))
    with pytest.raises(ValueError):
        volcano_plot(ds, exclude=(0, 1))


# ------------------------------------------------------------------ KS test

def test_ks_uniform_grid_statistic_exact():
    n = 20
    u = [i / (n + 1.0) for i in range(1, n + 1)]
    d, p = ks_uniform(u)
    assert d == pytest.approx(1.0 / 21.0, rel=1e-12)
    assert p > 0.999


def test_ks_uniform_detects_clumped_values():
    d, p = ks_uniform([0.01, 0.011, 0.012, 0.013, 0.014, 0.015, 0.016, 0.017])
    assert d > 0.9
    assert p < 1e-4


def test_ks_uniform_accepts_p_equal_one():
    d, p = ks_uniform([0.2, 0.4, 0.6, 0.8, 1.0])
    assert 0.0 < d < 1.0


def test_ks_uniform_domain_errors():
    with pytest.raises(ValueError):
        ks_uniform([0.1, 0.2, 0.3, 0.4])  # too few
    with pytest.raises(ValueError):
        ks_uniform([0.0, 0.2, 0.3, 0.4, 0.5])  # zero excluded
    with pytest.raises(ValueError):
        ks_uniform([0.1, 0.2, 0.3, 0.4, 1.5])  # above one


def _ks_tail_series(lam: float, terms: int = 100) -> float:
    """Independent asymptotic Kolmogorov tail: 2*sum (-1)^(k-1) exp(-2 k^2 lam^2)."""
    if lam <= 0:
        return 1.0
    total = 0.0
    for k in range(1, terms + 1):
        total += (-1) ** (k - 1) * math.exp(-2.0 * (k * lam) ** 2)
    return min(1.0, max(0.0, 2.0 * total))


def test_ks_uniform_tail_matches_series_oracle():
    rng = np.random.default_rng(7)
    for n in (5, 12, 40, 200):
        u = rng.uniform(size=n)
        d, p = ks_uniform(u)
        lam = math.sqrt(n) * d
        assert p == pytest.approx(_ks_tail_series(lam), rel=1e-9, abs=1e-12)


def test_kolmogorov_sf_matches_scipy_on_dense_grid():
    # Both series meet at the 0.82 cutover; pack extra points around it.
    grid = np.concatenate(
        [np.linspace(8.5 / 40000, 8.5, 40000), np.linspace(0.80, 0.84, 4001)]
    )
    worst = 0.0
    for x in grid:
        ref = float(kolmogorov(x))
        if ref > 1e-300:
            worst = max(worst, abs(_kolmogorov_sf(float(x)) - ref) / ref)
    assert worst <= 1e-13
    assert _kolmogorov_sf(0.0) == 1.0
    assert _kolmogorov_sf(1e-3) == 1.0
    assert _kolmogorov_sf(40.0) == 0.0


# ------------------------------------------- line and two-segment fit oracle

def _lstsq_line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Reference least-squares line y ~ a + b x; returns (intercept, slope, sse)."""
    design = np.column_stack([np.ones_like(x), x])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(coef[0]), float(coef[1]), float(resid @ resid)


def _lstsq_hinge(x: np.ndarray, y: np.ndarray, b: int) -> tuple[float, float, float]:
    """Reference continuous hinge fit joined at rank b; (left, right, sse)."""
    xb = x[b - 1]
    design = np.column_stack(
        [np.ones_like(x), np.minimum(x - xb, 0.0), np.maximum(x - xb, 0.0)]
    )
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(coef[1]), float(coef[2]), float(resid @ resid)


def _lstsq_two_segment_fit(x: np.ndarray, y: np.ndarray) -> tuple[int, float, float, float]:
    """Reference search: one lstsq per candidate rank 2..n-2, earliest wins ties."""
    best: tuple[int, float, float, float] | None = None
    for b in range(2, x.size - 1):
        left, right, sse = _lstsq_hinge(x, y, b)
        if best is None or sse < best[3]:
            best = (b, left, right, sse)
    assert best is not None
    return best


def _close(a: float, b: float, rel: float = 1e-12, abs_: float = 1e-15) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


@st.composite
def _sorted_pvalue_sets(draw) -> list[float]:
    """Sorted p-value sets as published tables produce them: some rounded to
    a few decimals (so values tie), some with a block of near-zero values."""
    n = draw(st.integers(min_value=5, max_value=400))
    tiny = draw(st.integers(min_value=0, max_value=n // 2))
    body = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0),
            min_size=n - tiny,
            max_size=n - tiny,
        )
    )
    digits = draw(st.sampled_from((None, 1, 2, 3)))
    if digits is not None:
        floor = 10.0 ** -digits
        body = [max(round(p, digits), floor) for p in body]
    block = draw(
        st.lists(
            st.floats(min_value=5e-324, max_value=1e-12),
            min_size=tiny,
            max_size=tiny,
        )
    )
    return sorted(body + block)


@settings(max_examples=150, deadline=None)
@given(_sorted_pvalue_sets())
def test_closed_form_fits_match_lstsq_oracle(ps):
    n = len(ps)
    x = np.arange(1, n + 1, dtype=float) / (n + 1.0)
    y = np.asarray(ps)
    _, slope_ref, sse1_ref = _lstsq_line_fit(x, y)
    b_ref, _, _, sse2_ref = _lstsq_two_segment_fit(x, y)

    b, _, _, sse2 = _two_segment_fit(_centred(ps))
    if b != b_ref:
        # A different rank is only acceptable where the oracle itself cannot
        # order the two: its own SSEs there agree to the tolerance.
        assert _close(_lstsq_hinge(x, y, b)[2], sse2_ref), (b, b_ref)
    assert _close(sse2, sse2_ref)

    verdict = classify_pvalues(ps)
    sse2_ref = min(sse2_ref, sse1_ref)
    bic_ref = n * math.log(max(sse1_ref, 1e-300) / max(sse2_ref, 1e-300)) - 2.0 * math.log(n)
    assert _close(verdict.slope_single, slope_ref)
    assert _close(verdict.sse_single, sse1_ref)
    assert _close(verdict.sse_two_segment, sse2_ref)
    if sse2_ref > 1e-15:
        # n*log(SSE1/SSE2) moves by n times the SSEs' relative error.
        assert _close(verdict.bic_delta, bic_ref, abs_=2e-12 * n)


def test_two_segment_fit_recovers_exact_hinge():
    n = 40
    ps = [0.001 * i if i <= 12 else 0.012 + 0.03 * (i - 12) for i in range(1, n + 1)]
    b, left, right, sse = _two_segment_fit(_centred(ps))
    assert b == 12
    assert left == pytest.approx(0.001 * (n + 1), rel=1e-12)
    assert right == pytest.approx(0.03 * (n + 1), rel=1e-12)
    assert sse == pytest.approx(0.0, abs=1e-28)
    assert _line_fit(_centred(ps))[1] > 0.01


def test_two_segment_fit_earliest_rank_wins_ties():
    # equal values fit every breakpoint with SSE exactly zero
    for n in (5, 12, 40):
        assert _two_segment_fit(_centred([0.25] * n)) == (2, 0.0, 0.0, 0.0)


def _mp_sse(columns: list[list], y: list) -> mp.mpf:
    """Least-squares SSE of y on the given columns, from the normal equations."""
    gram = mp.matrix(
        [[mp.fsum(a * b for a, b in zip(c1, c2)) for c2 in columns] for c1 in columns]
    )
    rhs = mp.matrix([mp.fsum(a * b for a, b in zip(c, y)) for c in columns])
    coef = mp.lu_solve(gram, rhs)
    return mp.fsum(
        (v - mp.fsum(coef[j] * columns[j][i] for j in range(len(columns)))) ** 2
        for i, v in enumerate(y)
    )


def test_fits_match_mpmath_on_bundled_pvalues(soy):
    ps = sorted(soy.pvalues)
    n = len(ps)
    with mp.workdps(60):
        x = [mp.mpf(i) / (n + 1) for i in range(1, n + 1)]
        y = [mp.mpf(p) for p in ps]
        ones = [mp.mpf(1)] * n
        sse1_ref = _mp_sse([ones, x], y)
        b_ref, sse2_ref = None, None
        for b in range(2, n - 1):
            xb = x[b - 1]
            sse = _mp_sse(
                [ones, [min(v - xb, 0) for v in x], [max(v - xb, 0) for v in x]], y
            )
            if sse2_ref is None or sse < sse2_ref:
                b_ref, sse2_ref = b, sse
        b, _, _, sse2 = _two_segment_fit(_centred(ps))
        _, sse1 = _line_fit(_centred(ps))
        assert b == b_ref
        assert abs(sse1 - sse1_ref) <= 1e-12 * sse1_ref
        assert abs(sse2 - sse2_ref) <= 1e-12 * sse2_ref
        verdict = classify_pvalues(ps)
        assert verdict.breakpoint == b_ref
        assert verdict.sse_single == sse1
        assert verdict.sse_two_segment == sse2


# ----------------------------------------------------------- classification

def test_classify_uniform_grid_is_uniform_null():
    n = 50
    ps = [i / (n + 1.0) for i in range(1, n + 1)]
    verdict = classify_pvalues(ps)
    assert verdict.verdict == "uniform_null"
    assert verdict.slope_single == pytest.approx(1.0, abs=1e-9)
    assert verdict.breakpoint is None
    assert verdict.sse_single == pytest.approx(0.0, abs=1e-12)
    assert verdict.ks_pvalue > 0.99


def test_classify_saturated_effects_is_significant():
    ps = list(np.linspace(1e-6, 0.04, 50))
    verdict = classify_pvalues(ps)
    assert verdict.verdict == "significant_effect"
    assert verdict.breakpoint is None


def test_classify_synthetic_mixture_is_bilinear():
    left = list(np.linspace(1e-5, 0.01, 20))
    right = list(np.linspace(0.1, 0.95, 30))
    verdict = classify_pvalues(left + right)
    assert verdict.verdict == "bilinear_mixture"
    assert verdict.breakpoint is not None
    assert 15 <= verdict.breakpoint <= 25
    assert verdict.bic_delta > 10.0
    assert verdict.sse_two_segment < verdict.sse_single


def test_classify_small_sets_are_indeterminate():
    ps = [i / 10.0 for i in range(1, 10)]  # n = 9, perfectly uniform
    verdict = classify_pvalues(ps)
    assert verdict.verdict == "indeterminate"
    assert verdict.breakpoint is None


def test_classify_single_value():
    verdict = classify_pvalues([0.5])
    assert verdict.verdict == "indeterminate"
    assert verdict.slope_single == 0.0
    assert verdict.sse_single == 0.0
    assert verdict.ks_pvalue == 1.0


# Below five points no two-segment fit, BIC delta or KS test runs:
# sse_two_segment repeats sse_single and the rest keep their defaults.
_SMALL_N_VERDICTS = [
    ("indeterminate", 0.0, None, 0.0, 0.0, 0.0, 0.0, 1.0),
    ("indeterminate", 0.0, None, 0.0, 0.0, 0.0, 0.0, 1.0),
    ("indeterminate", 1.0, None, 1.5407439555097887e-33, 1.5407439555097887e-33,
     0.0, 0.0, 1.0),
    ("indeterminate", 1.0, None, 0.0, 0.0, 0.0, 0.0, 1.0),
    ("indeterminate", 1.0, None, 4.622231866529366e-33, 4.622231866529366e-33,
     0.0, 0.0, 1.0),
    ("indeterminate", 1.0, None, 3.0814879110195774e-33, 7.703719777548943e-34,
     3.7125959807312525, 0.16666666666666666, 0.999066588976776),
    ("indeterminate", 1.0, None, 6.162975822039155e-33, 6.162975822039155e-33,
     -3.58351893845611, 0.1428571428571429, 0.9996983527325511),
]


@pytest.mark.parametrize("n", range(7))
def test_classify_small_n_pins_every_field(n):
    verdict = classify_pvalues([(i + 1) / (n + 1) for i in range(n)])
    assert tuple(verdict) == _SMALL_N_VERDICTS[n]


def test_classify_rejects_out_of_range():
    with pytest.raises(ValueError):
        classify_pvalues([0.5, 0.0, 0.2])
    with pytest.raises(ValueError):
        classify_pvalues([0.5, 1.2])


@pytest.mark.parametrize("bad", [math.nan, 0.0, math.nextafter(1.0, 2.0)])
@pytest.mark.parametrize("position", [0, 6, 11])
def test_classify_rejects_any_invalid_value(bad, position):
    # checked on every value, not only at the ends of the sorted list: a NaN
    # sorts anywhere
    ps = [(i + 0.5) / 12 for i in range(12)]
    ps[position] = bad
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        classify_pvalues(ps)
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        classify_pvalues(ps[::-1])


def _verdict_digest(cfg: SimConfig) -> str:
    """sha256 over every replicate's verdict fields and two-segment fit."""
    h = hashlib.sha256()
    for r in range(cfg.replicates):
        ps = generate_literature(cfg, r)
        fields = list(classify_pvalues(ps))
        if len(ps) >= 5:
            fields += _two_segment_fit(_centred(sorted(ps)))
        h.update(
            (",".join(v.hex() if isinstance(v, float) else repr(v) for v in fields) + "\n")
            .encode()
        )
    return h.hexdigest()


_MIXTURE = dict(n_studies=100, effect_fraction=0.2, noncentrality=3.0, censor_rate=0.3,
                replicates=200)


@pytest.mark.parametrize(
    "cfg, digest",
    [
        (SimConfig(**_MIXTURE, seed=0),
         "f618949c1873de9770fdc912f58ddff0c904c0dc3496a20ed483563b9243334c"),
        (SimConfig(**_MIXTURE, seed=5),
         "2bfb5051dae1cb5e87a834bfe107d8ecc905c65c04585b5261dbd83f1c5c5b94"),
        (SimConfig(n_studies=100, effect_fraction=0.2, noncentrality=3.0, hack_k=3,
                   censor_rate=greenwald_censor_rate(3), replicates=200, seed=8),
         "1c12987b5e0c77dd18df7991cfd310a1418124b7a4235e7d902113266a4285f7"),
        (SimConfig(n_studies=12, effect_fraction=0.5, noncentrality=3.0, censor_rate=0.3,
                   replicates=200, seed=21),
         "cebd031b0d8e2956915f495e28b12e26f585cb9aaca98095bf10bcb798325358"),
    ],
)
def test_classifier_pinned_on_simulated_literatures(cfg, digest):
    # Every verdict field and every chosen breakpoint (with its slopes and
    # SSE, bilinear or not), bit for bit, as the per-call hinge moments
    # and the separate KS sort produced them.
    assert _verdict_digest(cfg) == digest


def test_classify_is_permutation_invariant():
    rng = np.random.default_rng(3)
    ps = list(rng.uniform(size=30))
    a = classify_pvalues(ps)
    shuffled = list(ps)
    rng.shuffle(shuffled)
    b = classify_pvalues(shuffled)
    assert a == b


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-9, max_value=1.0, exclude_min=False),
        min_size=10,
        max_size=40,
    )
)
def test_classify_invariants_property(ps):
    verdict = classify_pvalues(ps)
    assert verdict.verdict in VERDICTS
    assert verdict.sse_two_segment <= verdict.sse_single
    assert 0.0 <= verdict.ks_pvalue <= 1.0
    assert 0.0 <= verdict.ks_statistic <= 1.0
    assert (verdict.breakpoint is not None) == (verdict.verdict == "bilinear_mixture")
    if verdict.breakpoint is not None:
        assert 2 <= verdict.breakpoint <= len(ps) - 2


def test_classify_shape_reads_dataset(soy):
    direct = classify_pvalues(soy.pvalues)
    via_ds = classify_shape(soy)
    assert direct == via_ds


# --------------------------------------------------------------- outliers

def test_flag_outliers_empty_when_nothing_qualifies():
    ds = _ds_from_ps([0.2, 0.4, 0.6, 0.8])
    report = flag_outliers(ds)
    assert report.flagged == ()
    assert report.p_threshold == 1e-3
    assert report.influence_threshold is None
    for off in (math.inf, -math.inf):
        assert flag_outliers(ds, influence_threshold=off).influence_threshold is None


def test_outlier_report_rebuilds_with_dataclasses_replace():
    # perfbench/traced.py adds high_influence flags this way
    import dataclasses

    report = flag_outliers(_ds_from_ps([0.2, 1e-5, 0.6]))
    rebuilt = dataclasses.replace(report, influence_threshold=0.05)
    assert type(rebuilt) is type(report)
    assert rebuilt == report._replace(influence_threshold=0.05)
    assert [f.name for f in dataclasses.fields(report)] == list(report._fields)


def test_flag_outliers_extreme_p():
    ds = _ds_from_ps([0.2, 1e-5, 0.6, 5e-4])
    report = flag_outliers(ds, p_threshold=1e-3)
    assert [(f.row, f.reason) for f in report.flagged] == [
        (1, "extreme_p"),
        (3, "extreme_p"),
    ]


def test_flag_outliers_threshold_zero_disables_rule():
    ds = _ds_from_ps([1e-300, 0.5])
    report = flag_outliers(ds, p_threshold=0.0)
    assert report.flagged == ()


def test_flag_outliers_threshold_domain():
    ds = _ds_from_ps([0.5, 0.6])
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            flag_outliers(ds, p_threshold=bad)
    with pytest.raises(ValueError):
        flag_outliers(ds, influence_threshold=math.nan)


def test_flag_outliers_manual_rows():
    ds = _ds_from_ps([0.2, 0.4, 0.6])
    report = flag_outliers(ds, manual=(2, 0))
    assert [(f.row, f.reason) for f in report.flagged] == [(0, "manual"), (2, "manual")]
    with pytest.raises(ValueError):
        flag_outliers(ds, manual=(7,))


def _one_influential_study() -> DerivedDataset:
    """Nine agreeing studies and one far-off, precise one (row 9, p < 1e-3)."""
    rrs = [1.0 + 0.01 * i for i in range(9)] + [3.0]
    records = tuple(
        StudyRecord(author=f"S{i}", year=2000, ref_id=i, rr=rr, cl_low=rr - 0.1, cl_high=rr + 0.1)
        for i, rr in enumerate(rrs)
    )
    return derive_dataset(Dataset(records=records))


def test_flag_outliers_reason_precedence():
    ds = _ds_from_ps([1e-6, 0.4, 0.6])
    report = flag_outliers(ds, p_threshold=1e-3, manual=(0, 1))
    reasons = {f.row: f.reason for f in report.flagged}
    assert reasons[0] == "extreme_p"  # extreme beats manual for the same row
    assert reasons[1] == "manual"

    ds = _one_influential_study()
    # high_influence beats manual
    report = flag_outliers(ds, p_threshold=0.0, influence_threshold=0.5, manual=(9, 0))
    assert [(f.row, f.reason) for f in report.flagged] == [(0, "manual"), (9, "high_influence")]
    # extreme_p beats high_influence
    report = flag_outliers(ds, p_threshold=1e-3, influence_threshold=0.5, manual=(9,))
    assert [(f.row, f.reason) for f in report.flagged] == [(9, "extreme_p")]


def test_flag_outliers_high_influence():
    report = flag_outliers(_one_influential_study(), p_threshold=0.0, influence_threshold=0.5)
    assert [(f.row, f.reason) for f in report.flagged] == [(9, "high_influence")]


def test_flag_outliers_requires_derived():
    ds = Dataset(records=(StudyRecord("A", 2000, 1, 1.0, 0.9, 1.1),))
    with pytest.raises(AttributeError):
        flag_outliers(ds)
