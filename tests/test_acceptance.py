"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion on stdout next to pytest's own pass/fail report.
"""
from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

import pytest

from pvaudit import (
    SimConfig,
    derive_dataset,
    flag_outliers,
    pool_dl,
    run_experiment,
    smallest_p_marker,
    volcano_plot,
)
from pvaudit.cli import main
from pvaudit.counting import parse_search_space_csv
from pvaudit.datasets import (
    load_soy_ldl_studies,
    soy_ldl_search_space_csv,
    soy_ldl_studies_csv,
)

from dl_oracles import pool_fraction


def _ok(line: str) -> None:
    print(f"\nACCEPTANCE {line}: PASS")


@pytest.fixture(scope="module")
def soy_ranked():
    return derive_dataset(load_soy_ldl_studies())


@pytest.fixture(scope="module")
def soy_csv_path(tmp_path_factory) -> Path:
    p = tmp_path_factory.mktemp("accept") / "soy.csv"
    p.write_text(soy_ldl_studies_csv(), encoding="utf-8")
    return p


def test_c1_study_table_reconstruction(golden_rows, soy_ranked):
    start = time.monotonic()
    assert len(golden_rows) == 50
    for i, row in enumerate(golden_rows):
        d = soy_ranked.derived[i]
        pub_se = float(row["se"])
        pub_z = float(row["z"])
        pub_p = float(row["p"])
        assert abs(d.se - pub_se) <= 0.0005, (i, d.se, pub_se)
        assert abs(d.z - pub_z) <= 0.01, (i, d.z, pub_z)
        if pub_p < 1e-3:
            assert abs(d.p - pub_p) <= 0.05 * pub_p, (i, d.p, pub_p)
        else:
            assert abs(d.p - pub_p) <= 0.002, (i, d.p, pub_p)
        assert d.rank == int(row["rank"]), (i, d.rank, row["rank"])
    by_rank = {d.rank: i for i, d in enumerate(soy_ranked.derived)}
    first = soy_ranked.records[by_rank[1]]
    last = soy_ranked.records[by_rank[50]]
    assert (first.author, first.year, first.ref_id) == ("Høie", 2005, 29)
    assert soy_ranked.derived[by_rank[1]].p == pytest.approx(2.72e-7, rel=0.05)
    assert (last.author, last.year) == ("Murkies", 1995)
    assert soy_ranked.derived[by_rank[50]].p == pytest.approx(0.977, abs=0.002)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(
        "C1 study-table reconstruction (50 rows: se +/-0.0005, z +/-0.01, "
        "p 5% rel below 1e-3 else 0.002 abs, ranks exact)"
    )


def test_c2_search_space_table_exact():
    start = time.monotonic()
    entries = parse_search_space_csv(soy_ldl_search_space_csv())
    expected = {
        "Bakhit": (40, 8, 320),
        "Chen": (9, 16, 144),
        "Hori": (20, 1, 20),
        "Jenkins": (14, 1, 14),
        "Ma": (120, 1, 120),
        "Mangano": (18, 1, 18),
        "Takatsuka": (20, 1, 20),
        "Van Horn": (12, 2, 24),
        "Wong": (56, 8, 448),
    }
    assert len(entries) == 9
    for e in entries:
        assert (e.tests, e.models, e.space) == expected[e.author], e.author
        tests, models = e.outcomes * e.causes, 2 ** e.covariates
        assert (tests, models, tests * models) == expected[e.author], e.author
    from pvaudit.counting import summarize_spaces

    summary = summarize_spaces(entries)
    assert summary.median == 24
    assert summary.min == 14
    assert summary.max == 448
    assert time.monotonic() - start < 1.0
    _ok("C2 search-space table (nine exact triples, median 24)")


def test_c3_expectation_markers_exact():
    assert smallest_p_marker(50) == pytest.approx(-math.log10(1 / 51), abs=1e-9)
    assert smallest_p_marker(43) == pytest.approx(-math.log10(1 / 44), abs=1e-9)
    # sanity on the magnitudes the markers are meant to flag
    assert 1 / 51 == pytest.approx(0.0196, abs=0.0004)
    assert 1 / 44 == pytest.approx(0.0227, abs=0.0004)
    _ok("C3 smallest-p markers (-log10(1/51), -log10(1/44) within 1e-9)")


def test_c4_audit_verdict_bilinear(soy_csv_path, tmp_path):
    out = tmp_path / "audit.json"
    rc = main(["audit", "--input", str(soy_csv_path), "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["shape"]["verdict"] == "bilinear_mixture"
    assert 6 <= report["shape"]["breakpoint"] <= 14
    _ok("C4 audit verdict (bilinear_mixture, breakpoint within ranks 6..14)")


def test_c5_outlier_flags_and_volcano_structure(golden_rows, soy_ranked):
    report = flag_outliers(soy_ranked, p_threshold=1e-3)
    flagged_rows = {f.row for f in report.flagged}
    below_1e4 = {
        i for i, row in enumerate(golden_rows) if float(row["p"]) < 1e-4
    }
    assert flagged_rows == below_1e4
    assert len(flagged_rows) == 6
    assert all(f.reason == "extreme_p" for f in report.flagged)

    series = volcano_plot(soy_ranked)
    band67 = [pt for pt in series.points if 6.0 < pt[1] < 7.0]
    band45 = [pt for pt in series.points if 4.0 < pt[1] < 5.0]
    assert len(band67) == 2
    assert len(band45) == 4
    assert all(0.91 <= pt[0] <= 0.94 for pt in band45)

    manual_row = next(
        i
        for i, r in enumerate(soy_ranked.records)
        if r.author == "Jenkins" and r.year == 1989
    )
    full = flag_outliers(soy_ranked, p_threshold=1e-3, manual=(manual_row,))
    assert len(full.flagged) == 7
    assert {f.row for f in full.flagged} == below_1e4 | {manual_row}
    _ok(
        "C5 outlier flags and volcano bands (six p<1e-4 flags, 2 points in "
        "(6,7), 4 in (4,5) at rr 0.91..0.94, manual entry makes seven)"
    )


def test_c6_pooling_matches_exact_arithmetic():
    rng = random.Random(20240817)
    for trial in range(100):
        k = rng.randint(2, 10)
        effects = [round(rng.uniform(-2.0, 2.0), 6) for _ in range(k)]
        ses = [round(rng.uniform(0.05, 2.0), 6) for _ in range(k)]
        pairs = list(zip(effects, ses))
        res, exact = pool_dl(pairs), pool_fraction(pairs)
        for name in ("fixed_mean", "q", "tau2", "random_mean", "random_se", "i2"):
            g, x = getattr(res, name), float(exact[name])
            if x == 0.0:
                assert g == 0.0, (trial, name, g)
            else:
                assert abs(g - x) <= 1e-10 * abs(x), (trial, name, g, x)

    homogeneous = pool_dl([(0.3, 0.1)] * 5)
    assert homogeneous.tau2 == 0.0
    assert homogeneous.i2 == 0.0
    _ok("C6 pooling vs exact-arithmetic oracle (100 instances at 1e-10 rel, homogeneous tau2 == 0)")


def test_c7_simulation_properties():
    start = time.monotonic()
    null = run_experiment(
        SimConfig(n_studies=50, effect_fraction=0.0, seed=11, replicates=1000)
    )
    accept = null.verdict_counts["uniform_null"] + null.verdict_counts["indeterminate"]
    assert accept >= 900, null.verdict_counts
    assert 0.03 <= null.ks_rejection_rate <= 0.07, null.ks_rejection_rate

    mixture = run_experiment(
        SimConfig(
            n_studies=50,
            effect_fraction=0.3,
            noncentrality=4.0,
            seed=12,
            replicates=1000,
        )
    )
    assert mixture.verdict_counts["bilinear_mixture"] >= 800, mixture.verdict_counts

    pure = run_experiment(
        SimConfig(
            n_studies=50,
            effect_fraction=1.0,
            noncentrality=5.0,
            seed=13,
            replicates=1000,
        )
    )
    assert pure.verdict_counts["significant_effect"] > 500, pure.verdict_counts

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, elapsed
    _ok(
        "C7 simulation properties (null >=90% accepted with KS rejection "
        "5%+/-2%, mixture >=80% bilinear, pure effect majority significant, "
        f"{elapsed:.1f}s < 60s)"
    )


def test_c8_byte_identical_reruns(soy_csv_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["audit", "--input", str(soy_csv_path), "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()

    sa, sb = tmp_path / "sa.json", tmp_path / "sb.json"
    for out in (sa, sb):
        rc = main(
            ["simulate", "--n", "50", "--seed", "7", "--replicates", "50",
             "--output", str(out)]
        )
        assert rc == 0
    assert sa.read_bytes() == sb.read_bytes()

    va, vb = tmp_path / "va.svg", tmp_path / "vb.svg"
    for out in (va, vb):
        rc = main(
            ["plot", "--input", str(soy_csv_path), "--kind", "pvalue",
             "--output", str(out)]
        )
        assert rc == 0
    assert va.read_bytes() == vb.read_bytes()
    _ok("C8 determinism (audit JSON, simulate JSON, plot SVG byte-identical)")
