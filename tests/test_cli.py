from __future__ import annotations

import ast
import csv
import importlib
import inspect
import io
import json
import math
import os
import site
import subprocess
import sys
from pathlib import Path
from types import ModuleType
from statistics import NormalDist

import pytest

from pvaudit import (
    SimConfig,
    dataset_to_json,
    generate_literature,
    normal_sf,
    parse_dataset,
    two_sided_critical_value,
)
from pvaudit.cli import (
    EXIT_DATA,
    EXIT_IO,
    EXIT_NO_RECORDS,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_USAGE,
    main,
)
from pvaudit.datasets import soy_ldl_search_space_csv, soy_ldl_studies_csv
from pvaudit.diagnostics import SHAPE_THRESHOLDS
from pvaudit.model import format_number
from pvaudit.report import dumps
from pvaudit.stats import P_FLOOR

TOY = (
    "author,year,comment,ref,rr,cl_low,cl_high\n"
    "Alpha,1999,,1,1.05,0.95,1.15\n"
    "Beta,2004,,2,0.90,0.85,0.96\n"
    "Gamma,2010,,3,1.20,1.00,1.44\n"
)


@pytest.fixture()
def workdir(tmp_path: Path) -> Path:
    (tmp_path / "toy.csv").write_text(TOY, encoding="utf-8")
    (tmp_path / "soy.csv").write_text(soy_ldl_studies_csv(), encoding="utf-8")
    (tmp_path / "counts.csv").write_text(soy_ldl_search_space_csv(), encoding="utf-8")
    return tmp_path


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ------------------------------------------------------------------- derive

def test_derive_appends_columns(workdir):
    out = workdir / "derived.csv"
    rc = main(["derive", "--input", str(workdir / "toy.csv"), "--output", str(out)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert len(rows) == 3
    assert set(rows[0]) == {
        "author", "year", "comment", "ref", "rr", "cl_low", "cl_high",
        "se", "z", "p", "rank",
    }
    # hand check row 0: width 0.2, se = 0.2/3.92, z = 0.05/se
    se = 0.2 / 3.92
    assert float(rows[0]["se"]) == pytest.approx(se, rel=1e-8)
    assert float(rows[0]["z"]) == pytest.approx(0.05 / se, rel=1e-8)
    assert float(rows[0]["p"]) == pytest.approx(2 * normal_sf(0.05 / se), rel=1e-8)
    assert sorted(int(r["rank"]) for r in rows) == [1, 2, 3]
    # Beta has the smallest p (interval furthest from 1 relative to width)
    assert int(rows[1]["rank"]) == 1


def test_derive_output_reparses(workdir):
    out = workdir / "derived.csv"
    main(["derive", "--input", str(workdir / "toy.csv"), "--output", str(out)])
    rc = main(["derive", "--input", str(out), "--output", str(workdir / "again.csv")])
    assert rc == EXIT_OK
    assert (workdir / "again.csv").read_text() == out.read_text()


def test_derive_output_round_trips_every_digit(workdir):
    src = workdir / "digits.csv"
    src.write_text(
        "author,year,comment,ref,rr,cl_low,cl_high\n"
        "A,2000,,1,1.0123456789012,0.9123456789012,1.1123456789012\n"
        "B,2001,,2,0.9,0.8,1.0\n",
        encoding="utf-8",
    )
    first, second = workdir / "first.csv", workdir / "second.csv"
    assert main(["derive", "--input", str(src), "--output", str(first)]) == EXIT_OK
    assert main(["derive", "--input", str(first), "--output", str(second)]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(first.read_text(encoding="utf-8"))))
    assert rows == list(csv.reader(io.StringIO(second.read_text(encoding="utf-8"))))
    assert rows[1][4:7] == ["1.0123456789012", "0.9123456789012", "1.1123456789012"]
    assert rows[2][4:7] == ["0.9", "0.8", "1"]


def test_derive_stdout(workdir, capsys):
    rc = main(["derive", "--input", str(workdir / "toy.csv")])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("author,year,comment,ref,rr,cl_low,cl_high,se,z,p,rank")


def test_derive_schema_error_exit(workdir, capsys):
    bad = workdir / "bad.csv"
    bad.write_text("author,year,ref,rr,cl_low\nA,2000,1,1.0,0.9\n", encoding="utf-8")
    rc = main(["derive", "--input", str(bad)])
    assert rc == EXIT_SCHEMA
    assert "cl_high" in capsys.readouterr().err


def test_derive_empty_data_exit(workdir, capsys):
    empty = workdir / "empty.csv"
    empty.write_text("author,year,comment,ref,rr,cl_low,cl_high\n", encoding="utf-8")
    rc = main(["derive", "--input", str(empty)])
    assert rc == EXIT_NO_RECORDS
    assert "empty" in capsys.readouterr().err


def test_derive_bad_row_exit(workdir, capsys):
    bad = workdir / "badrow.csv"
    bad.write_text(
        "author,year,comment,ref,rr,cl_low,cl_high\nA,2000,,1,1.0,1.2,1.4\n",
        encoding="utf-8",
    )
    rc = main(["derive", "--input", str(bad)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "row 0" in err
    assert "cl_low" in err


def test_missing_file_is_io_error(workdir, capsys):
    rc = main(["derive", "--input", str(workdir / "nope.csv")])
    assert rc == EXIT_IO


def test_json_input_mirror(workdir):
    payload = {
        "label": "toy",
        "confidence_level": 0.95,
        "records": [
            {"author": "A", "year": 2000, "comment": "", "ref": 1,
             "rr": 1.05, "cl_low": 0.95, "cl_high": 1.15}
        ],
    }
    src = workdir / "toy.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    out = workdir / "out.csv"
    rc = main(["derive", "--input", str(src), "--output", str(out)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert rows[0]["author"] == "A"


@pytest.mark.parametrize("source", ["csv", "json"])
@pytest.mark.parametrize("command", ["audit", "derive"])
def test_a_level_outside_0_1_is_refused_with_a_critical_value(workdir, capsys, command, source):
    # z* given, the level would only be recorded, so it is checked all the same
    if source == "csv":
        src, flags = workdir / "toy.csv", ["--confidence-level", "1.5"]
    else:
        src, flags = workdir / "toy.json", []
        payload = json.loads(dataset_to_json(parse_dataset(TOY)))
        src.write_text(json.dumps({**payload, "confidence_level": 1.5}), encoding="utf-8")
    capsys.readouterr()
    rc = main([command, "--input", str(src), *flags, "--critical-value", "2"])
    assert rc == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: confidence_level must be in (0, 1), got 1.5\n"


@pytest.mark.parametrize(
    "mirror, code, want",
    [
        ({"label": None}, EXIT_OK, None),
        ({"confidence_level": None}, EXIT_SCHEMA, "'confidence_level' must be a number"),
        ({"confidence_level": [0.95]}, EXIT_SCHEMA, "'confidence_level' must be a number"),
    ],
)
def test_json_mirror_nulls(workdir, capsys, mirror, code, want):
    payload = json.loads(dataset_to_json(parse_dataset(TOY, label="toy")))
    payload["records"][0]["comment"] = None
    src = workdir / "nulls.json"
    src.write_text(json.dumps({**payload, **mirror}), encoding="utf-8")
    capsys.readouterr()
    assert main(["derive", "--input", str(src)]) == code
    out, err = capsys.readouterr()
    if want is None:
        assert out.splitlines()[1].startswith("Alpha,1999,,1,")
        assert "None" not in out
    else:
        assert out == "" and want in err and "Traceback" not in err


@pytest.mark.parametrize(
    "row, extra, want",
    [
        # se underflows to 0
        ("Tiny,1990,,1,2.2250738585072014e-308,2.2250738585072014e-308,"
         "2.225073858507202e-308", [], "Tiny 1990 gives se 0.0,"),
        # se is tiny but positive, and z overflows
        ("Small,1991,,1,1e-300,1e-300,1.0000000000000002e-300", [], "Small 1991 gives z -inf,"),
        # a subnormal z* makes se overflow
        ("Alpha,1999,,1,1.05,0.95,1.15", ["--critical-value", "1e-320"], "Alpha 1999 gives se inf,"),
    ],
)
def test_derive_refuses_a_row_it_cannot_represent(workdir, capsys, row, extra, want):
    src = workdir / "row.csv"
    src.write_text(TOY.splitlines()[0] + "\n" + row + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["derive", "--input", str(src), *extra]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert want in err


@pytest.mark.parametrize(
    "name, text, code, want",
    [
        ("low.csv", "A,2000,,1,1.1,0,1.3", EXIT_DATA,
         "row 0, field 'cl_low': cl_low must be positive"),
        ("high.csv", "A,2000,,1,1.1,0.9,-1", EXIT_DATA,
         "row 0, field 'cl_high': cl_high must be positive"),
        ("above.csv", "A,2000,,1,2.0,1.0,1.5", EXIT_DATA,
         "row 0, field 'cl_high': rr exceeds cl_high"),
        ("map.json", '{"records": {}}', EXIT_SCHEMA, "'records' must be an array"),
        ("scalar.json", '{"records": [1]}', EXIT_DATA,
         "row 0, field 'record': record must be an object"),
    ],
)
def test_derive_names_the_first_invalid_field(workdir, capsys, name, text, code, want):
    src = workdir / name
    header = "" if name.endswith(".json") else TOY.splitlines()[0] + "\n"
    src.write_text(header + text + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["derive", "--input", str(src)]) == code
    assert capsys.readouterr() == ("", f"error: {want}\n")


def test_label_only_where_it_is_used(workdir, capsys):
    # derive writes no label, so --label there is a usage error
    src = str(workdir / "toy.csv")
    assert main(["derive", "--input", src, "--label", "x"]) == EXIT_USAGE
    assert "--label" in capsys.readouterr().err
    out = workdir / "labelled.svg"
    assert main(["plot", "--input", src, "--kind", "pvalue", "--label", "x",
                 "--output", str(out)]) == EXIT_OK
    assert "x: pvalue" in out.read_text(encoding="utf-8")
    assert main(["audit", "--input", src, "--label", "x",
                 "--output", str(workdir / "labelled.json")]) == EXIT_OK


def test_a_mirror_without_a_label_takes_the_file_stem(workdir):
    # as CSV input does; a label the mirror records still wins
    src = workdir / "n.json"
    src.write_text(dataset_to_json(parse_dataset(TOY)), encoding="utf-8")
    svg, report = workdir / "n.svg", workdir / "report.json"
    assert main(["plot", "--input", str(src), "--kind", "pvalue", "--output", str(svg)]) == EXIT_OK
    assert ">n: pvalue</text>" in svg.read_text(encoding="utf-8")
    assert main(["audit", "--input", str(src), "--output", str(report)]) == EXIT_OK
    assert _read_json(report)["label"] == "n"
    src.write_text(dataset_to_json(parse_dataset(TOY, label="toy")), encoding="utf-8")
    assert main(["audit", "--input", str(src), "--output", str(report)]) == EXIT_OK
    assert _read_json(report)["label"] == "toy"


@pytest.mark.parametrize(
    "base, option, value",
    [
        (["simulate", "--n", "20", "--effect-fraction", "1", "--replicates", "2"],
         "--noncentrality", "-1e1"),
        (["audit", "--input", "soy.csv"], "--influence-threshold", "-inf"),
        (["audit", "--input", "soy.csv"], "--critical-value", "-1e-3"),
        (["audit", "--input", "soy.csv"], "--p-threshold", "-1.5E+2"),
    ],
)
def test_a_negative_number_may_follow_its_option_after_a_space(
    workdir, capsys, monkeypatch, base, option, value
):
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    spaced = main(base + [option, value]), capsys.readouterr()
    joined = main(base + [f"{option}={value}"]), capsys.readouterr()
    assert spaced == joined
    assert spaced[0] != EXIT_USAGE


def test_usage_error_unknown_kind(workdir):
    rc = main(["plot", "--input", str(workdir / "toy.csv"), "--kind", "funnel",
               "--output", str(workdir / "x.svg")])
    assert rc == EXIT_USAGE


# --------------------------------------------------------------------- plot

def test_plot_pvalue_toy_three_markers(workdir):
    out = workdir / "toyfig.svg"
    rc = main(["plot", "--input", str(workdir / "toy.csv"), "--kind", "pvalue",
               "--output", str(out)])
    assert rc == EXIT_OK
    svg = out.read_text(encoding="utf-8")
    assert svg.count("<circle") == 3
    series = list(csv.reader(io.StringIO((workdir / "toyfig.csv").read_text())))
    assert series[0] == ["x", "y"]
    assert [row[0] for row in series[1:]] == ["1", "2", "3"]
    ys = [float(row[1]) for row in series[1:]]
    assert ys == sorted(ys)


def test_plot_writes_series_siblings(workdir):
    out = workdir / "fig.svg"
    rc = main(["plot", "--input", str(workdir / "soy.csv"), "--kind", "expectation",
               "--output", str(out)])
    assert rc == EXIT_OK
    points = (workdir / "fig.csv").read_text(encoding="utf-8").strip().splitlines()
    assert points[0] == "x,y"
    assert len(points) == 51
    refs = (workdir / "fig.ref.csv").read_text(encoding="utf-8").strip().splitlines()
    assert refs[1].startswith("expected_order,")
    assert refs[2].split(",")[1] == format_number(math.log10(51.0))


def test_plot_volcano_exclude_list(workdir):
    out = workdir / "vol.svg"
    rc = main(["plot", "--input", str(workdir / "soy.csv"), "--kind", "volcano",
               "--exclude", "0,1,2", "--output", str(out)])
    assert rc == EXIT_OK
    assert out.read_text().count("<circle") == 47
    refs = (workdir / "vol.ref.csv").read_text().strip().splitlines()
    assert refs[1].split(",")[1] == format_number(math.log10(48.0))


def test_plot_volcano_profile_excludes_flagged(workdir):
    out = workdir / "vol43.svg"
    rc = main(["plot", "--input", str(workdir / "soy.csv"), "--kind", "volcano",
               "--profile", "paper-reproduction", "--exclude-flagged",
               "--output", str(out)])
    assert rc == EXIT_OK
    assert out.read_text().count("<circle") == 43
    refs = (workdir / "vol43.ref.csv").read_text().strip().splitlines()
    assert refs[1].split(",")[1] == format_number(math.log10(44.0))


@pytest.mark.parametrize("kind", ["pvalue", "expectation"])
@pytest.mark.parametrize("flag", [["--exclude", "1"], ["--exclude-flagged"]])
def test_plot_exclude_flags_only_for_volcano(workdir, capsys, kind, flag):
    out = workdir / "x.svg"
    rc = main(["plot", "--input", str(workdir / "soy.csv"), "--kind", kind, *flag,
               "--output", str(out)])
    assert rc == EXIT_USAGE
    assert "apply only to --kind volcano" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, extra",
    [("pvalue", []), ("expectation", []), ("volcano", []), ("volcano", ["--exclude", "1"])],
)
@pytest.mark.parametrize(
    "rule",
    [["--p-threshold", "0.5"], ["--influence-threshold", "0.01"], ["--manual-outlier", "3"]],
)
def test_plot_outlier_rules_only_with_exclude_flagged(workdir, capsys, kind, extra, rule):
    out = workdir / "x.svg"
    rc = main(["plot", "--input", str(workdir / "soy.csv"), "--kind", kind, *extra,
               *rule, "--output", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (
        f"error: {rule[0]}: the outlier rules apply only to "
        "--kind volcano --exclude-flagged\n"
    )
    assert not out.exists()


def test_plot_outlier_rules_drive_exclude_flagged(workdir):
    # with --exclude-flagged the rule flags choose what is dropped
    out = workdir / "vol.svg"
    rc = main(["plot", "--input", str(workdir / "soy.csv"), "--kind", "volcano",
               "--exclude-flagged", "--p-threshold", "0", "--manual-outlier", "3",
               "--manual-outlier", "7", "--output", str(out)])
    assert rc == EXIT_OK
    assert out.read_text().count("<circle") == 48


@pytest.mark.parametrize("kind", ["pvalue", "expectation", "volcano"])
def test_plot_profile_accepted_on_every_kind(workdir, kind):
    # --profile also pins z* and the scale, which every kind plots with
    out = workdir / "p.svg"
    rc = main(["plot", "--input", str(workdir / "soy.csv"), "--kind", kind,
               "--profile", "paper-reproduction", "--output", str(out)])
    assert rc == EXIT_OK
    assert out.exists()


def test_plot_malformed_exclude_is_usage_error(workdir, capsys):
    rc = main(["plot", "--input", str(workdir / "toy.csv"), "--kind", "volcano",
               "--exclude", "1,x", "--output", str(workdir / "x.svg")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: --exclude must be comma-separated integers\n"


def test_plot_bad_exclude_index(workdir, capsys):
    rc = main(["plot", "--input", str(workdir / "toy.csv"), "--kind", "volcano",
               "--exclude", "99", "--output", str(workdir / "x.svg")])
    assert rc == EXIT_DATA


@pytest.mark.parametrize("output", ["soy.svg", "fig.csv", "../{dir}/soy.svg"])
def test_plot_refuses_to_overwrite_its_input_or_its_svg(workdir, capsys, monkeypatch, output):
    # soy.svg's point CSV would replace the input, fig.csv's the SVG itself
    monkeypatch.chdir(workdir)
    before = sorted(os.listdir(workdir))
    rc = main(["plot", "--input", "soy.csv", "--kind", "pvalue",
               "--output", output.format(dir=workdir.name)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (workdir / "soy.csv").read_text(encoding="utf-8") == soy_ldl_studies_csv()
    assert sorted(os.listdir(workdir)) == before


@pytest.mark.parametrize(
    "rows, kind",
    [
        # every p is floored at 5e-324: a tenth of it underflows to 0
        (["A,2000,,1,61,60,62", "B,2001,,2,61,60,62", "C,2002,,3,61,60,62"], "pvalue"),
        # the padded rr axis spans more than the largest double
        (["A,2000,,1,1.7e308,1e308,1.79e308", "B,2001,,2,1.5,1.1,2.0",
          "C,2002,,3,1.2,0.9,1.6"], "volcano"),
        # one point: rr plus its pad passes the largest double
        (["A,2000,,1,1.7e308,1e308,1.79e308"], "volcano"),
    ],
    ids=["floored-p", "huge-rr-span", "huge-rr"],
)
def test_plot_draws_every_finite_range(workdir, capsys, rows, kind):
    src, svg = workdir / "rows.csv", workdir / "edge.svg"
    src.write_text("\n".join([TOY.splitlines()[0], *rows]) + "\n", encoding="utf-8")
    rc = main(["plot", "--input", str(src), "--kind", kind, "--output", str(svg)])
    assert rc == EXIT_OK, capsys.readouterr().err
    assert svg.read_text(encoding="utf-8").count("<circle") == len(rows)


# -------------------------------------------------------------------- audit

def test_audit_full_report(workdir):
    out = workdir / "report.json"
    rc = main(["audit", "--input", str(workdir / "soy.csv"),
               "--counting", str(workdir / "counts.csv"), "--output", str(out)])
    assert rc == EXIT_OK
    report = _read_json(out)
    assert report["tool"]["name"] == "pvaudit"
    assert report["n_studies"] == 50
    assert report["shape"]["verdict"] == "bilinear_mixture"
    assert len(report["studies"]) == 50
    assert report["pool"]["k"] == 50
    assert report["pool"]["random_mean"] < 0
    assert report["search_space"]["median"] == 24
    flagged = report["outliers"]["flagged"]
    assert len(flagged) == 6
    assert all(f["reason"] == "extreme_p" for f in flagged)


def test_audit_exit_zero_regardless_of_verdict(workdir):
    # a bilinear verdict is a finding, not a failure
    rc = main(["audit", "--input", str(workdir / "soy.csv"),
               "--output", str(workdir / "r.json")])
    assert rc == EXIT_OK


def test_audit_single_row_indeterminate(workdir):
    single = workdir / "one.csv"
    single.write_text(
        "author,year,comment,ref,rr,cl_low,cl_high\nA,2000,,1,1.05,0.95,1.15\n",
        encoding="utf-8",
    )
    out = workdir / "one.json"
    rc = main(["audit", "--input", str(single), "--output", str(out)])
    assert rc == EXIT_OK
    report = _read_json(out)
    assert report["shape"]["verdict"] == "indeterminate"
    assert report["outliers"]["flagged"] == []
    assert report["pool"] is None


def test_audit_uniform_simulated_csv(workdir):
    # a null literature generated with a recorded seed audits as uniform_null
    cfg = SimConfig(n_studies=50, seed=101)
    rows = ["author,year,comment,ref,rr,cl_low,cl_high"]
    for i, p in enumerate(generate_literature(cfg, 0)):
        # the risk ratio whose 95% interval, at se 0.05, gives back p
        rr = 1.0 + 0.05 * NormalDist().inv_cdf(1.0 - p / 2.0)
        lo, hi = rr - 1.96 * 0.05, rr + 1.96 * 0.05
        rows.append(f"S{i},2000,,{i},{rr!r},{lo!r},{hi!r}")
    src = workdir / "null.csv"
    src.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = workdir / "null.json"
    rc = main(["audit", "--input", str(src), "--output", str(out)])
    assert rc == EXIT_OK
    assert _read_json(out)["shape"]["verdict"] == "uniform_null"


def test_audit_profile_adds_manual_flag(workdir):
    out = workdir / "profiled.json"
    rc = main(["audit", "--input", str(workdir / "soy.csv"),
               "--profile", "paper-reproduction", "--output", str(out)])
    assert rc == EXIT_OK
    report = _read_json(out)
    flagged = report["outliers"]["flagged"]
    assert len(flagged) == 7
    reasons = {f["reason"] for f in flagged}
    assert reasons == {"extreme_p", "manual"}
    manual_rows = [f["row"] for f in flagged if f["reason"] == "manual"]
    by_row = {i: s for i, s in enumerate(report["studies"])}
    assert len(manual_rows) == 1
    assert by_row[manual_rows[0]]["author"] == "Jenkins"
    assert by_row[manual_rows[0]]["year"] == 1989


def test_audit_report_roundtrip_bytes(workdir):
    out = workdir / "rt.json"
    main(["audit", "--input", str(workdir / "soy.csv"), "--output", str(out)])
    text = out.read_text(encoding="utf-8")
    assert dumps(json.loads(text)) == text


@pytest.mark.parametrize("flag", [None, "0.2", "inf", "-inf"])
def test_audit_influence_threshold_flag(workdir, flag):
    out = workdir / "infl.json"
    args = ["audit", "--input", str(workdir / "soy.csv"), "--p-threshold", "0",
            "--output", str(out)]
    if flag is not None:
        args += ["--influence-threshold", flag]
    assert main(args) == EXIT_OK
    report = _read_json(out)
    config, outliers = report["config"], report["outliers"]
    # the config echoes what flag_outliers and the classifier ran with
    assert config["influence_threshold"] == outliers["influence_threshold"]
    assert config["p_threshold"] == outliers["p_threshold"] == 0
    assert report["shape_thresholds"] == json.loads(dumps(SHAPE_THRESHOLDS._asdict()))
    flagged = outliers["flagged"]
    if flag in (None, "inf", "-inf"):  # the rule is off
        assert outliers["influence_threshold"] is None
        assert flagged == []
    else:
        assert outliers["influence_threshold"] == 0.2
        assert flagged, "strong studies should exceed a 0.2 influence threshold"
        assert all(f["reason"] == "high_influence" for f in flagged)


INFLUENCE_SKIPPED = "warning: the influence rule needs at least 3 rows; it did not run\n"


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("command", ["audit", "plot"])
def test_influence_rule_on_too_few_rows_warns(workdir, capsys, rows, command):
    small = workdir / "small.csv"
    small.write_text("".join(TOY.splitlines(keepends=True)[: rows + 1]), encoding="utf-8")
    args = [command, "--input", str(small), "--influence-threshold", "0.1"]
    if command == "plot":
        args += ["--kind", "volcano", "--exclude-flagged"]
    quiet = [a for a in args if a not in ("--influence-threshold", "0.1")]
    out = workdir / ("out.json" if command == "audit" else "out.svg")
    assert main(args + ["--output", str(out)]) == EXIT_OK
    warned = capsys.readouterr().err
    assert warned == (INFLUENCE_SKIPPED if rows < 3 else "")
    if command == "audit":
        # The report still echoes the threshold it was given.
        assert _read_json(out)["config"]["influence_threshold"] == 0.1
    # Without the rule, nothing warns.
    assert main(quiet + ["--output", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("source", ["csv", "json"])
def test_audit_echoes_the_level_and_critical_value_it_used(workdir, source):
    # A 90% interval is unwound with z* = 1.645; the config echo must say so
    # rather than repeat the 95% defaults.
    if source == "csv":
        src = workdir / "toy.csv"
        flags = ["--confidence-level", "0.9"]
    else:
        src = workdir / "toy90.json"
        ds = parse_dataset(TOY, label="toy", confidence_level=0.9)
        src.write_text(dataset_to_json(ds), encoding="utf-8")
        flags = []
    out = workdir / "audit90.json"
    rc = main(["audit", "--input", str(src), *flags, "--output", str(out)])
    assert rc == EXIT_OK
    report = _read_json(out)
    config = report["config"]
    assert config["confidence_level"] == 0.9
    assert config["critical_value"] == pytest.approx(
        two_sided_critical_value(0.9), rel=1e-8
    )
    for row in report["studies"]:
        width = row["cl_high"] - row["cl_low"]
        assert row["se"] == pytest.approx(
            width / (2.0 * config["critical_value"]), rel=1e-8
        )


def test_audit_echoes_the_scale_and_critical_value_override(workdir):
    out = workdir / "log.json"
    rc = main(["audit", "--input", str(workdir / "toy.csv"), "--scale", "log",
               "--critical-value", "2.0", "--output", str(out)])
    assert rc == EXIT_OK
    report = _read_json(out)
    assert report["config"]["scale"] == "log"
    assert report["config"]["critical_value"] == 2
    for row in report["studies"]:
        width = math.log(row["cl_high"]) - math.log(row["cl_low"])
        assert row["se"] == pytest.approx(width / 4.0, rel=1e-8)


@pytest.mark.parametrize("flags", [[], ["--influence-threshold", "0.1"]])
@pytest.mark.parametrize(
    "limits",
    # se squares to zero; se squares to a subnormal whose inverse overflows;
    # each inverse variance (about 1e308) is finite but two of them sum past
    # the largest double
    ["1e-200,1e-200,2e-200", "1e-155,1e-155,2e-155", "1e-153,1e-153,1.4e-153"],
)
def test_audit_refuses_an_se_too_small_to_pool(workdir, capsys, limits, flags):
    header, alpha, beta, _ = TOY.splitlines()
    src = workdir / "tiny.csv"
    src.write_text(
        "\n".join(
            [header, f"Tiny,2000,,1,{limits}", f"Tinier,2001,,2,{limits}", alpha, beta]
        )
        + "\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    rc = main(["audit", "--input", str(src), *flags, "--output", str(workdir / "t.json")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "study 0" in errors[0]
    assert "Traceback" not in err


def test_leave_one_out_overflow_names_input_rows(workdir, capsys):
    # Without row 0, every weight underflows to 0; the subset's heaviest study
    # is row 1, which is index 0 of that subset.
    src = workdir / "loo.csv"
    rows = ["A,2000,,1,1.1,0.9,1.3"] + [f"{a},2001,,2,1,0.5,4e200" for a in "BCD"]
    src.write_text("\n".join([TOY.splitlines()[0], *rows]) + "\n", encoding="utf-8")
    out = str(workdir / "loo.json")
    assert main(["audit", "--input", str(src), "--output", out]) == EXIT_OK
    capsys.readouterr()
    rc = main(["audit", "--input", str(src), "--influence-threshold", "0.5", "--output", out])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "without study 0;" in err and "(study 1, se 1.0204081632653062e+200," in err


@pytest.mark.parametrize("command", ["audit", "derive", "plot"])
def test_json_mirror_refuses_a_different_confidence_level(workdir, capsys, command):
    # The mirror records its own level; an explicit flag that disagrees with
    # it must not be ignored silently.
    src = workdir / "soy.json"
    src.write_text(dataset_to_json(parse_dataset(soy_ldl_studies_csv())), encoding="utf-8")
    extra = ["--kind", "pvalue"] if command == "plot" else []
    out = workdir / ("out.svg" if command == "plot" else "out.txt")
    base = [command, "--input", str(src), *extra, "--output", str(out)]
    capsys.readouterr()

    assert main(base + ["--confidence-level", "0.9"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--confidence-level" in err
    assert not out.exists()

    assert main(base + ["--confidence-level", "0.95"]) == EXIT_OK
    assert main(base) == EXIT_OK


def test_floored_pvalues_warn_once(workdir, capsys):
    # Intervals this narrow put |z| near 2000, so p underflows to zero.
    rows = [TOY] + [
        f"Tight{i},2001,,{10 + i},2.00,1.999,2.001\n" for i in range(4)
    ]
    src = workdir / "tight.csv"
    src.write_text("".join(rows), encoding="utf-8")
    out = workdir / "tight.json"
    capsys.readouterr()
    assert main(["audit", "--input", str(src), "--output", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "warning: 4 p-value(s) underflowed and were floored at 5e-324: rows 3, 4, 5, 6"
    ]
    studies = _read_json(out)["studies"]
    assert [row["p_floored"] for row in studies] == [False] * 3 + [True] * 4


# ------------------------------------------------------------ cold start

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    # -S: no site hooks, whose .pth files may preload modules (pathlib, say)
    # that a clean interpreter would load only for pvaudit. site-packages stays
    # on the path (PYTHONPATH runs no .pth file), so a guarded optional import
    # of numpy or scipy would still find them and show.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH"), *site.getsitepackages()) if p
    )
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cli_import_loads_neither_numpy_nor_scipy(tmp_path):
    # Also runs an audit with influence screening and a simulation: neither
    # leave-one-out nor the simulator needs numpy or scipy.
    soy = tmp_path / "soy.csv"
    soy.write_text(soy_ldl_studies_csv(), encoding="utf-8")
    report = tmp_path / "report.json"
    sim_report = tmp_path / "sim.json"
    proc = _fresh_python(
        "import sys, pvaudit, pvaudit.cli\n"
        f"rc = pvaudit.cli.main(['audit', '--input', {str(soy)!r}, "
        f"'--influence-threshold', '0.2', '--output', {str(report)!r}])\n"
        "assert rc == 0, rc\n"
        "assert not {'statistics', 'pvaudit.sim'} & set(sys.modules), sorted(sys.modules)\n"
        "rc = pvaudit.cli.main(['simulate', '--n', '30', '--hack-k', '2', "
        f"'--replicates', '5', '--seed', '3', '--output', {str(sim_report)!r}])\n"
        "assert rc == 0, rc\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
        "from importlib.util import find_spec\n"
        "assert find_spec('numpy') and find_spec('scipy'), 'the guard needs both importable'"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    flagged = _read_json(report)["outliers"]["flagged"]
    assert any(f["reason"] == "high_influence" for f in flagged)
    assert len(_read_json(sim_report)["replicates"]) == 5


COLD_START_EXCLUDED = ("dataclasses", "inspect", "urllib", "http", "ssl", "email", "xml")


def test_cli_import_and_plot_load_no_dataclasses_or_http_stack(tmp_path):
    # Modules the interpreter loaded before pvaudit are not pvaudit's;
    # anything loaded after is.
    soy = tmp_path / "soy.csv"
    soy.write_text(soy_ldl_studies_csv(), encoding="utf-8")
    svg = tmp_path / "volcano.svg"
    proc = _fresh_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pvaudit.cli\n"
        f"rc = pvaudit.cli.main(['plot', '--input', {str(soy)!r}, '--kind', 'volcano', "
        f"'--exclude-flagged', '--title', 'a & <b>', '--output', {str(svg)!r}])\n"
        "assert rc == 0, rc\n"
        f"print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in {COLD_START_EXCLUDED!r}))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert ">a &amp; &lt;b&gt;</text>" in svg.read_text(encoding="utf-8")


_BASE_MODULES = {"pvaudit", "pvaudit.cli", "pvaudit.model", "pvaudit.stats"}


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["derive", "--input", "soy.csv"], set()),
        (["count", "--input", "counts.csv"], {"counting"}),
        (["plot", "--input", "soy.csv", "--kind", "volcano", "--exclude-flagged",
          "--output", "v.svg"], {"diagnostics", "svgplot"}),
        (["audit", "--input", "soy.csv", "--counting", "counts.csv"],
         {"counting", "diagnostics", "report"}),
        (["simulate", "--n", "20", "--replicates", "2"],
         {"diagnostics", "report", "sim"}),
    ],
    ids=["derive", "count", "plot", "audit", "simulate"],
)
def test_each_command_loads_only_the_modules_it_runs(workdir, argv, loads):
    proc = _fresh_python(
        "import os, sys\n"
        f"os.chdir({str(workdir)!r})\n"
        "import pvaudit.cli\n"
        f"rc = pvaudit.cli.main({argv!r})\n"
        "assert rc == 0, rc\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'pvaudit'))\n"
        "print('statistics' in sys.modules)\n"
        "print('json' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    modules, statistics, json_loaded = proc.stdout.splitlines()[-3:]
    assert modules == repr(sorted(_BASE_MODULES | {f"pvaudit.{m}" for m in loads}))
    assert statistics == repr(argv[0] == "simulate")
    # CSV input never needs the JSON mirror; only the report writer loads json
    assert json_loaded == repr(argv[0] in ("audit", "simulate"))


PACKAGE_ALL = [
    "__version__",
    "Dataset", "DerivedDataset", "DerivedStats", "ParseError", "SchemaError",
    "StudyRecord", "Violation", "dataset_from_json", "dataset_to_json",
    "parse_dataset", "validate_dataset",
    "PoolResult", "derive_dataset", "effects_from_dataset", "loo_influence",
    "normal_sf", "pool_dl", "rank_pvalues", "two_sided_critical_value",
    "OutlierFlag", "OutlierReport", "PlotSeries", "ReferenceLine",
    "ShapeThresholds", "ShapeVerdict", "classify_pvalues", "classify_shape",
    "expectation_plot", "flag_outliers", "ks_uniform", "pvalue_plot",
    "smallest_p_marker", "volcano_plot",
    "SearchSpaceEntry", "SpaceSummary", "parse_search_space_csv", "search_space",
    "serialize_search_space_csv", "summarize_spaces",
    "ReplicateOutcome", "SimConfig", "SimOutcome", "generate_literature",
    "greenwald_censor_rate", "run_experiment",
]


def test_package_names_load_on_first_use():
    # A bare import loads no submodule; a submodule and each public name then
    # resolve on the package, and dir() lists every name in __all__.
    proc = _fresh_python(
        "import sys, pvaudit\n"
        "print(sorted(m for m in sys.modules if m.startswith('pvaudit.')))\n"
        "print(pvaudit.stats.pool_dl.__module__, pvaudit.SimConfig.__module__)\n"
        "print(sorted(set(pvaudit.__all__) - set(dir(pvaudit))))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "pvaudit.stats pvaudit.sim", "[]"]
    import pvaudit

    assert pvaudit.__all__ == PACKAGE_ALL
    assert set(PACKAGE_ALL) <= set(dir(pvaudit))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        pvaudit.nope


def test_a_submodule_name_loads_that_module_and_a_public_name_loads_in_order():
    proc = _fresh_python(
        "import sys\n"
        "from pvaudit import cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('pvaudit.')))\n"
        "from pvaudit import search_space\n"
        "print(sorted(m for m in sys.modules if m.startswith('pvaudit.')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['pvaudit.cli', 'pvaudit.model', 'pvaudit.stats']",
        "['pvaudit.cli', 'pvaudit.counting', 'pvaudit.diagnostics', 'pvaudit.model', "
        "'pvaudit.stats']",
    ]


def test_every_public_name_resolves():
    import pvaudit

    namespace: dict = {}
    exec("from pvaudit import *", namespace)  # raises on a name that does not resolve
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(pvaudit.__all__)
    assert len(set(pvaudit.__all__)) == len(pvaudit.__all__)


def test_every_name_perfbench_uses_resolves():
    # perfbench's own tests are not run here, so this reads its sources for
    # each `from pvaudit... import X` and each X.attr on a module so imported.
    # Every call that reaches a pvaudit callable, directly or as the function
    # argument of a wrapper such as `t.call(name, fn, *args, **kwargs)`, must
    # bind its positional count and keyword names to that callable.
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    checked = bound = 0
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names: dict[str, object] = {}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pvaudit")):
                continue
            source = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(source, alias.name):  # a submodule not yet imported
                    importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = getattr(source, alias.name)
                checked += 1
        modules = {k: v for k, v in names.items() if isinstance(v, ModuleType)}
        for node in ast.walk(tree):
            # a local alias of such a module, as in `t, diag = self.t, diagnostics`
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (
                    zip(target.elts, value.elts)
                    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                    else [(target, value)]
                )
                for t, v in pairs:
                    if isinstance(t, ast.Name) and isinstance(v, ast.Name) and v.id in modules:
                        modules[t.id] = names[t.id] = modules[v.id]

        def resolve(expr: ast.expr) -> object:
            if isinstance(expr, ast.Name):
                return names.get(expr.id)
            if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
                    and expr.value.id in modules):
                return getattr(modules[expr.value.id], expr.attr, None)
            return None

        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                assert hasattr(modules[node.value.id], node.attr), (where, node.value.id, node.attr)
                checked += 1
            if not isinstance(node, ast.Call):
                continue
            fn, args = resolve(node.func), node.args
            if not callable(fn):
                at = next((i for i, a in enumerate(node.args) if callable(resolve(a))), None)
                if at is None:
                    continue
                fn, args = resolve(node.args[at]), node.args[at + 1:]
            positional = [None] * len(args)
            keywords = dict.fromkeys(k.arg for k in node.keywords if k.arg is not None)
            try:
                if any(isinstance(a, ast.Starred) for a in args):
                    inspect.signature(fn).bind_partial(**keywords)
                else:
                    inspect.signature(fn).bind_partial(*positional, **keywords)
            except TypeError as exc:
                pytest.fail(f"{where}: {fn.__qualname__} {exc}")
            bound += 1
    assert checked > 20
    assert bound > 20


@pytest.mark.parametrize("workload", ["BundledSession", "LargeAudit", "SimMixture"])
def test_perfbench_traced_pipeline_finds_no_problems(workload, tmp_path, monkeypatch):
    # The test above sees names and calls, not the attributes perfbench reads
    # off what those calls return (``PlotSeries.n``, ``OutlierReport`` fields):
    # run each workload's traced pipeline once, on inputs written to tmp_path.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import traced
    import workloads

    wl = getattr(workloads, workload)(1)
    wl.make_inputs(tmp_path)
    assert traced.Pipeline(wl, tmp_path, traced.Tracer()).run() == []


def test_sim_names_still_import_from_the_package():
    proc = _fresh_python(
        "from pvaudit import SimConfig, run_experiment\n"
        "print(run_experiment(SimConfig(n_studies=5)).config.n_studies)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "5"


# -------------------------------------------------------------------- count

def test_count_appends_and_summarizes(workdir, capsys):
    out = workdir / "counted.csv"
    rc = main(["count", "--input", str(workdir / "counts.csv"), "--output", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].endswith("tests,models,space")
    assert len(lines) == 10
    stdout = capsys.readouterr().out
    assert "median=24" in stdout
    assert "min=14" in stdout
    assert "max=448" in stdout


def test_count_empty_input(workdir):
    empty = workdir / "c.csv"
    empty.write_text("ref,author,year,outcomes,causes,covariates\n", encoding="utf-8")
    assert main(["count", "--input", str(empty)]) == EXIT_NO_RECORDS


# ----------------------------------------------------------------- simulate

def test_simulate_writes_report(workdir):
    out = workdir / "sim.json"
    rc = main(["simulate", "--n", "50", "--effect-fraction", "0",
               "--replicates", "100", "--seed", "7", "--output", str(out)])
    assert rc == EXIT_OK
    report = _read_json(out)
    counts = report["aggregate"]["verdict_counts"]
    assert sum(counts.values()) == 100
    assert counts["uniform_null"] > 50  # clear majority on a null config
    assert report["rng"]["algorithm"] == "philox4x64"
    assert report["config"]["seed"] == 7
    assert len(report["replicates"]) == 100


def test_simulate_long_flag_alias(workdir):
    out = workdir / "sim_alias.json"
    rc = main(["simulate", "--n-studies", "20", "--replicates", "2",
               "--output", str(out)])
    assert rc == EXIT_OK
    assert _read_json(out)["config"]["n_studies"] == 20


def test_simulate_censor_preset_echoed(workdir):
    out = workdir / "preset.json"
    rc = main(["simulate", "--n", "20", "--replicates", "2",
               "--censor-preset", "greenwald", "--output", str(out)])
    assert rc == EXIT_OK
    report = _read_json(out)
    assert report["config"]["censor_rate"] == pytest.approx(10 / 19, rel=1e-6)
    assert report["config"]["censor_preset"] == "greenwald"


def test_simulate_floors_underflowed_best_p(workdir):
    # |z| near 40 makes every tried p underflow to 0.0; each reported study
    # is floored at the smallest double, as derivation floors it
    base = ["simulate", "--n", "20", "--effect-fraction", "1", "--replicates", "2"]
    out = workdir / "floored.json"
    assert main(base + ["--noncentrality", "40", "--output", str(out)]) == EXIT_OK
    assert [r["verdict"] for r in _read_json(out)["replicates"]] == ["significant_effect"] * 2
    rc = main(base + ["--noncentrality", "-40", "--hack-k", "2", "--output", str(out)])
    assert rc == EXIT_OK
    cfg = SimConfig(n_studies=20, effect_fraction=1.0, noncentrality=-40.0, hack_k=2)
    assert generate_literature(cfg) == [P_FLOOR] * 20


def test_simulate_conflicting_censor_flags(workdir, capsys):
    rc = main(["simulate", "--n", "20", "--censor-rate", "0.5",
               "--censor-preset", "greenwald"])
    assert rc == EXIT_USAGE


def test_simulate_bad_fraction_usage_error(workdir, capsys):
    rc = main(["simulate", "--n", "50", "--effect-fraction", "1.5"])
    assert rc == EXIT_USAGE
    assert "effect_fraction" in capsys.readouterr().err


def test_simulate_missing_n_usage_error():
    assert main(["simulate", "--replicates", "2"]) == EXIT_USAGE
