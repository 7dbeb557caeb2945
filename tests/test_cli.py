from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pvaudit import (
    SimConfig,
    dataset_to_json,
    generate_study_effects,
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
from pvaudit.report import format_number

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


def test_plot_malformed_exclude_is_usage_error(workdir, capsys):
    rc = main(["plot", "--input", str(workdir / "toy.csv"), "--kind", "volcano",
               "--exclude", "1,x", "--output", str(workdir / "x.svg")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: --exclude must be comma-separated integers\n"


def test_plot_bad_exclude_index(workdir, capsys):
    rc = main(["plot", "--input", str(workdir / "toy.csv"), "--kind", "volcano",
               "--exclude", "99", "--output", str(workdir / "x.svg")])
    assert rc == EXIT_DATA


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
    for i, (rr, _) in enumerate(generate_study_effects(cfg, 0, se=0.05)):
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
    from pvaudit.report import dumps

    out = workdir / "rt.json"
    main(["audit", "--input", str(workdir / "soy.csv"), "--output", str(out)])
    text = out.read_text(encoding="utf-8")
    assert dumps(json.loads(text)) == text


def test_audit_influence_threshold_flag(workdir):
    out = workdir / "infl.json"
    rc = main(["audit", "--input", str(workdir / "soy.csv"),
               "--influence-threshold", "0.2", "--p-threshold", "0",
               "--output", str(out)])
    assert rc == EXIT_OK
    report = _read_json(out)
    assert report["outliers"]["influence_threshold"] == 0.2
    flagged = report["outliers"]["flagged"]
    assert flagged, "strong studies should exceed a 0.2 influence threshold"
    assert all(f["reason"] == "high_influence" for f in flagged)


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code],
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
        "rc = pvaudit.cli.main(['simulate', '--n', '30', '--hack-k', '2', "
        f"'--replicates', '5', '--seed', '3', '--output', {str(sim_report)!r}])\n"
        "assert rc == 0, rc\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    flagged = _read_json(report)["outliers"]["flagged"]
    assert any(f["reason"] == "high_influence" for f in flagged)
    assert len(_read_json(sim_report)["replicates"]) == 5


COLD_START_EXCLUDED = ("dataclasses", "inspect", "urllib", "http", "ssl", "email", "xml")


def test_cli_import_and_plot_load_no_dataclasses_or_http_stack(tmp_path):
    # Modules the interpreter loaded before pvaudit (site hooks may load
    # urllib.parse, say) are not pvaudit's; anything loaded after is.
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


def test_every_public_name_resolves():
    import pvaudit

    namespace: dict = {}
    exec("from pvaudit import *", namespace)  # raises on a name that does not resolve
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(pvaudit.__all__)
    assert len(set(pvaudit.__all__)) == len(pvaudit.__all__)


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
