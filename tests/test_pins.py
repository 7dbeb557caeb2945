from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pins


@pytest.mark.parametrize("name", list(pins.PINS))
def test_pin(name):
    call, want = pins.PINS[name]
    assert pins.digest(call()) == want


def test_the_table_passes_as_ci_runs_it(tmp_path):
    # A fresh interpreter without site-packages, with every warning an error
    # (a ResourceWarning included), as CI runs the table on the installed package.
    script = Path(pins.__file__).resolve()
    env = {**os.environ, "PYTHONPATH": str(script.parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-S", str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout
    assert proc.stdout.splitlines()[-1] == f"{len(pins.PINS)} of {len(pins.PINS)} pins match"


def test_a_round_trip_keeps_its_digest():
    # Deriving derive's output again, or counting count's, reproduces it
    assert pins.PINS["report-rederive"][1] == pins.PINS["report-derive"][1]
    assert pins.PINS["report-recount"][1] == pins.PINS["report-count"][1]


def test_a_row_that_raises_fails_alone(capsys):
    # the exception is reported on the row's line, and the rows after it still run
    call, want = pins.PINS["svg-one-volcano"]
    table = {"refused": (lambda: pins._refused(5, "count", "--input", "counts.csv"), want),
             "svg-one-volcano": (call, want)}
    assert pins.main(table) == 1
    out, err = capsys.readouterr()
    assert out.startswith("MISMATCH refused: AssertionError: pvaudit count --input counts.csv:"
                          " exit 0, stdout 'ref,")
    assert (out.splitlines()[1:], err) == (["1 of 2 pins match"], "")


def test_a_wrong_digest_a_nonzero_exit_or_any_stderr_fails(capsys, tmp_path):
    call, want = pins.PINS["svg-one-volcano"]
    altered = {"svg-one-volcano": (call, want[::-1])}
    assert pins.check(altered) == ["svg-one-volcano"]
    assert pins.main(altered) == 1
    assert capsys.readouterr() == ("MISMATCH svg-one-volcano\n0 of 1 pins match\n", "")
    missing = str(tmp_path / "missing.csv")
    with pytest.raises(AssertionError, match="exit 1, stderr .error: "):
        pins._cli("count", "--input", missing)
    two = tmp_path / "two.csv"
    two.write_text("author,year,comment,ref,rr,cl_low,cl_high\nA,1999,,1,1.05,0.95,1.15\n"
                   "B,2004,,2,0.90,0.85,0.96\n", encoding="utf-8")
    with pytest.raises(AssertionError, match="exit 0, stderr .warning: the influence rule"):
        pins._cli("audit", "--input", str(two), "--influence-threshold", "0.2")
    # a refusal must exit with its own code, and print nothing to stdout
    assert pins._refused(1, "count", "--input", missing).startswith("exit 1\nerror: ")
    with pytest.raises(AssertionError, match="exit 0, stdout 'ref,"):
        pins._refused(5, "count", "--input", "counts.csv")
    with pytest.raises(AssertionError, match="exit 1, stdout ''"):
        pins._refused(5, "count", "--input", missing)
