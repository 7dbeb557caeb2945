from __future__ import annotations

import pytest

import pins


@pytest.mark.parametrize("name", list(pins.PINS))
def test_pin(name):
    call, want = pins.PINS[name]
    assert pins.digest(call()) == want


def test_a_wrong_digest_a_nonzero_exit_or_any_stderr_fails(capsys, tmp_path):
    call, want = pins.PINS["svg-one-volcano"]
    altered = {"svg-one-volcano": (call, want[::-1])}
    assert pins.check(altered) == ["svg-one-volcano"]
    assert pins.main(altered) == 1
    assert capsys.readouterr() == ("MISMATCH svg-one-volcano\n0 of 1 pins match\n", "")
    with pytest.raises(AssertionError, match="exit 1, stderr .error: "):
        pins._cli("count", "--input", str(tmp_path / "missing.csv"))
    two = tmp_path / "two.csv"
    two.write_text("author,year,comment,ref,rr,cl_low,cl_high\nA,1999,,1,1.05,0.95,1.15\n"
                   "B,2004,,2,0.90,0.85,0.96\n", encoding="utf-8")
    with pytest.raises(AssertionError, match="exit 0, stderr .warning: the influence rule"):
        pins._cli("audit", "--input", str(two), "--influence-threshold", "0.2")
