from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvaudit import (
    Dataset,
    StudyRecord,
    derive_dataset,
    expectation_plot,
    pvalue_plot,
    volcano_plot,
)
from pvaudit.model import format_number
from pvaudit.report import dumps
from pvaudit.svgplot import _escape, reference_lines_csv, render_series, series_csv


def test_svg_is_deterministic(soy):
    series = expectation_plot(soy)
    assert render_series(series, title="t") == render_series(series, title="t")


def test_svg_canvas_and_structure(soy):
    svg = render_series(pvalue_plot(soy), title="sorted p-values")
    assert svg.startswith("<svg")
    assert 'width="800"' in svg
    assert 'height="600"' in svg
    assert svg.count("<circle") == 50
    assert "sorted p-values" in svg
    assert "p-value" in svg  # axis label
    assert "stroke-dasharray" not in svg  # no reference lines on this kind


def test_svg_reference_lines_dashed(soy):
    svg = render_series(expectation_plot(soy))
    assert svg.count("stroke-dasharray") == 2  # identity line + marker
    vol = render_series(volcano_plot(soy))
    assert vol.count("stroke-dasharray") == 1
    assert vol.count("<circle") == 50


def test_svg_escapes_text(soy):
    svg = render_series(pvalue_plot(soy), title="a < b & c")
    assert "a &lt; b &amp; c" in svg
    # quotes stay as they are; an entity's & is escaped like any other
    svg = render_series(pvalue_plot(soy), title="""A & <b> "q" 'r' &amp;""")
    assert """>A &amp; &lt;b&gt; "q" 'r' &amp;amp;</text>""" in svg


def test_series_csv_round_trip(soy):
    series = expectation_plot(soy)
    text = series_csv(series)
    lines = text.strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 51
    x0, y0 = (float(v) for v in lines[1].split(","))
    assert x0 == pytest.approx(series.points[0][0], rel=1e-8)
    assert y0 == pytest.approx(series.points[0][1], rel=1e-8)


def test_reference_lines_csv(soy):
    text = reference_lines_csv(expectation_plot(soy))
    lines = text.strip().splitlines()
    assert lines[0] == "kind,param1,param2"
    assert lines[1] == "expected_order,1,0"
    kind, p1, p2 = lines[2].split(",")
    assert kind == "smallest_p_marker"
    assert float(p1) == pytest.approx(math.log10(51.0))
    assert p2 == ""


def test_plot_csvs_write_negative_zero_as_zero():
    # rr exactly 1 gives p = 1, whose -log10 is -0.0
    records = tuple(
        StudyRecord(f"S{i}", 2000, i, rr, rr - 0.2, rr + 0.2)
        for i, rr in enumerate((1.0, 1.5, 0.7))
    )
    ds = derive_dataset(Dataset(records))
    assert series_csv(volcano_plot(ds)).splitlines()[1] == "1,0"
    assert series_csv(expectation_plot(ds)).splitlines()[-1].endswith(",0")


# ------------------------------------------------------- report serializer

def test_format_number_nine_significant_digits():
    assert format_number(0.7487448265682665) == "0.748744827"
    assert format_number(2.6551854e-07) == "2.6551854e-07"
    assert format_number(1.0) == "1"
    assert format_number(-5.14614) == "-5.14614"


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps({"x": math.inf})
    with pytest.raises(ValueError):
        dumps({"x": math.nan})


def test_dumps_rejects_named_tuples():
    rec = StudyRecord(author="A", year=2000, ref_id=1, rr=1.0, cl_low=0.9, cl_high=1.1)
    with pytest.raises(ValueError, match="StudyRecord"):
        dumps({"study": rec})
    with pytest.raises(ValueError, match="StudyRecord"):
        dumps([rec])
    assert json.loads(dumps({"study": rec._asdict()}))["study"]["author"] == "A"


@given(st.text(alphabet="&<>\"'ab;", max_size=12))
def test_escape_matches_saxutils(text):
    from xml.sax.saxutils import escape

    assert _escape(text) == escape(text)


def test_dumps_is_valid_json_and_stable():
    payload = {
        "name": "x",
        "values": [1, 2.5, None, True, "s"],
        "nested": {"empty_list": [], "empty_map": {}},
    }
    text = dumps(payload)
    parsed = json.loads(text)
    assert parsed["values"] == [1, 2.5, None, True, "s"]
    # re-serializing the parsed structure reproduces the bytes
    assert dumps(parsed) == text


def test_dumps_rejects_non_string_keys():
    with pytest.raises(ValueError):
        dumps({1: "x"})
