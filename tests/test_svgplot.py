from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvaudit import (
    Dataset,
    PlotSeries,
    ReferenceLine,
    StudyRecord,
    derive_dataset,
    expectation_plot,
    pvalue_plot,
    volcano_plot,
)
from pvaudit.model import format_number
from pvaudit.report import dumps
from pvaudit.svgplot import (
    HEIGHT,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    WIDTH,
    _escape,
    reference_lines_csv,
    render_series,
    series_csv,
)


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


def _rows(*rr_limits):
    return derive_dataset(
        Dataset(tuple(StudyRecord(f"S{i}", 2000, i, *v) for i, v in enumerate(rr_limits)))
    )


@pytest.mark.parametrize(
    "series",
    [
        # every p floored at 5e-324, and a spread of p whose twentieth underflows
        *(plot(_rows(*[(61.0, 60.0, 62.0)] * 3)) for plot in (pvalue_plot, expectation_plot)),
        PlotSeries("pvalue_rank", ((1.0, 5e-324), (2.0, 1e-323)), ()),
        # six times the smallest double: the padded span's sixth rounds to 0
        PlotSeries("pvalue_rank", ((1.0, 3e-323),), ()),
        # a padded rr span, and a padded rr, past the largest double
        volcano_plot(_rows((1.7e308, 1e308, 1.79e308), (1.5, 1.1, 2.0), (1.2, 0.9, 1.6))),
        volcano_plot(_rows((1.7e308, 1e308, 1.79e308))),
        PlotSeries("other", ((-1.7e308, 0.0), (1.7e308, 1.0)), ()),
        # one ulp of spread: the tick step is below the precision of x
        volcano_plot(_rows((1.0, 0.5, 2.0), (1.0000000000000002, 0.5, 2.0))),
        # a subnormal y range under an identity line that never meets it
        PlotSeries(
            "expectation",
            ((0.3, 0.0), (0.6, 1e-310)),
            (ReferenceLine("expected_order", (1.0, 0.0)),
             ReferenceLine("smallest_p_marker", (0.45,))),
        ),
    ],
    ids=["floored-pvalue", "floored-expectation", "subnormal-span", "subnormal-constant",
         "huge-span", "huge-rr",
         "huge-both-signs", "one-ulp", "subnormal-expectation"],
)
def test_every_finite_range_draws_inside_the_plot_area(series):
    svg = render_series(series)
    coords = re.findall(r' (?:x|y|x1|y1|x2|y2|cx|cy)="([^"]+)"', svg)
    assert all(math.isfinite(float(c)) for c in coords)
    points = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg)
    assert len(points) == len(series.points)
    for cx, cy in points:
        assert MARGIN_LEFT <= float(cx) <= WIDTH - MARGIN_RIGHT
        assert MARGIN_TOP <= float(cy) <= HEIGHT - MARGIN_BOTTOM
    # every dashed reference line lies inside the plot rectangle
    for ends in re.findall(r'<line x1="(.+?)" y1="(.+?)" x2="(.+?)" y2="(.+?)" .*dasharray', svg):
        x1, y1, x2, y2 = map(float, ends)
        assert MARGIN_LEFT <= min(x1, x2) <= max(x1, x2) <= WIDTH - MARGIN_RIGHT
        assert MARGIN_TOP <= min(y1, y2) <= max(y1, y2) <= HEIGHT - MARGIN_BOTTOM


def test_identity_line_is_clipped_to_the_plot_area():
    # two rows whose identity line enters the plot through the x axis and
    # leaves it through the right edge
    svg = render_series(expectation_plot(_rows((1.1, 0.9, 1.3), (1.2, 1.0, 1.44))))
    dashed = [line for line in svg.splitlines() if "dasharray" in line]
    assert dashed[0].startswith(
        f'<line x1="693.34" y1="{HEIGHT - MARGIN_BOTTOM}.00" x2="{WIDTH - MARGIN_RIGHT}.00" '
        'y2="516.65" '
    )


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


# any character, surrogates included, and the edges of what XML allows
_ANY_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from("\x00\x08\t\n\x0b\r\x1f &<\ud7ff\ud800\udfff\ue000\ufffd\ufffe\uffff"),
    ),
    max_size=12,
)


@given(_ANY_TEXT)
def test_escaped_text_parses_as_xml(text):
    from xml.dom.minidom import parseString

    svg = render_series(PlotSeries("pvalue_rank", ((1.0, 0.5),), ()), title=f"[{text}]")
    title = parseString(svg).getElementsByTagName("text")[0].firstChild.data
    # every character XML allows comes back, line ends read as LF
    allowed = "".join(
        c if c in "\t\n\r" or "\x20" <= c < "\ud800" or "\ue000" <= c <= "\ufffd"
        or c >= "\U00010000" else "\ufffd"
        for c in text
    )
    assert title == "[" + allowed.replace("\r\n", "\n").replace("\r", "\n") + "]"


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
