"""Deterministic SVG scatter rendering for PlotSeries. No external engine,
no timestamps, no randomness: identical input gives identical bytes."""

from __future__ import annotations

import math
import sys

from .diagnostics import PlotSeries
from .model import format_number

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 48
MARGIN_BOTTOM = 56

POINT_COLOR = "#31679b"
REFLINE_COLOR = "#b03a2e"
AXIS_COLOR = "#222222"

AXIS_LABELS = {
    "pvalue_rank": ("rank", "p-value"),
    "expectation": ("-log10 expected p", "-log10 observed p"),
    "volcano": ("risk ratio", "-log10 p-value"),
}
_FLOAT_MAX = sys.float_info.max
_TINY = math.ulp(0.0)
AXIS_STROKE = f'stroke="{AXIS_COLOR}" stroke-width="1"'
DASHED_STROKE = f'stroke="{REFLINE_COLOR}" stroke-width="1.5" stroke-dasharray="6 4"'


def _escape(text: str) -> str:
    """Escape &, > and < for XML character data; quotes are left as they are.

    The same replacements as ``xml.sax.saxutils.escape``, whose import would
    pull in urllib and the HTTP stack.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    # pixel coordinates; two decimals are plenty and keep the text stable
    return format(v, ".2f")


def _fmt_tick(v: float) -> str:
    return format(v, ".6g")


def _line(x1: float | str, y1: float | str, x2: float | str, y2: float | str, style: str) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style}/>'


def _text(
    x: float | str, y: float | str, anchor: str, size: int, text: str, extra: str = ""
) -> str:
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
        f'font-size="{size}" fill="{AXIS_COLOR}"{extra}>{text}</text>'
    )


def _span(lo: float, hi: float) -> tuple[float, float]:
    """``(hi - lo) * s`` and ``s``: 1, or 1/2 where ``hi - lo`` overflows.

    Only an overflowing span is halved: halving a subnormal bound rounds it.
    """
    s = 1.0 if hi - lo < math.inf else 0.5
    return hi * s - lo * s, s


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] using the 1/2/5 ladder."""
    span, s = _span(lo, hi)
    # a subnormal span's sixth can round to 0, and its power of ten to 0
    step = max(10.0 ** math.floor(math.log10(max(span / (6 * s), _TINY))), _TINY)
    for mult in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        if span / (step * mult * s) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    end = min(hi + step * 1e-9, _FLOAT_MAX)
    ticks = []
    v = first
    while v <= end:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        if v + step == v:  # the step is below v's precision
            break
        v += step
    return ticks


def _data_range(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    pad = (hi - lo) * 0.05 or abs(lo) * 0.1 or 0.5
    return max(lo - pad, -_FLOAT_MAX), min(hi + pad, _FLOAT_MAX)


def render_series(series: PlotSeries, title: str = "") -> str:
    """Render one diagnostic series to a standalone SVG document string."""
    # the smallest-p marker is a level of y on the volcano plot, of x elsewhere
    marker_on_y = series.kind == "volcano"
    xs = [p[0] for p in series.points]
    ys = [p[1] for p in series.points]
    (ys if marker_on_y else xs).extend(
        ref.parameters[0] for ref in series.reference_lines if ref.kind == "smallest_p_marker"
    )
    x_lo, x_hi = _data_range(xs)
    y_lo, y_hi = _data_range(ys)
    x_span, x_s = _span(x_lo, x_hi)
    y_span, y_s = _span(y_lo, y_hi)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    x_axis_y = HEIGHT - MARGIN_BOTTOM

    def px(x: float) -> str:
        return _fmt(MARGIN_LEFT + (x * x_s - x_lo * x_s) / x_span * plot_w)

    def py(y: float, shift: float = 0.0) -> str:
        return _fmt(x_axis_y - (y * y_s - y_lo * y_s) / y_span * plot_h + shift)

    x_label, y_label = AXIS_LABELS.get(series.kind, ("x", "y"))
    mid_y = f"{MARGIN_TOP + plot_h / 2:.0f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(_text(WIDTH // 2, 28, "middle", 16, _escape(title)))

    # axes
    parts.append(_line(MARGIN_LEFT, x_axis_y, WIDTH - MARGIN_RIGHT, x_axis_y, AXIS_STROKE))
    parts.append(_line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, x_axis_y, AXIS_STROKE))
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(_line(x, x_axis_y, x, x_axis_y + 5, AXIS_STROKE))
        parts.append(_text(x, x_axis_y + 20, "middle", 12, _fmt_tick(t)))
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(_line(MARGIN_LEFT - 5, y, MARGIN_LEFT, y, AXIS_STROKE))
        parts.append(_text(MARGIN_LEFT - 9, py(t, 4), "end", 12, _fmt_tick(t)))
    parts.append(
        _text(f"{MARGIN_LEFT + plot_w / 2:.0f}", HEIGHT - 12, "middle", 14, _escape(x_label))
    )
    parts.append(
        _text(18, mid_y, "middle", 14, _escape(y_label), f' transform="rotate(-90 18 {mid_y})"')
    )

    # reference lines, dashed
    for ref in series.reference_lines:
        if ref.kind == "expected_order":
            lo, hi = max(x_lo, y_lo), min(x_hi, y_hi)
            if lo < hi:
                parts.append(_line(px(lo), py(lo), px(hi), py(hi), DASHED_STROKE))
        elif ref.kind == "smallest_p_marker":
            v = ref.parameters[0]
            if marker_on_y:
                ends = (MARGIN_LEFT, py(v), WIDTH - MARGIN_RIGHT, py(v))
            else:
                ends = (px(v), MARGIN_TOP, px(v), x_axis_y)
            parts.append(_line(*ends, DASHED_STROKE))

    # one marker per point
    for x, y in series.points:
        parts.append(
            f'<circle cx="{px(x)}" cy="{py(y)}" r="3" fill="{POINT_COLOR}" fill-opacity="0.85"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def series_csv(series: PlotSeries) -> str:
    """The plotted points as a two-column CSV (x, y)."""
    lines = ["x,y"]
    for x, y in series.points:
        lines.append(f"{format_number(x)},{format_number(y)}")
    return "\n".join(lines) + "\n"


def reference_lines_csv(series: PlotSeries) -> str:
    """Sidecar CSV describing the reference lines (kind plus parameters)."""
    lines = ["kind,param1,param2"]
    for ref in series.reference_lines:
        params = [format_number(v) for v in ref.parameters]
        while len(params) < 2:
            params.append("")
        lines.append(",".join([ref.kind] + params[:2]))
    return "\n".join(lines) + "\n"
