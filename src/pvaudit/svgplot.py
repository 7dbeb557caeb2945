"""Deterministic SVG scatter rendering for PlotSeries. No external engine,
no timestamps, no randomness: identical input gives identical bytes."""

from __future__ import annotations

import math

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


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi] using the 1/2/5 ladder."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / max(target, 2)))
    for mult in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        if span / (step * mult) <= target:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks


def _data_range(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        pad = 0.5 if lo == 0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def render_series(series: PlotSeries, title: str = "") -> str:
    """Render one diagnostic series to a standalone SVG document string."""
    xs = [p[0] for p in series.points]
    ys = [p[1] for p in series.points]
    ref_x: list[float] = []
    ref_y: list[float] = []
    for ref in series.reference_lines:
        if ref.kind == "smallest_p_marker":
            if series.kind == "volcano":
                ref_y.append(ref.parameters[0])
            else:
                ref_x.append(ref.parameters[0])
    x_lo, x_hi = _data_range(xs + ref_x)
    y_lo, y_hi = _data_range(ys + ref_y)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return HEIGHT - MARGIN_BOTTOM - (y - y_lo) / (y_hi - y_lo) * plot_h

    x_label, y_label = AXIS_LABELS.get(series.kind, ("x", "y"))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="28" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16" fill="{AXIS_COLOR}">'
            f"{_escape(title)}</text>"
        )

    # axes
    x_axis_y = HEIGHT - MARGIN_BOTTOM
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{x_axis_y}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{x_axis_y}" stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{x_axis_y}" stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{x_axis_y}" x2="{_fmt(x)}" '
            f'y2="{x_axis_y + 5}" stroke="{AXIS_COLOR}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{x_axis_y + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="{AXIS_COLOR}">'
            f"{_fmt_tick(t)}</text>"
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(y)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt(y)}" stroke="{AXIS_COLOR}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 9}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{AXIS_COLOR}">'
            f"{_fmt_tick(t)}</text>"
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="14" '
        f'fill="{AXIS_COLOR}">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" fill="{AXIS_COLOR}" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.0f})">'
        f"{_escape(y_label)}</text>"
    )

    # reference lines, dashed
    for ref in series.reference_lines:
        if ref.kind == "expected_order":
            slope, intercept = ref.parameters
            x0, x1 = x_lo, x_hi
            parts.append(
                f'<line x1="{_fmt(px(x0))}" y1="{_fmt(py(slope * x0 + intercept))}" '
                f'x2="{_fmt(px(x1))}" y2="{_fmt(py(slope * x1 + intercept))}" '
                f'stroke="{REFLINE_COLOR}" stroke-width="1.5" stroke-dasharray="6 4"/>'
            )
        elif ref.kind == "smallest_p_marker":
            v = ref.parameters[0]
            if series.kind == "volcano":
                parts.append(
                    f'<line x1="{MARGIN_LEFT}" y1="{_fmt(py(v))}" '
                    f'x2="{WIDTH - MARGIN_RIGHT}" y2="{_fmt(py(v))}" '
                    f'stroke="{REFLINE_COLOR}" stroke-width="1.5" stroke-dasharray="6 4"/>'
                )
            else:
                parts.append(
                    f'<line x1="{_fmt(px(v))}" y1="{MARGIN_TOP}" '
                    f'x2="{_fmt(px(v))}" y2="{x_axis_y}" '
                    f'stroke="{REFLINE_COLOR}" stroke-width="1.5" stroke-dasharray="6 4"/>'
                )

    # one marker per point
    for x, y in series.points:
        parts.append(
            f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" '
            f'fill="{POINT_COLOR}" fill-opacity="0.85"/>'
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
