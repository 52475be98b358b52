"""Seeded SVG chart renderer with full mark-level provenance.

Charts are emitted directly as SVG text (no browser or JS runtime), using a
fixed element-class taxonomy that the extraction side can target exactly:
``mark-bar``, ``mark-slice``, ``mark-point``, ``mark-line``,
``axis-x-tick``, ``axis-y-tick``, ``axis-title``, ``legend-item``,
``chart-title``, ``plot-area``. Every mark element carries ``data-series``
and ``data-x`` attributes; the chart title carries the column names as
``data-x-field`` / ``data-y-field`` / ``data-y-unit`` / ``data-group-field``.
Rendering is a pure function of the spec: identical specs produce
byte-identical documents.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Optional
from xml.sax.saxutils import escape, quoteattr

from .errors import CanvasTooSmall
from .flatten import format_number
from .palettes import PALETTE_NAMES, palette_colors
from .tables import ChartReadyTable, DataTable

SIMPLE_BAR = "simple_bar"
GROUPED_BAR = "grouped_bar"
PIE = "pie"
LINE_SINGLE = "line_single"
LINE_MULTI = "line_multi"

CHART_TYPES = (SIMPLE_BAR, GROUPED_BAR, PIE, LINE_SINGLE, LINE_MULTI)

FAMILY = {
    SIMPLE_BAR: "bar",
    GROUPED_BAR: "bar",
    PIE: "pie",
    LINE_SINGLE: "line",
    LINE_MULTI: "line",
}

# Corpus mix used as the default: bars dominate, pies are rare.
DEFAULT_TYPE_WEIGHTS = {"bar": 58.51, "line": 32.94, "pie": 9.39}

DEFAULT_CANVAS = (800, 600)
MIN_PLOT_SIDE = 100.0


@dataclass(frozen=True)
class Rect:
    x: float
    y: float
    w: float
    h: float

    @property
    def right(self) -> float:
        return self.x + self.w

    @property
    def bottom(self) -> float:
        return self.y + self.h

    @property
    def cx(self) -> float:
        return self.x + self.w / 2

    @property
    def cy(self) -> float:
        return self.y + self.h / 2

    def contains(self, other: "Rect", slack: float = 1e-6) -> bool:
        return (
            other.x >= self.x - slack
            and other.y >= self.y - slack
            and other.right <= self.right + slack
            and other.bottom <= self.bottom + slack
        )

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.w, self.h]


@dataclass(frozen=True)
class StyleParams:
    """Visual style knobs the corpus varies to diversify charts."""

    palette: str = "tableau10"
    bar_thickness: float = 0.7  # fraction of the x band a bar/cluster fills
    bar_gap: float = 0.15  # gap between grouped bars, fraction of bar width
    line_dash: str = "solid"
    legend_marker: str = "rect"
    grid: str = "horizontal"
    show_data_labels: bool = True
    font_px: int = 12
    margin_jitter: float = 0.0  # shifts plot position/distances, 0..1

    def __post_init__(self):
        if self.palette not in PALETTE_NAMES:
            raise ValueError(f"unknown palette {self.palette!r}")
        if not 0.4 <= self.bar_thickness <= 0.9:
            raise ValueError("bar_thickness must be in [0.4, 0.9]")
        if not 0.05 <= self.bar_gap <= 0.4:
            raise ValueError("bar_gap must be in [0.05, 0.4]")
        if self.line_dash not in ("solid", "dotted", "dashed"):
            raise ValueError(f"unknown line_dash {self.line_dash!r}")
        if self.legend_marker not in ("rect", "circle"):
            raise ValueError(f"unknown legend_marker {self.legend_marker!r}")
        if self.grid not in ("none", "horizontal", "both"):
            raise ValueError(f"unknown grid {self.grid!r}")
        if not 9 <= self.font_px <= 16:
            raise ValueError("font_px must be in [9, 16]")
        if not 0.0 <= self.margin_jitter <= 1.0:
            raise ValueError("margin_jitter must be in [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "palette": self.palette,
            "bar_thickness": self.bar_thickness,
            "bar_gap": self.bar_gap,
            "line_dash": self.line_dash,
            "legend_marker": self.legend_marker,
            "grid": self.grid,
            "show_data_labels": self.show_data_labels,
            "font_px": self.font_px,
            "margin_jitter": self.margin_jitter,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StyleParams":
        return cls(**data)


@dataclass(frozen=True)
class ChartSpec:
    """Everything the renderer needs: type, table, style, canvas."""

    chart_type: str
    table: ChartReadyTable
    style: StyleParams = StyleParams()
    canvas: tuple[int, int] = DEFAULT_CANVAS

    def __post_init__(self):
        if self.chart_type not in CHART_TYPES:
            raise ValueError(f"unknown chart type {self.chart_type!r}")
        grouped_type = self.chart_type in (GROUPED_BAR, LINE_MULTI)
        if grouped_type and not self.table.grouped:
            raise ValueError(f"{self.chart_type} requires a group column")
        if not grouped_type and self.table.grouped:
            raise ValueError(f"{self.chart_type} requires an ungrouped table")
        if self.chart_type == PIE:
            values = [r[self.table.y_column] for r in self.table.base.rows]
            if any(v < 0 for v in values):
                raise ValueError("pie charts require non-negative values")
            if sum(values) <= 0:
                raise ValueError("pie charts need a positive total")
        w, h = self.canvas
        if w <= 0 or h <= 0:
            raise ValueError("canvas must be positive")


@dataclass(frozen=True)
class MarkRecord:
    """Provenance for one data-encoding mark; value is the exact source cell."""

    series: str
    x_label: str
    value: float
    bbox: Rect
    color: str

    def to_json_dict(self) -> dict:
        return {
            "series": self.series,
            "x_label": self.x_label,
            "value": self.value,
            "bbox": self.bbox.as_list(),
            "color": self.color,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MarkRecord":
        return cls(
            data["series"],
            data["x_label"],
            float(data["value"]),
            Rect(*data["bbox"]),
            data["color"],
        )


@dataclass(frozen=True)
class RenderedChart:
    """SVG document plus the geometry/provenance sidecar."""

    svg: str
    chart_type: str
    canvas: tuple[int, int]
    plot_area: Rect
    marks: tuple[MarkRecord, ...]
    axis_ticks: tuple[tuple[float, str, float], ...]  # (pixel, label, value)
    legend: tuple[tuple[str, str], ...]  # (series name, color hex)
    table: DataTable  # canonical wide view of the charted data
    style: StyleParams
    id: Optional[str] = None

    def to_sidecar_dict(self) -> dict:
        return {
            "id": self.id,
            "chart_type": self.chart_type,
            "canvas": list(self.canvas),
            "plot_area": self.plot_area.as_list(),
            "marks": [m.to_json_dict() for m in self.marks],
            "axis_ticks": [[p, label, v] for p, label, v in self.axis_ticks],
            "legend": [[name, color] for name, color in self.legend],
            "table": self.table.to_json_dict(),
            "style": self.style.to_json_dict(),
        }

    def to_sidecar_json(self) -> str:
        return json.dumps(self.to_sidecar_dict(), ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_sidecar_dict(cls, data: dict, svg: str = "") -> "RenderedChart":
        return cls(
            svg=svg,
            chart_type=data["chart_type"],
            canvas=tuple(data["canvas"]),
            plot_area=Rect(*data["plot_area"]),
            marks=tuple(MarkRecord.from_json_dict(m) for m in data["marks"]),
            axis_ticks=tuple((p, label, v) for p, label, v in data["axis_ticks"]),
            legend=tuple((n, c) for n, c in data["legend"]),
            table=DataTable.from_json_dict(data["table"]),
            style=StyleParams.from_json_dict(data["style"]),
            id=data.get("id"),
        )

    @classmethod
    def from_sidecar_json(cls, text: str, svg: str = "") -> "RenderedChart":
        return cls.from_sidecar_dict(json.loads(text), svg=svg)


def choose_chart_type(
    table: ChartReadyTable, rng_seed: int, weights: Optional[dict] = None
) -> str:
    """Pick an admissible chart type for a table, seed-deterministically.

    Grouped tables admit grouped bars or multi-series lines; ungrouped
    tables admit simple bars, single lines, and (when all values are
    non-negative and there are 2..8 rows) pies. ``weights`` may key either
    families ("bar", "line", "pie") or concrete chart types.
    """
    merged = dict(DEFAULT_TYPE_WEIGHTS)
    if weights:
        merged.update(weights)

    def weight_of(chart_type: str) -> float:
        if chart_type in merged:
            return float(merged[chart_type])
        return float(merged.get(FAMILY[chart_type], 0.0))

    if table.grouped:
        admissible = [GROUPED_BAR, LINE_MULTI]
    else:
        admissible = [SIMPLE_BAR, LINE_SINGLE]
        values = [r[table.y_column] for r in table.base.rows]
        if all(v >= 0 for v in values) and 2 <= len(values) <= 8 and sum(values) > 0:
            admissible.append(PIE)
    ws = [weight_of(t) for t in admissible]
    if sum(ws) <= 0:
        ws = [1.0] * len(admissible)
    rng = random.Random(rng_seed)
    return rng.choices(admissible, weights=ws, k=1)[0]


_ENUM_FIELDS = {
    "palette": PALETTE_NAMES,
    "line_dash": ("solid", "dotted", "dashed"),
    "legend_marker": ("rect", "circle"),
    "grid": ("none", "horizontal", "both"),
}
_RANGE_FIELDS = {"bar_thickness", "bar_gap", "font_px", "margin_jitter"}


def diversify_style(rng_seed: int, overrides: Optional[dict] = None) -> StyleParams:
    """Draw a full style seed-deterministically within the allowed ranges.

    ``overrides`` pins fields (scalar), narrows numeric ranges ([lo, hi]),
    or restricts enum choices (list).
    """
    rng = random.Random(rng_seed)
    drawn = {
        "palette": rng.choice(PALETTE_NAMES),
        "bar_thickness": rng.uniform(0.4, 0.9),
        "bar_gap": rng.uniform(0.05, 0.4),
        "line_dash": rng.choice(("solid", "dotted", "dashed")),
        "legend_marker": rng.choice(("rect", "circle")),
        "grid": rng.choice(("none", "horizontal", "both")),
        "show_data_labels": rng.random() < 0.5,
        "font_px": rng.randint(9, 16),
        "margin_jitter": rng.uniform(0.0, 1.0),
    }
    for key, value in (overrides or {}).items():
        if key not in drawn:
            raise ValueError(f"unknown style field {key!r}")
        if isinstance(value, (list, tuple)):
            if key in _RANGE_FIELDS and len(value) == 2:
                lo, hi = value
                if key == "font_px":
                    drawn[key] = rng.randint(int(lo), int(hi))
                else:
                    drawn[key] = rng.uniform(float(lo), float(hi))
            elif key in _ENUM_FIELDS:
                drawn[key] = rng.choice(list(value))
            else:
                raise ValueError(f"cannot override {key!r} with {value!r}")
        else:
            drawn[key] = value
    return StyleParams(**drawn)


def nice_ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """Nice-number ticks (1/2/5 x 10^k steps) covering [lo, hi], 4..8 of them.

    Returns ascending (value, label) pairs; values are exactly the parsed
    labels, so a fitted axis inverts without residual.
    """
    if hi < lo:
        lo, hi = hi, lo
    if hi == lo:
        pad = max(1.0, abs(lo) * 0.1)
        if lo == 0:
            hi = pad
        else:
            lo, hi = lo - pad, hi + pad
    span = hi - lo
    k0 = math.floor(math.log10(span))
    best = None
    for k in range(k0 + 1, k0 - 3, -1):
        for m in (5, 2, 1):
            step = m * (10.0 ** k)
            i0 = math.floor(lo / step + 1e-9)
            i1 = math.ceil(hi / step - 1e-9)
            count = i1 - i0 + 1
            if 4 <= count <= 8:
                return _build_ticks(i0, i1, step, max(0, -k))
            if best is None or abs(count - 6) < abs(best[4] - 6):
                best = (i0, i1, step, max(0, -k), count)
    i0, i1, step, decimals, _count = best
    return _build_ticks(i0, i1, step, decimals)


def _build_ticks(i0: int, i1: int, step: float, decimals: int) -> list[tuple[float, str]]:
    ticks = []
    for i in range(i0, i1 + 1):
        label = f"{i * step:.{decimals}f}"
        if "." in label:
            label = label.rstrip("0").rstrip(".")
        if label in ("-0", ""):
            label = "0"
        ticks.append((float(label), label))
    return ticks


def _px(value: float) -> str:
    s = f"{value:.6f}".rstrip("0").rstrip(".")
    return s if s not in ("", "-0") else "0"


def _attr(value: str) -> str:
    return quoteattr(str(value))


class _SvgWriter:
    def __init__(self, width: int, height: int, font_px: int):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}" '
            f'font-family="Helvetica, Arial, sans-serif" font-size="{font_px}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        ]

    def add(self, fragment: str):
        self.parts.append(fragment)

    def text(self, content, x, y, cls=None, attrs=None, anchor="middle", extra=""):
        bits = [f'<text x="{_px(x)}" y="{_px(y)}"']
        if cls:
            bits.append(f' class="{cls}"')
        for key, val in (attrs or {}).items():
            bits.append(f" {key}={_attr(val)}")
        bits.append(f' text-anchor="{anchor}"{extra}>{escape(str(content))}</text>')
        self.add("".join(bits))

    def finish(self) -> str:
        return "\n".join(self.parts) + "\n</svg>\n"


def _margins(style: StyleParams, canvas: tuple[int, int]) -> Rect:
    j = style.margin_jitter
    fp = style.font_px
    top = 56 + round(18 * j)
    right = 24 + round(40 * j)
    bottom = 46 + round(16 * j) + fp
    left = 52 + round(26 * j) + fp
    w, h = canvas
    return Rect(left, top, w - left - right, h - top - bottom)


def _series_layout(spec: ChartSpec):
    """Resolve (series names, per-series colors, x labels) for a spec."""
    table = spec.table
    colors = palette_colors(spec.style.palette)
    xs = table.x_labels()
    if spec.chart_type == PIE:
        series = list(xs)
    elif table.grouped:
        series = table.group_labels()
    else:
        series = [table.y_name]
    series_colors = {s: colors[i % len(colors)] for i, s in enumerate(series)}
    return series, series_colors, xs


def render(spec: ChartSpec) -> RenderedChart:
    """Render a chart spec into SVG plus mark-level provenance."""
    style, table = spec.style, spec.table
    width, height = spec.canvas
    plot = _margins(style, spec.canvas)
    if plot.w < MIN_PLOT_SIDE or plot.h < MIN_PLOT_SIDE:
        raise CanvasTooSmall(
            f"plot area {plot.w:.0f}x{plot.h:.0f} is below {MIN_PLOT_SIDE:.0f}px"
        )

    series, series_colors, xs = _series_layout(spec)
    svg = _SvgWriter(width, height, style.font_px)

    title_attrs = {
        "data-x-field": table.x_name,
        "data-y-field": table.y_name,
    }
    if table.y_unit:
        title_attrs["data-y-unit"] = table.y_unit
    if table.group_name:
        title_attrs["data-group-field"] = table.group_name
    title = f"{table.y_name} by {table.x_name}"
    if table.group_name:
        title += f" and {table.group_name}"
    svg.text(title, width / 2, 20, cls="chart-title", attrs=title_attrs,
             extra=' font-weight="bold"')

    _render_legend(svg, spec, series, series_colors, plot)

    if spec.chart_type == PIE:
        marks = _render_pie(svg, spec, series_colors, plot)
        ticks: list[tuple[float, str, float]] = []
    else:
        marks, ticks = _render_xy(svg, spec, series, series_colors, xs, plot)

    legend = tuple((s, series_colors[s]) for s in series)
    return RenderedChart(
        svg=svg.finish(),
        chart_type=spec.chart_type,
        canvas=spec.canvas,
        plot_area=plot,
        marks=tuple(marks),
        axis_ticks=tuple(ticks),
        legend=legend,
        table=table.to_wide_table(),
        style=style,
    )


def _render_legend(svg, spec, series, series_colors, plot):
    x = plot.x
    y = 38
    for name in series:
        color = series_colors[name]
        group = [f'<g class="legend-item" data-series={_attr(name)} '
                 f'transform="translate({_px(x)},{_px(y)})">']
        if spec.style.legend_marker == "rect":
            group.append(f'<rect x="0" y="-9" width="11" height="11" fill="{color}"/>')
        else:
            group.append(f'<circle cx="5.5" cy="-3.5" r="5.5" fill="{color}"/>')
        group.append(
            f'<text x="15" y="0" text-anchor="start">{escape(name)}</text></g>'
        )
        svg.add("".join(group))
        x += 26 + 0.62 * spec.style.font_px * len(name)


def _render_xy(svg, spec, series, series_colors, xs, plot):
    style, table = spec.style, spec.table
    values = [row[table.y_column] for row in table.base.rows]
    is_bar = spec.chart_type in (SIMPLE_BAR, GROUPED_BAR)
    if is_bar:
        lo, hi = min(0.0, min(values)), max(values)
    else:
        lo, hi = min(values), max(values)
    axis = nice_ticks(lo, hi)
    axis_min, axis_max = axis[0][0], axis[-1][0]

    def y_px(v: float) -> float:
        return plot.y + (axis_max - v) / (axis_max - axis_min) * plot.h

    n = len(xs)
    band_w = plot.w / n
    centers = {x: plot.x + (i + 0.5) * band_w for i, x in enumerate(xs)}

    svg.add(
        f'<rect class="plot-area" x="{_px(plot.x)}" y="{_px(plot.y)}" '
        f'width="{_px(plot.w)}" height="{_px(plot.h)}" fill="none" stroke="#cccccc"/>'
    )
    if style.grid in ("horizontal", "both"):
        for value, _label in axis:
            gy = y_px(value)
            svg.add(
                f'<line class="grid-line" x1="{_px(plot.x)}" y1="{_px(gy)}" '
                f'x2="{_px(plot.right)}" y2="{_px(gy)}" stroke="#e3e3e3"/>'
            )
    if style.grid == "both":
        for x in xs:
            cx = centers[x]
            svg.add(
                f'<line class="grid-line" x1="{_px(cx)}" y1="{_px(plot.y)}" '
                f'x2="{_px(cx)}" y2="{_px(plot.bottom)}" stroke="#e3e3e3"/>'
            )

    ticks = []
    for value, label in axis:
        py = y_px(value)
        svg.add(
            f'<g class="axis-y-tick" transform="translate(0,{_px(py)})">'
            f'<line x1="{_px(plot.x - 5)}" y1="0" x2="{_px(plot.x)}" y2="0" '
            f'stroke="#444444"/>'
            f'<text x="{_px(plot.x - 8)}" y="0" text-anchor="end" '
            f'dominant-baseline="middle">{escape(label)}</text></g>'
        )
        ticks.append((py, label, value))
    for x in xs:
        cx = centers[x]
        svg.add(
            f'<g class="axis-x-tick" transform="translate({_px(cx)},0)">'
            f'<line x1="0" y1="{_px(plot.bottom)}" x2="0" y2="{_px(plot.bottom + 5)}" '
            f'stroke="#444444"/>'
            f'<text x="0" y="{_px(plot.bottom + 10 + style.font_px)}" '
            f'text-anchor="middle">{escape(x)}</text></g>'
        )

    width, height = spec.canvas
    svg.text(table.x_name, plot.cx, height - 10, cls="axis-title",
             attrs={"data-axis": "x", "data-field": table.x_name})
    y_title = table.y_name + (f" ({table.y_unit})" if table.y_unit else "")
    y_attrs = {"data-axis": "y", "data-field": table.y_name}
    if table.y_unit:
        y_attrs["data-unit"] = table.y_unit
    attr_str = " ".join(f"{k}={_attr(v)}" for k, v in y_attrs.items())
    svg.add(
        f'<text class="axis-title" {attr_str} text-anchor="middle" '
        f'transform="translate(16,{_px(plot.cy)}) rotate(-90)">'
        f"{escape(y_title)}</text>"
    )

    if is_bar:
        marks = _render_bars(svg, spec, series, series_colors, xs, centers,
                             band_w, plot, y_px, axis_min)
    else:
        marks = _render_lines(svg, spec, series, series_colors, xs, centers,
                              y_px, plot)
    return marks, ticks


def _bar_slots(spec, series, band_w):
    """Horizontal offsets (relative to band center) and width of each bar."""
    style = spec.style
    cluster_w = band_w * style.bar_thickness
    k = len(series)
    if k == 1:
        return {series[0]: -cluster_w / 2}, cluster_w
    sub_w = cluster_w / (k + (k - 1) * style.bar_gap)
    gap = sub_w * style.bar_gap
    offsets = {}
    for i, name in enumerate(series):
        offsets[name] = -cluster_w / 2 + i * (sub_w + gap)
    return offsets, sub_w


def _series_value(table, x, group_name):
    group = group_name if table.grouped else None
    try:
        return table.value(x, group)
    except KeyError:
        return None


def _render_bars(svg, spec, series, series_colors, xs, centers, band_w, plot,
                 y_px, axis_min):
    table, style = spec.table, spec.style
    offsets, bar_w = _bar_slots(spec, series, band_w)
    bottom = y_px(axis_min)
    marks = []
    labels = []
    for x in xs:
        for name in series:
            value = _series_value(table, x, name)
            if value is None:
                continue
            top = y_px(value)
            bx = centers[x] + offsets[name]
            color = series_colors[name]
            bbox = Rect(bx, top, bar_w, bottom - top)
            svg.add(
                f'<rect class="mark-bar" data-series={_attr(name)} '
                f'data-x={_attr(x)} x="{_px(bx)}" y="{_px(top)}" '
                f'width="{_px(bar_w)}" height="{_px(bottom - top)}" '
                f'fill="{color}"/>'
            )
            marks.append(MarkRecord(name, x, value, bbox, color))
            if style.show_data_labels:
                labels.append((format_number(value), bx + bar_w / 2, top - 4, name, x))
    for text, lx, ly, name, x in labels:
        svg.text(text, lx, ly, cls="mark-label",
                 attrs={"data-series": name, "data-x": x})
    return marks


def _render_lines(svg, spec, series, series_colors, xs, centers, y_px, plot):
    table, style = spec.table, spec.style
    dash = {"solid": "", "dotted": ' stroke-dasharray="2,5"',
            "dashed": ' stroke-dasharray="9,5"'}[style.line_dash]
    radius = 3.5
    per_series_points = {name: [] for name in series}
    for x in xs:
        for name in series:
            value = _series_value(table, x, name)
            if value is not None:
                per_series_points[name].append((x, centers[x], y_px(value), value))
    for name in series:
        pts = " ".join(f"{_px(px)},{_px(py)}" for _x, px, py, _v in per_series_points[name])
        svg.add(
            f'<polyline class="mark-line" data-series={_attr(name)} '
            f'points="{pts}" fill="none" stroke="{series_colors[name]}" '
            f'stroke-width="2.5"{dash}/>'
        )
    marks = []
    for x in xs:
        for name in series:
            for px_, py, value in (
                (p[1], p[2], p[3]) for p in per_series_points[name] if p[0] == x
            ):
                color = series_colors[name]
                bbox = Rect(px_ - radius, py - radius, 2 * radius, 2 * radius)
                svg.add(
                    f'<circle class="mark-point" data-series={_attr(name)} '
                    f'data-x={_attr(x)} cx="{_px(px_)}" cy="{_px(py)}" '
                    f'r="{_px(radius)}" fill="{color}"/>'
                )
                marks.append(MarkRecord(name, x, value, bbox, color))
                if style.show_data_labels:
                    svg.text(format_number(value), px_, py - 7, cls="mark-label",
                             attrs={"data-series": name, "data-x": x})
    return marks


def _render_pie(svg, spec, series_colors, plot):
    table, style = spec.table, spec.style
    xs = table.x_labels()
    values = [table.value(x) for x in xs]
    total = sum(values)
    cx, cy = plot.cx, plot.cy
    radius = 0.42 * min(plot.w, plot.h)

    def point(theta: float) -> tuple[float, float]:
        return cx + radius * math.cos(theta), cy + radius * math.sin(theta)

    marks = []
    theta = -math.pi / 2  # start at 12 o'clock, sweep clockwise
    for x, value in zip(xs, values):
        frac = value / total
        sweep = 2 * math.pi * frac
        theta_end = theta + sweep
        color = series_colors[x]
        full = frac >= 1.0 - 1e-12
        if full:
            x0, y0 = point(theta)
            x1, y1 = point(theta + math.pi)
            d = (
                f"M {_px(x0)} {_px(y0)} "
                f"A {_px(radius)} {_px(radius)} 0 1 1 {_px(x1)} {_px(y1)} "
                f"A {_px(radius)} {_px(radius)} 0 1 1 {_px(x0)} {_px(y0)} Z"
            )
        else:
            x0, y0 = point(theta)
            x1, y1 = point(theta_end)
            large = 1 if sweep > math.pi else 0
            d = (
                f"M {_px(cx)} {_px(cy)} L {_px(x0)} {_px(y0)} "
                f"A {_px(radius)} {_px(radius)} 0 {large} 1 {_px(x1)} {_px(y1)} Z"
            )
        svg.add(
            f'<path class="mark-slice" data-series={_attr(x)} data-x={_attr(x)} '
            f'd="{d}" fill="{color}" stroke="#ffffff"/>'
        )
        bbox = sector_bbox(cx, cy, radius, theta, theta_end, full)
        marks.append(MarkRecord(x, x, value, bbox, color))
        if style.show_data_labels and frac > 0:
            mid = (theta + theta_end) / 2
            lx = cx + 0.62 * radius * math.cos(mid)
            ly = cy + 0.62 * radius * math.sin(mid)
            svg.text(format_number(value), lx, ly, cls="mark-label",
                     attrs={"data-series": x, "data-x": x})
        theta = theta_end
    return marks


def sector_bbox(cx, cy, r, theta0, theta1, full):
    """Bounding box of a pie sector; a partial sector's box takes in the centre."""
    pts = [] if full else [(cx, cy)]
    for t in (theta0, theta1):
        pts.append((cx + r * math.cos(t), cy + r * math.sin(t)))
    m = math.ceil(theta0 / (math.pi / 2))
    while m * (math.pi / 2) <= theta1 + 1e-12:
        a = m * (math.pi / 2)
        pts.append((cx + r * math.cos(a), cy + r * math.sin(a)))
        m += 1
    min_x = min(p[0] for p in pts)
    max_x = max(p[0] for p in pts)
    min_y = min(p[1] for p in pts)
    max_y = max(p[1] for p in pts)
    return Rect(min_x, min_y, max_x - min_x, max_y - min_y)
