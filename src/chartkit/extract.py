"""Reconstruct data tables and mark geometry from SVG charts.

The parser walks the SVG tree once with a profile of class selectors,
composing ``translate`` transform chains to get absolute bounding boxes for
marks and ticks. Values come verbatim from data labels when present;
otherwise a linear pixel-to-value map is least-squares fitted from the
numeric y-tick labels and inverted over the mark geometry (bar tops, point
centers). Pie slices without labels can only yield proportions of the whole.

Selectors are ``tag.class``, ``.class`` or a bare ``tag`` (e.g.
``rect.mark-bar``, ``.mark-bar`` or ``rect``); an element is the first kind
in ``KINDS`` whose selector it matches. Only ``translate`` transforms are
honored on the path to measured kinds; ``scale``/``matrix``/``rotate``
there raise MalformedSvg rather than silently mis-measuring.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, fields
from typing import Optional

from .errors import (
    InsufficientTicks,
    InvalidConfig,
    MalformedSvg,
    NoMarksFound,
    NonLinearAxis,
    ScaleRequired,
)
from .jsonl import read_json_object
from .palettes import rgb_distance
from .synth import MarkRecord, Rect, sector_bbox
from .tables import (
    CATEGORICAL,
    EXP_NUMBER_RE,
    NUMERIC,
    UNIT_SUFFIX_RE,
    Column,
    DataTable,
    left_sum,
    parse_number,
)

_TRANSFORM_RE = re.compile(r"(\w+)\s*\(([^)]*)\)")
_PATH_ARITY = {"M": 2, "L": 2, "A": 7}  # numbers each slice-path command needs

AMBIGUOUS_COLOR_DISTANCE = 900  # squared RGB distance; beyond this, guesswork
_HEX_COLOR_RE = re.compile(r"#(?:[0-9a-fA-F]{3}){1,2}")  # the colors rgb_distance reads

# Selector kinds in priority order: an element is the first kind it matches.
KINDS = ("bar", "slice", "point", "line", "mark_label", "x_tick", "y_tick",
         "legend_item", "chart_title", "axis_title")
# Kinds whose geometry is measured, so only translates may sit on their path.
MEASURED = frozenset({"bar", "slice", "point", "mark_label", "x_tick", "y_tick"})


@dataclass(frozen=True)
class SelectorProfile:
    """Named selectors targeting one chart taxonomy.

    The defaults match the renderer in this package; third-party SVG corpora
    can be targeted by loading a different profile from JSON, no code
    changes needed.
    """

    bar: str = ".mark-bar"
    slice: str = ".mark-slice"
    point: str = ".mark-point"
    line: str = ".mark-line"
    x_tick: str = ".axis-x-tick"
    y_tick: str = ".axis-y-tick"
    legend_item: str = ".legend-item"
    chart_title: str = ".chart-title"
    axis_title: str = ".axis-title"
    mark_label: str = ".mark-label"
    series_attr: str = "data-series"
    x_attr: str = "data-x"
    value_attr: Optional[str] = None

    def __post_init__(self):
        selectors = []
        for kind in KINDS:
            tag, _, cls = (getattr(self, kind) or "").partition(".")
            if not tag and not cls:
                raise ValueError(f"selector {kind!r} must name a tag or a class")
            selectors.append((kind, tag, cls))
        object.__setattr__(self, "_selectors", tuple(selectors))

    def kind_of(self, elem) -> Optional[str]:
        """The first kind in ``KINDS`` whose selector matches ``elem``."""
        tag = _local_name(elem.tag)
        classes = (elem.get("class") or "").split()
        for kind, want_tag, cls in self._selectors:
            if (not want_tag or want_tag == tag) and (not cls or cls in classes):
                return kind
        return None

    @classmethod
    def from_json_dict(cls, data: dict) -> "SelectorProfile":
        """A profile from parsed JSON; ``InvalidConfig`` names what is wrong."""
        if not isinstance(data, dict):
            raise InvalidConfig(
                f"a selector profile is a JSON object, not {type(data).__name__}")
        names = {f.name for f in fields(cls)}
        bad = sorted(k for k, v in data.items() if k not in names
                     or (v is not None and not isinstance(v, str)))
        if bad:
            raise InvalidConfig(f"unknown or non-string selector profile keys: {bad}")
        try:
            return cls(**data)
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from exc

    @classmethod
    def from_json_file(cls, path) -> "SelectorProfile":
        return cls.from_json_dict(read_json_object(path))


BUILTIN_PROFILE = SelectorProfile()


def load_profile(name_or_path) -> SelectorProfile:
    """Load a selector profile: a shipped name or a JSON file path.

    Shipped profiles live in ``chartkit/profiles`` ("builtin",
    "plotly_like", "chartblocks_like"); anything else is treated as a
    filesystem path. The third-party profiles are best-effort examples:
    correctness is only contractual for the built-in taxonomy.
    """
    from pathlib import Path

    shipped = Path(__file__).parent / "profiles" / f"{name_or_path}.json"
    if shipped.exists():
        return SelectorProfile.from_json_file(shipped)
    return SelectorProfile.from_json_file(name_or_path)


@dataclass
class RawMark:
    kind: str  # bar | slice | point
    bbox: Rect
    series: Optional[str]
    x: Optional[str]
    fill: Optional[str]
    value: Optional[float] = None  # from value_attr, when configured
    sweep_deg: Optional[float] = None  # pie slices
    start_deg: Optional[float] = None


@dataclass
class ValueLabel:
    text: str
    series: Optional[str]
    x: Optional[str]
    cx: float
    cy: float


@dataclass
class ParsedChart:
    marks: list[RawMark] = field(default_factory=list)
    x_ticks: list[tuple[float, str]] = field(default_factory=list)
    y_ticks: list[tuple[float, str]] = field(default_factory=list)
    legend: list[tuple[str, str]] = field(default_factory=list)
    labels: list[ValueLabel] = field(default_factory=list)
    chart_meta: dict = field(default_factory=dict)
    axis_fields: dict = field(default_factory=dict)  # axis -> (name, unit)
    diagnostics: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class AxisScale:
    """Linear pixel-to-value map fitted from tick labels."""

    a: float
    b: float
    max_residual: float
    label_decimals: int = 0

    def value(self, pixel: float) -> float:
        return self.a * pixel + self.b


@dataclass
class ExtractionResult:
    table: DataTable
    marks: list[MarkRecord]
    confidence: str  # "exact" | "recovered"
    diagnostics: list[str]

    def to_json_dict(self) -> dict:
        return {
            "table": self.table.to_json_dict(),
            "marks": [m.to_json_dict() for m in self.marks],
            "confidence": self.confidence,
            "diagnostics": list(self.diagnostics),
        }


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _parse_transform(text: str) -> tuple[float, float, bool]:
    """Returns (dx, dy, clean); clean is False when non-translate funcs occur."""
    dx = dy = 0.0
    clean = True
    for func, args in _TRANSFORM_RE.findall(text):
        if func == "translate":
            nums = [float(n) for n in EXP_NUMBER_RE.findall(args)]
            if nums:
                dx += nums[0]
                dy += nums[1] if len(nums) > 1 else 0.0
        else:
            clean = False
    return dx, dy, clean


def _float_attr(elem, name) -> float:
    raw = elem.get(name)
    if raw is None:
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise MalformedSvg(
            f"<{_local_name(elem.tag)}> attribute {name}={raw!r} is not a finite number"
        )
    return value


def _text_content(elem) -> str:
    return "".join(elem.itertext()).strip()


def _shape_bbox(elem, tx, ty) -> Optional[Rect]:
    tag = _local_name(elem.tag)
    if tag == "rect":
        return Rect(_float_attr(elem, "x") + tx, _float_attr(elem, "y") + ty,
                    _float_attr(elem, "width"), _float_attr(elem, "height"))
    if tag == "circle":
        r = _float_attr(elem, "r")
        return Rect(_float_attr(elem, "cx") + tx - r,
                    _float_attr(elem, "cy") + ty - r, 2 * r, 2 * r)
    return None


def _parse_slice_path(d: str, tx: float, ty: float):
    """Geometry of a pie slice path: (bbox, start_deg, sweep_deg).

    Understands circle sectors written as M center L p0 A ... p1 Z and
    full circles written as two half arcs. Returns None when the path does
    not look like either.
    """
    tokens = re.findall(r"[A-Za-z]|" + EXP_NUMBER_RE.pattern, d)
    cmds: list[tuple[str, list[float]]] = []
    i = 0
    while i < len(tokens):
        if tokens[i].isalpha():
            cmd = tokens[i]
            i += 1
            nums = []
            while i < len(tokens) and not tokens[i].isalpha():
                nums.append(float(tokens[i]))
                i += 1
            cmds.append((cmd, nums))
        else:  # pragma: no cover - malformed path
            i += 1
    # A command short of the numbers it needs matches neither shape.
    names = [c if len(nums) >= _PATH_ARITY.get(c, 0) else "?" for c, nums in cmds]
    if names[:3] == ["M", "L", "A"]:
        cx, cy = cmds[0][1][0] + tx, cmds[0][1][1] + ty
        x0, y0 = cmds[1][1][0] + tx, cmds[1][1][1] + ty
        arc = cmds[2][1]
        r, x1, y1 = arc[0], arc[5] + tx, arc[6] + ty
        theta0 = math.atan2(y0 - cy, x0 - cx)
        theta1 = math.atan2(y1 - cy, x1 - cx)
        sweep = (theta1 - theta0) % (2 * math.pi)
        return sector_bbox(cx, cy, r, theta0, theta0 + sweep, full=False), \
            math.degrees(theta0), math.degrees(sweep)
    if names[:3] == ["M", "A", "A"]:
        x0, y0 = cmds[0][1][0] + tx, cmds[0][1][1] + ty
        arc = cmds[1][1]
        r, x1, y1 = arc[0], arc[5] + tx, arc[6] + ty
        cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
        theta0 = math.atan2(y0 - cy, x0 - cx)
        return sector_bbox(cx, cy, r, theta0, theta0 + 2 * math.pi, full=True), \
            math.degrees(theta0), 360.0
    return None


class _Tick:
    """A tick the walk is inside: its position and label come from its
    first ``<text>``, itself included."""

    def __init__(self, axis):
        self.axis, self.entry = axis, None

    def visit(self, elem, tx, ty, tainted):
        if self.entry is None and _local_name(elem.tag) == "text":
            if tainted:
                raise MalformedSvg("tick text sits under a non-translate "
                                   "transform; refusing to measure")
            offset = tx if self.axis == "x" else ty
            self.entry = (_float_attr(elem, self.axis) + offset, _text_content(elem))


class _LegendItem:
    """A legend item the walk is inside: named by the series attribute, else
    its first text; colored by the first set, non-``none`` fill of a
    ``rect``, ``circle`` or ``path`` in it, itself included."""

    def __init__(self, name):
        self.name, self.color = name, None

    def visit(self, elem, tx, ty, tainted):
        tag = _local_name(elem.tag)
        if self.name is None and tag == "text":
            self.name = _text_content(elem)
        if (self.color is None and tag in ("rect", "circle", "path")
                and elem.get("fill") not in (None, "none")):
            self.color = elem.get("fill")


def parse_chart_svg(svg: str, profile: SelectorProfile = BUILTIN_PROFILE) -> ParsedChart:
    """Pull marks, ticks, legend and titles out of an SVG document.

    Raises MalformedSvg for unparseable XML, a geometry attribute that is
    not a finite number, or measured geometry under a non-translate
    transform, and NoMarksFound when nothing matches a mark selector.
    """
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        raise MalformedSvg(f"not well-formed XML: {exc}") from exc

    parsed = ParsedChart()
    ticks: dict[str, list[_Tick]] = {"x_tick": [], "y_tick": []}
    legend: list[_LegendItem] = []
    # (element, translate offset composed from the root, whether a
    # non-translate transform sits on that path, ticks and legend items above)
    stack = [(root, 0.0, 0.0, False, ())]
    while stack:
        elem, tx, ty, tainted, owners = stack.pop()
        transform = elem.get("transform")
        if transform:
            dx, dy, clean = _parse_transform(transform)
            tx, ty, tainted = tx + dx, ty + dy, tainted or not clean
        kind = profile.kind_of(elem)
        if tainted and kind in MEASURED:
            raise MalformedSvg(f"{kind.replace('_', ' ')} sits under a "
                               "non-translate transform; refusing to measure")
        if kind in ("bar", "slice", "point"):
            _collect_mark(parsed, profile, elem, kind, tx, ty)
        elif kind == "mark_label":
            parsed.labels.append(ValueLabel(
                _text_content(elem),
                elem.get(profile.series_attr),
                elem.get(profile.x_attr),
                _float_attr(elem, "x") + tx,
                _float_attr(elem, "y") + ty,
            ))
        elif kind in ("x_tick", "y_tick"):
            ticks[kind].append(_Tick(kind[0]))
            owners += (ticks[kind][-1],)
        elif kind == "legend_item":
            legend.append(_LegendItem(elem.get(profile.series_attr)))
            owners += (legend[-1],)
        elif kind == "chart_title":
            for key in ("data-x-field", "data-y-field", "data-y-unit",
                        "data-group-field"):
                if elem.get(key) is not None:
                    parsed.chart_meta[key] = elem.get(key)
        elif kind == "axis_title":
            axis = elem.get("data-axis") or ""
            name = elem.get("data-field") or _text_content(elem)
            unit = elem.get("data-unit")
            if axis in ("x", "y"):
                parsed.axis_fields[axis] = (name, unit)
        for owner in owners:
            owner.visit(elem, tx, ty, tainted)
        stack.extend((child, tx, ty, tainted, owners) for child in reversed(elem))

    if not parsed.marks:
        raise NoMarksFound("no element matched a mark selector")
    parsed.x_ticks = [t.entry for t in ticks["x_tick"] if t.entry is not None]
    parsed.y_ticks = [t.entry for t in ticks["y_tick"] if t.entry is not None]
    parsed.legend = [(item.name, item.color or "#000000")
                     for item in legend if item.name]
    return parsed


def _collect_mark(parsed, profile, elem, kind, tx, ty):
    series = elem.get(profile.series_attr)
    x = elem.get(profile.x_attr)
    fill = elem.get("fill")
    value = None
    if profile.value_attr and elem.get(profile.value_attr) is not None:
        parsed_v = parse_number(elem.get(profile.value_attr))
        value = parsed_v[0] if parsed_v else None
    if kind == "slice":
        geo = _parse_slice_path(elem.get("d") or "", tx, ty)
        if geo is None:
            parsed.diagnostics.append("unrecognized slice path geometry")
            return
        bbox, start_deg, sweep_deg = geo
        parsed.marks.append(RawMark(kind, bbox, series, x, fill, value,
                                    sweep_deg=sweep_deg, start_deg=start_deg))
        return
    bbox = _shape_bbox(elem, tx, ty)
    if bbox is None:
        parsed.diagnostics.append(
            f"mark element <{_local_name(elem.tag)}> has no usable geometry"
        )
        return
    parsed.marks.append(RawMark(kind, bbox, series, x, fill, value))


def _label_decimals(text: str) -> int:
    m = EXP_NUMBER_RE.search(text.replace(",", ""))
    if not m or "." not in m.group(0):
        return 0
    return len(m.group(0).split(".")[1])


def fit_axis_scale(ticks: list[tuple[float, str]]) -> AxisScale:
    """Least-squares fit value = a*pixel + b over all numeric ticks.

    Raises InsufficientTicks with fewer than two numeric labels and
    NonLinearAxis when the best fit leaves a residual above 2% of the tick
    value range (log axes, garbled labels) or cannot be computed in floats.
    """
    points = []
    decimals = 0
    for pixel, label in ticks:
        parsed = parse_number(label)
        if parsed is None:
            continue
        points.append((pixel, parsed[0]))
        decimals = max(decimals, _label_decimals(label))
    if len(points) < 2 or len({p for p, _ in points}) < 2:
        raise InsufficientTicks(
            f"need >=2 numeric ticks at distinct pixels, got {len(points)}"
        )
    n = len(points)
    try:
        mean_p = left_sum(p for p, _ in points) / n
        mean_v = left_sum(v for _, v in points) / n
        var_p = left_sum((p - mean_p) ** 2 for p, _ in points)
        cov = left_sum((p - mean_p) * (v - mean_v) for p, v in points)
        a = cov / var_p
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonLinearAxis(f"tick pixels out of numeric range: {exc}") from exc
    b = mean_v - a * mean_p
    max_residual = max(abs(a * p + b - v) for p, v in points)
    value_range = max(v for _, v in points) - min(v for _, v in points)
    if not max_residual <= 0.02 * value_range:  # a NaN fit is rejected too
        raise NonLinearAxis(
            f"max residual {max_residual:.4g} exceeds 2% of range {value_range:.4g}"
        )
    return AxisScale(a, b, max_residual, decimals)


def extract_chart(svg: str, profile: SelectorProfile = BUILTIN_PROFILE) -> ExtractionResult:
    """Parse + scale-fit + reconstruct in one call."""
    parsed = parse_chart_svg(svg, profile)
    scale = None
    try:
        scale = fit_axis_scale(parsed.y_ticks)
    except InsufficientTicks:
        pass  # no numeric axis (pie) or too few ticks; labels may still carry values
    except NonLinearAxis as exc:
        parsed.diagnostics.append(f"axis fit rejected: {exc}")
    return reconstruct_table(parsed, scale)


def reconstruct_table(parsed: ParsedChart, scale: Optional[AxisScale] = None) -> ExtractionResult:
    """Rebuild the wide data table from parsed chart elements.

    Values are taken verbatim from labels/attributes (confidence "exact");
    unlabeled bars and points are recovered through the axis scale,
    rounded to the precision implied by the tick labels plus two digits of
    between-tick reading. Unlabeled pies yield proportions of the whole.
    """
    if not parsed.marks:
        raise NoMarksFound("nothing to reconstruct")
    kinds = {m.kind for m in parsed.marks}
    if "slice" in kinds:
        return _reconstruct_pie(parsed)
    return _reconstruct_xy(parsed, scale)


def _label_lookup(parsed: ParsedChart):
    keyed = {}
    loose = []
    for lab in parsed.labels:
        value = parse_number(lab.text)
        if value is None:
            continue
        if lab.series is not None and lab.x is not None:
            keyed[(lab.series, lab.x)] = value[0]
        else:
            loose.append((lab, value[0]))
    return keyed, loose


def _nearest_loose_label(mark: RawMark, loose) -> Optional[float]:
    cx, cy = mark.bbox.cx, mark.bbox.y
    best, best_d = None, float("inf")
    for lab, value in loose:
        d = (lab.cx - cx) ** 2 + (lab.cy - cy) ** 2
        if d < best_d:
            best, best_d = value, d
    return best


def _labeled_value(mark: RawMark, keyed, loose) -> Optional[float]:
    """A mark's value as the chart states it: its keyed label, else its value
    attribute, else (when no label is keyed) the nearest loose label."""
    value = keyed.get((mark.series, mark.x))
    if value is None:
        value = mark.value
    if value is None and not keyed:
        value = _nearest_loose_label(mark, loose)
    return value


def _series_for_mark(mark: RawMark, legend: list[tuple[str, str]], diagnostics) -> Optional[str]:
    if mark.series is not None:
        return mark.series
    if not legend:
        return None
    if mark.fill is None:
        diagnostics.append("mark without series attribute or fill color")
        return legend[0][0]
    for name, color in legend:
        if color.lower() == mark.fill.lower():
            return name
    for color in (mark.fill, *(color for _, color in legend)):
        if not _HEX_COLOR_RE.fullmatch(color):
            raise MalformedSvg(f"fill {color!r} is not a #rgb or #rrggbb color")
    scored = sorted(
        (rgb_distance(color, mark.fill), name) for name, color in legend
    )
    if scored[0][0] > AMBIGUOUS_COLOR_DISTANCE:
        diagnostics.append(
            f"fill {mark.fill} matched legend series {scored[0][1]!r} only loosely"
        )
    return scored[0][1]


def _x_label_for_mark(mark: RawMark, x_ticks, fallback: str) -> str:
    if mark.x is not None:
        return mark.x
    if x_ticks:
        return min(x_ticks, key=lambda t: abs(t[0] - mark.bbox.cx))[1]
    return fallback


def _column_names(parsed: ParsedChart):
    meta = parsed.chart_meta
    x_name = meta.get("data-x-field")
    y_name = meta.get("data-y-field")
    y_unit = meta.get("data-y-unit")
    if x_name is None and "x" in parsed.axis_fields:
        x_name = parsed.axis_fields["x"][0]
    if y_name is None and "y" in parsed.axis_fields:
        y_name, unit = parsed.axis_fields["y"]
        y_unit = y_unit if y_unit is not None else unit
        m = UNIT_SUFFIX_RE.match(y_name)
        if m and y_unit is None:
            y_name, y_unit = m.group(1), m.group(2)
    return x_name or "label", y_name or "value", y_unit


def _table(columns, rows) -> DataTable:
    try:
        return DataTable(columns, rows)
    except ValueError as exc:  # a non-finite value or a repeated column name
        raise MalformedSvg(f"chart does not form a table: {exc}") from exc


def _reconstruct_xy(parsed: ParsedChart, scale) -> ExtractionResult:
    diagnostics = list(parsed.diagnostics)
    marks = [m for m in parsed.marks if m.kind in ("bar", "point")]
    kind = "bar" if any(m.kind == "bar" for m in marks) else "point"
    if any(m.kind != kind for m in marks):
        diagnostics.append("mixed bar/point marks; reconstructing the majority kind")
        majority = "bar" if sum(m.kind == "bar" for m in marks) * 2 >= len(marks) else "point"
        marks = [m for m in marks if m.kind == majority]
        kind = majority

    keyed, loose = _label_lookup(parsed)
    x_name, y_name, y_unit = _column_names(parsed)

    resolved = []
    for i, mark in enumerate(marks):
        series = _series_for_mark(mark, parsed.legend, diagnostics)
        x = _x_label_for_mark(mark, parsed.x_ticks, f"x{i}")
        mark.series, mark.x = series, x
        value = _labeled_value(mark, keyed, loose)
        exact = value is not None
        if value is None and scale is not None:
            pixel = mark.bbox.y if kind == "bar" else mark.bbox.cy
            value = round(scale.value(pixel), scale.label_decimals + 2)
        if value is None:
            raise ScaleRequired(
                "marks carry no value labels and no axis scale is available"
            )
        resolved.append((mark, series, x, value, exact))

    confidence = "exact" if all(e for *_rest, e in resolved) else "recovered"

    series_order: dict[str, None] = {}
    if parsed.legend and all(s in {n for n, _ in parsed.legend} for _, s, *_r in resolved if s):
        for name, _color in parsed.legend:
            series_order.setdefault(name, None)
    x_first_pixel: dict[str, float] = {}
    cell: dict[tuple[str, str], float] = {}
    for mark, series, x, value, _exact in resolved:
        series = series if series is not None else y_name
        series_order.setdefault(series, None)
        px = mark.bbox.cx
        x_first_pixel[x] = min(x_first_pixel.get(x, px), px)
        cell[(x, series)] = value

    xs = sorted(x_first_pixel, key=lambda x: x_first_pixel[x])
    names = [s for s in series_order if any((x, s) in cell for x in xs)]

    rows = []
    for x in xs:
        if all((x, s) in cell for s in names):
            rows.append([x] + [cell[(x, s)] for s in names])
        else:
            diagnostics.append(f"dropping x category {x!r}: missing series values")
    if not rows:
        raise ScaleRequired("no complete row could be reconstructed")

    if len(names) == 1:
        columns = [Column(x_name, CATEGORICAL), Column(y_name, NUMERIC, y_unit)]
    else:
        columns = [Column(x_name, CATEGORICAL)] + [
            Column(s, NUMERIC, y_unit) for s in names
        ]
    table = _table(columns, rows)
    out_marks = [
        MarkRecord(series or y_name, x, value, mark.bbox, mark.fill or "#000000")
        for mark, series, x, value, _exact in resolved
    ]
    return ExtractionResult(table, out_marks, confidence, diagnostics)


def _reconstruct_pie(parsed: ParsedChart) -> ExtractionResult:
    """Pie reconstruction in three tiers of knowledge.

    Fully labeled slices give exact values. With only some labels, the
    whole is recoverable (total = labeled value / labeled share), so the
    remaining slices get absolute values from their sweep angles. With no
    labels at all, angles determine only proportions of the whole.
    """
    diagnostics = list(parsed.diagnostics)
    slices = [m for m in parsed.marks if m.kind == "slice"]
    # Order slices clockwise starting from 12 o'clock.
    slices.sort(key=lambda m: ((m.start_deg or 0.0) + 90.0) % 360.0)
    keyed, loose = _label_lookup(parsed)
    x_name, y_name, y_unit = _column_names(parsed)
    color_names = {color.lower(): name for name, color in parsed.legend}

    resolved = []  # (x label, labeled value or None, share of whole)
    for i, mark in enumerate(slices):
        x = mark.x or mark.series
        if x is None and mark.fill and mark.fill.lower() in color_names:
            x = color_names[mark.fill.lower()]
        if x is None:
            x = f"slice{i}"
        # ``_collect_mark`` keeps only slices whose sweep it could read.
        share = mark.sweep_deg / 360.0
        resolved.append((x, _labeled_value(mark, keyed, loose), share, mark))

    all_exact = all(value is not None for _, value, _, _ in resolved)
    anchored = [(v, s) for _, v, s, _ in resolved if v is not None and s > 0]
    if all_exact:
        values = [value for _, value, _, _ in resolved]
    elif anchored:
        total = left_sum(v for v, _ in anchored) / left_sum(s for _, s in anchored)
        values = [
            value if value is not None else round(share * total, 4)
            for _, value, share, _ in resolved
        ]
        diagnostics.append(
            "pie partially labeled: unlabeled values recovered from "
            "sweep angles and the labeled slices' implied total"
        )
    else:
        values = [round(share, 4) for _, _, share, _ in resolved]
        diagnostics.append(
            "pie without value labels: values are proportions of the whole"
        )

    proportions_only = not all_exact and not anchored
    rows = []
    out_marks = []
    for (x, _value, _share, mark), value in zip(resolved, values):
        rows.append([x, value])
        out_marks.append(MarkRecord(x, x, value, mark.bbox, mark.fill or "#000000"))
    columns = [Column(x_name, CATEGORICAL),
               Column("proportion" if proportions_only else y_name, NUMERIC,
                      None if proportions_only else y_unit)]
    table = _table(columns, rows)
    confidence = "exact" if all_exact else "recovered"
    return ExtractionResult(table, out_marks, confidence, diagnostics)
