import json
import random
import re
from dataclasses import asdict
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartkit.cli import main
from chartkit.errors import (
    ChartKitError,
    InsufficientTicks,
    InvalidConfig,
    MalformedSvg,
    NoMarksFound,
    NonLinearAxis,
    ScaleRequired,
)
from chartkit.extract import (
    BUILTIN_PROFILE,
    ParsedChart,
    SelectorProfile,
    extract_chart,
    fit_axis_scale,
    load_profile,
    parse_chart_svg,
    reconstruct_table,
)
from chartkit.gen import random_chart
from chartkit.synth import (
    GROUPED_BAR,
    LINE_MULTI,
    LINE_SINGLE,
    PIE,
    SIMPLE_BAR,
)
from chartkit.tables import Column, DataTable, NUMERIC

SVG_NS = 'xmlns="http://www.w3.org/2000/svg"'


def _wrap(body: str) -> str:
    return f'<svg {SVG_NS} width="400" height="300">{body}</svg>'


def test_translate_composition():
    svg = _wrap(
        '<g transform="translate(5,5)">'
        '<rect class="mark-bar" data-series="s" data-x="a" '
        'x="10" y="20" width="30" height="40" fill="#111111"/></g>'
    )
    parsed = parse_chart_svg(svg)
    bbox = parsed.marks[0].bbox
    assert (bbox.x, bbox.y, bbox.w, bbox.h) == (15, 25, 30, 40)


def test_mark_count_matches_sidecar():
    rng = random.Random(1)
    for chart_type in (SIMPLE_BAR, GROUPED_BAR, PIE, LINE_SINGLE, LINE_MULTI):
        chart = random_chart(rng, chart_type=chart_type)
        parsed = parse_chart_svg(chart.svg)
        assert len(parsed.marks) == len(chart.marks)


def test_no_marks_found():
    with pytest.raises(NoMarksFound):
        parse_chart_svg(_wrap('<rect x="1" y="1" width="5" height="5"/>'))


def test_malformed_xml():
    with pytest.raises(MalformedSvg):
        parse_chart_svg("<svg><unclosed")


def test_non_translate_transform_on_marks_rejected():
    svg = _wrap(
        '<g transform="scale(2)">'
        '<rect class="mark-bar" x="1" y="1" width="5" height="5"/></g>'
    )
    with pytest.raises(MalformedSvg):
        parse_chart_svg(svg)


def test_rotated_axis_title_is_fine():
    # Non-translate transforms only matter on measured geometry.
    rng = random.Random(2)
    chart = random_chart(rng, chart_type=SIMPLE_BAR)
    assert "rotate(-90)" in chart.svg
    parse_chart_svg(chart.svg)


def test_fit_axis_scale_two_point():
    scale = fit_axis_scale([(300, "0"), (100, "100")])
    assert scale.a == pytest.approx(-0.5)
    assert scale.b == pytest.approx(150.0)


def test_fit_axis_scale_collinear():
    scale = fit_axis_scale([(300, "0"), (200, "50"), (100, "100")])
    assert scale.a == pytest.approx(-0.5)
    assert scale.b == pytest.approx(150.0)
    assert scale.max_residual == pytest.approx(0.0, abs=1e-9)


def test_fit_axis_scale_rejects_log_axis():
    with pytest.raises(NonLinearAxis):
        fit_axis_scale([(300, "1"), (200, "10"), (100, "100")])


def test_fit_axis_scale_insufficient():
    with pytest.raises(InsufficientTicks):
        fit_axis_scale([(300, "0")])
    with pytest.raises(InsufficientTicks):
        fit_axis_scale([(300, "a"), (200, "b"), (100, "c")])


def test_fit_axis_scale_order_and_translation_invariance():
    ticks = [(320.0, "0"), (240.0, "25"), (160.0, "50"), (80.0, "75")]
    base = fit_axis_scale(ticks)
    shuffled = fit_axis_scale(list(reversed(ticks)))
    assert shuffled.a == pytest.approx(base.a)
    assert shuffled.b == pytest.approx(base.b)
    moved = fit_axis_scale([(p + 37.5, label) for p, label in ticks])
    assert moved.a == pytest.approx(base.a)
    assert moved.b != pytest.approx(base.b)


def test_fit_axis_scale_strips_units():
    scale = fit_axis_scale([(300, "0%"), (100, "100%")])
    assert scale.value(200) == pytest.approx(50.0)


def test_labeled_round_trip_equals_source():
    rng = random.Random(3)
    for chart_type in (SIMPLE_BAR, GROUPED_BAR, PIE, LINE_SINGLE, LINE_MULTI):
        chart = random_chart(rng, chart_type=chart_type, labels=True)
        result = extract_chart(chart.svg)
        assert result.confidence == "exact"
        assert result.table == chart.table


def test_unlabeled_recovery_within_tolerance():
    rng = random.Random(4)
    for chart_type in (SIMPLE_BAR, GROUPED_BAR, LINE_SINGLE, LINE_MULTI):
        chart = random_chart(rng, chart_type=chart_type, labels=False)
        result = extract_chart(chart.svg)
        assert result.confidence == "recovered"
        for src_row, got_row in zip(chart.table.rows, result.table.rows):
            for col, sv, gv in zip(chart.table.columns, src_row, got_row):
                if col.kind == NUMERIC:
                    assert abs(gv - sv) / max(abs(sv), 1e-9) <= 0.02


def test_unlabeled_pie_yields_proportions():
    rng = random.Random(5)
    chart = random_chart(rng, chart_type=PIE, labels=False)
    result = extract_chart(chart.svg)
    assert result.confidence == "recovered"
    values = [row[1] for row in result.table.rows]
    assert abs(sum(values) - 1.0) <= 0.001
    assert any("proportion" in d for d in result.diagnostics)
    total = sum(row[1] for row in chart.table.rows)
    for (label, got), src_row in zip(
        [(r[0], r[1]) for r in result.table.rows], chart.table.rows
    ):
        assert label == src_row[0]
        assert got == pytest.approx(src_row[1] / total, abs=1e-3)


def test_reconstruction_order_follows_pixels():
    rng = random.Random(6)
    chart = random_chart(rng, chart_type=SIMPLE_BAR, labels=True)
    result = extract_chart(chart.svg)
    xs = [row[0] for row in result.table.rows]
    centers = {m.x_label: m.bbox.x + m.bbox.w / 2 for m in result.marks}
    assert xs == sorted(xs, key=lambda x: centers[x])


def test_scale_required_without_ticks_or_labels():
    svg = _wrap(
        '<rect class="mark-bar" data-series="s" data-x="a" '
        'x="10" y="20" width="30" height="40" fill="#123456"/>'
    )
    parsed = parse_chart_svg(svg)
    with pytest.raises(ScaleRequired):
        reconstruct_table(parsed, scale=None)


@pytest.mark.parametrize("mark_fill, legend_fill, outcome", [
    ("red", "red", "hot"),  # an exact string match still wins first
    ("RED", "red", "hot"),
    ("#e41a1d", "#e41a1c", "hot"),  # nearest hex color
    ("#f00", "#e41a1c", "hot"),
    ("red", "#e41a1c", "'red'"),
    ("#e41a1c", "tomato", "'tomato'"),
    ("#e41a1c", "#e41a1cff", "'#e41a1cff'"),
])
def test_named_fill_matched_or_rejected_by_name(mark_fill, legend_fill, outcome):
    svg = _wrap(
        f'<g class="legend-item"><rect fill="{legend_fill}"/><text>hot</text></g>'
        '<g class="axis-y-tick"><text x="20" y="250">0</text></g>'
        '<g class="axis-y-tick"><text x="20" y="50">100</text></g>'
        '<rect class="mark-bar" data-x="a" x="40" y="150" width="20" height="100" '
        f'fill="{mark_fill}"/>'
    )
    if outcome.startswith("'"):
        with pytest.raises(MalformedSvg, match=re.escape(f"fill {outcome} ")):
            extract_chart(svg)
    else:
        assert extract_chart(svg).marks[0].series == outcome


def test_series_matched_by_color_when_attr_missing():
    svg = _wrap(
        '<g class="legend-item"><rect fill="#e41a1c"/><text>hot</text></g>'
        '<g class="legend-item"><rect fill="#377eb8"/><text>cold</text></g>'
        '<g class="axis-y-tick"><text x="20" y="250">0</text></g>'
        '<g class="axis-y-tick"><text x="20" y="50">100</text></g>'
        '<rect class="mark-bar" data-x="a" x="40" y="150" width="20" height="100" fill="#e41a1c"/>'
        '<rect class="mark-bar" data-x="a" x="65" y="50" width="20" height="200" fill="#377eb8"/>'
    )
    result = extract_chart(svg)
    assert [c.name for c in result.table.columns] == ["label", "hot", "cold"]
    assert result.table.rows[0][1] == pytest.approx(50.0)
    assert result.table.rows[0][2] == pytest.approx(100.0)


def test_ambiguous_color_match_diagnostic():
    svg = _wrap(
        '<g class="legend-item"><rect fill="#00ff00"/><text>green</text></g>'
        '<g class="axis-y-tick"><text x="20" y="250">0</text></g>'
        '<g class="axis-y-tick"><text x="20" y="50">100</text></g>'
        '<rect class="mark-bar" data-x="a" x="40" y="150" width="20" height="100" fill="#ff0000"/>'
    )
    result = extract_chart(svg)
    assert any("loosely" in d for d in result.diagnostics)


def test_profile_json_round_trip(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(asdict(BUILTIN_PROFILE)), encoding="utf-8")
    assert SelectorProfile.from_json_file(path) == BUILTIN_PROFILE


def test_profile_selector_validation():
    with pytest.raises(ValueError):
        SelectorProfile(bar="")


@pytest.mark.parametrize("data, named", [
    ({"bar": ".bar", "colour": "red", "shape": "x"}, "['colour', 'shape']"),
    (["bar"], "not list"),
    ({"bar": 5}, "['bar']"),
    ({"bar": ""}, "'bar'"),
])
def test_profile_json_errors_are_invalid_config(data, named):
    with pytest.raises(InvalidConfig, match=re.escape(named)):
        SelectorProfile.from_json_dict(data)


def test_cli_extract_reports_an_unknown_profile_key(tmp_path, capsys):
    profile = tmp_path / "bad.json"
    profile.write_text(json.dumps({"bar": ".bar", "colour": "red"}), encoding="utf-8")
    (tmp_path / "svgs").mkdir()
    rc = main(["extract", "--svg-dir", str(tmp_path / "svgs"),
               "--profile", str(profile)])
    assert rc == 2
    assert "colour" in capsys.readouterr().err


def test_third_party_profile_targets_other_classes():
    profile = SelectorProfile(bar=".bar", y_tick=".ytick", x_tick=".xtick",
                              legend_item=".key", series_attr="data-name",
                              x_attr="data-cat")
    svg = _wrap(
        '<g class="ytick"><text x="10" y="260">0</text></g>'
        '<g class="ytick"><text x="10" y="60">10</text></g>'
        '<rect class="bar" data-name="v" data-cat="q1" x="30" y="160" '
        'width="25" height="100" fill="#333333"/>'
    )
    result = extract_chart(svg, profile)
    assert result.table.rows[0][1] == pytest.approx(5.0)


def test_extraction_result_serialization():
    rng = random.Random(8)
    chart = random_chart(rng, chart_type=SIMPLE_BAR, labels=True)
    result = extract_chart(chart.svg)
    payload = result.to_json_dict()
    assert payload["confidence"] == "exact"
    assert DataTable.from_json_dict(payload["table"]) == chart.table


# Selector semantics: the grammar is ``tag.class``, ``.class`` or a bare
# ``tag``, and the first kind in priority order wins.

_CHARTBLOCKS_CLASSES = {
    "mark-bar": "series", "mark-slice": "pie-segment", "mark-point": "datapoint",
    "mark-line": "series-line", "axis-x-tick": "x-tick", "axis-y-tick": "y-tick",
    "legend-item": "legend-entry", "chart-title": "title",
    "axis-title": "axis-label", "mark-label": "value-label",
}


def _to_chartblocks(svg: str) -> str:
    def rename(m):
        classes = [_CHARTBLOCKS_CLASSES.get(c, c) for c in m.group(1).split()]
        return f'class="{" ".join(classes)}"'

    svg = re.sub(r'class="([^"]*)"', rename, svg)
    return svg.replace(' data-x="', ' data-label="')


def test_chartblocks_profile_extracts_renamed_charts():
    profile = load_profile("chartblocks_like")
    rng = random.Random(11)
    for chart_type in (SIMPLE_BAR, GROUPED_BAR, PIE, LINE_SINGLE, LINE_MULTI):
        for labels in (True, False):
            chart = random_chart(rng, chart_type=chart_type, labels=labels)
            renamed = _to_chartblocks(chart.svg)
            assert "mark-" not in renamed and "data-x=" not in renamed
            want = extract_chart(chart.svg)
            got = extract_chart(renamed, profile)
            assert got.table == want.table
            assert got.confidence == want.confidence


def test_tag_only_selector_matches_by_tag():
    svg = _wrap('<rect x="1" y="2" width="5" height="6"/>')
    parsed = parse_chart_svg(svg, SelectorProfile(bar="rect"))
    assert [(m.kind, m.bbox.x, m.bbox.h) for m in parsed.marks] == [("bar", 1, 6)]


def test_tagged_selector_needs_the_tag():
    svg = _wrap('<circle class="series" cx="5" cy="5" r="2"/>')
    with pytest.raises(NoMarksFound):
        parse_chart_svg(svg, SelectorProfile(bar="rect.series"))


def test_first_matching_kind_wins():
    svg = _wrap('<rect class="mark-bar mark-label" x="1" y="2" width="5" height="6"/>')
    parsed = parse_chart_svg(svg)
    assert [m.kind for m in parsed.marks] == ["bar"]
    assert parsed.labels == []


# Error contract: hostile SVG raises only ChartKitError subclasses.

_GEOMETRY_ATTR_RE = re.compile(r' (x|y|width|height|cx|cy|r|d)="[^"]*"')

_hostile_values = st.one_of(
    st.sampled_from(["", "abc", "nan", "-inf", "1e999", "1e308", "-1e308",
                     "0", "-7", "M", "M 1 L A Z", "M 1 2 L 3 A 4 5"]),
    st.floats().map(repr),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**16),
       chart_type=st.sampled_from([SIMPLE_BAR, GROUPED_BAR, PIE, LINE_SINGLE, LINE_MULTI]),
       labels=st.booleans(), pick=st.integers(0, 10**6), value=_hostile_values)
def test_one_geometry_mutation_raises_only_chartkit_errors(seed, chart_type, labels,
                                                           pick, value):
    svg = random_chart(random.Random(seed), chart_type=chart_type, labels=labels).svg
    sites = list(_GEOMETRY_ATTR_RE.finditer(svg))
    site = sites[pick % len(sites)]
    mutated = (svg[:site.start()] + f" {site.group(1)}={quoteattr(value)}"
               + svg[site.end():])
    try:
        extract_chart(mutated)
    except ChartKitError:
        pass


def test_deep_nesting_is_walked_without_recursion():
    depth = 3000
    svg = _wrap('<g transform="translate(1,0)">' * depth
                + '<rect class="mark-bar" x="10" y="20" width="5" height="6"/>'
                + "</g>" * depth)
    assert parse_chart_svg(svg).marks[0].bbox.x == 10 + depth
    with pytest.raises(ScaleRequired):
        extract_chart(svg)


@pytest.mark.parametrize("raw", ["", "abc", "nan", "1e999"])
def test_unparseable_geometry_names_the_attribute(raw):
    svg = _wrap(f'<rect class="mark-bar" x="1" y="2" width="{raw}" height="6"/>')
    with pytest.raises(MalformedSvg, match="width"):
        parse_chart_svg(svg)


def test_slice_path_without_numbers_is_a_diagnostic():
    good = ('<path class="mark-slice" data-x="a" '
            'd="M 100 100 L 100 50 A 50 50 0 0 1 150 100 Z"/>')
    svg = _wrap(good + '<path class="mark-slice" data-x="b" d="M L A Z"/>')
    parsed = parse_chart_svg(svg)
    assert len(parsed.marks) == 1
    assert parsed.diagnostics == ["unrecognized slice path geometry"]


# Ticks and legend items read their text and color in the one walk of the
# tree; these pin the rules that walk keeps.

_BAR = '<rect class="mark-bar" x="1" y="2" width="3" height="4"/>'


def test_a_text_tick_takes_its_own_translate():
    svg = _wrap('<g transform="translate(100,0)"><text class="axis-x-tick" '
                'transform="translate(5,7)" x="10" y="20">a</text></g>' + _BAR)
    assert parse_chart_svg(svg).x_ticks == [(115.0, "a")]


def test_a_tick_takes_its_first_text_two_translates_deep():
    svg = _wrap('<g class="axis-y-tick" transform="translate(0,1)">'
                '<line y1="0"/>'
                '<g transform="translate(0,10)"><g transform="translate(0,100)">'
                '<text y="5">deep</text></g></g>'
                '<text y="2">later</text></g>' + _BAR)
    assert parse_chart_svg(svg).y_ticks == [(116.0, "deep")]


def test_a_tick_without_text_is_dropped():
    svg = _wrap('<g class="axis-x-tick"><line x1="5"/></g>'
                '<g class="axis-x-tick"><text x="9">b</text></g>' + _BAR)
    assert parse_chart_svg(svg).x_ticks == [(9.0, "b")]


def test_a_tick_text_under_rotate_is_refused():
    svg = _wrap('<g class="axis-x-tick"><g transform="rotate(-45)">'
                '<text x="9">b</text></g></g>' + _BAR)
    with pytest.raises(MalformedSvg, match="tick text"):
        parse_chart_svg(svg)


def test_nested_ticks_each_take_their_own_first_text():
    svg = _wrap('<g class="axis-x-tick" transform="translate(1,0)"><line/>'
                '<g class="axis-y-tick" transform="translate(0,2)">'
                '<text x="10" y="20">inner</text></g>'
                '<text x="30" y="40">outer</text></g>'
                '<g class="axis-x-tick"><text x="50">last</text></g>' + _BAR)
    parsed = parse_chart_svg(svg)
    assert parsed.x_ticks == [(11.0, "inner"), (50.0, "last")]
    assert parsed.y_ticks == [(22.0, "inner")]


def test_a_legend_name_is_its_first_text_and_an_unset_fill_is_skipped():
    svg = _wrap('<g class="legend-item" fill="#999999"><rect fill="none"/><line fill="#111111"/>'
                '<circle fill="#e41a1c"/><text>hot</text><text>cold</text></g>' + _BAR)
    assert parse_chart_svg(svg).legend == [("hot", "#e41a1c")]


def test_a_legend_item_with_its_own_fill_takes_it():
    svg = _wrap('<rect class="legend-item" data-series="s" fill="#377eb8"/>'
                '<g class="legend-item" data-series="t"><text>ignored</text>'
                '<path fill="#4daf4a"/></g>' + _BAR)
    assert parse_chart_svg(svg).legend == [("s", "#377eb8"), ("t", "#4daf4a")]


def test_unnamed_legend_items_are_dropped():
    svg = _wrap('<g class="legend-item"><rect fill="#111111"/></g>'
                '<g class="legend-item" data-series=""><text>n</text></g>'
                '<g class="legend-item"><text>kept</text></g>' + _BAR)
    assert parse_chart_svg(svg).legend == [("kept", "#000000")]


def test_a_legend_item_without_fill_is_black():
    svg = _wrap('<g class="legend-item"><rect/><circle fill="none"/>'
                '<text>plain</text></g>' + _BAR)
    assert parse_chart_svg(svg).legend == [("plain", "#000000")]


# Third-party SVGs: marks without chartkit's data-* attributes, read through
# the shipped plotly_like and chartblocks_like profiles.

PLOTLY = load_profile("plotly_like")
CHARTBLOCKS = load_profile("chartblocks_like")
_Y_TICKS = ('<g class="{0}"><text x="20" y="250">0</text></g>'
            '<g class="{0}"><text x="20" y="50">100</text></g>')


def _table_of(*rows, x_name="label", y_name="value", unit=None):
    return DataTable([Column(x_name), Column(y_name, NUMERIC, unit)], [list(r) for r in rows])


def test_value_attr_values_are_exact_and_an_unparsed_one_is_recovered():
    bars = ('<rect class="series" data-series="s" data-label="a" data-value="12.5" '
            'x="40" y="150" width="20" height="100" fill="#e41a1c"/>'
            '<rect class="series" data-series="s" data-label="b" data-value="$7" '
            'x="70" y="150" width="20" height="100" fill="#e41a1c"/>')
    result = extract_chart(_wrap(bars), CHARTBLOCKS)
    assert result.table == _table_of(["a", 12.5], ["b", 7.0])
    assert (result.confidence, result.diagnostics) == ("exact", [])

    unparsed = bars.replace('data-value="$7"', 'data-value="n/a"')
    result = extract_chart(_wrap(_Y_TICKS.format("y-tick") + unparsed), CHARTBLOCKS)
    assert result.table == _table_of(["a", 12.5], ["b", 50.0])
    assert (result.confidence, result.diagnostics) == ("recovered", [])


def test_a_mark_with_no_usable_geometry_is_a_diagnostic():
    # plotly_like's point selector is path.point, a shape without a box; a
    # rect without an x attribute sits at 0 plus its translate.
    svg = _wrap(_Y_TICKS.format("ytick")
                + '<path class="point" data-name="s" data-category="a" d="M 1 2"/>'
                '<g transform="translate(40,0)"><rect class="point" data-name="s" '
                'data-category="b" y="150" width="20" height="100"/></g>')
    result = extract_chart(svg, PLOTLY)
    assert result.table == _table_of(["b", 50.0])
    assert result.marks[0].bbox.x == 40.0
    assert result.confidence == "recovered"
    assert result.diagnostics == ["mark element <path> has no usable geometry"]


def test_loose_value_labels_go_to_the_nearest_mark():
    svg = _wrap('<rect class="point" data-name="s" data-category="a" '
                'x="40" y="100" width="20" height="150"/>'
                '<rect class="point" data-name="s" data-category="b" '
                'x="70" y="150" width="20" height="100"/>'
                '<text class="bartext" x="80" y="145">7.5</text>'
                '<text class="bartext" x="50" y="95">12</text>'
                '<text class="bartext" x="60" y="120">n/a</text>')
    result = extract_chart(svg, PLOTLY)
    assert result.table == _table_of(["a", 12.0], ["b", 7.5])
    assert (result.confidence, result.diagnostics) == ("exact", [])


def test_a_mark_with_neither_series_nor_fill_takes_the_first_legend_entry():
    svg = _wrap('<g class="legend-entry"><rect fill="#e41a1c"/><text>hot</text></g>'
                '<g class="legend-entry"><rect fill="#377eb8"/><text>cold</text></g>'
                '<rect class="series" data-label="a" data-value="3" '
                'x="40" y="150" width="20" height="100"/>'
                '<rect class="series" data-label="a" data-value="4" '
                'x="60" y="150" width="20" height="100" fill="#377eb8"/>')
    result = extract_chart(svg, CHARTBLOCKS)
    assert result.table == DataTable(
        [Column("label"), Column("hot", NUMERIC), Column("cold", NUMERIC)],
        [["a", 3.0, 4.0]],
    )
    assert [m.series for m in result.marks] == ["hot", "cold"]
    assert result.confidence == "exact"
    assert result.diagnostics == ["mark without series attribute or fill color"]


def test_x_labels_come_from_the_nearest_tick():
    svg = _wrap(_Y_TICKS.format("ytick")
                + '<g class="xtick"><text x="50" y="280">Q1</text></g>'
                '<g class="xtick"><text x="80" y="280">Q2</text></g>'
                '<rect class="point" data-name="s" x="68" y="100" width="20" height="150"/>'
                '<rect class="point" data-name="s" x="41" y="150" width="20" height="100"/>')
    result = extract_chart(svg, PLOTLY)
    assert result.table == _table_of(["Q1", 50.0], ["Q2", 75.0])
    assert (result.confidence, result.diagnostics) == ("recovered", [])


@pytest.mark.parametrize("y_title, name, unit", [
    ('<text class="axis-label" data-axis="y">Revenue ($)</text>', "Revenue", "$"),
    ('<text class="axis-label" data-axis="y" data-unit="%">Share (old)</text>',
     "Share (old)", "%"),
    ('<text class="axis-label" data-axis="y" data-field="Units (k)">Units sold</text>',
     "Units", "k"),
])
def test_column_names_come_from_the_axis_titles(y_title, name, unit):
    svg = _wrap('<text class="axis-label" data-axis="x">Quarter</text>' + y_title
                + '<rect class="series" data-series="s" data-label="Q1" data-value="5" '
                'x="40" y="150" width="20" height="100"/>')
    result = extract_chart(svg, CHARTBLOCKS)
    assert result.table == _table_of(["Q1", 5.0], x_name="Quarter", y_name=name, unit=unit)
    assert (result.confidence, result.diagnostics) == ("exact", [])


def test_mixed_bar_and_point_marks_keep_the_majority_kind():
    svg = _wrap('<rect class="series" data-series="s" data-label="a" data-value="1" '
                'x="40" y="150" width="20" height="100"/>'
                '<circle class="datapoint" data-series="s" data-label="b" data-value="2" '
                'cx="80" cy="100" r="3"/>'
                '<rect class="series" data-series="s" data-label="c" data-value="3" '
                'x="100" y="150" width="20" height="100"/>')
    result = extract_chart(svg, CHARTBLOCKS)
    assert result.table == _table_of(["a", 1.0], ["c", 3.0])
    assert result.confidence == "exact"
    assert result.diagnostics == ["mixed bar/point marks; reconstructing the majority kind"]


def test_an_incomplete_x_category_is_dropped():
    def bar(series, x, left):
        return (f'<rect class="series" data-series="{series}" data-label="{x}" '
                f'data-value="{left}" x="{left}" y="150" width="10" height="100"/>')

    svg = _wrap(bar("u", "a", 40) + bar("v", "a", 50) + bar("u", "b", 70))
    result = extract_chart(svg, CHARTBLOCKS)
    assert result.table == DataTable(
        [Column("label"), Column("u", NUMERIC), Column("v", NUMERIC)], [["a", 40.0, 50.0]]
    )
    assert result.confidence == "exact"
    assert result.diagnostics == ["dropping x category 'b': missing series values"]

    with pytest.raises(ScaleRequired, match="no complete row"):
        extract_chart(_wrap(bar("u", "a", 40) + bar("v", "b", 50)), CHARTBLOCKS)


def test_a_series_named_like_the_x_column_is_malformed():
    svg = _wrap('<rect class="series" data-series="label" data-label="a" data-value="1" '
                'x="40" y="150" width="10" height="100"/>'
                '<rect class="series" data-series="v" data-label="a" data-value="2" '
                'x="50" y="150" width="10" height="100"/>')
    with pytest.raises(MalformedSvg, match="chart does not form a table: duplicate column"):
        extract_chart(svg, CHARTBLOCKS)
    with pytest.raises(NoMarksFound):
        reconstruct_table(ParsedChart())


def test_pie_slices_are_named_by_legend_color_or_position():
    # Quarter, half and quarter of a circle of radius 100 at (200, 150),
    # clockwise from 12 o'clock, written in another order.
    svg = _wrap('<g class="traces"><rect fill="#e41a1c"/><text>North</text></g>'
                '<g class="traces"><rect fill="#377eb8"/><text>South</text></g>'
                '<path class="surface" d="M 200 150 L 100 150 A 100 100 0 0 1 200 50 Z" '
                'fill="#999999"/>'
                '<path class="surface" d="M 200 150 L 300 150 A 100 100 0 0 1 100 150 Z" '
                'fill="#377eb8"/>'
                '<path class="surface" d="M 200 150 L 200 50 A 100 100 0 0 1 300 150 Z" '
                'fill="#E41A1C"/>')
    result = extract_chart(svg, PLOTLY)
    assert result.table == DataTable(
        [Column("label"), Column("proportion", NUMERIC)],
        [["North", 0.25], ["South", 0.5], ["slice2", 0.25]],
    )
    assert result.confidence == "recovered"
    assert result.diagnostics == [
        "pie without value labels: values are proportions of the whole"
    ]
