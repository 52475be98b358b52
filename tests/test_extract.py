import json
import random
from dataclasses import asdict

import pytest

from chartkit.errors import (
    InsufficientTicks,
    MalformedSvg,
    NoMarksFound,
    NonLinearAxis,
    ScaleRequired,
)
from chartkit.extract import (
    BUILTIN_PROFILE,
    SelectorProfile,
    extract_chart,
    fit_axis_scale,
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
from chartkit.tables import DataTable, NUMERIC

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
