import random
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chartkit.errors import CanvasTooSmall
from chartkit.gen import random_chart
from chartkit.synth import (
    _attr,
    _escape,
    GROUPED_BAR,
    LINE_MULTI,
    LINE_SINGLE,
    PIE,
    SIMPLE_BAR,
    ChartSpec,
    StyleParams,
    choose_chart_type,
    diversify_style,
    nice_ticks,
    render,
)
from chartkit.tables import ChartReadyTable, Column, DataTable, NUMERIC


def _bar_table(values, unit=None, x_name="X", y_name="V"):
    y = Column(y_name, NUMERIC, unit)
    wide = DataTable(
        [Column(x_name), y], [[f"c{i}", v] for i, v in enumerate(values)]
    )
    return ChartReadyTable(wide, y)


def _grouped_table(groups):
    names = list(next(iter(groups.values())))
    wide = DataTable(
        [Column("X")] + [Column(g, NUMERIC) for g in names],
        [[x] + [per_group[g] for g in names] for x, per_group in groups.items()],
    )
    return ChartReadyTable(wide, Column("V", NUMERIC), group_name="G")


def test_choose_pie_requires_nonnegative():
    table = _bar_table([5, -1, 3])
    for seed in range(50):
        assert choose_chart_type(random.Random(seed), table=table) != PIE


def test_choose_grouped_admissible_set():
    table = _grouped_table({"a": {"g1": 1, "g2": 2}, "b": {"g1": 3, "g2": 4}})
    for seed in range(30):
        assert choose_chart_type(random.Random(seed), table=table) in (
            GROUPED_BAR, LINE_MULTI)


def test_choose_deterministic_and_weighted():
    table = _bar_table([5, 1, 3])
    assert choose_chart_type(random.Random(7), table=table) == choose_chart_type(
        random.Random(7), table=table)
    only_pie = {"bar": 0, "line": 0, "pie": 1}
    assert all(
        choose_chart_type(random.Random(s), only_pie, table=table) == PIE
        for s in range(20)
    )


def test_diversify_style_ranges_and_determinism():
    for seed in (0, 1, 99):
        s = diversify_style(seed)
        assert 0.4 <= s.bar_thickness <= 0.9
        assert 0.05 <= s.bar_gap <= 0.4
        assert 9 <= s.font_px <= 16
        assert s == diversify_style(seed)


def test_diversify_adjacent_seeds_differ():
    # Spec check: over 1000 seeds, >99% of adjacent pairs differ somewhere.
    styles = [diversify_style(s) for s in range(1001)]
    differing = sum(
        1 for a, b in zip(styles, styles[1:]) if a != b
    )
    assert differing / 1000 > 0.99


def test_diversify_overrides():
    s = diversify_style(3, overrides={"show_data_labels": True, "grid": "none"})
    assert s.show_data_labels is True
    assert s.grid == "none"
    s = diversify_style(3, overrides={"font_px": [10, 11]})
    assert s.font_px in (10, 11)
    with pytest.raises(ValueError):
        diversify_style(3, overrides={"nope": 1})


def test_style_validation():
    with pytest.raises(ValueError):
        StyleParams(bar_thickness=0.3)
    with pytest.raises(ValueError):
        StyleParams(grid="diagonal")
    with pytest.raises(ValueError):
        StyleParams(palette="not-a-palette")


def test_nice_ticks_counts_and_steps():
    for lo, hi in [(0, 100), (1, 3), (0, 1), (-50, 237), (0.01, 0.07), (5, 5)]:
        ticks = nice_ticks(lo, hi)
        assert 4 <= len(ticks) <= 8, (lo, hi, ticks)
        values = [v for v, _ in ticks]
        assert values[0] <= min(lo, hi) + 1e-9
        assert values[-1] >= max(lo, hi) - 1e-9
        steps = {round(values[i + 1] - values[i], 12) for i in range(len(values) - 1)}
        assert len(steps) == 1
        for v, label in ticks:
            assert float(label) == v


def test_nice_ticks_fuzz():
    rng = random.Random(99)
    for _ in range(3000):
        scale = 10 ** rng.uniform(-3, 6)
        lo = rng.uniform(-scale, scale)
        hi = lo + 10 ** rng.uniform(-2, 6)
        ticks = nice_ticks(lo, hi)
        values = [v for v, _ in ticks]
        assert 4 <= len(ticks) <= 8
        tol = 1e-9 * max(1.0, abs(lo), abs(hi))
        assert values[0] <= lo + tol
        assert values[-1] >= hi - tol
        for v, label in ticks:
            assert float(label) == v


def test_render_bar_height_linear_scale():
    # Value 50 on a 0..100 axis must fill half the plot height.
    chart = render(ChartSpec(SIMPLE_BAR, _bar_table([50, 100])))
    assert [v for _, _, v in chart.axis_ticks][0] == 0
    assert [v for _, _, v in chart.axis_ticks][-1] == 100
    bar = chart.marks[0]
    assert abs(bar.bbox.h - chart.plot_area.h / 2) <= 0.5


def test_render_pie_equal_slices():
    chart = render(ChartSpec(PIE, _bar_table([1, 1, 1, 1])))
    from chartkit.extract import parse_chart_svg

    parsed = parse_chart_svg(chart.svg)
    sweeps = [m.sweep_deg for m in parsed.marks]
    assert len(sweeps) == 4
    for sweep in sweeps:
        assert abs(sweep - 90.0) <= 0.1
    assert abs(sum(sweeps) - 360.0) <= 0.01


def test_render_grouped_mark_count():
    table = _grouped_table({
        "a": {"g1": 1, "g2": 2},
        "b": {"g1": 3, "g2": 4},
        "c": {"g1": 5, "g2": 6},
    })
    chart = render(ChartSpec(GROUPED_BAR, table))
    assert len(chart.marks) == 6


def test_render_deterministic():
    table = _bar_table([3, 1, 4, 1.5])
    spec = ChartSpec(LINE_SINGLE, table, diversify_style(5))
    assert render(spec).svg == render(spec).svg


def test_render_marks_inside_canvas_and_bars_inside_plot():
    rng = random.Random(21)
    for _ in range(40):
        chart = random_chart(rng)
        w, h = chart.canvas
        for mark in chart.marks:
            assert mark.bbox.x >= -1e-6 and mark.bbox.y >= -1e-6
            assert mark.bbox.x + mark.bbox.w <= w + 1e-6
            assert mark.bbox.y + mark.bbox.h <= h + 1e-6
            if chart.chart_type in (SIMPLE_BAR, GROUPED_BAR):
                assert chart.plot_area.contains(mark.bbox)


def test_render_tick_monotonic_and_scale_fidelity():
    rng = random.Random(33)
    for _ in range(40):
        chart = random_chart(rng, chart_type=rng.choice(
            [SIMPLE_BAR, GROUPED_BAR, LINE_SINGLE, LINE_MULTI]
        ))
        ticks = sorted(chart.axis_ticks)
        values = [v for _, _, v in ticks]
        pixels = [p for p, _, _ in ticks]
        assert values == sorted(values, reverse=True)  # y down: pixel up, value down
        assert len(set(pixels)) == len(pixels)
        # Invert the axis map from the two extreme ticks and recover values.
        (p0, _, v0), (p1, _, v1) = ticks[0], ticks[-1]
        a = (v1 - v0) / (p1 - p0)
        for mark in chart.marks:
            if chart.chart_type in (SIMPLE_BAR, GROUPED_BAR):
                pixel = mark.bbox.y
            else:
                pixel = mark.bbox.y + mark.bbox.h / 2
            recovered = v0 + a * (pixel - p0)
            assert abs(recovered - mark.value) / max(abs(mark.value), 1e-9) <= 0.01


def test_render_legend_complete_and_unique_colors():
    rng = random.Random(55)
    for _ in range(30):
        chart = random_chart(rng)
        names = [n for n, _ in chart.legend]
        colors = [c for _, c in chart.legend]
        assert len(set(names)) == len(names)
        assert len(set(colors)) == len(colors)
        assert set(m.series for m in chart.marks) == set(names)


def test_pie_angle_sum():
    rng = random.Random(77)
    from chartkit.extract import parse_chart_svg

    for _ in range(15):
        chart = random_chart(rng, chart_type=PIE)
        parsed = parse_chart_svg(chart.svg)
        assert abs(sum(m.sweep_deg for m in parsed.marks) - 360.0) <= 0.01


def test_canvas_too_small():
    with pytest.raises(CanvasTooSmall):
        render(ChartSpec(SIMPLE_BAR, _bar_table([1, 2]), canvas=(200, 150)))


def test_spec_validation():
    grouped = _grouped_table({"a": {"g": 1, "h": 2}})
    with pytest.raises(ValueError):
        ChartSpec(SIMPLE_BAR, grouped)
    with pytest.raises(ValueError):
        ChartSpec(GROUPED_BAR, _bar_table([1, 2]))
    with pytest.raises(ValueError):
        ChartSpec(PIE, _bar_table([1, -2]))


def test_value_labels_match_flatten_format():
    chart = render(ChartSpec(
        SIMPLE_BAR, _bar_table([7.5, 1200.0]),
        StyleParams(show_data_labels=True),
    ))
    assert ">7.5</text>" in chart.svg
    assert ">1200</text>" in chart.svg


def test_full_circle_single_dominant_slice():
    # One slice at ~100% still parses as a full sweep.
    chart = render(ChartSpec(PIE, _bar_table([10, 0, 0])))
    from chartkit.extract import parse_chart_svg

    parsed = parse_chart_svg(chart.svg)
    sweeps = sorted(m.sweep_deg for m in parsed.marks)
    assert abs(sweeps[-1] - 360.0) <= 0.01


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="&<>\"'\t\n\r ;#a1é\U0001F4C8", max_size=20))
@example("")
@example("Q&A <2024>")
@example('say "hi"')
@example("it's \"both\"")
@example("tab\there\nnew\rline")
@example("&amp; already")
def test_svg_escapes_match_saxutils(label):
    assert _escape(label) == escape(label)
    assert _attr(label) == quoteattr(label)
