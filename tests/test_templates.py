import hashlib
import random

from qa_brute import brute_answer

from chartkit.gen import random_chart
from chartkit.palettes import color_name
from chartkit.synth import (
    GROUPED_BAR,
    LINE_MULTI,
    LINE_SINGLE,
    PIE,
    SIMPLE_BAR,
    ChartSpec,
    StyleParams,
    render,
)
from chartkit.tables import ChartReadyTable, Column, DataTable, NUMERIC
from chartkit.templates import (
    REGISTRY,
    ChartView,
    enumerate_applicable,
    template_catalog,
)


def bar_chart(values, chart_type=SIMPLE_BAR, labels=None):
    labels = labels or [f"c{i}" for i in range(len(values))]
    y = Column("V", NUMERIC)
    wide = DataTable([Column("X"), y], [[x, v] for x, v in zip(labels, values)])
    return render(ChartSpec(chart_type, ChartReadyTable(wide, y), StyleParams()))


def grouped_chart(series, xs=None, chart_type=GROUPED_BAR):
    xs = xs or [f"x{i}" for i in range(len(next(iter(series.values()))))]
    wide = DataTable(
        [Column("X")] + [Column(name, NUMERIC) for name in series],
        [[x] + [values[i] for values in series.values()] for i, x in enumerate(xs)],
    )
    table = ChartReadyTable(wide, Column("V", NUMERIC), group_name="G")
    return render(ChartSpec(chart_type, table, StyleParams()))


def test_registry_shape():
    assert len(REGISTRY) == 90
    assert sorted(REGISTRY) == [f"T{i:02d}" for i in range(1, 91)]
    catalog = template_catalog()
    assert len(catalog) == 90
    assert all(entry["pattern"] for entry in catalog)


def test_pie_applicability():
    chart = render(ChartSpec(PIE, _pie_table()))
    applicable = set(enumerate_applicable(chart))
    assert "T44" in applicable
    assert "T45" in applicable
    assert "T90" in applicable
    for tid in [f"T{i:02d}" for i in range(1, 13)]:
        assert tid not in applicable


def _pie_table():
    y = Column("V", NUMERIC)
    wide = DataTable([Column("X"), y], [["a", 3.0], ["b", 2.0], ["c", 1.0]])
    return ChartReadyTable(wide, y)


def test_two_bar_chart_has_no_median_template():
    chart = bar_chart([1, 2])
    assert "T25" not in enumerate_applicable(chart)


def test_grouped_chart_has_legend_template():
    chart = grouped_chart({"g1": [1, 2], "g2": [3, 4]})
    assert "T17" in enumerate_applicable(chart)


def _answer(chart, tid, slots):
    return REGISTRY[tid].answer(ChartView(chart), slots)


def test_sum_of_top_three():
    chart = bar_chart([3, 7, 5])
    assert _answer(chart, "T24", {}) == "15"


def test_mode():
    chart = bar_chart([2, 4, 4, 8])
    view = ChartView(chart)
    series = view.series_names[0]
    assert _answer(chart, "T25", {"alt": "mode", "legend_label": series}) == "4"


def test_divide_extremes():
    chart = bar_chart([10, 20, 30, 40])
    assert _answer(chart, "T20", {"n": 2}) == "25"


def test_peak_answers_with_x_label():
    chart = bar_chart([5, 9, 3], chart_type=LINE_SINGLE, labels=["a", "b", "c"])
    view = ChartView(chart)
    series = view.series_names[0]
    assert _answer(chart, "T21", {"legend_label": series}) == "b"


def test_argmax_tie_resolves_leftmost():
    chart = bar_chart([9, 9, 3], chart_type=LINE_SINGLE, labels=["a", "b", "c"])
    series = ChartView(chart).series_names[0]
    assert _answer(chart, "T21", {"legend_label": series}) == "a"


def test_positional_corner_bars():
    chart = grouped_chart({"g1": [1, 8], "g2": [5, 2]}, xs=["L", "R"])
    assert _answer(chart, "T09", {}) == "5"  # leftmost cluster, tallest
    assert _answer(chart, "T10", {}) == "1"
    assert _answer(chart, "T11", {}) == "8"
    assert _answer(chart, "T12", {}) == "2"


def test_yes_no_formatting():
    chart = grouped_chart({"g1": [10, 10], "g2": [1, 1]})
    view = ChartView(chart)
    w1 = view.color_word[view.series_names[0]]
    w2 = view.color_word[view.series_names[1]]
    answer = _answer(chart, "T86", {
        "color_1": w1, "color_2": w2,
        "_series_1": view.series_names[0], "_series_2": view.series_names[1],
    })
    assert answer == "Yes"


def test_bindings_slot_values_exist_in_chart():
    rng = random.Random(100)
    for _ in range(60):
        chart = random_chart(rng)
        view = ChartView(chart)
        tick_values = [v for _, _, v in chart.axis_ticks]
        lo = min(tick_values) if tick_values else None
        hi = max(tick_values) if tick_values else None
        data = set(view.all_values())
        for tid in enumerate_applicable(chart):
            for binding in REGISTRY[tid].bindings(view):
                for slot, value in binding.items():
                    if slot.startswith("_") or slot in ("alt", "which", "n"):
                        continue
                    if slot.startswith("color"):
                        words = set(view.color_word.values())
                        pie_words = {color_name(m.color) for m in chart.marks}
                        assert value in words | pie_words
                    elif slot.startswith("x") or slot == "legend_label":
                        assert value in view.x_labels or value in view.series_names
                    elif slot in ("value", "N"):
                        if tid in ("T28", "T32"):
                            # Pair-sum/difference targets are derived from two
                            # in-chart values; they may exceed the tick range.
                            continue
                        in_ticks = lo is not None and lo <= value <= hi
                        assert value in data or in_ticks


def test_generate_qa_matches_brute_force_sample():
    rng = random.Random(2024)
    checked = 0
    for _ in range(120):
        chart = random_chart(rng)
        view = ChartView(chart)
        for tid in enumerate_applicable(chart):
            template = REGISTRY[tid]
            bindings = template.bindings(view)
            binding = bindings[rng.randrange(len(bindings))]
            assert template.answer(view, binding) == brute_answer(chart, tid, binding), (
                tid, binding, chart.table.to_json_dict()
            )
            checked += 1
    assert checked > 500


def test_every_binding_matches_brute_force():
    # Exhaustive over all bindings: catches binding-specific divergences
    # that one-sample-per-chart fuzzing can miss (e.g. tie-breaks that only
    # trigger on duplicated extremes).
    rng = random.Random(314159)
    kinds = [SIMPLE_BAR, GROUPED_BAR, PIE, LINE_SINGLE, "line_multi"]
    checked = 0
    for i in range(40):
        kwargs = {}
        if i % 7 == 3:
            kwargs["negatives"] = True
        if i % 5 == 2:
            kwargs["force_duplicates"] = True
        chart = random_chart(rng, chart_type=kinds[i % 5], **kwargs)
        view = ChartView(chart)
        for tid in enumerate_applicable(chart):
            template = REGISTRY[tid]
            for binding in template.bindings(view):
                assert template.answer(view, binding) == brute_answer(
                    chart, tid, binding
                ), (tid, binding, chart.table.to_json_dict())
                checked += 1
    assert checked > 3000


def test_t39_pie_with_duplicate_extremes():
    # Equal smallest slices: the answer is the first slice clockwise, not
    # whichever bounding box happens to sit further left.
    y = Column("Capacity", NUMERIC)
    wide = DataTable(
        [Column("Product"), y],
        [["Printers", 37.22], ["Tablets", 18.12], ["Drones", 18.12],
         ["Speakers", 46.18], ["Phones", 37.37]],
    )
    table = ChartReadyTable(wide, y)
    chart = render(ChartSpec(PIE, table, StyleParams()))
    assert _answer(chart, "T39", {"alt": "smallest"}) == "Tablets"
    assert _answer(chart, "T39", {"alt": "smallest"}) == brute_answer(
        chart, "T39", {"alt": "smallest"}
    )


# Every binding of every template, in order, with its question and answer:
# a SHA-256 over (chart index, template id, question, answer) on seeded
# random charts of all five types, some with negatives and some with forced
# duplicate values. generate_qa indexes each binding list with
# rng.randrange, so a binder that reorders, drops or adds a binding changes
# the QA stream; this digest fails on any of those.
BINDINGS_SHA256 = "22fa0af1658346382642795860de8049101e86e816764492a3518758e3deb48c"


def test_golden_bindings_digest():
    rng = random.Random(9090)
    kinds = [SIMPLE_BAR, GROUPED_BAR, PIE, LINE_SINGLE, LINE_MULTI]
    digest = hashlib.sha256()
    bound = set()
    count = 0
    for i in range(500):
        kwargs = {}
        if i % 3 == 1:
            kwargs["negatives"] = True
        if i % 4 == 2:
            kwargs["force_duplicates"] = True
        chart = random_chart(rng, chart_type=kinds[i % 5], **kwargs)
        view = ChartView(chart)
        for tid in sorted(REGISTRY):
            template = REGISTRY[tid]
            for binding in template.bindings(view):
                question = template.question(binding)
                answer = template.answer(view, binding)
                digest.update(f"{i}\0{tid}\0{question}\0{answer}\n".encode("utf-8"))
                bound.add(tid)
                count += 1
    assert bound == set(REGISTRY)
    assert count == 83988
    assert digest.hexdigest() == BINDINGS_SHA256
