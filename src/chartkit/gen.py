"""Seeded synthetic tables and charts.

The corpus pipeline uses these generators when no external tables are
supplied; the test suite leans on them for randomized inputs. Everything
is a pure function of the Random instance passed in, so corpora are
reproducible from a single seed. Values are quantized to two decimals,
matching the flattened-table number format, which keeps label round trips
string-exact.
"""

from __future__ import annotations

import random
from typing import Optional

from .synth import (
    CHART_TYPES,
    DEFAULT_CANVAS,
    GROUPED_TYPES,
    PIE,
    ChartSpec,
    RenderedChart,
    StyleParams,
    diversify_style,
    render,
)
from .tables import CATEGORICAL, NUMERIC, ChartReadyTable, Column, DataTable

X_FAMILIES = [
    ("Country", ["Canada", "Brazil", "Germany", "Japan", "Kenya", "Norway",
                 "India", "Mexico", "Italy", "Spain", "Egypt", "Peru",
                 "France", "Vietnam", "Poland", "Chile"]),
    ("Month", ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug",
               "Sep", "Oct", "Nov", "Dec"]),
    ("Product", ["Laptops", "Phones", "Tablets", "Monitors", "Cameras",
                 "Printers", "Routers", "Speakers", "Drones", "Consoles"]),
    ("Department", ["R&D", "Sales Ops", "Marketing", "Support", "Finance",
                    "Q&A Team", "Logistics", "Legal", "Design", "Fleet"]),
    ("Year", ["2015", "2016", "2017", "2018", "2019", "2020", "2021",
              "2022", "2023"]),
]

GROUP_VOCAB = ["Men", "Women", "Urban", "Rural", "North", "South",
               "Online", "In-store", "Domestic", "Export"]

MEASURES = ["Sales", "Revenue", "Population", "Score", "Output", "Users",
            "Growth", "Spending", "Visitors", "Capacity"]

UNITS = [None, None, None, "%", "$", "millions", "GWh"]

VALUE_SCALES = [10.0, 100.0, 1000.0, 100000.0]


def rand_value(rng: random.Random, scale: float, negatives: bool = False) -> float:
    lo = -scale if negatives else scale * 0.01
    return round(rng.uniform(lo, scale), 2)


def random_chart_table(
    rng: random.Random,
    grouped: bool = False,
    rows: Optional[int] = None,
    n_series: Optional[int] = None,
    nonneg: bool = False,
    negatives: bool = False,
    force_duplicates: bool = False,
) -> ChartReadyTable:
    """A chart-ready table with plausible labels and 2-decimal values."""
    x_name, vocab = rng.choice(X_FAMILIES)
    measure = rng.choice(MEASURES)
    unit = rng.choice(UNITS)
    scale = rng.choice(VALUE_SCALES)
    neg = negatives and not nonneg

    y_col = Column(measure, NUMERIC, unit)
    x_col = Column(x_name, CATEGORICAL)
    if not grouped:
        n = rows if rows is not None else rng.randint(3, 8)
        xs = rng.sample(vocab, n)
        values = [rand_value(rng, scale, neg) for _ in xs]
        if force_duplicates and n >= 2:
            i, j = rng.sample(range(n), 2)
            values[i] = values[j]
        if neg and all(v >= 0 for v in values):
            values[rng.randrange(n)] = -abs(values[rng.randrange(n)]) - 0.5
        return ChartReadyTable(DataTable([x_col, y_col], zip(xs, values)), y_col)

    k = n_series if n_series is not None else rng.randint(2, 4)
    max_x = max(1, 8 // k)
    m = rows if rows is not None else rng.randint(min(2, max_x), max_x)
    xs = rng.sample(vocab, m)
    groups = rng.sample(GROUP_VOCAB, k)
    data = [[x] + [rand_value(rng, scale, neg) for _ in groups] for x in xs]
    if force_duplicates and m * k >= 2:
        # i and j index the x-major grid of cells, one per mark.
        i, j = rng.sample(range(m * k), 2)
        data[i // k][1 + i % k] = data[j // k][1 + j % k]
    columns = [x_col] + [Column(g, NUMERIC, unit) for g in groups]
    return ChartReadyTable(DataTable(columns, data), y_col, "Group")


def random_style(
    rng: random.Random,
    labels: Optional[bool] = None,
    overrides: Optional[dict] = None,
) -> StyleParams:
    merged = dict(overrides or {})
    if labels is not None:
        merged["show_data_labels"] = labels
    return diversify_style(rng.randrange(2**31), overrides=merged)


def chart_table_for(
    rng: random.Random, chart_type: str, **kwargs
) -> ChartReadyTable:
    """A table admissible for the requested chart type."""
    if chart_type in GROUPED_TYPES:
        return random_chart_table(rng, grouped=True, **kwargs)
    if chart_type == PIE:
        kwargs.setdefault("rows", rng.randint(2, 8))
        return random_chart_table(rng, grouped=False, nonneg=True, **kwargs)
    return random_chart_table(rng, grouped=False, **kwargs)


def random_chart(
    rng: random.Random,
    chart_type: Optional[str] = None,
    labels: Optional[bool] = None,
    style_overrides: Optional[dict] = None,
    canvas: tuple[int, int] = DEFAULT_CANVAS,
    **table_kwargs,
) -> RenderedChart:
    """Render one random chart; the workhorse behind pools and pipelines."""
    if chart_type is None:
        chart_type = rng.choice(CHART_TYPES)
    table = chart_table_for(rng, chart_type, **table_kwargs)
    style = random_style(rng, labels=labels, overrides=style_overrides)
    return render(ChartSpec(chart_type, table, style, canvas))


SPECIAL_CELLS = ["a|b", "c & d", "back\\slash", "mix |&\\ all", "R&D"]


def random_plain_table(
    rng: random.Random, special: bool = False
) -> DataTable:
    """A generic typed table (mixed kinds) for metric and flatten tests."""
    n_cat = rng.randint(1, 2)
    n_num = rng.randint(1, 3)
    n_rows = rng.randint(1, 8)
    columns = []
    used = set()
    for i in range(n_cat):
        name, _ = rng.choice(X_FAMILIES)
        while name in used:
            name += "_"
        used.add(name)
        columns.append(Column(name, CATEGORICAL))
    for i in range(n_num):
        name = rng.choice(MEASURES)
        while name in used:
            name += "_"
        used.add(name)
        columns.append(Column(name, NUMERIC, rng.choice(UNITS)))
    scale = rng.choice(VALUE_SCALES)
    rows = []
    for r in range(n_rows):
        cells = []
        for c in columns:
            if c.kind == CATEGORICAL:
                pool = rng.choice(X_FAMILIES)[1]
                text = rng.choice(pool) + f" {r}"
                if special and rng.random() < 0.4:
                    text = rng.choice(SPECIAL_CELLS) + f" {r}"
                cells.append(text)
            else:
                cells.append(rand_value(rng, scale, negatives=rng.random() < 0.3))
        rows.append(cells)
    return DataTable(columns, rows)
