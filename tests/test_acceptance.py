"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import json
import random
import time

import pytest

from qa_brute import brute_answer

from chartkit.assignment import exhaustive_assignment, hungarian
from chartkit.flatten import flatten_table, unflatten_table
from chartkit.gen import random_chart, random_plain_table
from chartkit.metrics import extract_numbers, relaxed_accuracy, rms_f1, rnss
from chartkit.pipeline import (
    PipelineConfig,
    corpus_stats,
    distill_corpus,
    gen_tasks,
    synthesize,
)
from chartkit.synth import (
    GROUPED_BAR,
    LINE_MULTI,
    LINE_SINGLE,
    PIE,
    SIMPLE_BAR,
)
from chartkit.extract import extract_chart
from chartkit.tables import NUMERIC
from chartkit.tasks import value_estimation_target
from chartkit.templates import REGISTRY, ChartView


def _ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


ALL_TYPES = (SIMPLE_BAR, GROUPED_BAR, PIE, LINE_SINGLE, LINE_MULTI)


def test_criterion_1_labeled_round_trip():
    """500 labeled synthesize->extract cycles reconstruct tables exactly."""
    rng = random.Random(1001)
    started = time.monotonic()
    exact = 0
    for i in range(500):
        chart = random_chart(rng, chart_type=ALL_TYPES[i % 5], labels=True)
        result = extract_chart(chart.svg)
        assert result.confidence == "exact", result.diagnostics
        assert result.table == chart.table, (
            chart.table.to_json_dict(), result.table.to_json_dict()
        )
        exact += 1
    elapsed = time.monotonic() - started
    assert exact == 500
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _ok(1, f"500/500 labeled round trips cell-exact in {elapsed:.1f}s")


def test_criterion_2_unlabeled_scale_recovery():
    """500 unlabeled bar/line cycles: <=2% error in >=99% of values, no axis rejections."""
    rng = random.Random(2002)
    started = time.monotonic()
    kinds = (SIMPLE_BAR, GROUPED_BAR, LINE_SINGLE, LINE_MULTI)
    total_values = 0
    within = 0
    rejections = 0
    for i in range(500):
        chart = random_chart(rng, chart_type=kinds[i % 4], labels=False)
        result = extract_chart(chart.svg)
        rejections += sum("axis fit rejected" in d for d in result.diagnostics)
        assert result.table.n_rows == chart.table.n_rows
        for src_row, got_row in zip(chart.table.rows, result.table.rows):
            for col, sv, gv in zip(chart.table.columns, src_row, got_row):
                if col.kind != NUMERIC:
                    continue
                total_values += 1
                if abs(gv - sv) / max(abs(sv), 1e-9) <= 0.02:
                    within += 1
    elapsed = time.monotonic() - started
    assert rejections == 0
    assert within / total_values >= 0.99, f"{within}/{total_values}"
    assert elapsed < 90, f"took {elapsed:.1f}s"
    _ok(
        2,
        f"{within}/{total_values} values within 2%, 0 axis rejections, "
        f"{elapsed:.1f}s",
    )


class _ChartPools:
    """Lazily grown pools of rendered charts keyed by generator kwargs."""

    def __init__(self, seed=3003):
        self.rng = random.Random(seed)
        self.pools: dict[tuple, list] = {}

    def stream(self, **kwargs):
        key = tuple(sorted(kwargs.items()))
        pool = self.pools.setdefault(key, [])
        i = 0
        while True:
            while i >= len(pool):
                pool.append(random_chart(self.rng, **kwargs))
            yield pool[i]
            i += 1


# Chart shapes that make every template family reachable.
_PLANS = {
    "default": [
        dict(chart_type=SIMPLE_BAR),
        dict(chart_type=GROUPED_BAR),
        dict(chart_type=PIE),
        dict(chart_type=LINE_SINGLE),
        dict(chart_type=LINE_MULTI),
    ],
    "T26": [dict(chart_type=SIMPLE_BAR, negatives=True),
            dict(chart_type=GROUPED_BAR, negatives=True),
            dict(chart_type=LINE_SINGLE, negatives=True)],
    "T25": [dict(chart_type=SIMPLE_BAR, force_duplicates=True, rows=5),
            dict(chart_type=LINE_SINGLE, force_duplicates=True, rows=6)],
    "T29": [dict(chart_type=SIMPLE_BAR, rows=5),
            dict(chart_type=GROUPED_BAR, n_series=2, rows=4)],
    "T31": [dict(chart_type=SIMPLE_BAR, rows=6),
            dict(chart_type=GROUPED_BAR, n_series=2, rows=4)],
    "T33": [dict(chart_type=LINE_SINGLE, rows=6), dict(chart_type=SIMPLE_BAR, rows=5)],
    "T40": [dict(chart_type=GROUPED_BAR), dict(chart_type=LINE_MULTI)],
    "T47": [dict(chart_type=GROUPED_BAR, rows=3, n_series=2)],
    "T53": [dict(chart_type=GROUPED_BAR, rows=3, n_series=2)],
    "T64": [dict(chart_type=GROUPED_BAR, rows=3, n_series=2)],
    "T72": [dict(chart_type=SIMPLE_BAR, force_duplicates=True, rows=6)],
    "T77": [dict(chart_type=LINE_SINGLE, rows=6),
            dict(chart_type=LINE_MULTI, n_series=2, rows=4)],
    "T79": [dict(chart_type=SIMPLE_BAR, rows=5)],
    "T80": [dict(chart_type=GROUPED_BAR, n_series=3),
            dict(chart_type=GROUPED_BAR, n_series=4)],
    "T84": [dict(chart_type=SIMPLE_BAR, rows=4), dict(chart_type=SIMPLE_BAR, rows=6)],
    "T87": [dict(chart_type=GROUPED_BAR, n_series=2, rows=4)],
}
for _tid in ("T01", "T02", "T03", "T04", "T47", "T48", "T50", "T60"):
    _PLANS.setdefault(_tid, [dict(chart_type=GROUPED_BAR, n_series=2, rows=3),
                             dict(chart_type=GROUPED_BAR, n_series=3, rows=2)])
for _tid in ("T21", "T76"):
    _PLANS.setdefault(_tid, [dict(chart_type=LINE_SINGLE),
                             dict(chart_type=LINE_MULTI)])
for _tid in ("T23", "T44", "T45", "T89", "T90"):
    _PLANS.setdefault(_tid, [dict(chart_type=PIE)])


def test_criterion_3_template_oracle_equivalence():
    """All 90 templates agree with the brute-force evaluator on 200 charts each."""
    pools = _ChartPools()
    rng = random.Random(777)
    per_template = 200
    mismatches = []
    for tid in sorted(REGISTRY):
        template = REGISTRY[tid]
        plans = _PLANS.get(tid, _PLANS["default"])
        streams = [pools.stream(**plan) for plan in plans]
        used = 0
        attempts = 0
        while used < per_template:
            attempts += 1
            assert attempts < 20_000, f"{tid}: applicable charts too rare"
            chart = next(streams[attempts % len(streams)])
            view = ChartView(chart)
            bindings = template.bindings(view)
            if not bindings:
                continue
            binding = bindings[rng.randrange(len(bindings))]
            produced = template.answer(view, binding)
            expected = brute_answer(chart, tid, binding)
            if produced != expected:
                mismatches.append((tid, binding, produced, expected))
                break
            used += 1
    assert not mismatches, mismatches[:3]
    _ok(3, f"90 templates x {per_template} charts: oracle == brute force")


def test_criterion_4_value_estimation_fidelity():
    """Emitted two-decimal fractions equal round(bbox_h / plot_h, 2) exactly."""
    rng = random.Random(4004)
    bars_checked = 0
    while bars_checked < 1000:
        chart = random_chart(
            rng, chart_type=GROUPED_BAR if bars_checked % 2 else SIMPLE_BAR
        )
        target = value_estimation_target(chart)
        cells = []
        for row in target.split(" & "):
            cells.extend(row.split(" | "))
        view = ChartView(chart)
        marks = [m for s in view.series_names for m in view.series_marks(s)]
        assert len(cells) == len(marks)
        for cell, mark in zip(cells, marks):
            expected = round(mark.bbox.h / chart.plot_area.h, 2)
            assert float(cell) == expected, (cell, expected)
            bars_checked += 1
    _ok(4, f"{bars_checked} bar fractions match round(h/H, 2) exactly")


def test_criterion_5_metric_identities_and_oracles():
    """rnss/rms identities, assignment fuzz vs exhaustive, RA boundary."""
    rng = random.Random(5005)
    for _ in range(200):
        t = random_plain_table(rng)
        assert rnss(t, t) == pytest.approx(1.0)
        assert rms_f1(t, t)[2] == pytest.approx(1.0)
    for _ in range(1000):
        n = rng.randint(1, 6)
        cost = [[rng.random() for _ in range(n)] for _ in range(n)]
        _, fast = hungarian(cost)
        _, slow = exhaustive_assignment(cost)
        assert abs(fast - slow) <= 1e-9
    verdicts = [
        relaxed_accuracy("104.9", "100"),
        relaxed_accuracy("105.0", "100"),
        relaxed_accuracy("105.1", "100"),
    ]
    assert verdicts == [1, 1, 0]
    _ok(5, "identities on 200 tables, 1000-case assignment fuzz, RA boundary {1,1,0}")


def test_criterion_6_flattening_round_trip():
    """unflatten(flatten(t)) == t on 1000 tables with |, &, \\ in cells."""
    rng = random.Random(6006)
    specials = 0
    for _ in range(1000):
        t = random_plain_table(rng, special=True)
        assert unflatten_table(flatten_table(t)) == t
        specials += any(
            any(ch in cell for ch in "|&\\")
            for row in t.rows
            for cell in row
            if isinstance(cell, str)
        )
    assert specials > 200  # the generator really does exercise the escapes
    _ok(6, f"1000/1000 round trips exact ({specials} tables carried |&\\ cells)")


def _run_pipeline(tmp_path, name):
    out = tmp_path / name
    config = PipelineConfig(
        seed=77, count=60, out=str(out), labels="mixed",
        counts={"table": 1, "value_estimation": 1, "qa_reasoning": 3,
                "qa_open": 0, "summary": 0},
    )
    synthesize(config)
    gen_tasks(out, out / "tasks", config)
    digests = {}
    for path in sorted(out.rglob("*.jsonl")):
        digests[str(path.relative_to(out))] = hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
    return digests


def test_criterion_7_pipeline_determinism(tmp_path):
    """Two full runs with one config produce byte-identical JSONL outputs."""
    a = _run_pipeline(tmp_path, "run_a")
    b = _run_pipeline(tmp_path, "run_b")
    assert a == b
    assert "manifest.jsonl" in a
    assert "tasks/qa_reasoning.jsonl" in a
    _ok(7, f"{len(a)} JSONL files hash-identical across two runs")


def test_criterion_8_stats_shapes(tmp_path, capsys):
    """Type mix tracks configured weights; count table shows five task columns."""
    out = tmp_path / "corpus1k"
    config = PipelineConfig(seed=67, count=1000, out=str(out), labels="mixed")
    synthesize(config)
    stats = corpus_stats(out)
    assert stats.n_charts == 1000
    expected = {"bar": 58.51, "line": 32.94, "pie": 9.39}
    for family, target in expected.items():
        got = stats.family_percentages.get(family, 0.0)
        assert abs(got - target) <= 3.0, (family, got, target)

    from chartkit.cli import main

    small = tmp_path / "small"
    main(["synthesize", "--out", str(small), "--count", "4", "--seed", "1"])
    capsys.readouterr()
    rc = main(["gen-tasks", "--corpus", str(small), "--out",
               str(tmp_path / "tasks"), "--seed", "1"])
    assert rc == 0
    printed = capsys.readouterr().out
    header = printed.splitlines()[0].split()
    assert header == ["Dataset", "table", "value_estimation", "qa_reasoning",
                      "qa_open", "summary"]
    mix = ", ".join(
        f"{f}={stats.family_percentages.get(f, 0):.1f}%" for f in expected
    )
    _ok(8, f"1000-chart mix within ±3pts ({mix}); five task columns printed")


def test_criterion_9_distill_offline(tmp_path, monkeypatch):
    """Fallback distillation touches no network; summaries stay in-table."""
    calls = {"n": 0}

    def exploding_transport(url, headers, body, timeout):
        calls["n"] += 1
        raise AssertionError("network transport must not be touched")

    import chartkit.distill as distill_mod

    monkeypatch.setattr(distill_mod, "default_transport", exploding_transport)

    out = tmp_path / "corpus"
    config = PipelineConfig(seed=99, count=25, out=str(out), labels="mixed")
    synthesize(config)
    done, _ = distill_corpus(out, tmp_path / "summaries.jsonl",
                             checkpoint_path=str(tmp_path / "ckpt.jsonl"))
    assert calls["n"] == 0
    assert len(done) == 25

    manifest = {row["id"]: row for row in
                (json.loads(l) for l in
                 (out / "manifest.jsonl").read_text().splitlines())}
    for cid, summary in done.items():
        table_text = (out / manifest[cid]["table"]).read_text(encoding="utf-8")
        table = json.loads(table_text)
        allowed = set()
        for cell in (c for row in table["rows"] for c in row):
            if isinstance(cell, str):
                allowed.update(extract_numbers(cell))
            else:
                allowed.add(float(cell))
        for col in table["columns"]:
            allowed.update(extract_numbers(col["name"]))
        for number in extract_numbers(summary):
            assert number in allowed, (number, summary)
    _ok(9, "25 fallback summaries, zero network calls, no out-of-table numbers")
