"""Golden digests of the seed-7 corpus factory output and of eval scores.

(config, seed) fixes every output byte. This test runs every corpus stage
on a small fixed config and compares one SHA-256 over all the files they
write (relative path and bytes) against a recorded value. A refactor that
changes any byte of the manifest, an SVG, a sidecar, a table, an
extraction, a task stream, the template catalog, the summaries or the
distill checkpoint fails here.
"""

import builtins
import hashlib
import json
import math
import operator
import random
from functools import reduce

from chartkit.flatten import flatten_table
from chartkit.gen import random_chart_table
from chartkit.jsonl import read_jsonl
from chartkit.metrics import score_pairs
from chartkit.pipeline import (
    PipelineConfig,
    distill_corpus,
    extract_corpus,
    gen_tasks,
    synthesize,
)
from chartkit.tables import CATEGORICAL, NUMERIC, Column, DataTable

GOLDEN_SHA256 = "ab12688a7c053b625b4f19db61a54967d7b9c0a6e68ae09164fbd929359656a8"


def tree_digest(root) -> str:
    """SHA-256 over every file under ``root``: relative path, length, bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        rel = path.relative_to(root).as_posix()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def run_corpus_factory(root):
    """synthesize -> extract -> distill (checkpointed) -> gen-tasks under root."""
    config = PipelineConfig(seed=7, count=40, labels="mixed",
                            out=str(root / "corpus"))
    synthesize(config)
    extract_corpus(root / "corpus" / "charts", out_dir=root / "extracted")
    distill_corpus(root / "corpus", root / "summaries.jsonl",
                   checkpoint_path=root / "checkpoint.jsonl")
    gen_tasks(root / "corpus", root / "tasks", config,
              summaries_path=root / "summaries.jsonl")
    return config


def test_golden_corpus_digest(tmp_path):
    run_corpus_factory(tmp_path)
    names = {p.relative_to(tmp_path).as_posix()
             for p in tmp_path.rglob("*") if p.is_file()}
    assert {"corpus/manifest.jsonl", "checkpoint.jsonl", "summaries.jsonl",
            "tasks/template_catalog.json", "tasks/summary.jsonl",
            "extracted/chart-000000.extracted.json"} <= names
    assert tree_digest(tmp_path) == GOLDEN_SHA256


# Synthesize output for configs the seed-7 digest does not reach: style
# overrides (a pinned field, narrowed ranges, a restricted enum), a
# non-default grouped fraction, full non-default family weights, and an
# external tables file with grouped, ungrouped and negative-valued tables.
SPACE_SHA256 = "49913611738f382759f4bac8c55c5b24769672f758511b8cecfdf54854b4116d"

EXTERNAL_TABLES = [
    {"columns": ["Region", "Year", "Profit"],
     "rows": [[r, y, str(v)] for (r, y), v in zip(
         [(r, y) for r in ("North", "South", "East") for y in ("2021", "2022", "2023")],
         (12.5, -3.0, 8.25, 4.0, 6.5, -1.75, 9.0, 2.5, 7.0))]},
    {"columns": ["Country", "Share"],
     "rows": [["Canada", "30"], ["Brazil", "25"], ["Kenya", "20"],
              ["Japan", "15"], ["Norway", "10"]]},
    {"columns": ["Month", "Change"],
     "rows": [["Jan", "-4.5"], ["Feb", "2.25"], ["Mar", "3"],
              ["Apr", "-1"], ["May", "6.75"], ["Jun", "0.5"]]},
    {"columns": ["Product", "Channel", "Units"],
     "rows": [[p, c, str(u)] for (p, c), u in zip(
         [(p, c) for p in ("Phones", "Tablets") for c in ("Online", "In-store")],
         (120, 80, 45, 60))]},
]


def run_space_configs(root):
    """synthesize each non-default config into its own directory under root."""
    tables = root / "tables.jsonl"
    tables.write_text("".join(json.dumps(t) + "\n" for t in EXTERNAL_TABLES),
                      encoding="utf-8")
    configs = {
        "styled": dict(labels="on", style_overrides={
            "font_px": [10, 12], "bar_gap": [0.1, 0.2],
            "grid": ["none", "both"], "palette": "tableau10"}),
        "grouped": dict(labels="off", grouped_fraction=0.3),
        "weighted": dict(chart_type_weights={"bar": 1, "line": 2, "pie": 3}),
        "tables": dict(tables_path=str(tables),
                       chart_type_weights={"bar": 2, "line": 1, "pie": 3}),
    }
    for name, kwargs in configs.items():
        synthesize(PipelineConfig(seed=7, count=30, out=str(root / name), **kwargs))


def test_golden_space_digest(tmp_path):
    run_space_configs(tmp_path)
    types = {row["chart_type"]
             for row in read_jsonl(tmp_path / "tables" / "manifest.jsonl")}
    assert {"grouped_bar", "pie", "simple_bar"} <= types
    assert tree_digest(tmp_path) == SPACE_SHA256


# Every eval score, bit for bit: a SHA-256 over the JSON of score_pairs on
# seeded pred/gold pairs. The predictions are perturbed gold tables (exact
# copy, noise inside and outside 5%, a key typo, a dropped row, an added
# row, a transposed table, malformed text) plus wide tables whose keys run
# past 64 characters and hold non-ASCII and astral (non-BMP) characters.
EVAL_SHA256 = "4bb87ef9723ab14652c9ee7b8b2670d9ea3410a51bfa2752e3e5c49444ebc75d"

EVAL_KINDS = ("exact", "noise_in", "noise_out", "typo", "drop_row",
              "add_row", "transpose", "malformed")

LONG_LABELS = [
    "Gross domestic expenditure on research and development per capita, constant prices",
    "Gross domestic expenditure on research and development per capita, current prices",
    "Überseeische Gebiete und Départements — Bevölkerung im erwerbsfähigen Alter",
    "Überseeische Gebiete und Départements — Bevölkerung im Rentenalter insgesamt",
    "東京都・大阪府・名古屋市を含む三大都市圏の就業者数（季節調整済み、千人単位）の推移",
    "📈 Exports of goods 🚢 and services 🛫 as a share of gross domestic product 📊",
    "📉 Imports of goods 🚢 and services 🛫 as a share of gross domestic product 📊",
    "𝐓𝐨𝐭𝐚𝐥 𝐟𝐢𝐧𝐚𝐥 𝐞𝐧𝐞𝐫𝐠𝐲 𝐜𝐨𝐧𝐬𝐮𝐦𝐩𝐭𝐢𝐨𝐧 by sector and fuel, thousand tonnes of oil",
]


def _perturbed(rng, kind, table):
    """(pred, gold) texts: ``table`` as gold, perturbed by ``kind`` as pred."""
    gold = flatten_table(table)
    columns = list(table.columns)
    rows = [list(r) for r in table.rows]
    numeric = [j for j, c in enumerate(columns) if c.kind == NUMERIC]
    if kind in ("noise_in", "noise_out"):
        for row in rows:
            for j in numeric:
                rel = (rng.uniform(-0.04, 0.04) if kind == "noise_in"
                       else rng.choice((-1, 1)) * rng.uniform(0.06, 0.5))
                row[j] = round(row[j] * (1 + rel), 2)
    elif kind == "typo":
        row = rows[rng.randrange(len(rows))]
        pos = rng.randrange(len(row[0]))
        row[0] = row[0][:pos] + rng.choice("xqzé𝔷") + row[0][pos + 1:]
    elif kind == "drop_row" and len(rows) > 1:
        del rows[rng.randrange(len(rows))]
    elif kind == "add_row":
        rows.append(["Unlisted"] + [round(rng.uniform(1, 100), 2) for _ in numeric])
    elif kind == "transpose":
        swapped = DataTable(
            [columns[0]] + [Column(str(row[0]), NUMERIC) for row in rows],
            [[columns[j].name] + [row[j] for row in rows] for j in numeric])
        return flatten_table(swapped), gold
    elif kind == "malformed":
        bad = (f"{gold} | {rows[0][numeric[0]]}" if rng.random() < 0.5
               else f"The chart peaks at {rows[0][numeric[0]]}.")
        return bad, gold
    return flatten_table(DataTable(columns, rows)), gold


def eval_pairs():
    """Seeded (id, pred, [gold]) triples covering every perturbation."""
    rng = random.Random(11)
    pairs = []
    for i in range(48):
        kind = EVAL_KINDS[i % len(EVAL_KINDS)]
        table = random_chart_table(rng, grouped=i % 3 == 0).to_wide_table()
        pred, gold = _perturbed(rng, kind, table)
        pairs.append((f"chart-{i:02d}-{kind}", pred, [gold]))
    for i, kind in enumerate(EVAL_KINDS):
        n_rows = rng.randint(3, len(LONG_LABELS))
        columns = [Column("Indicator", CATEGORICAL)] + [
            Column(f"{2015 + c} — Zeitraum ✓", NUMERIC) for c in range(3)]
        rows = [[label] + [round(rng.uniform(1, 1000), 2) for _ in range(3)]
                for label in rng.sample(LONG_LABELS, n_rows)]
        pred, gold = _perturbed(rng, kind, DataTable(columns, rows))
        pairs.append((f"wide-{i:02d}-{kind}", pred, [gold]))
    return pairs


def test_golden_eval_digest():
    report = score_pairs(eval_pairs())
    rows = {row["id"]: row for row in report.per_example}
    assert rows["chart-00-exact"]["rms_f1"] == 1.0
    assert any(len(key) > 64 for key in LONG_LABELS)
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == EVAL_SHA256


# The summary and open-QA streams gen-tasks builds from its two side
# inputs: a SHA-256 over summary.jsonl, qa_open.jsonl and the warnings on
# a 6-chart corpus. The summaries hold several texts per chart (one past
# the per-chart count of 2), blank texts next to non-blank ones, non-ASCII
# text and ids not in the manifest. The QA pairs, each with its own
# question, are good (the answer sits in one of the chart's texts, the
# third included), bad (not in any text, or straddling two texts), for a
# chart with no summary (unchecked), for an id not in the manifest, and
# more than the cap of one per chart. Each unchecked chart is warned about
# once, however many of its pairs there are.
SIDE_INPUT_SHA256 = "2ed320770b3b7c6b3b3878e7fc5d830f4f40bd586c8a8cd2789a19f183b4334d"

SIDE_SUMMARIES = [
    ("chart-000000", "Sales rose in every quarter."),
    ("chart-000000", "Costs fell. Margins widened."),
    ("chart-000000", "A third text past the count."),
    ("chart-000001", "   "),
    ("chart-000001", "Umsatz stieg um 12 % — Rekordjahr."),
    ("chart-000002", "Only one text here."),
    ("chart-000002", ""),
    ("chart-000004", "Exports peaked in 2021."),
    ("chart-000004", "Imports stayed flat."),
    ("chart-999999", "A chart that is not in the manifest."),
    ("ghost", "Another stray id."),
]

SIDE_QA_PAIRS = [
    ("chart-000000", "What happened to sales?", "Sales rose in every quarter."),
    ("chart-000000", "And margins?", "Margins widened."),
    ("chart-000000", "Which text is third?", "A third text past the count."),
    ("chart-000000", "Across two texts?", "quarter. Costs fell."),
    ("chart-000001", "How much did sales grow?", "um 12 %"),
    ("chart-000001", "Was it a bad year?", "Yes, a bad year."),
    ("chart-000002", "What is here?", "Nothing of the sort."),
    ("chart-000002", "How many texts?", "Only one text"),
    ("chart-000003", "Unchecked?", "Nobody can tell."),
    ("chart-000003", "Unchecked again?", "Still nobody."),
    ("chart-000004", "What peaked?", "Exports peaked"),
    ("chart-000005", "Is anything known?", "Nothing on file."),
    ("chart-999999", "A stray pair?", "Not in the manifest."),
]


def test_golden_side_input_digest(tmp_path):
    config = PipelineConfig(seed=7, count=6, out=str(tmp_path / "corpus"),
                            counts={"summary": 2, "qa_open": 1})
    synthesize(config)
    summaries, qa_pairs = tmp_path / "summaries.jsonl", tmp_path / "qa.jsonl"
    summaries.write_text("".join(
        json.dumps({"id": cid, "summary": text}, ensure_ascii=False) + "\n"
        for cid, text in SIDE_SUMMARIES), encoding="utf-8")
    qa_pairs.write_text("".join(
        json.dumps({"id": cid, "question": q, "answer": a}) + "\n"
        for cid, q, a in SIDE_QA_PAIRS), encoding="utf-8")
    emitted, warnings = gen_tasks(tmp_path / "corpus", tmp_path / "tasks", config,
                                  summaries_path=summaries, qa_pairs_path=qa_pairs)
    assert emitted == {"summary": 6, "qa_open": 6}
    digest = hashlib.sha256()
    for name in ("summary.jsonl", "qa_open.jsonl"):
        digest.update((tmp_path / "tasks" / name).read_bytes())
    digest.update(json.dumps(warnings).encode("utf-8"))
    assert digest.hexdigest() == SIDE_INPUT_SHA256


# From Python 3.12 on, ``sum`` compensates float rounding, so a float total
# added with a bare ``sum`` moves bytes there. The digests above are
# rebuilt here with ``sum`` compensated on every Python, so such a ``sum``
# fails on 3.10 and 3.11 too.
_plain_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum`` with float totals added as Neumaier adds them; like Python
    3.12's ``sum``, the plain total when it is not a finite float."""
    items = list(iterable)
    plain = _plain_sum(items, start)
    if not isinstance(plain, float) or not math.isfinite(plain):
        return plain
    total, lost = start, 0.0
    for x in items:
        t = total + x
        lost += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + lost


def test_compensated_sum_differs_from_a_plain_one():
    # A left fold, not ``builtins.sum``: from 3.12 on that is compensated
    # too, and gives 1.0 here.
    values = [0.1] * 10
    assert compensated_sum(values) == 1.0 != reduce(operator.add, values, 0)
    assert compensated_sum([1e308, 1e308, -1e308]) == math.inf
    assert math.isnan(compensated_sum([math.inf, -math.inf]))
    assert compensated_sum([1, 2, 3]) == 6 and compensated_sum([[1], [2]], []) == [1, 2]


def test_golden_digests_hold_under_a_compensated_sum(tmp_path, monkeypatch):
    import test_templates

    monkeypatch.setattr(builtins, "sum", compensated_sum)
    (tmp_path / "corpus").mkdir()
    (tmp_path / "space").mkdir()
    test_golden_corpus_digest(tmp_path / "corpus")
    test_golden_space_digest(tmp_path / "space")
    test_golden_eval_digest()
    test_templates.test_golden_bindings_digest()
