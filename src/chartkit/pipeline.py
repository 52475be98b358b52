"""End-to-end corpus pipelines: synthesize, extract, gen-tasks, stats, eval, distill.

Everything on disk is JSONL (one UTF-8 record per line, no BOM) or SVG.
A corpus directory looks like:

    manifest.jsonl            one row per chart, sorted by id
    charts/<id>.svg           the rendered chart
    charts/<id>.json          the provenance sidecar
    tables/<id>.json          the chart's canonical data table

Determinism contract: (config, seed) fixes every output byte. Each chart's
RNG derives from (seed, chart id), so worker pools and resumed runs produce
the same corpus as a single fresh run; manifests carry no timestamps.

All JSONL goes through ``chartkit.jsonl``. The manifest and the distill
checkpoint are append journals: one row per completion, loaded last-wins
on resume, and compacted (rewritten sorted by id) at the end of a run.
"""

from __future__ import annotations

import json
import random
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .distill import (
    DEFAULT_EXEMPLAR,
    BackendClient,
    BatchDriver,
    Exemplar,
    build_table_summary_prompt,
)
from .errors import AnswerNotInSummary, InvalidConfig, LengthMismatch
from .extract import BUILTIN_PROFILE, SelectorProfile, extract_chart
from .gen import chart_table_for, random_style
from .jsonl import (
    Journal,
    atomic_write_text,
    encode_row,
    load_by_id,
    row_error,
    write_jsonl,
)
from .jsonl import read_jsonl as _load_jsonl  # perfbench times reads by this name
from .metrics import MetricReport, score_pairs
from .synth import (
    DEFAULT_CANVAS,
    DEFAULT_TYPE_WEIGHTS,
    FAMILIES,
    FAMILY,
    PIE,
    ChartSpec,
    RenderedChart,
    choose_chart_type,
    render,
)
from .tables import DataTable, decompose
from .tasks import (
    TASK_KINDS,
    TaskRecord,
    assemble_open_qa_records,
    assemble_summary_records,
    generate_qa,
    records_to_jsonl,
    table_record,
    value_estimation_record,
)
from .templates import template_catalog

DEFAULT_TASK_COUNTS = {
    "table": 1,
    "value_estimation": 1,
    "qa_reasoning": 5,
    "qa_open": 1,
    "summary": 1,
}


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the synthesis and task-generation pipelines.

    ``chart_type_weights`` keys the chart families "bar", "line" and "pie"
    (a family left out weighs 0); ``grouped_fraction`` is the chance that a
    generated bar or line chart is grouped. Charts drawn from ``tables_path``
    keep only the families their table admits, and the table decides
    grouped or simple (see ``synth.choose_chart_type``).
    """

    seed: int = 0
    count: int = 100
    chart_type_weights: dict = field(
        default_factory=lambda: dict(DEFAULT_TYPE_WEIGHTS)
    )
    grouped_fraction: float = 0.5
    counts: dict = field(default_factory=lambda: dict(DEFAULT_TASK_COUNTS))
    style_overrides: dict = field(default_factory=dict)
    labels: str = "mixed"  # on | off | mixed
    out: str = "corpus"
    tables_path: Optional[str] = None
    backend_config: Optional[str] = None
    workers: int = 1
    canvas: tuple[int, int] = DEFAULT_CANVAS

    def __post_init__(self):
        weights = self.chart_type_weights
        unknown = set(weights) - set(FAMILIES)
        if unknown:
            raise InvalidConfig(
                f"chart type weights key the families {list(FAMILIES)}, "
                f"not {sorted(unknown)}"
            )
        if any(w < 0 for w in weights.values()) or sum(weights.values()) <= 0:
            raise InvalidConfig("chart type weights must be >= 0 and sum > 0")
        if any(c < 0 for c in self.counts.values()):
            raise InvalidConfig("task counts must be >= 0")
        if self.count < 0:
            raise InvalidConfig("chart count must be >= 0")
        if self.labels not in ("on", "off", "mixed"):
            raise InvalidConfig("labels must be one of on/off/mixed")
        unknown = set(self.counts) - set(TASK_KINDS)
        if unknown:
            raise InvalidConfig(f"unknown task kinds in counts: {sorted(unknown)}")

    @classmethod
    def from_file(cls, path, **overrides) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        data.update({k: v for k, v in overrides.items() if v is not None})
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - known
        if unknown:
            raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
        if "canvas" in data:
            data["canvas"] = tuple(data["canvas"])
        return cls(**data)

    def derived(self, **overrides) -> "PipelineConfig":
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})


def _chart_rng(seed: int, chart_id: str) -> random.Random:
    return random.Random(f"{seed}:{chart_id}")


@lru_cache(maxsize=4)
def _load_table_pool(tables_path: str, seed: int) -> tuple:
    """Chart-ready tables decomposed from an external table file."""
    path = Path(tables_path)
    tables: list[DataTable] = []
    if path.suffix == ".csv":
        tables.append(DataTable.from_csv(path.read_text(encoding="utf-8")))
    else:
        tables.extend(map(DataTable.from_json_dict, _load_jsonl(path)))
    pool = []
    for i, table in enumerate(tables):
        pool.extend(decompose(table, rng_seed=seed + i))
    if not pool:
        raise InvalidConfig(f"no chart-ready tables came out of {tables_path}")
    return tuple(pool)


def make_chart(config: PipelineConfig, chart_id: str) -> RenderedChart:
    """Deterministically build one chart from (config, chart id)."""
    rng = _chart_rng(config.seed, chart_id)
    weights = config.chart_type_weights
    if config.tables_path:
        pool = _load_table_pool(config.tables_path, config.seed)
        table = pool[rng.randrange(len(pool))]
        type_rng = random.Random(rng.randrange(2**31))
        chart_type = choose_chart_type(type_rng, weights, table=table)
    else:
        chart_type = choose_chart_type(rng, weights, config.grouped_fraction)
        table = chart_table_for(rng, chart_type)
    labels = {"on": True, "off": False, "mixed": None}[config.labels]
    style = random_style(rng, labels=labels, overrides=config.style_overrides)
    chart = render(ChartSpec(chart_type, table, style, config.canvas))
    return replace(chart, id=chart_id)


def _manifest_row(chart: RenderedChart) -> dict:
    return {
        "id": chart.id,
        "chart_type": chart.chart_type,
        "family": FAMILY[chart.chart_type],
        "svg": f"charts/{chart.id}.svg",
        "sidecar": f"charts/{chart.id}.json",
        "table": f"tables/{chart.id}.json",
        "canvas": list(chart.canvas),
        "show_data_labels": chart.style.show_data_labels,
        "n_rows": chart.table.n_rows,
    }


def _write_chart_files(out: Path, chart: RenderedChart) -> dict:
    (out / "charts" / f"{chart.id}.svg").write_text(chart.svg, encoding="utf-8")
    (out / "charts" / f"{chart.id}.json").write_text(
        chart.to_sidecar_json() + "\n", encoding="utf-8"
    )
    (out / "tables" / f"{chart.id}.json").write_text(
        chart.table.to_json() + "\n", encoding="utf-8"
    )
    return _manifest_row(chart)


def _synthesize_one(args) -> dict:
    config, out_dir, chart_id = args
    chart = make_chart(config, chart_id)
    return _write_chart_files(Path(out_dir), chart)


def load_manifest(corpus_dir) -> list[dict]:
    # Crash-resumed runs may repeat ids; the last row of an id wins.
    return list(load_by_id(Path(corpus_dir) / "manifest.jsonl").values())


def synthesize(config: PipelineConfig) -> list[dict]:
    """Emit SVG + sidecar + table per chart plus a sorted manifest.

    The manifest is a ``jsonl.Journal`` with a row per finished chart, so
    an interrupted run resumes where it stopped, and a rerun skips finished
    ids and converges on the bytes of a single fresh run.
    """
    out = Path(config.out)
    (out / "charts").mkdir(parents=True, exist_ok=True)
    (out / "tables").mkdir(exist_ok=True)
    wanted = [f"chart-{i:06d}" for i in range(config.count)]
    with Journal(out / "manifest.jsonl") as manifest:
        todo = [cid for cid in wanted if cid not in manifest.rows]
        if config.workers > 1 and todo:
            jobs = [(config, str(out), cid) for cid in todo]
            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                for row in pool.map(_synthesize_one, jobs):
                    manifest.append(row)
        else:
            for cid in todo:
                manifest.append(_synthesize_one((config, str(out), cid)))
        keep = [manifest.rows[cid] for cid in wanted if cid in manifest.rows]
        manifest.compact(keep)
    return keep


def load_chart(corpus_dir, row: dict) -> RenderedChart:
    """A manifest row's chart from its sidecar; the SVG text is not read."""
    sidecar = (Path(corpus_dir) / row["sidecar"]).read_text(encoding="utf-8")
    return RenderedChart.from_sidecar_json(sidecar)


def extract_corpus(svg_dir, profile: Optional[SelectorProfile] = None,
                   out_dir=None) -> dict:
    """Batch-extract every ``*.svg`` under a directory.

    Returns a summary dict with exact/recovered/failed counts; failures are
    data (listed per file), not a process error.
    """
    profile = profile or BUILTIN_PROFILE
    svg_dir = Path(svg_dir)
    out = Path(out_dir) if out_dir else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    summary = {"processed": 0, "exact": 0, "recovered": 0, "failed": 0,
               "failures": []}
    for path in sorted(svg_dir.rglob("*.svg")):
        summary["processed"] += 1
        try:
            result = extract_chart(path.read_text(encoding="utf-8"), profile)
        except Exception as exc:
            summary["failed"] += 1
            summary["failures"].append({"file": path.name, "error": str(exc)})
            continue
        summary[result.confidence] += 1
        if out:
            (out / f"{path.stem}.extracted.json").write_text(
                encode_row(result.to_json_dict()), "utf-8")
    return summary


def gen_tasks(
    corpus_dir,
    out_dir,
    config: PipelineConfig,
    summaries_path=None,
    qa_pairs_path=None,
) -> tuple[dict, list[str]]:
    """Emit the per-kind task JSONL streams for a synthesized corpus.

    Returns (per-kind record counts, warnings). Kinds configured to 0 are
    omitted entirely.
    """
    manifest = load_manifest(corpus_dir)
    counts = {k: config.counts.get(k, 0) for k in TASK_KINDS}
    warnings: list[str] = []

    summaries: dict[str, list[str]] = {}
    if summaries_path:
        for row in _load_jsonl(summaries_path):
            summaries.setdefault(row["id"], []).append(row["summary"])
    qa_pairs: list[tuple[str, str, str]] = []
    if qa_pairs_path:
        qa_pairs = [
            (row["id"], row["question"], row["answer"])
            for row in _load_jsonl(qa_pairs_path)
        ]

    records: dict[str, list[TaskRecord]] = {k: [] for k in TASK_KINDS}
    for row in manifest:
        chart = load_chart(corpus_dir, row)
        ref = row["svg"]
        if counts["table"] > 0:
            records["table"].append(table_record(chart, image_ref=ref))
        if counts["value_estimation"] > 0 and chart.chart_type != PIE:
            records["value_estimation"].append(
                value_estimation_record(chart, image_ref=ref)
            )
        if counts["qa_reasoning"] > 0:
            seed = _chart_rng(config.seed, f"qa:{row['id']}").randrange(2**31)
            records["qa_reasoning"].extend(
                generate_qa(chart, counts["qa_reasoning"], seed, image_ref=ref)
            )

    ref_of = {r["id"]: r["svg"] for r in manifest}

    if counts["summary"] > 0 and summaries:
        with_summaries = [r["id"] for r in manifest if r["id"] in summaries]
        missing = [r["id"] for r in manifest if r["id"] not in summaries]
        if missing:
            warnings.append(
                f"summary: {len(missing)} charts have no summary on file"
            )
        if with_summaries:
            records["summary"] = assemble_summary_records(
                [ref_of[cid] for cid in with_summaries],
                {
                    ref_of[cid]: summaries[cid][: counts["summary"]]
                    for cid in with_summaries
                },
            )
    elif counts["summary"] > 0:
        warnings.append("summary: no summaries file supplied; emitted 0 records")

    if counts["qa_open"] > 0 and qa_pairs:
        # Newline join: an answer sentence must sit inside one summary, not
        # straddle the boundary between two of them.
        flat_summaries = {
            ref_of[cid]: "\n".join(texts)
            for cid, texts in summaries.items()
            if cid in ref_of
        }
        usable = [
            (ref_of[cid], q, a) for cid, q, a in qa_pairs if cid in ref_of
        ]
        try:
            qa_records, diags = assemble_open_qa_records(usable, flat_summaries)
        except AnswerNotInSummary as exc:
            bad = {(cid, q) for cid, q in exc.pairs}
            warnings.append(
                f"qa_open: dropped {len(bad)} pairs whose answer is not in the summary"
            )
            usable = [p for p in usable if (p[0], p[1]) not in bad]
            qa_records, diags = assemble_open_qa_records(usable, flat_summaries)
        warnings.extend(f"qa_open: {d}" for d in diags)
        per_chart: dict[str, int] = {}
        for record in qa_records:
            per_chart[record.image_ref] = per_chart.get(record.image_ref, 0) + 1
            if per_chart[record.image_ref] <= counts["qa_open"]:
                records["qa_open"].append(record)
    elif counts["qa_open"] > 0:
        warnings.append("qa_open: no qa-pairs file supplied; emitted 0 records")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emitted = {}
    for kind in TASK_KINDS:
        if counts[kind] <= 0:
            continue
        emitted[kind] = len(records[kind])
        if not records[kind]:
            continue  # configured but empty (e.g. no summaries supplied)
        atomic_write_text(out / f"{kind}.jsonl", records_to_jsonl(records[kind]))
    if counts["qa_reasoning"] > 0:
        atomic_write_text(
            out / "template_catalog.json",
            json.dumps(template_catalog(), ensure_ascii=False, indent=2,
                       sort_keys=True) + "\n",
        )
    return emitted, warnings


def format_task_count_table(name: str, emitted: dict) -> str:
    """Per-task count table: one row per corpus, all five task columns."""
    headers = ["Dataset", *TASK_KINDS]
    row = [name] + [str(emitted.get(k, 0)) for k in TASK_KINDS]
    total = ["Total"] + [str(emitted.get(k, 0)) for k in TASK_KINDS]
    widths = [
        max(len(headers[i]), len(row[i]), len(total[i]))
        for i in range(len(headers))
    ]

    def fmt_row(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([fmt_row(headers), sep, fmt_row(row), sep, fmt_row(total)])


_SENTENCE_RE = re.compile(r"[.!?]+(?:\s+|$)")


@dataclass
class CorpusStats:
    """Chart-type distribution plus linguistic statistics of summaries."""

    n_charts: int
    type_counts: dict
    family_percentages: dict
    n_vocab: int
    avg_characters: float
    avg_tokens: float
    avg_sentences: float

    def to_json_dict(self) -> dict:
        return asdict(self)

    def render_text(self) -> str:
        lines = [f"charts: {self.n_charts}"]
        for family in sorted(self.family_percentages):
            lines.append(
                f"  {family}: {self.family_percentages[family]:.2f}%"
            )
        for chart_type in sorted(self.type_counts):
            lines.append(f"  {chart_type}: {self.type_counts[chart_type]}")
        lines.append(f"vocab: {self.n_vocab}")
        lines.append(f"avg characters: {self.avg_characters:.2f}")
        lines.append(f"avg tokens: {self.avg_tokens:.2f}")
        lines.append(f"avg sentences: {self.avg_sentences:.2f}")
        return "\n".join(lines)


def sentence_count(text: str) -> int:
    return len([s for s in _SENTENCE_RE.split(text) if s.strip()])


def corpus_stats(corpus_dir, summaries_path=None) -> CorpusStats:
    """Compute chart-type distribution and summary linguistics for a corpus."""
    manifest = load_manifest(corpus_dir)
    type_counts: dict[str, int] = {}
    family_counts: dict[str, int] = {}
    for row in manifest:
        type_counts[row["chart_type"]] = type_counts.get(row["chart_type"], 0) + 1
        family_counts[row["family"]] = family_counts.get(row["family"], 0) + 1
    n = len(manifest)
    family_pct = {
        fam: 100.0 * c / n for fam, c in family_counts.items()
    } if n else {}

    texts = []
    if summaries_path:
        texts = [row["summary"] for row in _load_jsonl(summaries_path)]
    vocab = set()
    for text in texts:
        vocab.update(tok.lower() for tok in text.split())
    m = len(texts)
    return CorpusStats(
        n_charts=n,
        type_counts=type_counts,
        family_percentages=family_pct,
        n_vocab=len(vocab),
        avg_characters=sum(len(t) for t in texts) / m if m else 0.0,
        avg_tokens=sum(len(t.split()) for t in texts) / m if m else 0.0,
        avg_sentences=sum(sentence_count(t) for t in texts) / m if m else 0.0,
    )


def _gold_groups(rows: list[dict]) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for row in rows:
        value = row["output"]
        if isinstance(value, list):
            groups.setdefault(row["id"], []).extend(str(v) for v in value)
        else:
            groups.setdefault(row["id"], []).append(str(value))
    return groups


def _eval_rows(path) -> list[dict]:
    """The rows of a pred or gold file, each with a string ``id`` and an ``output``."""
    rows = _load_jsonl(path)
    for i, row in enumerate(rows):
        for key in ("id", "output"):
            if key not in row:
                raise row_error(path, i, f"row has no {key!r}")
        if not isinstance(row["id"], str):
            raise row_error(path, i, f"id {row['id']!r} is not a string")
    return rows


def evaluate(pred_path, gold_path, metrics=("ra", "rnss", "rms", "bleu")) -> MetricReport:
    """Score a predictions JSONL against a gold JSONL, aligned by id."""
    preds = {row["id"]: str(row["output"]) for row in _eval_rows(pred_path)}
    golds = _gold_groups(_eval_rows(gold_path))
    missing_gold = sorted(set(preds) - set(golds))
    missing_pred = sorted(set(golds) - set(preds))
    if missing_gold or missing_pred:
        raise LengthMismatch(
            f"ids missing in gold: {missing_gold[:5]}; missing in pred: {missing_pred[:5]}"
        )
    pairs = [(cid, preds[cid], golds[cid]) for cid in sorted(preds)]
    return score_pairs(pairs, metrics)


def distill_corpus(
    corpus_dir,
    out_path,
    backend: Optional[BackendClient] = None,
    backend_config=None,
    transport=None,
    budget: Optional[int] = None,
    checkpoint_path=None,
    log_path=None,
    exemplar: Optional[Exemplar] = None,
) -> dict[str, str]:
    """Generate a summary per chart through a backend or the offline fallback.

    ``backend=None`` and ``backend_config=None`` selects the deterministic
    fallback; no network transport is ever constructed in that case.
    ``checkpoint_path`` names the driver's append journal of finished
    summaries (see ``BatchDriver``); a rerun resumes from it.
    """
    if backend is None and backend_config:
        with open(backend_config, encoding="utf-8") as fh:
            backend = BackendClient.from_config(json.load(fh), transport=transport)
    manifest = load_manifest(corpus_dir)
    demo = exemplar or DEFAULT_EXEMPLAR
    items = []
    for row in manifest:
        table_text = (Path(corpus_dir) / row["table"]).read_text(encoding="utf-8")
        table = DataTable.from_json(table_text)
        items.append((row["id"], build_table_summary_prompt(table, demo)))
    driver = BatchDriver(backend=backend, checkpoint_path=checkpoint_path,
                         budget=budget, log_path=log_path)
    done = driver.run(items)
    write_jsonl(out_path, ({"id": cid, "summary": done[cid]} for cid in sorted(done)))
    return done
