"""End-to-end corpus pipelines: synthesize, extract, gen-tasks, stats, eval, distill.

Everything on disk is JSONL (one UTF-8 record per line, no BOM) or SVG.
A corpus directory looks like:

    manifest.jsonl            one row per chart, sorted by id
    charts/<id>.svg           the rendered chart
    charts/<id>.json          the provenance sidecar, the chart's table included
    tables/<id>.json          a copy of the table, for readers outside chartkit

Determinism contract: (config, seed) fixes every output byte. Each chart's
RNG derives from (seed, chart id), so worker pools and resumed runs produce
the same corpus as a single fresh run; manifests carry no timestamps.

Every stage reads a corpus through ``load_manifest`` and one sidecar read,
``_from_sidecar``: the whole chart for ``load_chart``, the table alone for
``distill_corpus``. No stage reads ``tables/``. A missing or damaged
manifest or sidecar raises a ``ChartKitError`` naming the file.

All JSONL goes through ``chartkit.jsonl``. The manifest and the distill
checkpoint are append journals: one row per completion, loaded last-wins
on resume, and compacted (rewritten sorted by id) at the end of a run.
"""

from __future__ import annotations

import json
import os
import random
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .distill import BatchDriver, build_table_summary_prompt
from .errors import (
    ChartKitError,
    InvalidConfig,
    LengthMismatch,
    MalformedSvg,
    MalformedTable,
)
from .extract import BUILTIN_PROFILE, SelectorProfile, extract_chart
from .gen import chart_table_for, random_style
from .jsonl import (
    Journal,
    atomic_write_text,
    check_rows,
    encode_row,
    read_json_object,
    read_jsonl,
    row_error,
    write_jsonl,
)
from .jsonl import read_jsonl as _load_jsonl  # perfbench times reads by this name
from .metrics import METRIC_NAMES, MetricReport, score_pairs
from .synth import (
    DEFAULT_CANVAS,
    DEFAULT_TYPE_WEIGHTS,
    FAMILIES,
    FAMILY,
    PIE,
    ChartSpec,
    RenderedChart,
    check_style_override,
    choose_chart_type,
    render,
)
from .tables import DataTable, decompose
from .tasks import (
    PROMPT_TOKENS,
    TASK_KINDS,
    TaskRecord,
    generate_qa,
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


def _is(value, kinds) -> bool:
    """``isinstance``, except that a bool is not a number here."""
    return isinstance(value, kinds) and not isinstance(value, bool)


_PATH = (str, os.PathLike)
# (field, accepted types, what an error calls them) for each field whose
# type alone is checked; labels, canvas and the dict fields' values have
# their own checks.
_FIELD_TYPES = (
    ("seed", int, "an integer"),
    ("count", int, "an integer"),
    ("workers", int, "an integer"),
    ("grouped_fraction", (int, float), "a number"),
    ("style_overrides", dict, "an object"),
    ("out", _PATH, "a path"),
    ("tables_path", (*_PATH, type(None)), "a path or null"),
)


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
    workers: int = 1
    canvas: tuple[int, int] = DEFAULT_CANVAS

    def __post_init__(self):
        for name, kinds, what in _FIELD_TYPES:
            value = getattr(self, name)
            if not _is(value, kinds):
                raise InvalidConfig(f"{name} must be {what}, not {value!r}")
        for name, kinds, what in (("chart_type_weights", (int, float), "numbers"),
                                  ("counts", int, "integers")):
            value = getattr(self, name)
            if not isinstance(value, dict) or not all(
                _is(v, kinds) for v in value.values()
            ):
                raise InvalidConfig(f"{name} must be an object of {what}, not {value!r}")
        canvas = self.canvas
        if not (isinstance(canvas, tuple) and len(canvas) == 2
                and all(_is(v, int) and v > 0 for v in canvas)):
            raise InvalidConfig(f"canvas must be two positive integers, not {canvas!r}")
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
        for key, value in self.style_overrides.items():
            try:
                check_style_override(key, value)
            except ValueError as exc:
                raise InvalidConfig(f"style_overrides: {exc}") from None

    @classmethod
    def from_file(cls, path, **overrides) -> "PipelineConfig":
        data = read_json_object(path)
        data.update({k: v for k, v in overrides.items() if v is not None})
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - known
        if unknown:
            raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
        if isinstance(data.get("canvas"), list):
            data["canvas"] = tuple(data["canvas"])
        return cls(**data)

    def derived(self, **overrides) -> "PipelineConfig":
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})


def _chart_rng(seed: int, chart_id: str) -> random.Random:
    return random.Random(f"{seed}:{chart_id}")


def _checked_rows(path, *, nonempty=(), **kinds) -> list[dict]:
    """The rows of a side-input JSONL file, checked by ``jsonl.check_rows``."""
    return check_rows(path, _load_jsonl(path), nonempty=nonempty, **kinds)


@lru_cache(maxsize=4)
def _load_table_pool(tables_path: str, seed: int) -> tuple:
    """Chart-ready tables decomposed from an external table file; a file
    that cannot be read, or a table that does not parse or decompose, is
    ``InvalidConfig`` naming the file."""
    path = Path(tables_path)
    is_csv = path.suffix == ".csv"
    rows = [] if is_csv else _checked_rows(path, columns=list, rows=list)
    try:
        tables = ([DataTable.from_csv(path.read_text(encoding="utf-8"))] if is_csv
                  else [DataTable.from_json_dict(row) for row in rows])
        pool = [piece for i, table in enumerate(tables)
                for piece in decompose(table, rng_seed=seed + i)]
    except OSError as exc:
        raise InvalidConfig(f"{tables_path}: cannot read: {exc.strerror}") from exc
    except (ChartKitError, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"{tables_path}: {exc}") from exc
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


def _synthesize_one(args) -> dict:
    config, out_dir, chart_id = args
    chart = make_chart(config, chart_id)
    out = Path(out_dir)
    (out / "charts" / f"{chart_id}.svg").write_text(chart.svg, encoding="utf-8")
    (out / "charts" / f"{chart_id}.json").write_text(
        encode_row(chart.to_sidecar_dict()), encoding="utf-8")
    (out / "tables" / f"{chart_id}.json").write_text(
        encode_row(chart.table.to_json_dict()), encoding="utf-8")
    return _manifest_row(chart)


def load_manifest(corpus_dir) -> list[dict]:
    """The manifest's rows, the last row of an id winning (a resumed run may
    repeat ids), each checked to hold the string keys the stages read; a
    missing manifest is ``InvalidConfig``."""
    path = Path(corpus_dir) / "manifest.jsonl"
    rows = check_rows(path, read_jsonl(path), id=str, svg=str, sidecar=str,
                      chart_type=str, family=str)
    return list({row["id"]: row for row in rows}.values())


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


def _from_sidecar(corpus_dir, row: dict, build):
    """``build(data)`` for the JSON object in a manifest row's sidecar; any
    ``ChartKitError`` this raises names the sidecar's path."""
    path = Path(corpus_dir) / row["sidecar"]
    try:
        return build(read_json_object(path))
    except MalformedTable as exc:
        raise MalformedTable(f"{path}: {exc}") from None


def _sidecar_table(data: dict) -> DataTable:
    if "table" not in data:
        raise MalformedTable("sidecar has no key 'table'")
    return DataTable.from_json_dict(data["table"])


def load_chart(corpus_dir, row: dict) -> RenderedChart:
    """A manifest row's chart from its sidecar; the SVG text is not read."""
    return _from_sidecar(corpus_dir, row, RenderedChart.from_sidecar_dict)


def _read_svg(path: Path) -> str:
    """A file's text; a file that cannot be read as UTF-8 is ``MalformedSvg``."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedSvg(str(exc)) from exc


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
            result = extract_chart(_read_svg(path), profile)
        except ChartKitError as exc:
            summary["failed"] += 1
            summary["failures"].append({"file": path.name, "error": str(exc)})
            continue
        summary[result.confidence] += 1
        if out:
            (out / f"{path.stem}.extracted.json").write_text(
                encode_row(result.to_json_dict()), "utf-8")
    return summary


def _summaries_by_id(path, ids) -> dict[str, list[str]]:
    """The texts of the summaries file at ``path``, if any, by chart id in
    file order, for the ids in ``ids`` only. Blank texts stay: they count
    among a chart's first ``counts["summary"]`` rows in ``gen_tasks``."""
    by_id: dict[str, list[str]] = {}
    for row in _checked_rows(path, id=str, summary=str) if path else ():
        if row["id"] in ids:
            by_id.setdefault(row["id"], []).append(row["summary"])
    return by_id


def gen_tasks(
    corpus_dir,
    out_dir,
    config: PipelineConfig,
    summaries_path=None,
    qa_pairs_path=None,
) -> tuple[dict, list[str]]:
    """Emit the per-kind task JSONL streams for a synthesized corpus.

    Returns (per-kind record counts, warnings). Kinds configured to 0 are
    omitted entirely. A chart's summary records are the non-blank texts
    among its first ``counts["summary"]`` rows in ``summaries_path``. The
    open-QA pairs are taken in file order: a pair whose chart has rows in
    the summaries file is dropped unless its answer is inside their texts,
    a pair whose chart has none is kept unchecked, and then each chart
    keeps its first ``counts["qa_open"]`` pairs.
    """
    manifest = load_manifest(corpus_dir)
    ref_of = {r["id"]: r["svg"] for r in manifest}
    counts = {k: config.counts.get(k, 0) for k in TASK_KINDS}
    warnings: list[str] = []

    summaries = _summaries_by_id(summaries_path, ref_of)
    qa_pairs = _checked_rows(qa_pairs_path, id=str, question=str, answer=str,
                             nonempty=("answer",)) if qa_pairs_path else []

    records: dict[str, list[TaskRecord]] = {k: [] for k in TASK_KINDS}
    no_summary = 0
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
        if counts["summary"] > 0:
            texts = [text for text in summaries.get(row["id"], [])[: counts["summary"]]
                     if text.strip()]
            no_summary += not texts
            records["summary"].extend(
                TaskRecord(ref, PROMPT_TOKENS["summary"], text, "summary")
                for text in texts
            )
    if counts["summary"] > 0 and not summaries_path:
        warnings.append("summary: no summaries file supplied; emitted 0 records")
    elif no_summary:
        warnings.append(f"summary: {no_summary} charts have no summary on file")

    if counts["qa_open"] > 0 and qa_pairs:
        # Newline join: an answer sentence must sit inside one summary, not
        # straddle the boundary between two of them.
        joined = {cid: "\n".join(texts) for cid, texts in summaries.items()}
        dropped, unchecked, per_chart = 0, {}, {}
        for pair in qa_pairs:
            cid, answer = pair["id"], pair["answer"]
            ref = ref_of.get(cid)
            if ref is None:
                continue
            if cid not in joined:
                unchecked[ref] = None  # one warning per chart, in first-seen order
            elif answer not in joined[cid]:
                dropped += 1
                continue
            per_chart[ref] = per_chart.get(ref, 0) + 1
            if per_chart[ref] <= counts["qa_open"]:
                records["qa_open"].append(TaskRecord(
                    ref, f"{PROMPT_TOKENS['qa_open']} {pair['question']}",
                    answer, "qa_open"))
        if dropped:
            warnings.append(
                f"qa_open: dropped {dropped} pairs whose answer is not in the summary"
            )
        warnings.extend(f"qa_open: {ref}: unchecked (no summary on file)"
                        for ref in unchecked)
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
        write_jsonl(out / f"{kind}.jsonl", (r.to_json_dict() for r in records[kind]))
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
    """Compute chart-type distribution and summary linguistics for a corpus.

    The summary statistics count the texts ``gen_tasks`` can use: the
    non-blank texts of ids in the manifest.
    """
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

    by_id = _summaries_by_id(summaries_path, {row["id"] for row in manifest})
    texts = [text for texts in by_id.values() for text in texts if text.strip()]
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


def _gold_groups(path, rows: list[dict]) -> dict[str, list[str]]:
    """The references of each id: an ``output`` list adds each of its
    items, any other ``output`` adds itself; an empty list is
    ``MalformedJsonl`` naming the file and line."""
    groups: dict[str, list[str]] = {}
    for i, row in enumerate(rows):
        value = row["output"]
        if isinstance(value, list):
            if not value:
                raise row_error(path, i, "output is an empty list of references")
            groups.setdefault(row["id"], []).extend(str(v) for v in value)
        else:
            groups.setdefault(row["id"], []).append(str(value))
    return groups


def evaluate(pred_path, gold_path, metrics=METRIC_NAMES) -> MetricReport:
    """Score a predictions JSONL against a gold JSONL, aligned by id."""
    preds = {row["id"]: str(row["output"])
             for row in _checked_rows(pred_path, id=str, output=object)}
    golds = _gold_groups(gold_path, _checked_rows(gold_path, id=str, output=object))
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
    backend=None,
    budget: Optional[int] = None,
    checkpoint_path=None,
    log_path=None,
) -> tuple[dict[str, str], list[dict]]:
    """Generate a summary per chart through a backend or the offline fallback.

    Returns (summary per finished id, ``{"id", "error"}`` per failed id).
    ``backend`` is any object with ``complete(bundle) -> str``, such as a
    ``distill.BackendClient``; ``None`` selects the deterministic fallback,
    and no network transport is ever constructed in that case.
    ``checkpoint_path`` names the driver's append journal of finished
    summaries (see ``BatchDriver``); a rerun resumes from it and retries
    the failed ids.
    """
    items = [(row["id"], build_table_summary_prompt(
                 _from_sidecar(corpus_dir, row, _sidecar_table)))
             for row in load_manifest(corpus_dir)]
    driver = BatchDriver(backend=backend, checkpoint_path=checkpoint_path,
                         budget=budget, log_path=log_path)
    done = driver.run(items)
    write_jsonl(out_path, ({"id": cid, "summary": done[cid]} for cid in sorted(done)))
    return done, driver.failures
