"""Golden digest of the seed-7 corpus factory output.

(config, seed) fixes every output byte. This test runs every corpus stage
on a small fixed config and compares one SHA-256 over all the files they
write (relative path and bytes) against a recorded value. A refactor that
changes any byte of the manifest, an SVG, a sidecar, a table, an
extraction, a task stream, the template catalog, the summaries or the
distill checkpoint fails here.
"""

import hashlib
import json

from chartkit.jsonl import read_jsonl
from chartkit.pipeline import (
    PipelineConfig,
    distill_corpus,
    extract_corpus,
    gen_tasks,
    synthesize,
)

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
