"""Golden digest of the seed-7 corpus factory output.

(config, seed) fixes every output byte. This test runs every corpus stage
on a small fixed config and compares one SHA-256 over all the files they
write (relative path and bytes) against a recorded value. A refactor that
changes any byte of the manifest, an SVG, a sidecar, a table, an
extraction, a task stream, the template catalog, the summaries or the
distill checkpoint fails here.
"""

import hashlib

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
