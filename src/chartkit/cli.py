"""Command-line interface: synthesize, extract, gen-tasks, distill, stats, eval."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline
from .errors import ChartKitError, LengthMismatch
from .extract import load_profile
from .jsonl import encode_row


def _config_from_args(args) -> pipeline.PipelineConfig:
    overrides = {
        "seed": args.seed,
        "count": getattr(args, "count", None),
        "out": getattr(args, "out", None),
        "labels": getattr(args, "labels", None),
        "workers": getattr(args, "workers", None),
        "tables_path": getattr(args, "tables", None),
    }
    if getattr(args, "config", None):
        return pipeline.PipelineConfig.from_file(args.config, **overrides)
    return pipeline.PipelineConfig().derived(**overrides)


def cmd_synthesize(args) -> int:
    config = _config_from_args(args)
    rows = pipeline.synthesize(config)
    by_type: dict[str, int] = {}
    for row in rows:
        by_type[row["chart_type"]] = by_type.get(row["chart_type"], 0) + 1
    mix = ", ".join(f"{t}={c}" for t, c in sorted(by_type.items()))
    print(f"synthesized {len(rows)} charts into {config.out} ({mix})")
    return 0


def cmd_extract(args) -> int:
    profile = load_profile(args.profile) if args.profile else None
    summary = pipeline.extract_corpus(args.svg_dir, profile=profile, out_dir=args.out)
    print(
        f"processed {summary['processed']}: "
        f"{summary['exact']} exact, {summary['recovered']} recovered, "
        f"{summary['failed']} failed"
    )
    for failure in summary["failures"]:
        print(f"  failed {failure['file']}: {failure['error']}", file=sys.stderr)
    if args.strict and summary["failed"]:
        return 1
    return 0


def cmd_gen_tasks(args) -> int:
    config = _config_from_args(args)
    if args.counts:
        config = config.derived(counts=json.loads(args.counts))
    if args.qa_per_chart is not None:
        counts = dict(config.counts)
        counts["qa_reasoning"] = args.qa_per_chart
        config = config.derived(counts=counts)
    emitted, warnings = pipeline.gen_tasks(
        args.corpus,
        args.out,
        config,
        summaries_path=args.summaries,
        qa_pairs_path=args.qa_pairs,
    )
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    name = Path(args.corpus).name or "corpus"
    print(pipeline.format_task_count_table(name, emitted))
    return 0


def cmd_distill(args) -> int:
    backend_config = args.backend
    if backend_config is None and args.config and not args.fallback:
        backend_config = pipeline.PipelineConfig.from_file(args.config).backend_config
    done = pipeline.distill_corpus(
        args.corpus,
        args.out,
        backend_config=None if args.fallback else backend_config,
        budget=args.budget,
        checkpoint_path=args.checkpoint,
        log_path=args.log,
    )
    print(f"wrote {len(done)} summaries to {args.out}")
    return 0


def cmd_stats(args) -> int:
    stats = pipeline.corpus_stats(args.corpus, summaries_path=args.summaries)
    if args.json:
        print(json.dumps(stats.to_json_dict(), ensure_ascii=False, sort_keys=True))
    else:
        print(stats.render_text())
    return 0


def cmd_eval(args) -> int:
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    try:
        report = pipeline.evaluate(args.pred, args.gold, metrics)
    except LengthMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(encode_row(report.to_json_dict()), encoding="utf-8")
    print(json.dumps(report.aggregate, ensure_ascii=False, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chartkit",
        description="Chart corpus factory: synthesis, extraction, task records, "
        "distillation prompts, and metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="render a seeded chart corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--tables", help="external tables (.jsonl or .csv)")
    p.add_argument("--labels", choices=["on", "off", "mixed"])
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("extract", help="reconstruct tables from SVG charts")
    p.add_argument("--svg-dir", required=True)
    p.add_argument("--out")
    p.add_argument("--profile",
                   help="selector profile: shipped name or JSON file path")
    p.add_argument("--strict", action="store_true",
                   help="nonzero exit when any file fails")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("gen-tasks", help="emit pretraining task record streams")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--counts", help='per-kind JSON, e.g. {"qa_reasoning": 5}')
    p.add_argument("--qa-per-chart", type=int)
    p.add_argument("--summaries", help="summaries JSONL ({id, summary})")
    p.add_argument("--qa-pairs", help="open QA JSONL ({id, question, answer})")
    p.set_defaults(func=cmd_gen_tasks)

    p = sub.add_parser("distill", help="generate summaries via a backend or fallback")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--backend", help="backend config JSON")
    p.add_argument("--config", help="pipeline config JSON (for backend_config)")
    p.add_argument("--fallback", action="store_true",
                   help="use the offline deterministic summarizer")
    p.add_argument("--budget", type=int, help="max new backend calls")
    p.add_argument("--checkpoint", help="resumable checkpoint JSONL")
    p.add_argument("--log", help="prompt/response audit JSONL")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("stats", help="corpus distribution and text statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--summaries")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--metrics", default="ra,rnss,rms,bleu")
    p.add_argument("--out", help="write the full MetricReport JSON here")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChartKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
