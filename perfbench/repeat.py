"""Run the benchmark on several seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --workload eval-chart --runs 10 [--trace 0]
        [--first-seed 1] [--out perfbench/baseline.json]

Runs one workload ``--runs`` times in a row, each with the next seed and the
``run_seconds`` of BENCHMARK.json, and prints per metric the median, the
quartiles (``statistics.quantiles`` with n=4), the sample count and the
spread (interquartile range over median).
``--out`` merges the summary into a JSON file keyed by workload and mode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    values: dict[str, list[float]] = {}
    verdicts, env = [], None
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = env or next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
        verdicts.append((result["correct"], result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                 if args.trace == 0}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)

    summary = {name: summarize(vals) for name, vals in values.items()}
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
              f"q3 {s['q3']:.6g} n {s['n']} spread {spread}")
    print(f"all correct: {all(c for c, _, _ in verdicts)}; "
          f"failed ops: {sum(f for _, _, f in verdicts)}")
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        mode = "per_layer" if args.trace else "end_to_end"
        data.setdefault(args.workload, {})[mode] = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "run_seconds": seconds,
            "env": env,
            "all_correct": all(c for c, _, _ in verdicts),
            "failed_ops": sum(f for _, _, f in verdicts),
            "metrics": summary,
        }
        args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
