"""chartkit's fixed-seed benchmark.

Run from the root of a chartkit checkout:

    python3 perfbench/run.py --workload corpus-1k --seed 7 --seconds 40 --trace 0

Workloads (single process, workers=1, in_flight=1, one caller):

  corpus-1k   synthesize 1,000 charts (labels=mixed) on the working
              filesystem, then extract_corpus -> gen_tasks (5 QA per chart)
              -> distill_corpus with the fallback backend and a checkpoint.
  eval-chart  pipeline.evaluate with ra,rnss,rms,bleu over 1,000 pred/gold
              pairs of corpus-sized tables, 100 pairs per call.
  eval-wide   the same over 6 pairs of 32-64-entry tables with long labels,
              one pair per call.

All inputs come from ``--seed``. A run repeats whole passes of its workload
for ``--seconds``; throughput (``items_per_s``) is the items of a pass over
the median time of the untraced passes. For the eval workloads that time is
corrected for the host's speed: each evaluate call's time is scaled by a
fixed reference job timed on either side of it (workloads.reference_job_s),
because the CPU speed of a shared host swings by up to 2x within seconds.
corpus-1k times are not corrected. Set-up time is the median of
fresh-interpreter imports of ``chartkit.cli`` taken before the first pass,
away from the file writes and deletions of the corpus passes.

``--trace 0`` passes are untraced and give the end-to-end metrics;
``--trace 1`` alternates untraced passes with traced ones (see tracing.py)
and gives the per-layer metrics. Every pass's outputs are fingerprinted and
must be identical; the last pass's outputs are checked in full. The last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}. ``--smoke`` shrinks every workload to a few items for a quick
end-to-end test.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("corpus-1k", "eval-chart", "eval-wide")
MODULES = ("pipeline", "metrics", "extract", "tasks", "templates", "distill",
           "gen", "flatten", "tables", "assignment")
SETUP_SAMPLES = 15
STAGE_METRICS = {
    "synthesize": "synthesize_charts_per_s",
    "extract": "extract_charts_per_s",
    "gen_tasks": "gen_tasks_charts_per_s",
    "distill": "distill_charts_per_s",
    "eval": "eval_pairs_per_s",
}


def load_chartkit() -> SimpleNamespace:
    """chartkit from this checkout's src/, never from an installed copy."""
    if not (SRC / "chartkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no chartkit sources under {SRC}; "
                         "run from the root of a chartkit checkout")
    sys.path.insert(0, str(SRC))
    modules = {m: importlib.import_module(f"chartkit.{m}") for m in MODULES}
    if not Path(modules["pipeline"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit("perfbench: imported chartkit is not this checkout's")
    return SimpleNamespace(**modules)


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing chartkit.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import chartkit.cli"]
    subprocess.run(cmd, env=env, check=True, cwd=ROOT)  # writes bytecode
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/mounts."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            mounts = [line.split()[1:3] for line in fh]
    except OSError:
        return kind
    resolved = str(path.resolve())
    for mount, fstype in mounts:
        mount = mount.replace("\\040", " ")
        inside = resolved == mount or resolved.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fstype
    return kind


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workload(name, ck, work, seed, smoke):
    if name == "corpus-1k":
        return workloads.CorpusWorkload(ck, work, seed, smoke)
    return workloads.EvalWorkload(ck, work, seed, smoke, wide=name == "eval-wide")


def measure(workload, ck, seconds: float, trace: bool) -> list:
    """Passes until ``seconds`` are spent: untraced only, or U,T,T,U,T,U,T...

    A pass starts only if its expected length still fits, once the minimum
    (two untraced, or one untraced and two traced) is done.
    """
    passes = []
    start = perf_counter()
    while True:
        untraced = [p for p in passes if p.tracer is None]
        traced = [p for p in passes if p.tracer is not None]
        want_traced = trace and bool(untraced) and (
            len(traced) < 2 or len(traced) <= len(untraced))
        needed = (len(untraced) < 1 or len(traced) < 2) if trace else len(untraced) < 2
        if not needed:
            walls = [p.elapsed_s for p in (traced if want_traced else untraced)]
            if perf_counter() - start + statistics.median(walls) > seconds:
                break
        k = len(passes)
        pass_start = perf_counter()
        if want_traced:
            tracer = tracing.Tracer()
            result = workload.run_pass(k, lambda: tracing.traced(ck, tracer))
            tracer.counts.update(result.facts)
            result.tracer = tracer
        else:
            result = workload.run_pass(k)
        result.elapsed_s = perf_counter() - pass_start
        passes.append(result)
        stage_text = "  ".join(f"{s} {t:.3f}s" for s, t in result.stages.items())
        print(f"pass {k + 1} {'traced' if want_traced else 'untraced'}: "
              f"{result.wall_s:.3f}s (corrected {timed_s(result):.3f}s)  {stage_text}",
              flush=True)
    return passes


def timed_s(p) -> float:
    """A pass's time for items_per_s: host-speed corrected where measured."""
    return p.wall_s if p.scaled_s is None else p.scaled_s


def consistency_failures(passes) -> list[str]:
    first = passes[0]
    failures = []
    for i, p in enumerate(passes[1:], start=2):
        if p.fingerprint != first.fingerprint:
            failures.append(f"pass {i} outputs differ from pass 1")
        if p.facts != first.facts:
            failures.append(f"pass {i} facts {p.facts} differ from {first.facts}")
    return failures


def stage_rates(workload, passes) -> dict:
    """Items per second of each stage over all passes (0 if it did not run)."""
    rates = dict.fromkeys(STAGE_METRICS.values(), 0.0)
    items = sum(p.ops for p in passes) // len(workload.stages)
    for stage in workload.stages:
        rates[STAGE_METRICS[stage]] = items / sum(p.stages[stage] for p in passes)
    return rates


def tracing_overhead_pct(passes) -> float:
    """Cost of the spans of one traced pass, each timed on a wrapped no-op,
    as a percentage of the median untraced pass. Timing the wrappers keeps
    the host's swings in speed between passes out of the figure."""
    spans = statistics.median(len(p.tracer.spans) for p in passes if p.tracer is not None)
    untraced = statistics.median(p.wall_s for p in passes if p.tracer is None)
    return 100.0 * spans * tracing.span_cost_s() / untraced


def layer_metrics(workload, passes):
    """(per-layer metrics, counts that did not repeat between traced passes)."""
    per_pass = [tracing.layer_values(p.tracer) for p in passes if p.tracer is not None]
    values = tracing.combine_passes(per_pass)
    qa = values["tasks.qa_records"]
    values["tasks.bindings_per_qa_record"] = (
        values["templates.bindings_calls"] / qa if qa else 0.0)
    values.update(stage_rates(workload, [p for p in passes if p.tracer is None]))
    values["trace.overhead_pct"] = tracing_overhead_pct(passes)
    return values, tracing.count_mismatches(per_pass)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="20 charts, 20 pairs or 1 wide pair")
    args = parser.parse_args(argv)

    ck = load_chartkit()
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = make_workload(args.workload, ck, work, args.seed, args.smoke)
        env = {
            "workload": args.workload, "seed": args.seed, "size": workload.size(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "fs_type": fs_type(work), "workers": 1, "in_flight": 1,
            "seconds": seconds, "trace": args.trace, "smoke": args.smoke,
        }
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        workload.warm_up()
        setup_s = None if args.trace else setup_seconds()
        print(f"peak rss before the timed passes {peak_rss_mib():.2f} MiB", flush=True)
        passes = measure(workload, ck, seconds, bool(args.trace))
        # Read before the output checks, which are the harness's own work.
        peak_rss_mb = peak_rss_mib()
        check_failures = workload.check_last_pass()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    untraced = [p for p in passes if p.tracer is None]
    items = passes[0].ops // len(workload.stages)
    mismatch = consistency_failures(passes)
    failures = [f for p in passes for f in p.failures] + check_failures + mismatch
    if args.trace:
        metrics, count_failures = layer_metrics(workload, passes)
        failures += count_failures
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {
            "items_per_s": items / statistics.median(timed_s(p) for p in untraced),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    attempted = sum(p.ops for p in passes)
    failed = min(attempted, len(failures))

    print(f"outputs sha256 {passes[0].fingerprint} ({'NOT ' if mismatch else ''}"
          f"identical across {len(passes)} passes)")
    print("facts " + json.dumps(passes[0].facts, sort_keys=True))
    for name, rate in stage_rates(workload, untraced).items():
        if rate:
            print(f"stage {name} {rate:.2f} 1/s")
    median_rate = items / statistics.median(p.wall_s for p in untraced)
    print(f"median uncorrected untraced pass {median_rate:.2f} {workload.item}/s "
          f"over {len(untraced)} passes")
    print(f"ops_failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    for name in sorted(units):
        print(f"metric {name} {metrics[name]:.6g} {units[name]}")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
