"""No stage is quadratic in corpus size, checked by counting work.

Every stage runs at n and at 4n charts (evaluate at n and 4n pairs) under
``cProfile``, and the calls of each chartkit function are counted. Work
that is linear in the corpus grows about 4x from one run to the other; the
chart-type mix of a small corpus moves some counts more (the largest ratio
at n = 50 is 5.3, in ``hungarian``, which runs only on the pairs whose
optimum is not provably unique). A function whose calls grow
with the square of the corpus would read about 16, so a function called at
least ``MIN_CALLS`` times in the smaller run fails the test when its calls
grow more than ``MAX_RATIO`` times. Counts, not times, are compared, so the
test is deterministic on any host.

gen-tasks also holds no corpus-sized list of its outputs: the peak of the
memory it allocates, traced by ``tracemalloc``, grows with the manifest.
"""

import cProfile
import json
import pstats
import tracemalloc
from pathlib import Path

import chartkit
from chartkit.flatten import flatten_table
from chartkit.jsonl import read_json_object, write_jsonl
from chartkit.pipeline import (
    PipelineConfig,
    distill_corpus,
    evaluate,
    extract_corpus,
    gen_tasks,
    synthesize,
)
from chartkit.tables import DataTable

N = 50
MIN_CALLS = 20  # calls in the n run; rarer calls swing with the chart-type mix
MAX_RATIO = 8.0

_PACKAGE = str(Path(chartkit.__file__).parent)


def _corpus_and_eval(out: Path, n: int):
    """synthesize -> extract -> gen-tasks -> distill over n charts, then
    evaluate the n extracted tables against the sidecars' tables."""
    config = PipelineConfig(seed=7, count=n, labels="mixed", out=str(out / "corpus"))
    synthesize(config)
    extract_corpus(out / "corpus" / "charts", out_dir=out / "extracted")
    gen_tasks(out / "corpus", out / "tasks", config)
    distill_corpus(out / "corpus", out / "summaries.jsonl")
    write_jsonl(out / "gold.jsonl", _table_rows(out.glob("corpus/charts/*.json")))
    write_jsonl(out / "pred.jsonl", _table_rows(out.glob("extracted/*.json")))
    evaluate(out / "pred.jsonl", out / "gold.jsonl")


def _table_rows(paths):
    """An eval row ``{id, output}`` for the table in each sidecar or
    extraction file, the table flattened."""
    for path in sorted(paths):
        table = DataTable.from_json_dict(read_json_object(path)["table"])
        yield {"id": path.name.split(".")[0], "output": flatten_table(table)}


def _calls(out: Path, n: int) -> dict[str, int]:
    """Calls per chartkit function in one run over n charts."""
    profiler = cProfile.Profile()
    profiler.runcall(_corpus_and_eval, out, n)
    return {f"{Path(file).name}:{line}({name})": calls
            for (file, line, name), (_, calls, *_rest)
            in pstats.Stats(profiler).stats.items()
            if file.startswith(_PACKAGE)}


def test_no_chartkit_function_grows_faster_than_the_corpus(tmp_path):
    small = _calls(tmp_path / "small", N)
    large = _calls(tmp_path / "large", 4 * N)
    counted = {name: (calls, large.get(name, 0))
               for name, calls in small.items() if calls >= MIN_CALLS}
    assert len(counted) > 200  # the corpus stages and the scorer were all counted
    steep = {name: pair for name, pair in counted.items()
             if pair[1] > MAX_RATIO * pair[0]}
    assert not steep, f"calls at {N} -> {4 * N} charts grew more than {MAX_RATIO}x: " \
                      f"{json.dumps(steep, indent=1)}"


def _traced_peak(fn, *args) -> int:
    """The peak of the memory ``fn(*args)`` holds at once, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_tasks_memory_grows_with_the_manifest_not_the_outputs(tmp_path):
    # About 1.6 KiB per chart is the manifest's rows; holding every task
    # record until the end of the run took 5.3 KiB per chart.
    config = PipelineConfig(seed=7, count=400, out=str(tmp_path / "corpus"))
    synthesize(config)
    manifest = tmp_path / "corpus" / "manifest.jsonl"
    rows = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    manifest.write_text("".join(rows[:100]), encoding="utf-8")
    gen_tasks(tmp_path / "corpus", tmp_path / "warm-up", config)
    small = _traced_peak(gen_tasks, tmp_path / "corpus", tmp_path / "t100", config)
    manifest.write_text("".join(rows), encoding="utf-8")
    large = _traced_peak(gen_tasks, tmp_path / "corpus", tmp_path / "t400", config)
    assert (large - small) / 300 < 3 * 1024
