"""Corpus readers raise only ``ChartKitError`` subclasses.

Every stage after synthesize reads a corpus through ``load_manifest`` and
one sidecar read. A missing corpus, or one damaged file in it, ends the
library call in a ``ChartKitError`` and the CLI in exit 2 with one
``error:`` line naming the file, never in a traceback.
"""

import json
import operator
import shutil
import tempfile
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chartkit.cli import main
from chartkit.errors import ChartKitError, MalformedTable
from chartkit.jsonl import read_jsonl
from chartkit.pipeline import (
    PipelineConfig,
    corpus_stats,
    distill_corpus,
    gen_tasks,
    synthesize,
)

SIDECAR = "charts/chart-000001.json"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 3-chart seed-7 corpus; tests damage copies of it."""
    out = tmp_path_factory.mktemp("seed7") / "corpus"
    synthesize(PipelineConfig(seed=7, count=3, out=str(out)))
    return out


def _edit_json(path, edit):
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _edit_manifest_row(corpus, index, edit):
    path = corpus / "manifest.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edit(rows[index])
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _sidecar_set(*keys, value):
    """(file, damage) that sets the sidecar's value at a key path."""
    def damage(corpus):
        _edit_json(corpus / SIDECAR, lambda d: reduce(
            operator.getitem, keys[:-1], d).__setitem__(keys[-1], value))
    return SIDECAR, damage


# (name, damaged file, damage): each case of a corpus that once ended a
# command in a bare traceback.
DAMAGE = {
    "sidecar not JSON": (SIDECAR, lambda c: (c / SIDECAR).write_text('{"chart_type": ')),
    "sidecar {}": (SIDECAR, lambda c: (c / SIDECAR).write_text("{}")),
    "sidecar missing": (SIDECAR, lambda c: (c / SIDECAR).unlink()),
    "sidecar cell abc": (SIDECAR, lambda c: _edit_json(
        c / SIDECAR, lambda d: d["table"]["rows"][0].__setitem__(1, "abc"))),
    "mark bbox null": _sidecar_set("marks", 0, "bbox", 0, value=None),
    "mark color x": _sidecar_set("marks", 0, "color", value="x"),
    "mark x_label empty": _sidecar_set("marks", 0, "x_label", value=""),
    "legend name list": _sidecar_set("legend", 0, 0, value=[]),
    "legend name x": _sidecar_set("legend", 0, 0, value="x"),
    "legend color x": _sidecar_set("legend", 0, 1, value="x"),
    "plot_area height 0": _sidecar_set("plot_area", 3, value=0),
    "row without sidecar": ("manifest.jsonl", lambda c: _edit_manifest_row(
        c, 1, lambda row: row.pop("sidecar"))),
    "row without id": ("manifest.jsonl", lambda c: _edit_manifest_row(
        c, 1, lambda row: row.pop("id"))),
}


def _argv(command, root):
    corpus = str(root / "corpus")
    return {
        "gen-tasks": ["gen-tasks", "--corpus", corpus, "--out", str(root / "t")],
        "distill": ["distill", "--corpus", corpus, "--fallback",
                    "--out", str(root / "s.jsonl")],
        "stats": ["stats", "--corpus", corpus],
        "synthesize": ["synthesize", "--out", corpus, "--count", "3", "--seed", "7"],
    }[command]


@pytest.mark.parametrize("command, case", [
    *(("gen-tasks", case) for case in DAMAGE),
    ("distill", "sidecar not JSON"),
    ("distill", "sidecar missing"),
    ("distill", "sidecar cell abc"),
    ("distill", "row without id"),
    ("stats", "row without id"),
    ("synthesize", "row without id"),
])
def test_cli_on_a_damaged_corpus_names_the_file(tmp_path, capsys, corpus, command,
                                                case):
    shutil.copytree(corpus, tmp_path / "corpus")
    damaged, damage = DAMAGE[case]
    damage(tmp_path / "corpus")
    capsys.readouterr()
    assert main(_argv(command, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'corpus' / damaged}")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_cli_on_a_missing_corpus_exits_2_and_writes_nothing(tmp_path, capsys,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (["gen-tasks", "--corpus", "nope", "--out", "t"],
                 ["distill", "--corpus", "nope", "--fallback", "--out", "s.jsonl"],
                 ["stats", "--corpus", "nope"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: nope/manifest.jsonl: ")
    assert list(tmp_path.iterdir()) == []


def test_distill_does_not_read_the_tables_copy(tmp_path, corpus):
    shutil.copytree(corpus, tmp_path / "corpus")
    distill_corpus(tmp_path / "corpus", tmp_path / "kept.jsonl")
    shutil.rmtree(tmp_path / "corpus" / "tables")
    distill_corpus(tmp_path / "corpus", tmp_path / "gone.jsonl")
    assert (tmp_path / "gone.jsonl").read_bytes() == (tmp_path / "kept.jsonl").read_bytes()


def _damage_third_sidecar(corpus):
    _edit_json(corpus / "charts" / "chart-000002.json",
               lambda d: d["table"]["rows"][0].__setitem__(1, "abc"))


def test_gen_tasks_on_a_damaged_third_sidecar_keeps_the_earlier_streams(tmp_path,
                                                                        corpus):
    shutil.copytree(corpus, tmp_path / "corpus")
    config = PipelineConfig(seed=7)
    gen_tasks(tmp_path / "corpus", tmp_path / "tasks", config)
    before = {p.name: p.read_bytes() for p in (tmp_path / "tasks").iterdir()}
    _damage_third_sidecar(tmp_path / "corpus")
    with pytest.raises(MalformedTable, match="chart-000002.json"):
        gen_tasks(tmp_path / "corpus", tmp_path / "tasks", config)
    assert {p.name: p.read_bytes() for p in (tmp_path / "tasks").iterdir()} == before
    assert not list(tmp_path.rglob("*.tmp"))


def test_distill_fails_at_a_damaged_sidecar_and_keeps_the_summaries_before_it(
        tmp_path, corpus):
    shutil.copytree(corpus, tmp_path / "corpus")
    _damage_third_sidecar(tmp_path / "corpus")
    with pytest.raises(MalformedTable, match="chart-000002.json"):
        distill_corpus(tmp_path / "corpus", tmp_path / "s.jsonl",
                       checkpoint_path=tmp_path / "checkpoint.jsonl")
    assert [row["id"] for row in read_jsonl(tmp_path / "checkpoint.jsonl")] == [
        "chart-000000", "chart-000001"]
    assert not (tmp_path / "s.jsonl").exists()
    assert not list(tmp_path.rglob("*.tmp"))


# Values of every JSON type; a mutation sets a key to one of another type.
_VALUES = [None, True, 7, 2.5, "x", [], [1, 2], {}, {"a": 1}]


def _paths(value, prefix=()):
    """The key path of every value nested in ``value``, outer ones first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, inner in items:
        yield prefix + (key,)
        yield from _paths(inner, prefix + (key,))


@settings(max_examples=250, deadline=None)
@given(target=st.sampled_from(["manifest.jsonl", SIDECAR]),
       mutation=st.sampled_from(["delete", "retype", "cut", "remove"]),
       nested=st.booleans(), pick=st.integers(0, 10**6),
       value=st.sampled_from(_VALUES))
def test_one_corpus_mutation_raises_only_chartkit_errors(corpus, target, mutation,
                                                         nested, pick, value):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "corpus"
        shutil.copytree(corpus, root)
        path = root / target
        if mutation == "remove":
            path.unlink()
        elif mutation == "cut":
            data = path.read_bytes()
            path.write_bytes(data[:pick % len(data)])
        else:
            def mutate(row):
                # A top-level key, or in a sidecar any value nested in it.
                paths = (list(_paths(row)) if nested and target == SIDECAR
                         else [(key,) for key in sorted(row)])
                *outer, key = paths[pick % len(paths)]
                holder = reduce(operator.getitem, outer, row)
                if mutation == "delete":
                    del holder[key]
                else:
                    assume(type(value) is not type(holder[key]))
                    holder[key] = value

            if target == SIDECAR:
                _edit_json(path, mutate)
            else:
                _edit_manifest_row(root, pick % 3, mutate)
        config = PipelineConfig(seed=7, count=3, out=str(root))
        for stage in (lambda: gen_tasks(root, Path(tmp) / "t", config),
                      lambda: distill_corpus(root, Path(tmp) / "s.jsonl"),
                      lambda: corpus_stats(root),
                      lambda: synthesize(config)):
            try:
                stage()
            except ChartKitError:
                pass
