import hashlib
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from chartkit.cli import main
from chartkit.distill import BackendClient
from chartkit.errors import InvalidConfig, MalformedJsonl
from chartkit.jsonl import read_json_object, read_jsonl, write_jsonl
from chartkit.pipeline import (
    PipelineConfig,
    corpus_stats,
    distill_corpus,
    evaluate,
    extract_corpus,
    format_task_count_table,
    gen_tasks,
    load_manifest,
    make_chart,
    synthesize,
)


def _config(tmp_path, **kwargs):
    defaults = dict(seed=11, count=12, out=str(tmp_path / "corpus"), labels="on")
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def _hash_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_config_validation():
    with pytest.raises(InvalidConfig):
        PipelineConfig(chart_type_weights={"bar": -1})
    with pytest.raises(InvalidConfig):
        PipelineConfig(counts={"qa_reasoning": -2})
    with pytest.raises(InvalidConfig):
        PipelineConfig(labels="sometimes")
    with pytest.raises(InvalidConfig):
        PipelineConfig(counts={"mystery": 1})


def test_synthesize_writes_corpus(tmp_path):
    config = _config(tmp_path)
    rows = synthesize(config)
    assert len(rows) == 12
    out = Path(config.out)
    for row in rows:
        assert (out / row["svg"]).exists()
        assert (out / row["sidecar"]).exists()
        assert (out / row["table"]).exists()
    manifest = load_manifest(out)
    assert [r["id"] for r in manifest] == sorted(r["id"] for r in manifest)
    assert all("seed" not in r or isinstance(r["seed"], int) for r in manifest)


def test_synthesize_deterministic_across_dirs(tmp_path):
    c1 = _config(tmp_path, out=str(tmp_path / "a"))
    c2 = _config(tmp_path, out=str(tmp_path / "b"))
    synthesize(c1)
    synthesize(c2)
    assert _hash_file(Path(c1.out) / "manifest.jsonl") == _hash_file(
        Path(c2.out) / "manifest.jsonl"
    )
    for row in load_manifest(c1.out):
        assert _hash_file(Path(c1.out) / row["svg"]) == _hash_file(
            Path(c2.out) / row["svg"]
        )


def test_synthesize_resume_matches_fresh(tmp_path):
    fresh = _config(tmp_path, out=str(tmp_path / "fresh"), count=10)
    synthesize(fresh)
    partial = _config(tmp_path, out=str(tmp_path / "partial"), count=4)
    synthesize(partial)
    resumed = _config(tmp_path, out=str(tmp_path / "partial"), count=10)
    synthesize(resumed)
    assert _hash_file(Path(fresh.out) / "manifest.jsonl") == _hash_file(
        Path(resumed.out) / "manifest.jsonl"
    )


def test_synthesize_workers_deterministic(tmp_path):
    serial = _config(tmp_path, out=str(tmp_path / "serial"), count=6)
    parallel = _config(tmp_path, out=str(tmp_path / "parallel"), count=6, workers=2)
    synthesize(serial)
    synthesize(parallel)
    assert _hash_file(Path(serial.out) / "manifest.jsonl") == _hash_file(
        Path(parallel.out) / "manifest.jsonl"
    )


def test_weight_override_forces_type(tmp_path):
    config = _config(tmp_path, chart_type_weights={"bar": 0, "line": 0, "pie": 1})
    rows = synthesize(config)
    assert all(row["chart_type"] == "pie" for row in rows)


def test_make_chart_pure_function_of_seed_and_id():
    config = PipelineConfig(seed=3, count=1, out="unused")
    a = make_chart(config, "chart-000000")
    b = make_chart(config, "chart-000000")
    assert a.svg == b.svg
    c = make_chart(config, "chart-000001")
    assert c.svg != a.svg


def test_synthesize_from_external_tables(tmp_path):
    tables = tmp_path / "tables.jsonl"
    rows = [
        {"columns": ["City", "Pop"], "rows": [["a", "10"], ["b", "20"], ["c", "15"]]},
        {"columns": ["Team", "Score"], "rows": [["x", "5"], ["y", "9"]]},
    ]
    tables.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    config = _config(tmp_path, count=6, tables_path=str(tables))
    manifest = synthesize(config)
    assert len(manifest) == 6


def test_group_value_equal_to_the_x_header_names_file_and_value(tmp_path, capsys):
    # Seed 1 groups Sales by Kind and Region; the Region value "Kind" would
    # head a series column beside the x column "Kind".
    tables = tmp_path / "clash.csv"
    tables.write_text("Kind,Region,Sales\nA,Kind,1\nA,North,2\nB,Kind,3\nB,North,4\n",
                      encoding="utf-8")
    rc = main(["synthesize", "--out", str(tmp_path / "corpus"), "--count", "5",
               "--seed", "1", "--tables", str(tables)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(tables) in err and "'Kind'" in err


PIE_TABLES = [
    {"columns": ["City", "Pop"], "rows": [["a", "10"], ["b", "20"], ["c", "15"]]},
    {"columns": ["Team", "Score"], "rows": [["x", "5"], ["y", "9"]]},
]
MIXED_TABLES = PIE_TABLES + [
    {"columns": ["Region", "Year", "Sales"],
     "rows": [[r, y, str(v)] for v, (r, y) in enumerate(
         [(r, y) for r in ("N", "S", "E") for y in ("2021", "2022")], 1)]},
    {"columns": ["Shop", "Channel", "Units"],
     "rows": [["p", "web", "4"], ["p", "store", "-2"],
              ["q", "web", "7"], ["q", "store", "3"]]},
]


@pytest.mark.parametrize("weights, tables, types", [
    ({"bar": 1}, MIXED_TABLES, {"simple_bar", "grouped_bar"}),
    ({"line": 1}, MIXED_TABLES, {"line_single", "line_multi"}),
    ({"pie": 1}, PIE_TABLES, {"pie"}),
])
def test_family_weights_mean_the_same_with_external_tables(
        tmp_path, weights, tables, types):
    path = tmp_path / "tables.jsonl"
    path.write_text("".join(json.dumps(t) + "\n" for t in tables), encoding="utf-8")
    generated = synthesize(_config(tmp_path, count=30, chart_type_weights=weights,
                                   out=str(tmp_path / "generated")))
    external = synthesize(_config(tmp_path, count=30, chart_type_weights=weights,
                                  out=str(tmp_path / "external"),
                                  tables_path=str(path)))
    assert {row["chart_type"] for row in generated} == types
    assert {row["chart_type"] for row in external} == types


def test_type_keyed_weights_rejected(tmp_path):
    with pytest.raises(InvalidConfig):
        PipelineConfig(chart_type_weights={"simple_bar": 1})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"chart_type_weights": {"bar": 1, "pie_chart": 1}}),
                    encoding="utf-8")
    with pytest.raises(InvalidConfig):
        PipelineConfig.from_file(path)


def test_extract_corpus_counts(tmp_path):
    config = _config(tmp_path, count=8, labels="on")
    synthesize(config)
    summary = extract_corpus(Path(config.out) / "charts",
                             out_dir=tmp_path / "extracted")
    assert summary["processed"] == 8
    assert summary["failed"] == 0
    assert summary["exact"] == 8
    assert len(list((tmp_path / "extracted").glob("*.extracted.json"))) == 8


def test_extract_corpus_empty_dir(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    summary = extract_corpus(empty)
    assert summary["processed"] == 0
    assert summary["failed"] == 0


def test_extract_corpus_counts_garbage_as_failed(tmp_path):
    bad = tmp_path / "svgs"
    bad.mkdir()
    (bad / "broken.svg").write_text("<svg><oops", encoding="utf-8")
    summary = extract_corpus(bad)
    assert summary["failed"] == 1


@pytest.mark.parametrize("name", ["does-not-exist", "a-file.svg"])
def test_extract_corpus_needs_a_directory(tmp_path, capsys, name):
    path = tmp_path / name
    if name.endswith(".svg"):
        path.write_text("<svg/>", encoding="utf-8")
    with pytest.raises(InvalidConfig, match=re.escape(f"{path}: not a directory")):
        extract_corpus(path)
    assert main(["extract", "--svg-dir", str(path), "--strict"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: not a directory\n"


def test_gen_tasks_counts_and_files(tmp_path):
    config = _config(tmp_path, count=6,
                     counts={"table": 1, "value_estimation": 1,
                             "qa_reasoning": 3, "qa_open": 0, "summary": 0})
    synthesize(config)
    out = tmp_path / "tasks"
    emitted, warnings = gen_tasks(config.out, out, config)
    assert emitted["table"] == 6
    assert emitted["qa_reasoning"] <= 18
    assert (out / "table.jsonl").exists()
    assert not (out / "summary.jsonl").exists()  # count 0 -> omitted
    rows = [json.loads(l) for l in (out / "table.jsonl").read_text().splitlines()]
    assert all(r["prompt"] == "<extract_data_table>" for r in rows)


def test_gen_tasks_deterministic(tmp_path):
    config = _config(tmp_path, count=5)
    synthesize(config)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    gen_tasks(config.out, out1, config)
    gen_tasks(config.out, out2, config)
    for name in ("table.jsonl", "qa_reasoning.jsonl", "value_estimation.jsonl"):
        assert _hash_file(out1 / name) == _hash_file(out2 / name)


def test_gen_tasks_summary_and_open_qa(tmp_path):
    config = _config(tmp_path, count=3)
    rows = synthesize(config)
    summaries = tmp_path / "summaries.jsonl"
    qa = tmp_path / "qa.jsonl"
    summaries.write_text(
        json.dumps({"id": rows[0]["id"], "summary": "Sales rose sharply."}) + "\n",
        encoding="utf-8",
    )
    qa.write_text(
        "".join(
            json.dumps(p) + "\n"
            for p in [
                {"id": rows[0]["id"], "question": "what rose?",
                 "answer": "Sales rose sharply."},
                {"id": rows[0]["id"], "question": "bad?", "answer": "Nope."},
                {"id": rows[1]["id"], "question": "unchecked?", "answer": "Free."},
            ]
        ),
        encoding="utf-8",
    )
    emitted, warnings = gen_tasks(
        config.out, tmp_path / "t", config,
        summaries_path=summaries, qa_pairs_path=qa,
    )
    assert emitted["summary"] == 1
    assert emitted["qa_open"] == 2  # the bad pair dropped, unchecked kept
    assert read_jsonl(tmp_path / "t" / "summary.jsonl") == [
        {"image": rows[0]["svg"], "prompt": "<summarize_chart>",
         "target": "Sales rose sharply.", "kind": "summary"}]
    assert [r["prompt"] for r in read_jsonl(tmp_path / "t" / "qa_open.jsonl")] == [
        "<open_question> what rose?", "<open_question> unchecked?"]
    assert warnings == [
        "summary: 2 charts have no summary on file",
        "qa_open: dropped 1 pairs whose answer is not in the summary",
        f"qa_open: {rows[1]['svg']}: unchecked (no summary on file)",
    ]


def _gen_tasks_cli(tmp_path, *side_args):
    corpus = tmp_path / "corpus"
    main(["synthesize", "--out", str(corpus), "--count", "3", "--seed", "2"])
    return main(["gen-tasks", "--corpus", str(corpus), "--out", str(tmp_path / "t"),
                 "--counts", '{"summary": 2, "qa_open": 1}', *side_args])


def test_gen_tasks_counts_a_chart_whose_texts_are_all_blank(tmp_path, capsys):
    summaries = tmp_path / "summaries.jsonl"
    write_jsonl(summaries, [
        {"id": "chart-000000", "summary": " "}, {"id": "chart-000000", "summary": ""},
        {"id": "chart-000000", "summary": "Past the count of 2."},
        {"id": "chart-000001", "summary": "Fine."}])
    assert _gen_tasks_cli(tmp_path, "--summaries", str(summaries)) == 0
    err = capsys.readouterr().err
    assert "warning: summary: 2 charts have no summary on file" in err
    assert [r["image"] for r in read_jsonl(tmp_path / "t" / "summary.jsonl")] == [
        "charts/chart-000001.svg"]


def test_gen_tasks_warns_once_per_unchecked_chart(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    write_jsonl(qa, [
        {"id": "chart-000001", "question": "q1", "answer": "a"},
        {"id": "chart-000000", "question": "q2", "answer": "b"},
        {"id": "chart-000001", "question": "q3", "answer": "c"},
        {"id": "chart-000001", "question": "q4", "answer": "d"}])
    assert _gen_tasks_cli(tmp_path, "--qa-pairs", str(qa)) == 0
    unchecked = [line for line in capsys.readouterr().err.splitlines()
                 if "unchecked" in line]
    assert unchecked == [
        "warning: qa_open: charts/chart-000001.svg: unchecked (no summary on file)",
        "warning: qa_open: charts/chart-000000.svg: unchecked (no summary on file)"]
    assert len(read_jsonl(tmp_path / "t" / "qa_open.jsonl")) == 2


def test_gen_tasks_keeps_a_good_pair_beside_a_bad_one_with_its_question(tmp_path):
    config = _config(tmp_path, count=2, counts={"qa_open": 2})
    synthesize(config)
    summaries, qa = tmp_path / "summaries.jsonl", tmp_path / "qa.jsonl"
    write_jsonl(summaries, [{"id": "chart-000000", "summary": "Sales rose."}])
    write_jsonl(qa, [
        {"id": "chart-000000", "question": "q", "answer": "Sales rose."},
        {"id": "chart-000000", "question": "q", "answer": "Nope."}])
    emitted, warnings = gen_tasks(config.out, tmp_path / "t", config,
                                  summaries_path=summaries, qa_pairs_path=qa)
    assert emitted["qa_open"] == 1
    assert [r["target"] for r in read_jsonl(tmp_path / "t" / "qa_open.jsonl")] == [
        "Sales rose."]
    assert "qa_open: dropped 1 pairs whose answer is not in the summary" in warnings


_GOOD_SUMMARY = {"id": "chart-000000", "summary": "Fine."}
_GOOD_PAIR = {"id": "chart-000000", "question": "q", "answer": "a"}


@pytest.mark.parametrize("command, good, bad, problem", [
    ("--summaries", _GOOD_SUMMARY, {"id": "chart-000001"}, "row has no 'summary'"),
    ("--summaries", _GOOD_SUMMARY, {"id": "chart-000001", "summary": ["x"]},
     "summary ['x'] is not a str"),
    ("--summaries", _GOOD_SUMMARY, {"id": 1, "summary": "x"}, "id 1 is not a str"),
    ("--qa-pairs", _GOOD_PAIR, {"id": "chart-000001", "answer": "a"},
     "row has no 'question'"),
    ("--qa-pairs", _GOOD_PAIR, {"id": "chart-000001", "question": "q", "answer": 5},
     "answer 5 is not a str"),
    ("--qa-pairs", _GOOD_PAIR, {"id": "chart-000001", "question": "q", "answer": ""},
     "answer is empty"),
    ("stats", _GOOD_SUMMARY, {"id": "chart-000001", "summary": None},
     "summary None is not a str"),
])
def test_cli_rejects_a_malformed_side_input_row(tmp_path, capsys, command, good,
                                                bad, problem):
    side = tmp_path / "side.jsonl"
    write_jsonl(side, [good, bad])
    if command == "stats":
        main(["synthesize", "--out", str(tmp_path / "corpus"), "--count", "2"])
        rc = main(["stats", "--corpus", str(tmp_path / "corpus"),
                   "--summaries", str(side)])
    else:
        rc = _gen_tasks_cli(tmp_path, command, str(side))
    assert rc == 2
    assert f"error: {side}, line 2: {problem}" in capsys.readouterr().err


def test_cli_reports_a_side_input_it_cannot_read(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    corpus = str(tmp_path / "corpus")
    main(["synthesize", "--out", corpus, "--count", "1"])
    for argv in (["gen-tasks", "--corpus", corpus, "--out", str(tmp_path / "t"),
                  "--summaries", str(missing)],
                 ["gen-tasks", "--corpus", corpus, "--out", str(tmp_path / "t"),
                  "--qa-pairs", str(missing)],
                 ["stats", "--corpus", corpus, "--summaries", str(missing)],
                 ["eval", "--pred", str(missing), "--gold", str(missing)],
                 ["synthesize", "--out", str(tmp_path / "c1"), "--count", "1",
                  "--tables", str(missing)],
                 ["synthesize", "--out", str(tmp_path / "c2"), "--count", "1",
                  "--tables", str(tmp_path / "missing.csv")]):
        capsys.readouterr()
        assert main(argv) == 2
        assert f"error: {tmp_path / 'missing'}" in capsys.readouterr().err


@pytest.mark.parametrize("table, problem", [
    ({"rows": [["a", "1"]]}, "line 1: row has no 'columns'"),
    ({"columns": ["x", "v"], "rows": "a,1"}, "line 1: rows 'a,1' is not a list"),
    ({"columns": [{"kind": "numeric"}], "rows": []}, "table has no key 'name'"),
    ({"columns": [{"name": "x"}, {"name": "v", "kind": "numeric"}],
      "rows": [["a", "abc"]]}, "not a table"),
    ({"columns": ["x", "v"], "rows": [["a", "b"]]}, "table has no numeric column"),
    ({"columns": ["x", "v"], "rows": [["1", "2"]]}, "table has no categorical column"),
    ({"columns": ["x", "v"], "rows": []}, "no data rows"),
    (b"x,v\na\n", "row 2 has 1 cells, expected 2"),
    (b"x,v\n\xff,1\n", "'utf-8' codec can't decode byte 0xff"),
])
def test_cli_synthesize_rejects_a_malformed_external_table(tmp_path, capsys, table,
                                                           problem):
    if isinstance(table, bytes):
        tables = tmp_path / "tables.csv"
        tables.write_bytes(table)
    else:
        tables = tmp_path / "tables.jsonl"
        write_jsonl(tables, [table])
    assert main(["synthesize", "--out", str(tmp_path / "corpus"), "--count", "1",
                 "--tables", str(tables)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tables}") and problem in err
    assert err.count(tables.name) == 1


def _fallback_summaries(tmp_path, csv_text):
    """The fallback summaries of a corpus synthesized from one CSV table."""
    tables = tmp_path / "tables.csv"
    tables.write_text(csv_text, encoding="utf-8")
    corpus, out = str(tmp_path / "corpus"), tmp_path / "summaries.jsonl"
    assert main(["synthesize", "--out", corpus, "--count", "2", "--seed", "1",
                 "--tables", str(tables)]) == 0
    assert main(["distill", "--corpus", corpus, "--fallback", "--out", str(out)]) == 0
    return [row["summary"] for row in read_jsonl(out)]


def test_fallback_summary_names_a_column_whose_name_ends_in_parentheses(tmp_path):
    summaries = _fallback_summaries(tmp_path, "Country,GDP (bn)\nA,10\nB,20\nC,15\n")
    assert len(summaries) == 2
    for summary in summaries:
        assert summary.startswith("This chart shows GDP (bn) by Country.")


def test_fallback_summarizes_columns_that_differ_only_in_parentheses(tmp_path):
    summaries = _fallback_summaries(
        tmp_path,
        "Region,Period,Amount\nNorth,Sales (old),1\nNorth,Sales (new),2\n"
        "South,Sales (old),3\nSouth,Sales (new),4\n",
    )
    assert len(summaries) == 2
    for summary in summaries:
        assert summary.startswith("This chart shows Sales (old), Sales (new) by Region.")
        assert "The highest value is 4 for South (Sales (new))." in summary


@pytest.mark.parametrize("command", ["synthesize", "extract", "gen-tasks",
                                     "distill", "eval"])
def test_cli_reports_an_output_it_cannot_write(tmp_path, capsys, command):
    corpus = str(tmp_path / "corpus")
    main(["synthesize", "--out", corpus, "--count", "1"])
    a_file = tmp_path / "a-file"
    a_file.write_text("", encoding="utf-8")
    no_dir = tmp_path / "missing-dir"
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"id": "a", "output": "x | y & a | 1"}\n', encoding="utf-8")
    argv, named = {
        "synthesize": (["--out", str(a_file), "--count", "1"], a_file / "charts"),
        "extract": (["--svg-dir", f"{corpus}/charts", "--out", str(a_file)], a_file),
        "gen-tasks": (["--corpus", corpus, "--out", str(a_file)], a_file),
        "distill": (["--corpus", corpus, "--fallback", "--out",
                     str(no_dir / "s.jsonl")], no_dir / "s.jsonl"),
        "eval": (["--pred", str(pred), "--gold", str(pred), "--out",
                  str(no_dir / "r.json")], no_dir / "r.json"),
    }[command]
    capsys.readouterr()
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(re.escape(f"error: {named}: cannot write: ") + r"[^\n]+\n", err)
    assert not named.with_name(f"{named.name}.tmp").exists()
    if command == "distill":  # the library call itself still raises OSError
        with pytest.raises(OSError):
            distill_corpus(corpus, no_dir / "s.jsonl")


def test_task_count_table_has_five_columns():
    text = format_task_count_table("corpus", {"table": 5, "qa_reasoning": 9})
    header = text.splitlines()[0].split()
    assert header == [
        "Dataset", "table", "value_estimation", "qa_reasoning", "qa_open", "summary"
    ]


def test_stats_match_manifest_exactly(tmp_path):
    config = _config(tmp_path, count=15)
    rows = synthesize(config)
    stats = corpus_stats(config.out)
    from collections import Counter

    manifest_counts = Counter(r["chart_type"] for r in rows)
    assert stats.type_counts == dict(manifest_counts)
    assert sum(stats.type_counts.values()) == stats.n_charts


def test_cli_counts_flag(tmp_path, capsys):
    out = tmp_path / "corpus"
    main(["synthesize", "--out", str(out), "--count", "3", "--seed", "2"])
    capsys.readouterr()
    rc = main(["gen-tasks", "--corpus", str(out), "--out", str(tmp_path / "t"),
               "--counts", '{"table": 1, "value_estimation": 0, '
               '"qa_reasoning": 0, "qa_open": 0, "summary": 0}'])
    assert rc == 0
    assert (tmp_path / "t" / "table.jsonl").exists()
    assert not (tmp_path / "t" / "value_estimation.jsonl").exists()
    assert not (tmp_path / "t" / "template_catalog.json").exists()


def test_stats_percentages(tmp_path):
    config = _config(tmp_path, count=40)
    synthesize(config)
    summaries = tmp_path / "s.jsonl"
    summaries.write_text(
        json.dumps({"id": "chart-000000", "summary": "One two three. Four!"}) + "\n",
        encoding="utf-8",
    )
    stats = corpus_stats(config.out, summaries_path=summaries)
    assert stats.n_charts == 40
    assert sum(stats.family_percentages.values()) == pytest.approx(100.0, abs=0.1)
    assert stats.avg_sentences == pytest.approx(2.0)
    assert stats.n_vocab == 4  # whitespace tokens, punctuation attached
    assert stats.avg_tokens == pytest.approx(4.0)


def test_stats_count_only_the_summaries_gen_tasks_can_use(tmp_path):
    config = _config(tmp_path, count=3)
    synthesize(config)
    summaries = tmp_path / "s.jsonl"
    write_jsonl(summaries, [{"id": "chart-000000", "summary": ""},
                            {"id": "chart-000000", "summary": "One two."},
                            {"id": "ghost", "summary": "Ghost text here."}])
    stats = corpus_stats(config.out, summaries_path=summaries)
    assert stats.avg_tokens == 2.0
    assert stats.n_vocab == 2 and stats.avg_characters == len("One two.")


def test_evaluate_and_mismatch(tmp_path):
    pred = tmp_path / "pred.jsonl"
    gold = tmp_path / "gold.jsonl"
    pred.write_text(json.dumps({"id": "a", "output": "10"}) + "\n", encoding="utf-8")
    gold.write_text(json.dumps({"id": "a", "output": "10"}) + "\n", encoding="utf-8")
    report = evaluate(pred, gold, metrics=("ra", "rnss"))
    assert report.aggregate["ra"] == 1
    gold.write_text(json.dumps({"id": "b", "output": "10"}) + "\n", encoding="utf-8")
    from chartkit.errors import LengthMismatch

    with pytest.raises(LengthMismatch):
        evaluate(pred, gold)


def _repeated_pred_id(tmp_path):
    """A pred file whose id "a" is on lines 1 and 3, the first row an exact
    copy of the gold, and its gold file."""
    pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
    write_jsonl(pred, [{"id": "a", "output": "x | y & a | 1"},
                       {"id": "b", "output": "2"},
                       {"id": "a", "output": "junk"}])
    write_jsonl(gold, [{"id": "a", "output": "x | y & a | 1"}, {"id": "b", "output": "2"}])
    return pred, gold


def test_evaluate_rejects_a_repeated_prediction_id(tmp_path):
    # Keeping one of the two rows would score a prediction the file does
    # not settle; the first row here is a copy of the gold.
    pred, gold = _repeated_pred_id(tmp_path)
    with pytest.raises(MalformedJsonl, match=re.escape(
            f"{pred}, line 3: id 'a' repeats an earlier prediction")):
        evaluate(pred, gold)


def test_cli_eval_rejects_a_repeated_prediction_id(tmp_path, capsys):
    pred, gold = _repeated_pred_id(tmp_path)
    assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {pred}, line 3: id 'a' repeats an earlier prediction\n"


def test_distill_corpus_offline(tmp_path):
    config = _config(tmp_path, count=4)
    synthesize(config)
    out = tmp_path / "summaries.jsonl"
    done, failures = distill_corpus(config.out, out,
                                    checkpoint_path=str(tmp_path / "ck.jsonl"))
    assert len(done) == 4 and failures == []
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert [r["id"] for r in rows] == sorted(r["id"] for r in rows)


def test_distill_corpus_with_backend_config(tmp_path, monkeypatch):
    config = _config(tmp_path, count=2)
    synthesize(config)
    backend_cfg = tmp_path / "backend.json"
    backend_cfg.write_text(json.dumps({
        "endpoint": "https://example.invalid/v1/chat",
        "model": "toy",
        "auth_env": "TOY_KEY",
        "rpm": 0,
        "timeout_s": 1,
        "max_retries": 0,
    }), encoding="utf-8")
    monkeypatch.setenv("TOY_KEY", "k")
    replies = json.dumps({"choices": [{"message": {"content": "A summary."}}]})

    def transport(url, headers, body, timeout):
        assert headers["Authorization"] == "Bearer k"
        return 200, replies

    backend = BackendClient.from_config(read_json_object(backend_cfg),
                                        transport=transport)
    done, _ = distill_corpus(config.out, tmp_path / "s.jsonl", backend=backend)
    assert set(done.values()) == {"A summary."}


def test_synthesize_count_zero_is_empty_manifest(tmp_path):
    config = _config(tmp_path, count=0)
    rows = synthesize(config)
    assert rows == []
    assert (Path(config.out) / "manifest.jsonl").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("name, content, flags", [
    ("ragged.csv", "x,v\na,1\nb\n", ["--count", "1", "--tables"]),
    ("config.json", '{"canvas": [120, 120]}', ["--config"]),
], ids=["ragged-tables", "canvas-too-small"])
def test_synthesize_failing_before_its_first_chart_leaves_no_manifest(
        tmp_path, capsys, name, content, flags):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    out = tmp_path / "corpus"
    assert main(["synthesize", "--out", str(out), *flags, str(path)]) == 2
    assert not (out / "manifest.jsonl").exists()
    assert main(["gen-tasks", "--corpus", str(out), "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"error: {out / 'manifest.jsonl'}: ")


def test_gen_tasks_exports_template_catalog(tmp_path):
    config = _config(tmp_path, count=2)
    synthesize(config)
    out = tmp_path / "tasks"
    gen_tasks(config.out, out, config)
    catalog = json.loads((out / "template_catalog.json").read_text(encoding="utf-8"))
    assert len(catalog) == 90
    assert {"id", "pattern", "slots", "applicability"} <= set(catalog[0])


def test_shipped_profiles_load():
    from chartkit.extract import BUILTIN_PROFILE, load_profile

    assert load_profile("builtin") == BUILTIN_PROFILE
    for name in ("plotly_like", "chartblocks_like"):
        profile = load_profile(name)
        assert profile.bar and profile.y_tick


# -- CLI ----------------------------------------------------------------------

def test_cli_synthesize_extract_stats_eval(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = main(["synthesize", "--out", str(out), "--count", "5", "--seed", "3",
               "--labels", "on"])
    assert rc == 0
    assert "synthesized 5 charts" in capsys.readouterr().out

    rc = main(["extract", "--svg-dir", str(out / "charts"),
               "--out", str(tmp_path / "ex")])
    assert rc == 0
    assert "5 exact" in capsys.readouterr().out

    rc = main(["gen-tasks", "--corpus", str(out), "--out", str(tmp_path / "tasks"),
               "--seed", "3", "--qa-per-chart", "2"])
    assert rc == 0
    table_out = capsys.readouterr().out
    for column in ("table", "value_estimation", "qa_reasoning", "qa_open", "summary"):
        assert column in table_out

    rc = main(["stats", "--corpus", str(out), "--json"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["n_charts"] == 5

    pred = tmp_path / "p.jsonl"
    gold = tmp_path / "g.jsonl"
    pred.write_text(json.dumps({"id": "a", "output": "yes"}) + "\n", encoding="utf-8")
    gold.write_text(json.dumps({"id": "a", "output": "Yes"}) + "\n", encoding="utf-8")
    rc = main(["eval", "--pred", str(pred), "--gold", str(gold),
               "--metrics", "ra", "--out", str(tmp_path / "report.json")])
    assert rc == 0
    assert json.loads((tmp_path / "report.json").read_text())["aggregate"]["ra"] == 1

    gold.write_text(json.dumps({"id": "zz", "output": "Yes"}) + "\n", encoding="utf-8")
    rc = main(["eval", "--pred", str(pred), "--gold", str(gold)])
    assert rc == 2


def test_cli_distill_fallback(tmp_path, capsys):
    out = tmp_path / "corpus"
    main(["synthesize", "--out", str(out), "--count", "3", "--seed", "1"])
    capsys.readouterr()
    rc = main(["distill", "--corpus", str(out), "--fallback",
               "--out", str(tmp_path / "sums.jsonl")])
    assert rc == 0
    assert "wrote 3 summaries" in capsys.readouterr().out


def test_cli_distill_fallback_wins_over_backend_and_config_is_gone(tmp_path, capsys):
    out = tmp_path / "corpus"
    main(["synthesize", "--out", str(out), "--count", "2", "--seed", "1"])
    capsys.readouterr()
    argv = ["distill", "--corpus", str(out), "--out", str(tmp_path / "sums.jsonl")]
    # The backend file is not read: it does not exist.
    assert main([*argv, "--backend", str(tmp_path / "nope.json"), "--fallback"]) == 0
    assert "wrote 2 summaries" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main([*argv, "--config", str(tmp_path / "nope.json")])


def test_cli_strict_extract_fails_on_garbage(tmp_path, capsys):
    bad = tmp_path / "svgs"
    bad.mkdir()
    (bad / "junk.svg").write_text("<svg", encoding="utf-8")
    rc = main(["extract", "--svg-dir", str(bad), "--strict"])
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["synthesize", "--out", "{tmp}/corpus", "--config", "{path}"],
    ["extract", "--svg-dir", "{tmp}", "--profile", "{path}"],
    ["distill", "--corpus", "{tmp}", "--out", "{tmp}/s.jsonl", "--backend", "{path}"],
], ids=["synthesize-config", "extract-profile", "distill-backend"])
@pytest.mark.parametrize("content", [None, '{"bar": ', "\xff", "[1]"],
                         ids=["missing", "truncated", "not-utf8", "not-an-object"])
def test_cli_config_file_missing_or_not_a_json_object(tmp_path, capsys, argv, content):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_bytes(content.encode("latin-1"))
    rc = main([a.format(tmp=tmp_path, path=path) for a in argv])
    assert rc == 2
    assert str(path) in capsys.readouterr().err


def test_extract_unreadable_svg_is_a_recorded_failure(tmp_path, capsys):
    bad = tmp_path / "svgs"
    bad.mkdir()
    (bad / "latin1.svg").write_bytes(b"\xff<svg/>")
    summary = extract_corpus(bad)
    assert summary["failed"] == 1
    assert summary["failures"][0]["file"] == "latin1.svg"
    assert main(["extract", "--svg-dir", str(bad)]) == 0
    assert "1 failed" in capsys.readouterr().out
    assert main(["extract", "--svg-dir", str(bad), "--strict"]) == 1


@pytest.mark.parametrize("key, value", [
    ("rpm", "fast"), ("rpm", None), ("max_retries", [1]),
    ("rpm", True), ("rpm", "60"), ("rpm", -1), ("rpm", float("inf")), ("rpm", 10**400),
    ("max_retries", 2.9), ("max_retries", -1), ("max_retries", False),
    ("timeout_s", -1), ("timeout_s", 0), ("timeout_s", float("nan")),
    ("endpoint", 5), ("endpoint", None), ("endpoint", "not a url"),
    ("model", ""), ("model", 5), ("auth_env", 5),
])
def test_cli_distill_backend_value_of_the_wrong_type(tmp_path, capsys, monkeypatch,
                                                     key, value):
    import chartkit.distill as distill_mod

    requests = []
    monkeypatch.setattr(distill_mod, "default_transport",
                        lambda url, *rest: requests.append(url) or (500, ""))
    synthesize(_config(tmp_path, count=1))
    cfg = tmp_path / "backend.json"
    cfg.write_text(json.dumps({
        "endpoint": "https://example.invalid/v1/chat", "model": "toy", key: value,
    }), encoding="utf-8")
    rc = main(["distill", "--corpus", str(tmp_path / "corpus"), "--out",
               str(tmp_path / "s.jsonl"), "--backend", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert key in err
    assert requests == []


def test_cli_distill_unreachable_backend_fails_items(tmp_path, capsys, monkeypatch):
    for var in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY", "all_proxy",
                "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    with socket.socket() as sock:  # a port that was just free: nothing listens
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    synthesize(_config(tmp_path, count=2))
    cfg = tmp_path / "backend.json"
    endpoint = f"http://127.0.0.1:{port}/v1"
    cfg.write_text(json.dumps({"endpoint": endpoint, "model": "m", "rpm": 0,
                               "max_retries": 0}), encoding="utf-8")
    rc = main(["distill", "--corpus", str(tmp_path / "corpus"), "--out",
               str(tmp_path / "s.jsonl"), "--backend", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cannot write" not in err
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "  failed chart-000000", "  failed chart-000001"]
    assert all(f"{endpoint}: cannot reach the backend: " in line for line in lines)
    assert read_jsonl(tmp_path / "s.jsonl") == []


_SYNTHESIZE = ["synthesize", "--out", "{tmp}/corpus", "--config", "{path}"]
_GEN_TASKS = ["gen-tasks", "--corpus", "{tmp}", "--out", "{tmp}/t", "--counts"]


@pytest.mark.parametrize("argv, content", [
    (_SYNTHESIZE, '{"counts": {"qa_reasoning": "x"}}'),
    (_SYNTHESIZE, '{"chart_type_weights": {"bar": "1"}}'),
    (_SYNTHESIZE, '{"count": "5"}'),
    (_SYNTHESIZE, '{"counts": [1]}'),
    (_GEN_TASKS + ["{bad"], None),
    (_GEN_TASKS + ["[1]"], None),
    (_GEN_TASKS + ['{"qa_reasoning": "x"}'], None),
    (_SYNTHESIZE, '{"workers": "2"}'),
    (_SYNTHESIZE, '{"grouped_fraction": "x"}'),
    (_SYNTHESIZE, '{"canvas": 5}'),
    (_SYNTHESIZE, '{"canvas": ["a", 5]}'),
    (_SYNTHESIZE, '{"canvas": [0, 600]}'),
    (_SYNTHESIZE, '{"style_overrides": 5}'),
    (_SYNTHESIZE, '{"tables_path": 5}'),
    (_SYNTHESIZE, '{"seed": 1.5}'),
    (_SYNTHESIZE, '{"backend_config": 5}'),
], ids=["config-counts-value-str", "config-weights-value-str", "config-count-str",
        "config-counts-list", "counts-not-json", "counts-list", "counts-value-str",
        "config-workers-str", "config-grouped-fraction-str", "config-canvas-int",
        "config-canvas-str-cell", "config-canvas-zero", "config-style-overrides-int",
        "config-tables-path-int", "config-seed-float", "config-backend-config-int"])
def test_cli_pipeline_config_of_the_wrong_type(tmp_path, capsys, argv, content):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    rc = main([a.replace("{tmp}", str(tmp_path)).replace("{path}", str(path))
               for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("overrides, field", [
    ({"font_px": 100}, "font_px"),
    ({"bogus": 1}, "bogus"),
    ({"font_px": [1, 30]}, "font_px"),
    ({"grid": ["none", "zigzag"]}, "grid"),
], ids=["pin-out-of-range", "unknown-field", "range-wider-than-space", "unknown-choice"])
def test_cli_style_override_outside_the_space(tmp_path, capsys, overrides, field):
    # A narrowed range that only some seeds draw outside of is rejected up
    # front too, before any chart is written.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"count": 3, "style_overrides": overrides}),
                    encoding="utf-8")
    out = tmp_path / "corpus"
    rc = main(["synthesize", "--out", str(out), "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "style_overrides" in err and repr(field) in err
    assert not out.exists() or not list(out.rglob("*.svg"))


@pytest.mark.parametrize("names", ["ra,blue", ","], ids=["typo", "empty"])
def test_cli_eval_rejects_unknown_or_no_metrics(tmp_path, capsys, names):
    pred = tmp_path / "p.jsonl"
    pred.write_text(json.dumps({"id": "a", "output": "10"}) + "\n", encoding="utf-8")
    rc = main(["eval", "--pred", str(pred), "--gold", str(pred), "--metrics", names])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "ra,rnss,rms,bleu" in captured.err
    if names == "ra,blue":
        assert "'blue'" in captured.err


def test_importing_the_cli_loads_no_network_process_or_sax_module():
    # These load only where they are used: a request, a multi-worker
    # synthesize. A fresh interpreter, since this one has loaded them.
    unused = ["urllib.request", "http.client", "email", "ssl",
              "multiprocessing", "concurrent.futures.process", "xml.sax"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, chartkit.cli; "
            f"print(sorted(m for m in {unused!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
