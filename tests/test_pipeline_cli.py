import hashlib
import json
from pathlib import Path

import pytest

from chartkit.cli import main
from chartkit.errors import InvalidConfig
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
    assert any("dropped" in w for w in warnings)
    assert any("no summary" in w for w in warnings)


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


def test_distill_corpus_offline(tmp_path):
    config = _config(tmp_path, count=4)
    synthesize(config)
    out = tmp_path / "summaries.jsonl"
    done = distill_corpus(config.out, out, checkpoint_path=str(tmp_path / "ck.jsonl"))
    assert len(done) == 4
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

    done = distill_corpus(config.out, tmp_path / "s.jsonl",
                          backend_config=str(backend_cfg), transport=transport)
    assert set(done.values()) == {"A summary."}


def test_synthesize_count_zero_is_empty_manifest(tmp_path):
    config = _config(tmp_path, count=0)
    rows = synthesize(config)
    assert rows == []
    assert (Path(config.out) / "manifest.jsonl").read_text(encoding="utf-8") == ""


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


def test_cli_strict_extract_fails_on_garbage(tmp_path, capsys):
    bad = tmp_path / "svgs"
    bad.mkdir()
    (bad / "junk.svg").write_text("<svg", encoding="utf-8")
    rc = main(["extract", "--svg-dir", str(bad), "--strict"])
    assert rc == 1
