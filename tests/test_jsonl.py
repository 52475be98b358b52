"""The corpus JSONL layer: encoding, reads, atomic writes and the journal.

The manifest and the distill checkpoint are append journals: one row is
appended per completion, the file is loaded last-wins on resume, and it is
rewritten sorted at the end of a run. A resumed run, including one after a
crash that cut an append short, must converge on the bytes of a fresh run.
"""

import json
import os

import pytest

from chartkit.cli import main
from chartkit.distill import (
    BatchDriver,
    FallbackBackend,
    build_table_summary_prompt,
)
from chartkit.errors import ChartKitError, ParseFailure
from chartkit.jsonl import (
    Journal,
    atomic_write_text,
    encode_row,
    read_jsonl,
    write_jsonl,
)
from chartkit.pipeline import PipelineConfig, distill_corpus, synthesize
from chartkit.tables import Column, DataTable, NUMERIC
from test_golden import tree_digest


def _corpus(root, count=6):
    config = PipelineConfig(seed=7, count=count, labels="mixed",
                            out=str(root / "corpus"))
    synthesize(config)
    return config


def _tear(path, keep_rows):
    """Cut ``path`` to ``keep_rows`` whole lines plus half of the next one,
    as a crash in the middle of an append leaves it."""
    lines = path.read_bytes().splitlines(keepends=True)
    torn = lines[keep_rows][: len(lines[keep_rows]) // 2]
    assert torn and not torn.endswith(b"\n")
    path.write_bytes(b"".join(lines[:keep_rows]) + torn)


class FailsOnFourthCall(FallbackBackend):
    def __init__(self):
        self.calls = 0

    def complete(self, bundle):
        self.calls += 1
        if self.calls == 4:
            raise ConnectionError("backend went away")
        return super().complete(bundle)


def _fresh_distill(root):
    _corpus(root)
    distill_corpus(root / "corpus", root / "summaries.jsonl",
                   checkpoint_path=root / "checkpoint.jsonl")
    return tree_digest(root)


def test_interrupted_distill_resumes_to_fresh_bytes(tmp_path):
    fresh = _fresh_distill(tmp_path / "fresh")
    root = tmp_path / "resumed"
    _corpus(root)
    ckpt = root / "checkpoint.jsonl"
    backend = FailsOnFourthCall()
    with pytest.raises(ConnectionError):
        distill_corpus(root / "corpus", root / "summaries.jsonl",
                       backend=backend, checkpoint_path=ckpt)
    assert len(ckpt.read_text(encoding="utf-8").splitlines()) == 3
    distill_corpus(root / "corpus", root / "summaries.jsonl",
                   checkpoint_path=ckpt)
    assert tree_digest(root) == fresh


def test_failed_distill_items_are_data_and_a_rerun_converges(tmp_path, capsys,
                                                             monkeypatch):
    fresh = _fresh_distill(tmp_path / "fresh")
    root = tmp_path / "failed"
    _corpus(root)
    argv = ["distill", "--corpus", str(root / "corpus"), "--fallback",
            "--out", str(root / "summaries.jsonl"),
            "--checkpoint", str(root / "checkpoint.jsonl")]
    calls = []
    complete = FallbackBackend.complete

    def fails_second_call(self, bundle):
        calls.append(bundle)
        if len(calls) == 2:
            raise ParseFailure("garbled completion")
        return complete(self, bundle)

    monkeypatch.setattr(FallbackBackend, "complete", fails_second_call)
    assert main(argv) == 1
    assert "failed chart-000001: garbled completion" in capsys.readouterr().err
    finished = [f"chart-{i:06d}" for i in (0, 2, 3, 4, 5)]
    assert [row["id"] for row in read_jsonl(root / "summaries.jsonl")] == finished
    assert [row["id"] for row in read_jsonl(root / "checkpoint.jsonl")] == finished
    monkeypatch.undo()
    assert main(argv) == 0
    assert tree_digest(root) == fresh


def test_torn_checkpoint_line_resumes_to_fresh_bytes(tmp_path):
    fresh = _fresh_distill(tmp_path / "fresh")
    root = tmp_path / "resumed"
    _fresh_distill(root)
    _tear(root / "checkpoint.jsonl", keep_rows=3)
    distill_corpus(root / "corpus", root / "summaries.jsonl",
                   checkpoint_path=root / "checkpoint.jsonl")
    assert tree_digest(root) == fresh


def test_torn_manifest_line_resumes_to_fresh_bytes(tmp_path):
    _corpus(tmp_path / "fresh")
    config = _corpus(tmp_path / "resumed")
    _tear(tmp_path / "resumed" / "corpus" / "manifest.jsonl", keep_rows=2)
    synthesize(config)
    assert tree_digest(tmp_path / "resumed") == tree_digest(tmp_path / "fresh")


def test_driver_replaces_checkpoint_once(tmp_path, monkeypatch):
    replaced = []
    real_replace = os.replace

    def counting_replace(src, dst):
        replaced.append(str(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", counting_replace)
    table = DataTable([Column("x"), Column("v", NUMERIC)],
                      [["a", 1.0], ["b", 2.0]])
    items = [(f"c{i}", build_table_summary_prompt(table))
             for i in reversed(range(8))]
    ckpt = tmp_path / "checkpoint.jsonl"
    done = BatchDriver(checkpoint_path=str(ckpt)).run(items)
    assert done == BatchDriver().run(items)
    assert replaced == [str(ckpt)]
    rows = [json.loads(line)
            for line in ckpt.read_text(encoding="utf-8").splitlines()]
    assert [r["id"] for r in rows] == [f"c{i}" for i in range(8)]
    assert {r["id"]: r["summary"] for r in rows} == done


def test_encoding_and_reads(tmp_path):
    row = {"id": "z", "b": "\u00e9\u2028", "a": [1, 2.5]}
    assert encode_row(row) == '{"a": [1, 2.5], "b": "\u00e9\u2028", "id": "z"}\n'
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"id": "x", "v": 1}, row, {"id": "x", "v": 2}])
    assert not (tmp_path / "rows.jsonl.tmp").exists()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('\n{"id": "y", "v": 3}')  # a blank line, no final newline
    rows = read_jsonl(path)
    assert rows[1] == row and rows[-1] == {"id": "y", "v": 3}
    with Journal(path) as journal:
        assert journal.rows == {"x": {"id": "x", "v": 2}, "z": row,
                                "y": {"id": "y", "v": 3}}
    with Journal(tmp_path / "missing.jsonl") as journal:
        assert journal.rows == {}


def test_a_failed_atomic_write_names_the_path_and_leaves_no_temp_file(tmp_path):
    # os.replace cannot put a file over a directory: the temp file is
    # written whole and must still go.
    target = tmp_path / "a-dir"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as caught:
        atomic_write_text(target, "text")
    assert caught.value.filename == str(target)
    assert os.listdir(tmp_path) == ["a-dir"]
    with pytest.raises(FileNotFoundError) as caught:
        atomic_write_text(tmp_path / "missing" / "f", "text")
    assert caught.value.filename == str(tmp_path / "missing" / "f")


def test_a_row_that_cannot_be_encoded_leaves_the_old_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"id": "a"}])
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_jsonl(path, [{"id": "b"}, {"id": object()}])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["rows.jsonl"]


def test_read_drops_only_a_torn_last_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"id": "a"}\n' + '{"id": "é'.encode("utf-8")[:-1])
    assert read_jsonl(path) == [{"id": "a"}]
    path.write_bytes(b'{"id": "a"}\n{"id": \n{"id": "b"}\n')
    with pytest.raises(ValueError):
        read_jsonl(path)


def _bad_second_line(path):
    path.write_bytes(b'{"id": "a", "output": "1"}\n{"id": "b", "output": \n')


def test_malformed_line_names_file_and_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    _bad_second_line(path)
    with pytest.raises(ChartKitError, match=f"{path}, line 2: "):
        read_jsonl(path)


def test_cli_eval_reports_malformed_line(tmp_path, capsys):
    pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
    _bad_second_line(pred)
    write_jsonl(gold, [{"id": "a", "output": "1"}, {"id": "b", "output": "2"}])
    assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 2
    assert f"{pred}, line 2: " in capsys.readouterr().err


def test_cli_eval_reports_a_row_that_is_not_an_object(tmp_path, capsys):
    pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
    pred.write_bytes(b'{"id": "a", "output": "1"}\n[1, 2]\n')
    write_jsonl(gold, [{"id": "a", "output": "1"}])
    assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 2
    assert f"{pred}, line 2: " in capsys.readouterr().err


def test_cli_eval_reports_a_row_without_output(tmp_path, capsys):
    pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
    write_jsonl(pred, [{"id": "a", "output": "1"}, {"id": "b", "output": "2"}])
    gold.write_bytes(b'{"id": "a", "output": "1"}\n\n{"id": "b"}\n')
    assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 2
    err = capsys.readouterr().err
    assert f"{gold}, line 3: " in err and "output" in err


def test_cli_eval_reports_an_id_that_is_not_a_string(tmp_path, capsys):
    pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
    write_jsonl(pred, [{"id": "a", "output": "1"}, {"id": 1, "output": "2"}])
    write_jsonl(gold, [{"id": "a", "output": "1"}, {"id": "1", "output": "2"}])
    assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 2
    err = capsys.readouterr().err
    assert f"{pred}, line 2: " in err and "id 1 " in err

    write_jsonl(pred, [{"id": "a", "output": "1"}, {"id": "1", "output": "2"}])
    gold.write_bytes(b'{"id": "a", "output": "1"}\n{"id": ["1"], "output": "2"}\n')
    assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 2
    assert f"{gold}, line 2: " in capsys.readouterr().err


def test_cli_eval_reports_an_empty_reference_list(tmp_path, capsys):
    pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
    write_jsonl(pred, [{"id": "a", "output": "1"}, {"id": "b", "output": "2"}])
    write_jsonl(gold, [{"id": "a", "output": ["1"]}, {"id": "b", "output": []}])
    assert main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {gold}, line 2: ")
    assert "empty list" in lines[0]


def test_journal_never_appends_onto_a_fragment(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_bytes(b'{"id": "b", "v": 1}\n{"id": "a", "v": 1}\n{"id": "c", "v')
    with Journal(path) as journal:
        assert sorted(journal.rows) == ["a", "b"]
        journal.append({"id": "a", "v": 2})
        journal.append({"id": "d", "v": 1})
        assert read_jsonl(path)[2:] == [{"id": "a", "v": 2}, {"id": "d", "v": 1}]
        journal.compact(journal.rows.values())
    assert path.read_text(encoding="utf-8") == "".join(map(encode_row, [
        {"id": "a", "v": 2}, {"id": "b", "v": 1}, {"id": "d", "v": 1}]))

    # A whole last row without its newline is kept, and the next append
    # starts on a line of its own.
    path.write_bytes(b'{"id": "a", "v": 1}')
    with Journal(path) as journal:
        journal.append({"id": "b", "v": 1})
        assert set(journal.rows) == {"a", "b"}
    assert read_jsonl(path) == [{"id": "b", "v": 1}]
