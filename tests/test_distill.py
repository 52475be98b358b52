import json

import pytest

from chartkit.distill import (
    DEFAULT_EXEMPLAR,
    BackendClient,
    BatchDriver,
    Exemplar,
    FallbackBackend,
    PromptBundle,
    build_ocr_layout_prompt,
    build_rubric_eval_prompt,
    build_table_summary_prompt,
    fallback_summary,
    parse_rating,
    summarize,
)
from chartkit.errors import InvalidConfig, ParseFailure, RateLimited
from chartkit.jsonl import load_by_id
from chartkit.metrics import extract_numbers
from chartkit.tables import Column, DataTable, NUMERIC


def _table():
    return DataTable(
        [Column("Year"), Column("Sales", NUMERIC, "%")],
        [["2001", 5.0], ["2002", 9.0], ["2003", 7.0]],
    )


def test_bundle_validation():
    with pytest.raises(ValueError):
        PromptBundle("sys", "  ")
    with pytest.raises(ValueError):
        Exemplar("t", "   ")  # empty demo summary


def test_table_summary_prompt_deterministic_and_complete():
    a = build_table_summary_prompt(_table(), DEFAULT_EXEMPLAR, title="Sales by Year")
    b = build_table_summary_prompt(_table(), DEFAULT_EXEMPLAR, title="Sales by Year")
    assert a == b
    for name in ("Year", "Sales"):
        assert name in a.target_payload
    assert "Title: Sales by Year" in a.target_payload
    assert "Unit of Sales: %" in a.target_payload
    assert a.demonstration == DEFAULT_EXEMPLAR
    with pytest.raises(ValueError):
        build_table_summary_prompt(_table(), None)


def test_ocr_layout_rows_and_padding():
    lines = [
        ("left", (0, 10, 20, 10)),
        ("right", (160, 11, 20, 10)),
        ("below", (0, 60, 20, 10)),
    ]
    bundle = build_ocr_layout_prompt(lines)
    grid = bundle.target_payload.splitlines()
    row = next(line for line in grid if "left" in line)
    assert "right" in row  # same y bucket -> same output row
    assert row.index("right") > row.index("left") + len("left")
    assert any("below" in line for line in grid if "left" not in line)
    assert bundle == build_ocr_layout_prompt(lines)


def test_rubric_two_stages_and_rating_parse():
    stage_a = build_rubric_eval_prompt(_table(), "A summary.", "informativeness")
    assert "grading steps" in stage_a.target_payload.lower()
    stage_b = build_rubric_eval_prompt(
        _table(), "A summary.", "informativeness", grading_steps="1. read"
    )
    assert "1. read" in stage_b.target_payload
    assert "A summary." in stage_b.target_payload
    assert parse_rating("4 - because reasons") == 4
    assert parse_rating("5") == 5
    with pytest.raises(ParseFailure):
        parse_rating("great!")
    with pytest.raises(ParseFailure):
        parse_rating("9 out of 10")


def test_fallback_summary_rules():
    text = fallback_summary(_table())
    assert "2002" in text  # the max's row label
    assert "9" in text
    assert "5" in text  # the min
    # every number in the summary exists in the table (cells or headers)
    table_numbers = {5.0, 9.0, 7.0, 2001.0, 2002.0, 2003.0}
    for n in extract_numbers(text):
        assert n in table_numbers
    assert text == fallback_summary(_table())


def test_summarize_fallback_round_trip():
    bundle = build_table_summary_prompt(_table(), DEFAULT_EXEMPLAR)
    text = summarize(bundle)  # no backend -> offline fallback
    assert "2002" in text


class _ScriptedTransport:
    """Returns queued (status, body) responses; records call count."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0
        self.last_headers = None

    def __call__(self, url, headers, body, timeout):
        self.calls += 1
        self.last_headers = headers
        status, payload = self.script.pop(0)
        if status == "timeout":
            raise TimeoutError("scripted timeout")
        return status, payload


def _ok_body(content="A fine summary."):
    return json.dumps({"choices": [{"message": {"content": content}}]})


def _client(transport, retries=2, auth_env=""):
    return BackendClient(
        endpoint="https://example.invalid/v1/chat",
        model="test-model",
        auth_env=auth_env,
        rpm=0,  # no rate delay in tests
        timeout_s=1,
        max_retries=retries,
        transport=transport,
        sleep=lambda _s: None,
    )


def test_backend_success_and_auth_header(monkeypatch):
    transport = _ScriptedTransport([(200, _ok_body())])
    monkeypatch.setenv("TEST_TOKEN", "sekret")
    client = _client(transport, auth_env="TEST_TOKEN")
    bundle = build_table_summary_prompt(_table(), DEFAULT_EXEMPLAR)
    assert client.complete(bundle) == "A fine summary."
    assert transport.last_headers["Authorization"] == "Bearer sekret"


def test_backend_missing_auth_env():
    client = _client(_ScriptedTransport([]), auth_env="NOT_SET_ANYWHERE_123")
    bundle = build_table_summary_prompt(_table(), DEFAULT_EXEMPLAR)
    with pytest.raises(InvalidConfig):
        client.complete(bundle)


def test_backend_rate_limited_after_retry_budget():
    transport = _ScriptedTransport([(429, ""), (429, ""), (429, "")])
    client = _client(transport, retries=2)
    bundle = build_table_summary_prompt(_table(), DEFAULT_EXEMPLAR)
    with pytest.raises(RateLimited):
        client.complete(bundle)
    assert transport.calls == 3  # initial + 2 retries


def test_backend_retries_then_succeeds():
    transport = _ScriptedTransport([(429, ""), ("timeout", ""), (200, _ok_body())])
    client = _client(transport, retries=3)
    bundle = build_table_summary_prompt(_table(), DEFAULT_EXEMPLAR)
    assert client.complete(bundle) == "A fine summary."


def test_backend_bad_shape_raises_parse_failure():
    transport = _ScriptedTransport([(200, '{"nope": 1}')])
    client = _client(transport)
    bundle = build_table_summary_prompt(_table(), DEFAULT_EXEMPLAR)
    with pytest.raises(ParseFailure):
        client.complete(bundle)


def test_driver_checkpoint_resume_and_budget(tmp_path):
    ckpt = tmp_path / "ckpt.jsonl"
    bundles = [
        (f"c{i}", build_table_summary_prompt(_table(), DEFAULT_EXEMPLAR))
        for i in range(5)
    ]
    driver = BatchDriver(backend=FallbackBackend(), checkpoint_path=str(ckpt),
                         budget=2)
    done = driver.run(bundles)
    assert len(done) == 2
    assert len(load_by_id(ckpt)) == 2

    # Resume finishes the rest without redoing completed ids.
    class Counting(FallbackBackend):
        calls = 0

        def complete(self, bundle):
            Counting.calls += 1
            return super().complete(bundle)

    driver = BatchDriver(backend=Counting(), checkpoint_path=str(ckpt))
    done = driver.run(bundles)
    assert len(done) == 5
    assert Counting.calls == 3


def test_driver_logs_prompts_without_secrets(tmp_path):
    log = tmp_path / "audit.jsonl"
    driver = BatchDriver(backend=FallbackBackend(), log_path=str(log))
    driver.run([("c0", build_table_summary_prompt(_table(), DEFAULT_EXEMPLAR))])
    content = log.read_text(encoding="utf-8")
    assert "Authorization" not in content
    assert "prompt" in content


def test_fallback_makes_no_network_calls():
    transport = _ScriptedTransport([])
    # The transport would raise IndexError if ever invoked.
    driver = BatchDriver(backend=FallbackBackend())
    done = driver.run([
        ("c0", build_table_summary_prompt(_table(), DEFAULT_EXEMPLAR)),
    ])
    assert transport.calls == 0
    assert "2002" in done["c0"]
