import json
import re
import socket
import threading
import urllib.error

import pytest

from chartkit.distill import (
    BackendClient,
    BatchDriver,
    FallbackBackend,
    build_table_summary_prompt,
    fallback_summary,
)
from chartkit.errors import BackendUnreachable, InvalidConfig, ParseFailure, RateLimited
from chartkit.jsonl import read_jsonl
from chartkit.metrics import extract_numbers
from chartkit.tables import Column, DataTable, NUMERIC


def _table():
    return DataTable(
        [Column("Year"), Column("Sales", NUMERIC, "%")],
        [["2001", 5.0], ["2002", 9.0], ["2003", 7.0]],
    )


PINNED_SYSTEM_TEXT = (
    "You write short, factual summaries of data tables behind charts. "
    "Mention notable highs, lows and overall patterns. Do not invent numbers."
)

PINNED_USER_TEXT = (
    "Table:\nQuarter | Revenue & Q1 | 12 & Q2 | 18 & Q3 | 9\n"
    "Summary:\nRevenue peaked at 18 in Q2 before falling to a low of 9 in Q3, "
    "ending below the 12 recorded in Q1.\n\n"
    "Unit of Sales: %\n"
    "Table:\nYear | Sales (%) & 2001 | 5 & 2002 | 9 & 2003 | 7\n"
    "Summary:"
)


def test_table_summary_prompt_bytes():
    bundle = build_table_summary_prompt(_table())
    assert bundle.user_text() == PINNED_USER_TEXT
    assert bundle.messages() == [
        {"role": "system", "content": PINNED_SYSTEM_TEXT},
        {"role": "user", "content": PINNED_USER_TEXT},
    ]
    transport = _ScriptedTransport([(200, _ok_body())])
    _client(transport).complete(bundle)
    assert json.loads(transport.last_body) == {
        "model": "test-model",
        "messages": bundle.messages(),
        "max_tokens": 512,
        "temperature": 0.0,
    }


def test_table_summary_prompt_deterministic_and_complete():
    a = build_table_summary_prompt(_table())
    b = build_table_summary_prompt(_table())
    assert a == b
    for name in ("Year", "Sales"):
        assert name in a.target_payload
    assert "Unit of Sales: %" in a.target_payload


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


class _ScriptedTransport:
    """Returns queued (status, body) responses; records call count."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0
        self.last_headers = None
        self.last_body = None

    def __call__(self, url, headers, body, timeout):
        self.calls += 1
        self.last_headers = headers
        self.last_body = body
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
    bundle = build_table_summary_prompt(_table())
    assert client.complete(bundle) == "A fine summary."
    assert transport.last_headers["Authorization"] == "Bearer sekret"


def test_backend_missing_auth_env():
    client = _client(_ScriptedTransport([]), auth_env="NOT_SET_ANYWHERE_123")
    bundle = build_table_summary_prompt(_table())
    with pytest.raises(InvalidConfig):
        client.complete(bundle)


def test_backend_rate_limited_after_retry_budget():
    transport = _ScriptedTransport([(429, ""), (429, ""), (429, "")])
    client = _client(transport, retries=2)
    bundle = build_table_summary_prompt(_table())
    with pytest.raises(RateLimited):
        client.complete(bundle)
    assert transport.calls == 3  # initial + 2 retries


def test_backend_retries_then_succeeds():
    transport = _ScriptedTransport([(429, ""), ("timeout", ""), (200, _ok_body())])
    client = _client(transport, retries=3)
    bundle = build_table_summary_prompt(_table())
    assert client.complete(bundle) == "A fine summary."


def test_backend_unreachable_is_a_failed_attempt_then_a_recorded_failure():
    calls = []

    def refused(url, headers, body, timeout):
        calls.append(url)
        raise urllib.error.URLError(ConnectionRefusedError())

    client = _client(refused, retries=2)
    bundle = build_table_summary_prompt(_table())
    with pytest.raises(BackendUnreachable, match=re.escape(
            "https://example.invalid/v1/chat: cannot reach the backend: "
            "ConnectionRefusedError")):
        client.complete(bundle)
    assert len(calls) == 3  # initial + 2 retries
    driver = BatchDriver(backend=client)
    assert driver.run([("c0", bundle)]) == {}
    assert [f["id"] for f in driver.failures] == ["c0"]
    assert "cannot reach the backend" in driver.failures[0]["error"]


def _serve_replies(reply: bytes, connections: int):
    """A 127.0.0.1 server that reads ``connections`` requests, answers each
    with ``reply`` and closes: ``(its port, a list of the requests read,
    the serving thread)``."""
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(5)
    requests = []

    def serve():
        with server:
            for _ in range(connections):
                conn, _ = server.accept()
                with conn:
                    conn.settimeout(5)
                    data = b""
                    while b"\r\n\r\n" not in data:
                        data += conn.recv(4096)
                    head, _, body = data.partition(b"\r\n\r\n")
                    length = int(re.search(rb"(?i)content-length: *(\d+)", head)[1])
                    while len(body) < length:
                        body += conn.recv(4096)
                    requests.append(head.split(b"\r\n")[0])
                    conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return server.getsockname()[1], requests, thread


@pytest.mark.parametrize("reply, reason", [
    (b"garbage\r\n\r\n", "BadStatusLine"),
    (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
     b"Content-Length: 4\r\nConnection: close\r\n\r\n\xff\xfe\xfd{", "UnicodeDecodeError"),
], ids=["not-http", "body-not-utf8"])
def test_backend_malformed_reply_is_a_failed_attempt_then_a_recorded_failure(
        monkeypatch, reply, reason):
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    port, requests, thread = _serve_replies(reply, connections=2)
    endpoint = f"http://127.0.0.1:{port}/v1"
    client = BackendClient(endpoint=endpoint, model="m", rpm=0, timeout_s=5,
                           max_retries=1, sleep=lambda _s: None)
    driver = BatchDriver(backend=client)
    assert driver.run([("c0", build_table_summary_prompt(_table()))]) == {}
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert requests == [b"POST /v1 HTTP/1.1"] * 2  # initial + 1 retry
    assert driver.failures == [{
        "id": "c0",
        "error": f"{endpoint}: malformed reply from the backend: {reason}",
    }]


def test_backend_bad_shape_raises_parse_failure():
    transport = _ScriptedTransport([(200, '{"nope": 1}')])
    client = _client(transport)
    bundle = build_table_summary_prompt(_table())
    with pytest.raises(ParseFailure):
        client.complete(bundle)


def test_driver_checkpoint_resume_and_budget(tmp_path):
    ckpt = tmp_path / "ckpt.jsonl"
    bundles = [
        (f"c{i}", build_table_summary_prompt(_table()))
        for i in range(5)
    ]
    driver = BatchDriver(backend=FallbackBackend(), checkpoint_path=str(ckpt),
                         budget=2)
    done = driver.run(bundles)
    assert len(done) == 2
    assert len(read_jsonl(ckpt)) == 2

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
    driver.run([("c0", build_table_summary_prompt(_table()))])
    content = log.read_text(encoding="utf-8")
    assert "Authorization" not in content
    assert "prompt" in content


def test_driver_reads_items_one_at_a_time(tmp_path):
    calls = []

    class Counting(FallbackBackend):
        def complete(self, bundle):
            calls.append(bundle)
            return super().complete(bundle)

    def items(k):
        for i in range(k):
            yield f"c{i}", build_table_summary_prompt(_table())
        raise RuntimeError("the item source broke")

    log = tmp_path / "audit.jsonl"
    driver = BatchDriver(backend=Counting(), log_path=str(log))
    with pytest.raises(RuntimeError):
        driver.run(items(3))
    assert len(calls) == 3
    assert [row["id"] for row in read_jsonl(log)] == ["c0", "c1", "c2"]
    calls.clear()
    assert list(BatchDriver(backend=Counting(), budget=2).run(items(3))) == ["c0", "c1"]
    assert len(calls) == 2


def test_driver_rejects_a_negative_budget():
    with pytest.raises(InvalidConfig, match="budget"):
        BatchDriver(budget=-1)


def test_fallback_makes_no_network_calls():
    transport = _ScriptedTransport([])
    # The transport would raise IndexError if ever invoked.
    driver = BatchDriver(backend=FallbackBackend())
    done = driver.run([
        ("c0", build_table_summary_prompt(_table())),
    ])
    assert transport.calls == 0
    assert "2002" in done["c0"]
