"""Prompt builders and a pluggable LLM backend for summary distillation.

Three prompt shapes: 1-shot table-to-summary, layout-preserved OCR text to
summary, and a two-stage rubric evaluation (criterion -> grading steps,
then steps + table + summary -> a 1..5 rating whose reply must start with
the integer). The backend speaks the common HTTP JSON chat-completions
shape and is configured by file, never by code; a deterministic rule-based
fallback summarizer keeps every downstream consumer testable offline.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .errors import BackendTimeout, InvalidConfig, ParseFailure, RateLimited
from .flatten import CELL_SEP, flatten_table, format_number, unflatten_table
from .jsonl import Journal, encode_row
from .tables import CATEGORICAL, DataTable


@dataclass(frozen=True)
class Exemplar:
    """One demonstration pair: a flattened table and its summary."""

    table_text: str
    summary: str

    def __post_init__(self):
        if not self.table_text.strip():
            raise ValueError("exemplar table must be non-empty")
        if not self.summary.strip():
            raise ValueError("exemplar summary must be non-empty")


@dataclass(frozen=True)
class PromptBundle:
    """A fully assembled prompt: preamble, optional 1-shot demo, payload."""

    system_preamble: str
    target_payload: str
    demonstration: Optional[Exemplar] = None
    decoding: dict = field(default_factory=lambda: {"max_tokens": 512, "temperature": 0.0})

    def __post_init__(self):
        if not self.target_payload.strip():
            raise ValueError("target payload must be non-empty")

    def user_text(self) -> str:
        parts = []
        if self.demonstration is not None:
            parts.append(
                f"Table:\n{self.demonstration.table_text}\n"
                f"Summary:\n{self.demonstration.summary}"
            )
        parts.append(self.target_payload)
        return "\n\n".join(parts)

    def messages(self) -> list[dict]:
        msgs = []
        if self.system_preamble:
            msgs.append({"role": "system", "content": self.system_preamble})
        msgs.append({"role": "user", "content": self.user_text()})
        return msgs


SUMMARY_PREAMBLE = (
    "You write short, factual summaries of data tables behind charts. "
    "Mention notable highs, lows and overall patterns. Do not invent numbers."
)

OCR_PREAMBLE = (
    "The following is text extracted from a chart image with its layout "
    "preserved as whitespace. Summarize what the chart shows. "
    "Do not invent numbers."
)

RUBRIC_PREAMBLE = "You evaluate chart summaries against a stated criterion."

DEFAULT_EXEMPLAR = Exemplar(
    "Quarter | Revenue & Q1 | 12 & Q2 | 18 & Q3 | 9",
    "Revenue peaked at 18 in Q2 before falling to a low of 9 in Q3, "
    "ending below the 12 recorded in Q1.",
)


def build_table_summary_prompt(
    table: DataTable,
    demo: Exemplar,
    title: Optional[str] = None,
) -> PromptBundle:
    """1-shot prompt asking for a summary of a table.

    The payload repeats the optional chart title and any column units above
    the flattened table, so the model sees the same context a reader would.
    """
    if demo is None:
        raise ValueError("table-summary prompts are 1-shot; a demonstration is required")
    lines = []
    if title:
        lines.append(f"Title: {title}")
    units = [
        f"Unit of {c.name}: {c.unit}" for c in table.columns if c.unit
    ]
    lines.extend(units)
    lines.append(f"Table:\n{flatten_table(table)}")
    lines.append("Summary:")
    return PromptBundle(SUMMARY_PREAMBLE, "\n".join(lines), demonstration=demo)


def build_ocr_layout_prompt(
    ocr_lines: list[tuple[str, tuple[float, float, float, float]]],
    char_width: float = 8.0,
    row_tolerance: float = 10.0,
) -> PromptBundle:
    """Prompt from OCR fragments, preserving spatial layout as whitespace.

    Fragments are bucketed into rows by vertical position (within
    ``row_tolerance`` pixels of the row's running mean) and placed at a
    column proportional to their x coordinate, so the grid keeps the
    relative reading order of the original chart.
    """
    if not ocr_lines:
        raise ValueError("need at least one OCR line")
    frags = sorted(ocr_lines, key=lambda t: (t[1][1], t[1][0]))
    rows: list[dict] = []
    for text, (x, y, _w, _h) in frags:
        if rows and abs(y - rows[-1]["y"]) <= row_tolerance:
            rows[-1]["items"].append((x, text))
        else:
            rows.append({"y": y, "items": [(x, text)]})
    grid_lines = []
    for row in rows:
        line = ""
        for x, text in sorted(row["items"]):
            col = int(round(x / char_width))
            if col > len(line):
                line += " " * (col - len(line))
            elif line:
                line += " "
            line += text
        grid_lines.append(line.rstrip())
    payload = "Chart text:\n" + "\n".join(grid_lines) + "\nSummary:"
    return PromptBundle(OCR_PREAMBLE, payload)


def build_rubric_eval_prompt(
    table: DataTable,
    summary: str,
    criterion: str,
    grading_steps: Optional[str] = None,
) -> PromptBundle:
    """Two-stage rubric evaluation prompt material.

    Without ``grading_steps`` this builds stage (a): ask for concise
    numbered grading steps for the criterion. With steps it builds stage
    (b): steps + table + summary, demanding a 1-5 rating whose reply starts
    with the bare integer (see parse_rating).
    """
    if not summary.strip():
        raise ValueError("summary must be non-empty")
    if not criterion.strip():
        raise ValueError("criterion must be non-empty")
    if grading_steps is None:
        payload = (
            "Task: rate a chart summary against the criterion below.\n"
            f"Criterion: {criterion}\n"
            "Write concise numbered grading steps for applying this criterion."
        )
        return PromptBundle(RUBRIC_PREAMBLE, payload)
    payload = (
        f"Grading steps:\n{grading_steps}\n\n"
        f"Table:\n{flatten_table(table)}\n\n"
        f"Summary:\n{summary}\n\n"
        "Rate the summary from 1 to 5 against the steps. "
        "Reply with the integer rating first, then any justification."
    )
    return PromptBundle(RUBRIC_PREAMBLE, payload)


def parse_rating(reply: str) -> int:
    """Leading-integer rating parse; the first token must be 1..5."""
    token = reply.strip().split()[0] if reply.strip() else ""
    token = token.rstrip(".,:;-)")
    if not token.isdigit():
        raise ParseFailure(f"reply does not start with an integer: {reply[:40]!r}")
    rating = int(token)
    if not 1 <= rating <= 5:
        raise ParseFailure(f"rating {rating} outside 1..5")
    return rating


# -- deterministic offline fallback ---------------------------------------


def fallback_summary(table: DataTable) -> str:
    """Rule-based summary whose every number occurs in the source table.

    Rows are keyed by the first categorical column (or the first column
    outright, mirroring how wide chart tables carry their x labels up
    front). Names the highest and lowest values with their row labels and
    points at the row closest to the overall average (by name, not by
    number, so nothing outside the table is ever printed).
    """
    cats = table.indices_of_kind(CATEGORICAL)
    label_col = cats[0] if cats else 0
    numeric = [
        j for j, c in enumerate(table.columns)
        if c.kind != CATEGORICAL and j != label_col
    ]
    x_name = table.columns[label_col].name
    if numeric:
        measures = ", ".join(table.columns[j].name for j in numeric)
        sentences = [f"This chart shows {measures} by {x_name}."]
    else:
        sentences = [f"This chart shows {x_name}."]

    def label_of(row):
        cell = row[label_col]
        return cell if isinstance(cell, str) else format_number(cell)

    cells = [
        (row[j], label_of(row), table.columns[j].name)
        for row in table.rows
        for j in numeric
    ]
    if cells:
        multi = len(numeric) > 1
        hi = max(cells, key=lambda c: c[0])
        lo = min(cells, key=lambda c: c[0])
        hi_where = f"{hi[1]} ({hi[2]})" if multi else f"{hi[1]}"
        lo_where = f"{lo[1]} ({lo[2]})" if multi else f"{lo[1]}"
        sentences.append(
            f"The highest value is {format_number(hi[0])} for {hi_where}."
        )
        sentences.append(
            f"The lowest value is {format_number(lo[0])} for {lo_where}."
        )
        mean = sum(c[0] for c in cells) / len(cells)
        nearest = min(cells, key=lambda c: (abs(c[0] - mean), c[1]))
        sentences.append(f"Overall, {nearest[1]} comes closest to the average.")
    return " ".join(sentences)


class FallbackBackend:
    """Offline summarizer: recovers the table from the prompt payload.

    Never touches the network; downstream pipelines run unchanged against
    it. Only understands payloads produced by build_table_summary_prompt.
    """

    name = "fallback"

    def complete(self, bundle: PromptBundle) -> str:
        lines = bundle.target_payload.split("\n")
        table_text = None
        if "Table:" in lines:
            at = lines.index("Table:")
            if at + 1 < len(lines):
                table_text = lines[at + 1]
        if table_text is None:
            table_text = next((ln for ln in lines if CELL_SEP in ln), None)
        if table_text is None:
            raise ParseFailure("fallback cannot find a flattened table in the payload")
        try:
            table = unflatten_table(table_text)
        except Exception as exc:
            raise ParseFailure(f"fallback cannot recover a table: {exc}") from exc
        return fallback_summary(table)


# -- HTTP backend ----------------------------------------------------------

Transport = Callable[[str, dict, bytes, float], tuple[int, str]]


def default_transport(url: str, headers: dict, body: bytes, timeout: float):
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8", "replace")
    except TimeoutError:
        raise
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, TimeoutError):
            raise TimeoutError(str(exc)) from exc
        raise


class RateLimiter:
    """Serializes request starts to respect a requests-per-minute cap."""

    def __init__(self, rpm: float, clock=time.monotonic, sleep=time.sleep):
        self.interval = 60.0 / rpm if rpm > 0 else 0.0
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_at = 0.0

    def acquire(self):
        if self.interval <= 0:
            return
        with self._lock:
            now = self._clock()
            wait = self._next_at - now
            start = max(now, self._next_at)
            self._next_at = start + self.interval
        if wait > 0:
            self._sleep(wait)


class BackendClient:
    """Chat-completions HTTP client with retries and a rate cap.

    The auth token is read from the environment variable named in the
    config at request time and is never serialized or logged.
    """

    def __init__(self, endpoint: str, model: str, auth_env: str = "",
                 rpm: float = 60.0, timeout_s: float = 30.0,
                 max_retries: int = 3, transport: Optional[Transport] = None,
                 sleep=time.sleep, clock=time.monotonic):
        self.endpoint = endpoint
        self.model = model
        self.auth_env = auth_env
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.transport = transport or default_transport
        self._sleep = sleep
        self.limiter = RateLimiter(rpm, clock=clock, sleep=sleep)
        self.name = model

    @classmethod
    def from_config(cls, config: dict, transport: Optional[Transport] = None,
                    sleep=time.sleep) -> "BackendClient":
        try:
            return cls(
                endpoint=config["endpoint"],
                model=config["model"],
                auth_env=config.get("auth_env", ""),
                rpm=float(config.get("rpm", 60)),
                timeout_s=float(config.get("timeout_s", 30)),
                max_retries=int(config.get("max_retries", 3)),
                transport=transport,
                sleep=sleep,
            )
        except KeyError as exc:
            raise InvalidConfig(f"backend config missing {exc}") from exc

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.auth_env:
            token = os.environ.get(self.auth_env)
            if not token:
                raise InvalidConfig(
                    f"auth environment variable {self.auth_env!r} is not set"
                )
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def complete(self, bundle: PromptBundle) -> str:
        body = json.dumps({
            "model": self.model,
            "messages": bundle.messages(),
            "max_tokens": bundle.decoding.get("max_tokens", 512),
            "temperature": bundle.decoding.get("temperature", 0.0),
        }).encode("utf-8")
        headers = self._headers()
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self._sleep(min(0.5 * 2 ** (attempt - 1), 30.0))
            self.limiter.acquire()
            try:
                status, text = self.transport(
                    self.endpoint, headers, body, self.timeout_s
                )
            except TimeoutError as exc:
                last_error = BackendTimeout(str(exc) or "request timed out")
                continue
            if status == 429:
                last_error = RateLimited("backend returned 429")
                continue
            if status >= 500:
                last_error = ParseFailure(f"backend error {status}")
                continue
            if status != 200:
                raise ParseFailure(f"backend returned {status}: {text[:200]}")
            return _parse_completion(text)
        raise last_error if last_error else ParseFailure("no attempts made")


def _parse_completion(text: str) -> str:
    try:
        data = json.loads(text)
        return data["choices"][0]["message"]["content"]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
        raise ParseFailure(f"unexpected completion shape: {text[:200]!r}") from exc


def summarize(bundle: PromptBundle, backend=None) -> str:
    """Run one bundle through a backend; None selects the offline fallback."""
    if backend is None:
        backend = FallbackBackend()
    return backend.complete(bundle)


# -- budgeted, resumable batch driver ---------------------------------------


class BatchDriver:
    """Runs prompt bundles through a backend with budget and checkpointing.

    The checkpoint is an append journal (``jsonl.Journal``): each completion
    appends one ``{"id", "summary"}`` row, so a crash never loses finished
    work, and completed ids are skipped on resume (loaded last-wins). At
    the end of a run the checkpoint is rewritten once, sorted by id.
    ``budget`` caps the number of new backend calls, making API cost
    explicit.
    """

    def __init__(self, backend=None, checkpoint_path=None,
                 budget: Optional[int] = None, log_path=None):
        self.backend = backend or FallbackBackend()
        self.checkpoint_path = checkpoint_path
        self.budget = budget
        self.log_path = log_path

    def run(self, items: Iterable[tuple[str, PromptBundle]]) -> dict[str, str]:
        done: dict[str, str] = {}
        with contextlib.ExitStack() as stack:
            journal = None
            if self.checkpoint_path:
                journal = stack.enter_context(Journal(self.checkpoint_path))
                done = {cid: row["summary"] for cid, row in journal.rows.items()}
            todo = [(cid, b) for cid, b in items if cid not in done][: self.budget]
            log_rows = []
            for cid, bundle in todo:
                summary = self.backend.complete(bundle)
                done[cid] = summary
                if journal:
                    journal.append({"id": cid, "summary": summary})
                if self.log_path:
                    log_rows.append({"id": cid, "prompt": bundle.user_text(),
                                     "response": summary})
            if journal:
                journal.compact(journal.rows.values())
        if log_rows:
            with open(self.log_path, "a", encoding="utf-8") as fh:
                fh.writelines(map(encode_row, log_rows))
        return done
