"""The summary-distillation prompt and a pluggable LLM backend.

One prompt shape: 1-shot table-to-summary, with the module's one exemplar
as the demonstration and the chart's column units above its flattened
table. A prompt bundle is the chart's table; its message text is worked
out from that table. The backend speaks the common HTTP JSON
chat-completions shape and is built from a config object
(``BackendClient.from_config``), which the CLI reads from the file
``--backend`` names; a deterministic rule-based fallback summarizer reads
the bundle's table and keeps every downstream consumer testable offline.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import (
    BackendTimeout,
    BackendUnreachable,
    ChartKitError,
    InvalidConfig,
    ParseFailure,
    RateLimited,
)
from .flatten import flatten_table, format_number
from .jsonl import Journal, encode_row
from .tables import CATEGORICAL, DataTable, left_sum


SUMMARY_PREAMBLE = (
    "You write short, factual summaries of data tables behind charts. "
    "Mention notable highs, lows and overall patterns. Do not invent numbers."
)

# The one demonstration, a flattened table and its summary, ahead of every
# payload in the user message.
DEMONSTRATION = (
    "Table:\nQuarter | Revenue & Q1 | 12 & Q2 | 18 & Q3 | 9\n"
    "Summary:\nRevenue peaked at 18 in Q2 before falling to a low of 9 in Q3, "
    "ending below the 12 recorded in Q1.\n\n"
)


@dataclass(frozen=True)
class PromptBundle:
    """A 1-shot prompt for one chart's table: ``SUMMARY_PREAMBLE`` as the
    system message, then ``DEMONSTRATION`` and the payload, worked out
    from the table, as the user message."""

    table: DataTable

    @property
    def target_payload(self) -> str:
        """The column units, the flattened table and ``Summary:``; the units
        are repeated so the model sees the same context a reader would."""
        lines = [f"Unit of {c.name}: {c.unit}" for c in self.table.columns if c.unit]
        lines.append(f"Table:\n{flatten_table(self.table)}")
        lines.append("Summary:")
        return "\n".join(lines)

    def user_text(self) -> str:
        return DEMONSTRATION + self.target_payload

    def messages(self) -> list[dict]:
        return [
            {"role": "system", "content": SUMMARY_PREAMBLE},
            {"role": "user", "content": self.user_text()},
        ]


def build_table_summary_prompt(table: DataTable) -> PromptBundle:
    """1-shot prompt asking for a summary of a table."""
    return PromptBundle(table)


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
        mean = left_sum(c[0] for c in cells) / len(cells)
        nearest = min(cells, key=lambda c: (abs(c[0] - mean), c[1]))
        sentences.append(f"Overall, {nearest[1]} comes closest to the average.")
    return " ".join(sentences)


class FallbackBackend:
    """Offline summarizer: ``fallback_summary`` of the bundle's table.

    Never touches the network; downstream pipelines run unchanged against
    it.
    """

    def complete(self, bundle: PromptBundle) -> str:
        return fallback_summary(bundle.table)


# -- HTTP backend ----------------------------------------------------------

Transport = Callable[[str, dict, bytes, float], tuple[int, str]]


def default_transport(url: str, headers: dict, body: bytes, timeout: float):
    # Imported here, not at the top: they load ``email`` and ``ssl``, which
    # only a run that sends a request needs.
    import urllib.error
    import urllib.request

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
    """Spaces one caller's request starts to respect a requests-per-minute
    cap. Distill sends its requests one at a time, so nothing is locked."""

    def __init__(self, rpm: float, sleep=time.sleep):
        self.interval = 60.0 / rpm if rpm > 0 else 0.0
        self._sleep = sleep
        self._next_at = 0.0

    def acquire(self):
        if self.interval <= 0:
            return
        now = time.monotonic()
        wait = self._next_at - now
        self._next_at = max(now, self._next_at) + self.interval
        if wait > 0:
            self._sleep(wait)


class BackendClient:
    """Chat-completions HTTP client with retries and a rate cap.

    A request that times out or cannot reach the endpoint (an ``OSError``
    from the transport), a malformed reply (one that is not HTTP, or a body
    that is not UTF-8) and a 429 or 5xx reply are failed attempts, retried
    up to ``max_retries`` times; the last one's error is raised.

    The auth token is read from the environment variable named in the
    config at request time and is never serialized or logged.
    """

    def __init__(self, endpoint: str, model: str, auth_env: str = "",
                 rpm: float = 60.0, timeout_s: float = 30.0,
                 max_retries: int = 3, transport: Optional[Transport] = None,
                 sleep=time.sleep):
        self.endpoint = endpoint
        self.model = model
        self.auth_env = auth_env
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.transport = transport or default_transport
        self._sleep = sleep
        self.limiter = RateLimiter(rpm, sleep=sleep)

    @classmethod
    def from_config(cls, config: dict, transport: Optional[Transport] = None,
                    sleep=time.sleep) -> "BackendClient":
        try:
            endpoint, model = config["endpoint"], config["model"]
        except KeyError as exc:
            raise InvalidConfig(f"backend config missing {exc}") from exc
        if not (isinstance(endpoint, str)
                and endpoint.startswith(("http://", "https://"))):
            raise InvalidConfig(
                f"backend config 'endpoint' must be an http:// or https:// URL, "
                f"not {endpoint!r}"
            )
        if not (isinstance(model, str) and model):
            raise InvalidConfig(
                f"backend config 'model' must be a non-empty string, not {model!r}"
            )
        auth_env = config.get("auth_env", "")
        if not isinstance(auth_env, str):
            raise InvalidConfig(
                f"backend config 'auth_env' must be a string, not {auth_env!r}"
            )
        return cls(
            endpoint=endpoint,
            model=model,
            auth_env=auth_env,
            rpm=_config_number(config, "rpm", 60.0),
            timeout_s=_config_number(config, "timeout_s", 30.0, positive=True),
            max_retries=_config_number(config, "max_retries", 3, integer=True),
            transport=transport,
            sleep=sleep,
        )

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
        import http.client  # as in ``default_transport``

        body = json.dumps({
            "model": self.model,
            "messages": bundle.messages(),
            "max_tokens": 512,
            "temperature": 0.0,
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
            except OSError as exc:  # refused, reset, no route: worth a retry
                last_error = BackendUnreachable(
                    f"{self.endpoint}: cannot reach the backend: {_reason(exc)}"
                )
                continue
            except (http.client.HTTPException, UnicodeDecodeError) as exc:
                last_error = ParseFailure(
                    f"{self.endpoint}: malformed reply from the backend: "
                    f"{type(exc).__name__}"
                )
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


def _config_number(config: dict, key: str, default, *, integer=False,
                   positive=False):
    """``config[key]``, or ``default`` when it is absent: a finite JSON
    number that is not a bool, an integer where ``integer``, above 0 where
    ``positive`` and at least 0 otherwise. Anything else is
    ``InvalidConfig`` naming the key."""
    value = config.get(key, default)
    try:
        ok = (isinstance(value, int if integer else (int, float))
              and not isinstance(value, bool)
              and math.isfinite(value)
              and (value > 0 if positive else value >= 0))
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        what = "an integer" if integer else "a finite number"
        bound = "> 0" if positive else ">= 0"
        raise InvalidConfig(f"backend config {key!r} must be {what} {bound}, not {value!r}")
    return value


def _reason(exc: OSError) -> str:
    """What went wrong with a request, from the error it raised."""
    reason = getattr(exc, "reason", exc)  # a URLError wraps the socket error
    return getattr(reason, "strerror", None) or str(reason) or type(reason).__name__


def _parse_completion(text: str) -> str:
    try:
        data = json.loads(text)
        return data["choices"][0]["message"]["content"]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
        raise ParseFailure(f"unexpected completion shape: {text[:200]!r}") from exc


# -- budgeted, resumable batch driver ---------------------------------------


class BatchDriver:
    """Runs prompt bundles through a backend with budget and checkpointing.

    The checkpoint is an append journal (``jsonl.Journal``): each completion
    appends one ``{"id", "summary"}`` row, so a crash never loses finished
    work, and completed ids are skipped on resume (loaded last-wins). At
    the end of a run the checkpoint is rewritten once, sorted by id.
    ``budget`` caps the number of new backend calls, making API cost
    explicit. A call that raises a ``ChartKitError`` other than
    ``InvalidConfig`` is data: the run records ``{"id", "error"}`` in
    ``failures`` and goes on, and the id stays out of the checkpoint, so a
    rerun retries it. Any other error aborts the run.
    """

    def __init__(self, backend=None, checkpoint_path=None,
                 budget: Optional[int] = None, log_path=None):
        if budget is not None and budget < 0:
            raise InvalidConfig(f"budget must be >= 0, not {budget}")
        self.backend = backend or FallbackBackend()
        self.checkpoint_path = checkpoint_path
        self.budget = budget
        self.log_path = log_path
        self.failures: list[dict] = []

    def run(self, items: Iterable[tuple[str, PromptBundle]]) -> dict[str, str]:
        """Every finished id's summary; this run's failures go to ``failures``.

        ``items`` is read one at a time, as the calls reach it, up to the
        budget's last new call; each ``log_path`` audit row is appended
        when its summary comes back.
        """
        done: dict[str, str] = {}
        self.failures = []
        with contextlib.ExitStack() as stack:
            journal = log = None
            if self.checkpoint_path:
                journal = stack.enter_context(Journal(self.checkpoint_path))
                done = {cid: row["summary"] for cid, row in journal.rows.items()}
            todo = ((cid, b) for cid, b in items if cid not in done)
            for cid, bundle in itertools.islice(todo, self.budget):
                try:
                    summary = self.backend.complete(bundle)
                except InvalidConfig:
                    raise  # the same for every item
                except ChartKitError as exc:
                    self.failures.append({"id": cid, "error": str(exc)})
                    continue
                done[cid] = summary
                if journal:
                    journal.append({"id": cid, "summary": summary})
                if self.log_path:
                    if log is None:
                        log = stack.enter_context(
                            open(self.log_path, "a", encoding="utf-8"))
                    log.write(encode_row({"id": cid, "prompt": bundle.user_text(),
                                          "response": summary}))
            if journal:
                journal.compact(journal.rows.values())
        return done
