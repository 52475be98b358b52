"""Evaluation metrics for chart-model outputs.

Four scorers: relaxed accuracy (string match with a 5% numeric tolerance),
relative number-set similarity (assignment over number multisets), relative
mapping similarity precision/recall/F1 (assignment over keyed table
entries, combining key edit distance with value distance), and a corpus
BLEU-4 reference implementation for desk-scale checks.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence, Union

from .assignment import hungarian, pad_square
from .errors import LengthMismatch
from .flatten import unflatten_table
from .tables import CATEGORICAL, DataTable

EPS = 1e-9

# Embedded numbers: sign, optional digit grouping, decimals, percent suffix.
_NUMBER_RE = re.compile(
    r"[-+]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?%?|[-+]?\.\d+%?"
)


def extract_numbers(text: str) -> list[float]:
    """All numbers embedded in a string; "12%" counts as 12."""
    out = []
    for token in _NUMBER_RE.findall(text):
        token = token.rstrip("%").replace(",", "")
        try:
            out.append(float(token))
        except ValueError:  # pragma: no cover - regex should prevent this
            continue
    return out


def _to_float(text: str) -> Optional[float]:
    token = text.strip().rstrip("%").replace(",", "")
    if not re.fullmatch(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?", token):
        return None
    return float(token)


def relaxed_accuracy(pred: str, gold: str) -> int:
    """1 when numeric answers agree within 5% relative deviation.

    A gold of exactly 0 requires a prediction of 0. Non-numeric answers
    fall back to case-insensitive trimmed string equality.

    Deviates from ChartQA's exact 5% bound by a relative slack of 1e-9, so
    an answer exactly 5% off, which float rounding puts either side of the
    exact bound depending on scale, is accepted at every scale.
    """
    p = _to_float(str(pred))
    g = _to_float(str(gold))
    if p is not None and g is not None:
        if g == 0:
            return int(p == 0)
        return int(abs(p - g) <= 0.05 * abs(g) * (1 + 1e-9))
    return int(str(pred).strip().lower() == str(gold).strip().lower())


TableLike = Union[str, DataTable]


def _table_numbers(table: DataTable) -> list[float]:
    numbers = []
    for row in table.rows:
        for col, cell in zip(table.columns, row):
            if col.kind == CATEGORICAL:
                numbers.extend(extract_numbers(cell))
            else:
                numbers.append(float(cell))
    return numbers


def _numbers_of(value: TableLike) -> list[float]:
    if isinstance(value, DataTable):
        return _table_numbers(value)
    if " | " in value or " & " in value:
        try:
            return _table_numbers(unflatten_table(value))
        except Exception:
            pass
    return extract_numbers(value)


def rnss(pred: TableLike, gold: TableLike) -> float:
    """Relative number-set similarity between two tables (or table texts).

    Each pairing costs min(1, |p-g| / max(|g|, eps)); the smaller set is
    padded at sentinel cost 1, and an optimal assignment is normalized by
    the larger set size. Two empty sets are perfectly similar.
    """
    p = _numbers_of(pred)
    g = _numbers_of(gold)
    if not p and not g:
        return 1.0
    if not p or not g:
        return 0.0
    cost = [
        [min(1.0, abs(pv - gv) / max(abs(gv), EPS)) for gv in g] for pv in p
    ]
    n = max(len(p), len(g))
    _, total = hungarian(pad_square(cost, len(p), len(g), 1.0))
    return 1.0 - total / n


def levenshtein(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (ca != cb),
            )
        prev = cur
    return prev[-1]


def normalized_levenshtein(a: str, b: str) -> float:
    if not a and not b:
        return 0.0
    return levenshtein(a, b) / max(len(a), len(b))


def _normalize_key(text: str) -> str:
    return " ".join(str(text).lower().split())


@dataclass(frozen=True)
class TableEntry:
    """(row key, column key, value) decomposition of one table cell."""

    row_key: str
    col_key: str
    value: Union[str, float]

    @property
    def key(self) -> str:
        return f"{self.row_key} {self.col_key}".strip()


def table_entries(table: DataTable) -> list[TableEntry]:
    """Entries of a table: the first categorical column keys the rows."""
    cat = table.indices_of_kind(CATEGORICAL)
    key_col = cat[0] if cat else None
    entries = []
    for row in table.rows:
        row_key = _normalize_key(row[key_col]) if key_col is not None else ""
        for j, col in enumerate(table.columns):
            if j == key_col:
                continue
            value = row[j] if col.kind != CATEGORICAL else _normalize_key(row[j])
            entries.append(TableEntry(row_key, _normalize_key(col.name), value))
    return entries


def _entry_score(p: TableEntry, g: TableEntry) -> float:
    k = 1.0 - normalized_levenshtein(p.key, g.key)
    if isinstance(p.value, float) and isinstance(g.value, float):
        v = 1.0 - min(1.0, abs(p.value - g.value) / max(abs(g.value), EPS))
    else:
        v = 1.0 if p.value == g.value else 0.0
    return k * v


def _transposed(table: DataTable) -> Optional[DataTable]:
    cat = table.indices_of_kind(CATEGORICAL)
    if len(cat) != 1 or cat[0] != 0 or table.n_cols < 2 or table.n_rows == 0:
        return None
    from .tables import NUMERIC, Column

    header = [str(row[0]) for row in table.rows]
    if len(set(header)) != len(header) or any(not h for h in header):
        return None
    x_name = table.columns[0].name
    if x_name in header:
        return None
    columns = [Column(x_name, CATEGORICAL)] + [Column(h, NUMERIC) for h in header]
    rows = []
    for j in range(1, table.n_cols):
        rows.append([table.columns[j].name] + [row[j] for row in table.rows])
    try:
        return DataTable(columns, rows)
    except (ValueError, TypeError):
        return None


def _rms_once(pred_entries, gold_entries) -> tuple[float, float, float]:
    if not pred_entries and not gold_entries:
        return 1.0, 1.0, 1.0
    if not pred_entries or not gold_entries:
        return 0.0, 0.0, 0.0
    scores = [
        [_entry_score(p, g) for g in gold_entries] for p in pred_entries
    ]
    cost = [[1.0 - s for s in row] for row in scores]
    n_p, n_g = len(pred_entries), len(gold_entries)
    assign, _ = hungarian(pad_square(cost, n_p, n_g, 1.0))
    total = sum(
        scores[i][assign[i]] for i in range(n_p) if assign[i] < n_g
    )
    precision = total / n_p
    recall = total / n_g
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def rms_f1(pred: DataTable, gold: DataTable) -> tuple[float, float, float]:
    """Relative mapping similarity (precision, recall, F1) between tables.

    Entry pairs score key-similarity times value-similarity and are matched
    1:1 by an optimal assignment. The transposed prediction is also tried
    (when its shape allows) and the better F1 wins, so a table transcribed
    sideways is not punished.
    """
    gold_entries = table_entries(gold)
    best = _rms_once(table_entries(pred), gold_entries)
    flipped = _transposed(pred)
    if flipped is not None:
        alt = _rms_once(table_entries(flipped), gold_entries)
        if alt[2] > best[2]:
            best = alt
    return best


_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def bleu_tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(preds: list[str], golds: list[list[str]], max_n: int = 4) -> float:
    """Corpus BLEU-4 with add-epsilon smoothing, on a 0..100 scale.

    Tokenization lowercases and splits on whitespace and punctuation
    boundaries. Brevity penalty uses the closest reference length (ties
    toward the shorter). This is a desk-scale reference implementation;
    parity with external scorers is out of scope.
    """
    if len(preds) != len(golds):
        raise LengthMismatch(
            f"{len(preds)} predictions vs {len(golds)} reference groups"
        )
    if not preds:
        return 0.0
    matched = [0] * max_n
    guessed = [0] * max_n
    pred_len = 0
    ref_len = 0
    for pred, refs in zip(preds, golds):
        if isinstance(refs, str):
            refs = [refs]
        p_tokens = bleu_tokenize(pred)
        r_token_lists = [bleu_tokenize(r) for r in refs]
        pred_len += len(p_tokens)
        ref_len += min(
            (len(r) for r in r_token_lists),
            key=lambda n: (abs(n - len(p_tokens)), n),
        )
        for n in range(1, max_n + 1):
            p_counts = _ngram_counts(p_tokens, n)
            if not p_counts:
                continue
            max_ref = Counter()
            for r_tokens in r_token_lists:
                for gram, count in _ngram_counts(r_tokens, n).items():
                    max_ref[gram] = max(max_ref[gram], count)
            guessed[n - 1] += sum(p_counts.values())
            matched[n - 1] += sum(
                min(count, max_ref[gram]) for gram, count in p_counts.items()
            )
    if pred_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(max_n):
        precision = matched[n] / guessed[n] if guessed[n] else 0.0
        if precision == 0.0:
            precision = EPS
        log_sum += math.log(precision)
    geo_mean = math.exp(log_sum / max_n)
    bp = 1.0 if pred_len >= ref_len else math.exp(1.0 - ref_len / pred_len)
    return 100.0 * geo_mean * bp


@dataclass
class MetricReport:
    """Per-example scores plus aggregates; the eval commands' output shape."""

    per_example: list[dict] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


def score_pairs(
    pairs: list[tuple[str, str, list[str]]],
    metrics: Sequence[str] = ("ra", "rnss", "rms", "bleu"),
) -> MetricReport:
    """Score aligned (id, prediction, [references]) triples.

    "ra" and "rnss" use the first reference; "rms" parses both sides as
    flattened tables (malformed predictions score 0); "bleu" is computed
    corpus-level over all pairs.
    """
    report = MetricReport()
    sums: dict[str, float] = {}
    for cid, pred, refs in pairs:
        row: dict = {"id": cid}
        gold = refs[0]
        if "ra" in metrics:
            row["ra"] = relaxed_accuracy(pred, gold)
        if "rnss" in metrics:
            row["rnss"] = rnss(pred, gold)
        if "rms" in metrics:
            try:
                p_table = unflatten_table(pred)
                g_table = unflatten_table(gold)
                p, r, f1 = rms_f1(p_table, g_table)
            except Exception:
                p = r = f1 = 0.0
                row["rms_error"] = "unparseable table"
            row["rms_precision"], row["rms_recall"], row["rms_f1"] = p, r, f1
        report.per_example.append(row)
        for key, value in row.items():
            if isinstance(value, (int, float)):
                sums[key] = sums.get(key, 0.0) + value
    n = len(pairs)
    for key, total in sums.items():
        report.aggregate[key] = total / n if n else 0.0
    if "bleu" in metrics and pairs:
        report.aggregate["bleu"] = corpus_bleu(
            [p for _, p, _ in pairs], [refs for _, _, refs in pairs]
        )
    return report
