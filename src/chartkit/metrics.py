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

from .assignment import hungarian
from .errors import ChartKitError, InvalidConfig, LengthMismatch
from .flatten import unflatten_table
from .tables import CATEGORICAL, EXP_NUMBER_RE, DataTable

EPS = 1e-9

# Embedded numbers: sign, optional digit grouping, decimals, percent suffix.
_NUMBER_RE = re.compile(
    r"[-+]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?%?|[-+]?\.\d+%?"
)


def extract_numbers(text: str) -> list[float]:
    """All numbers embedded in a string; "12%" counts as 12. A number too
    large for a float is left out."""
    out = []
    for token in _NUMBER_RE.findall(text):
        token = token.rstrip("%").replace(",", "")
        try:
            value = float(token)
        except ValueError:  # pragma: no cover - regex should prevent this
            continue
        if math.isfinite(value):
            out.append(value)
    return out


def _to_float(text: str) -> Optional[float]:
    token = text.strip().rstrip("%").replace(",", "")
    if not EXP_NUMBER_RE.fullmatch(token):
        return None
    value = float(token)
    return value if math.isfinite(value) else None


def relaxed_accuracy(pred: str, gold: str) -> int:
    """1 when numeric answers agree within 5% relative deviation.

    A gold of exactly 0 requires a prediction of 0. Non-numeric answers,
    and numbers too large for a float, fall back to case-insensitive
    trimmed string equality.

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


# A table, its text, or the numbers already read out of one.
TableLike = Union[str, DataTable, list]


def _table_numbers(table: DataTable) -> list[float]:
    numbers = []
    for row in table.rows:
        for col, cell in zip(table.columns, row):
            if col.kind == CATEGORICAL:
                numbers.extend(extract_numbers(cell))
            else:
                numbers.append(float(cell))
    return numbers


def _is_flat(text: str) -> bool:
    """Whether ``rnss`` reads ``text`` as a flattened table, if it parses."""
    return " | " in text or " & " in text


def _numbers_of(value: TableLike) -> list[float]:
    if isinstance(value, list):
        return value
    if isinstance(value, DataTable):
        return _table_numbers(value)
    if _is_flat(value):
        try:
            return _table_numbers(unflatten_table(value))
        except ChartKitError:
            pass
    return extract_numbers(value)


def rnss(pred: TableLike, gold: TableLike) -> float:
    """Relative number-set similarity between two tables (or table texts,
    or the numbers already read out of them).

    RNSS of ChartQA (Masry et al. 2022). With P and G the numbers of the
    prediction and the gold and D(p, g) = min(1, |p - g| / max(|g|, eps)),

        RNSS = 1 - min over 1:1 matchings X of sum X_pg D(p, g) / max(|P|, |G|)

    where every number of the larger set left unmatched costs 1 (the
    smaller set is padded at sentinel cost 1). Two empty sets score 1, one
    empty set 0. Where this may differ from ChartQA's definition: the cost
    of an unmatched number, the eps floor that defines D for a gold 0, the
    numbers read out of text cells (and out of plain text, when a side is
    not a flattened table), which all count, and a number too large for a
    float, which does not count (so two identical texts whose one number
    overflows score 1, not 0).
    """
    p = _numbers_of(pred)
    g = _numbers_of(gold)
    if not p and not g:
        return 1.0
    if not p or not g:
        return 0.0
    # The cost matrix padded square at cost 1, a row at a time.
    n = max(len(p), len(g))
    pad = [1.0] * (n - len(g))
    cost = [
        [min(1.0, abs(pv - gv) / max(abs(gv), EPS)) for gv in g] + pad for pv in p
    ]
    cost += [[1.0] * n for _ in range(n - len(p))]
    _, total = hungarian(cost)
    return 1.0 - total / n


def _pack_keys(keys: Sequence[str]) -> tuple[dict[str, int], int, int, list[int]]:
    """Lay ``keys`` out in one bit-vector, one bit per character.

    Each key is followed by one guard bit that belongs to no key. Returns
    ``(peq, mask, firsts, segs)``: ``peq[c]`` has a bit set wherever a key
    holds ``c``, ``mask`` covers every key bit (guards excluded),
    ``firsts`` holds the first bit of each non-empty key and ``segs[k]``
    covers the bits of ``keys[k]`` (0 for an empty key).
    """
    peq: dict[str, int] = {}
    segs = []
    bit = 1
    for key in keys:
        start = bit
        for c in key:
            peq[c] = peq.get(c, 0) | bit
            bit <<= 1
        segs.append(bit - start)
        bit <<= 1  # the guard
    mask = sum(segs)
    return peq, mask, mask & ~(mask << 1), segs


def _levenshtein_walk(packed, texts) -> dict[str, list[int]]:
    """Exact unit-cost edit distance from every packed key to each text.

    Returns ``{text: [distance to each key]}``. Bit-parallel: the global
    form (Hyyrö 2003) of Myers' algorithm (JACM 1999), run on all keys at
    once as in Hyyrö, Fredriksson and Navarro, "Increased bit-parallelism
    for approximate and multiple string matching" (ACM JEA 2005). Column
    ``j`` of every key's DP matrix is held as two bit-vectors of its
    vertical +1 and -1 deltas and is advanced one character of a text at a
    time. No carry of the addition crosses a guard, since both addends are
    0 there. Python ints make the vectors as long as the keys, so any
    length is exact.

    The column after a prefix of a text depends only on that prefix, so
    the texts are walked in sorted order and each resumes from the column
    at its common prefix with the text before it: ``states[i]`` is the
    column after the first ``i`` characters of the previous text.
    """
    peq, mask, firsts, segs = packed
    states = [(mask, 0)]
    prev = ""
    out = {}
    for b in sorted(set(texts)):
        k = 0
        for x, y in zip(prev, b):
            if x != y:
                break
            k += 1
        del states[k + 1 :]
        pv, mv = states[k]
        for c in b[k:]:
            eq = peq.get(c, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            # Row 0 of each key's matrix rises by 1 per column: shift in a
            # +1 at each key's first bit. A key's last bit shifts onto its
            # guard, where ``& mask`` and ``xv`` (0 on guards) drop it; a
            # guard's bit shifts onto the next key's first bit, which the
            # +1 sets anyway.
            ph = (ph << 1) | firsts
            mh <<= 1
            pv = (mh | ~(xv | ph)) & mask
            mv = ph & xv
            states.append((pv, mv))
        prev = b
        # The last column: row 0 holds len(b), plus each key's vertical deltas.
        n = len(b)
        out[b] = [n + (pv & seg).bit_count() - (mv & seg).bit_count() for seg in segs]
    return out


def levenshtein(a: str, b: str) -> int:
    """Exact unit-cost edit distance between two strings, over code points:
    the one-key, one-text case of ``_levenshtein_walk``."""
    return _levenshtein_walk(_pack_keys([a]), (b,))[b][0]


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


def _value_rows(gold_entries):
    """A function from a prediction value to its value similarity with
    every gold value, computing each distinct value's row once.

    A number p against a number g scores 1 - min(1, |p - g| / max(|g|,
    eps)), written ``1.0 - d if d < 1.0 else 0.0`` (the same float); every
    other pair scores 1 when equal and 0 otherwise. Cells are ``float`` or
    ``str`` only (``DataTable`` coerces them), so a row is keyed by the
    value itself: 0.0 and -0.0 share a key, and give the same row.
    """
    gold = [g.value for g in gold_entries]
    scales = [max(abs(g), EPS) if isinstance(g, float) else None for g in gold]
    rows: dict = {}

    def row_of(p):
        row = rows.get(p)
        if row is None:
            if isinstance(p, float):
                row = []
                for g, scale in zip(gold, scales):
                    if scale is None:
                        row.append(0.0)
                    else:
                        d = abs(p - g) / scale
                        row.append(1.0 - d if d < 1.0 else 0.0)
            else:
                row = [1.0 if p == g else 0.0 for g in gold]
            rows[p] = row
        return row

    return row_of


def _rms_once(
    pred_entries, gold_entries, gold_keys, value_row
) -> tuple[float, float, float]:
    """RMS of one orientation; ``gold_keys`` is ``_pack_keys`` of the gold
    keys and ``value_row`` is ``_value_rows`` of the gold entries."""
    if not pred_entries and not gold_entries:
        return 1.0, 1.0, 1.0
    if not pred_entries or not gold_entries:
        return 0.0, 0.0, 0.0
    gold_lens = [len(g.key) for g in gold_entries]
    rows = [value_row(p.value) for p in pred_entries]
    # A value similarity of 0 zeroes the product whatever the key
    # similarity in [0, 1] is, so an all-zero row needs no key pass.
    distances = _levenshtein_walk(
        gold_keys, [p.key for p, row in zip(pred_entries, rows) if any(row)]
    )
    n_p, n_g = len(pred_entries), len(gold_entries)
    n = max(n_p, n_g)
    pad = [1.0] * (n - n_g)
    # The cost matrix 1 - score, padded square at cost 1, a row at a time.
    scores = []
    cost = []
    for p, values in zip(pred_entries, rows):
        # Two empty keys are at distance 0: max(..., 1) gives them a key
        # similarity of 1.
        if any(values):
            lp = len(p.key)
            values = [
                (1.0 - d / max(lp, lg, 1)) * v
                for d, lg, v in zip(distances[p.key], gold_lens, values)
            ]
        scores.append(values)
        cost.append([1.0 - s for s in values] + pad)
    cost += [[1.0] * n for _ in range(n - n_p)]
    assign, _ = hungarian(cost)
    total = sum(
        scores[i][assign[i]] for i in range(n_p) if assign[i] < n_g
    )
    precision = total / n_p
    recall = total / n_g
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def rms_f1(pred: DataTable, gold: DataTable) -> tuple[float, float, float]:
    """Relative mapping similarity (precision, recall, F1) between tables.

    RMS of DePlot (Liu et al. 2023). A table is the set of its entries
    (``table_entries``): key = row key + column key, lowercased with
    whitespace collapsed, and a value. Two entries score

        s(p, g) = (1 - NL(p.key, g.key))
                  * (1 - min(1, |p.v - g.v| / max(|g.v|, eps)))

    with NL the edit distance over the longer key's length (0 for two
    empty keys); a text value scores 1 when equal and 0 otherwise. With S
    the sum of s over an optimal 1:1 matching, precision = S / |pred|,
    recall = S / |gold| and F1 their harmonic mean. The transposed
    prediction is also tried (when its shape allows) and the better F1
    wins, so a table transcribed sideways is not punished.

    Where this may differ from DePlot's definition: no threshold is
    applied to either distance (a key or value distance is never rounded
    up to 1), text values are compared by equality, keys are normalized as
    above, and the transposed retry is this implementation's.
    """
    gold_entries = table_entries(gold)
    gold_keys = _pack_keys([g.key for g in gold_entries])
    # Both tries carry the same prediction values, so they share the rows.
    value_row = _value_rows(gold_entries)
    best = _rms_once(table_entries(pred), gold_entries, gold_keys, value_row)
    flipped = _transposed(pred)
    if flipped is not None:
        alt = _rms_once(table_entries(flipped), gold_entries, gold_keys, value_row)
        if alt[2] > best[2]:
            best = alt
    return best


_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
_BLEU_N = 4  # the longest n-gram BLEU counts


def bleu_tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def corpus_bleu(preds: list[str], golds: list[list[str]]) -> float:
    """Corpus BLEU-4 on a 0..100 scale (Papineni et al. 2002).

    Each prediction n-gram count is clipped by its maximum count in any one
    reference, and the clipped counts and the prediction n-grams are summed
    over the corpus before the modified precisions are taken, as in
    Papineni et al. Where this deviates from them:

    - add-epsilon smoothing: a modified precision of 0, or of an order with
      no prediction n-gram in the corpus, counts as 1e-9, so a corpus with
      no 4-gram match scores near 0 but not 0;
    - the brevity penalty takes each prediction's closest reference length,
      a tie going to the shorter reference;
    - tokens are what ``bleu_tokenize`` finds: the runs of ``\\w+`` and the
      single ``[^\\w\\s]`` characters of the lowercased text.

    A reference group may be one string. An empty reference group raises
    ``InvalidConfig`` naming it. This is a desk-scale reference
    implementation; parity with external scorers is out of scope.
    """
    if len(preds) != len(golds):
        raise LengthMismatch(
            f"{len(preds)} predictions vs {len(golds)} reference groups"
        )
    if not preds:
        return 0.0
    matched = [0] * _BLEU_N
    guessed = [0] * _BLEU_N
    pred_len = 0
    ref_len = 0
    for i, (pred, refs) in enumerate(zip(preds, golds)):
        if isinstance(refs, str):
            refs = [refs]
        if not refs:
            raise InvalidConfig(f"reference group {i} is empty")
        p_tokens = bleu_tokenize(pred)
        r_token_lists = [bleu_tokenize(r) for r in refs]
        pred_len += len(p_tokens)
        ref_len += min(
            (len(r) for r in r_token_lists),
            key=lambda n: (abs(n - len(p_tokens)), n),
        )
        for n in range(1, min(_BLEU_N, len(p_tokens)) + 1):
            p_counts = _ngram_counts(p_tokens, n)
            ref_counts = _ngram_counts(r_token_lists[0], n)
            for r_tokens in r_token_lists[1:]:
                ref_counts |= _ngram_counts(r_tokens, n)
            guessed[n - 1] += len(p_tokens) - n + 1
            matched[n - 1] += sum(
                min(c, ref_counts.get(g, 0)) for g, c in p_counts.items()
            )
    if pred_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(_BLEU_N):
        precision = matched[n] / guessed[n] if guessed[n] else 0.0
        if precision == 0.0:
            precision = EPS
        log_sum += math.log(precision)
    geo_mean = math.exp(log_sum / _BLEU_N)
    bp = 1.0 if pred_len >= ref_len else math.exp(1.0 - ref_len / pred_len)
    return 100.0 * geo_mean * bp


@dataclass
class MetricReport:
    """Per-example scores plus aggregates; the eval commands' output shape."""

    per_example: list[dict] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


METRIC_NAMES = ("ra", "rnss", "rms", "bleu")


def _parse_side(text: str, for_rms: bool) -> tuple[TableLike, Optional[DataTable]]:
    """One side of a pair, unflattened at most once for both table metrics.

    Returns ``(what rnss reads, the parsed table or None)``. ``rnss`` reads
    what it would read itself: the table of ``_is_flat`` text that parses,
    and otherwise the numbers in the text. Text that is not flat is parsed
    only ``for_rms``, which parses every side.
    """
    flat = _is_flat(text)
    table = None
    if flat or for_rms:
        try:
            table = unflatten_table(text)
        except ChartKitError:
            pass
    return (table if flat and table is not None else extract_numbers(text)), table


def score_pairs(
    pairs: list[tuple[str, str, list[str]]],
    metrics: Sequence[str] = METRIC_NAMES,
) -> MetricReport:
    """Score aligned (id, prediction, [references]) triples.

    Every pair needs at least one reference (``InvalidConfig``). "ra" and
    "rnss" use the first reference; "rms" parses both sides as
    flattened tables (malformed predictions score 0); "bleu" is computed
    corpus-level over all pairs. ``metrics`` must name at least one of
    ``METRIC_NAMES`` and nothing else (``InvalidConfig``).
    """
    if not metrics or any(m not in METRIC_NAMES for m in metrics):
        raise InvalidConfig(
            f"metrics must be one or more of {','.join(METRIC_NAMES)}, not {list(metrics)!r}"
        )
    want_rnss, want_rms = "rnss" in metrics, "rms" in metrics
    report = MetricReport()
    sums: dict[str, float] = {}
    for cid, pred, refs in pairs:
        if not refs:
            raise InvalidConfig(f"pair {cid!r} has no reference")
        row: dict = {"id": cid}
        gold = refs[0]
        if "ra" in metrics:
            row["ra"] = relaxed_accuracy(pred, gold)
        if want_rnss or want_rms:
            (p_rnss, p_table), (g_rnss, g_table) = (
                _parse_side(pred, want_rms), _parse_side(gold, want_rms)
            )
        if want_rnss:
            row["rnss"] = rnss(p_rnss, g_rnss)
        if want_rms:
            if p_table is None or g_table is None:
                p = r = f1 = 0.0
                row["rms_error"] = "unparseable table"
            else:
                p, r, f1 = rms_f1(p_table, g_table)
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
