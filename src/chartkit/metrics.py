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
from typing import Iterator, Optional, Sequence, Union

from .assignment import MARGIN, hungarian, unique_optimum
from .errors import ChartKitError, InvalidConfig, LengthMismatch
from .flatten import unflatten_table
from .tables import CATEGORICAL, EXP_NUMBER_RE, DataTable, left_sum

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
        value = float(token.rstrip("%").replace(",", ""))
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


def _numbers_of(value: TableLike) -> list[float]:
    if isinstance(value, str):
        value = _parse_side(value, False)[0]
    if isinstance(value, DataTable):
        return _table_numbers(value)
    return value


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

    Two finite lists that are the same multiset (a copy, or a copy read in
    another order, such as a transposed table) score 1.0 without an
    assignment: pairing each number with its equal costs an exact 0 (0.0
    against -0.0 included), so the full path's total is 0.0 too.
    """
    p = _numbers_of(pred)
    g = _numbers_of(gold)
    if not p and not g:
        return 1.0
    if not p or not g:
        return 0.0
    # The sum is not finite when a number is inf or nan, whose cost is 1.
    if len(p) == len(g) and sorted(p) == sorted(g) and math.isfinite(sum(g)):
        return 1.0
    scales = [max(abs(gv), EPS) for gv in g]
    # ``d if d < 1.0 else 1.0`` is min(1.0, d), a NaN included.
    cost = [[d if (d := abs(pv - gv) / s) < 1.0 else 1.0 for gv, s in zip(g, scales)]
            for pv in p]
    _, total = _assign(cost, len(g))
    return 1.0 - total / max(len(p), len(g))


def _assign(
    cost: list[list[float]], n_cols: int, fill: float = 1.0
) -> tuple[list[Optional[int]], float]:
    """Optimal assignment of a rectangular cost matrix padded at ``fill``
    up to a square: ``(the column of each row, or None, and the padded
    total)``.

    ``hungarian`` runs on the padded square only when ``unique_optimum``
    cannot name the optimum. The total is summed as ``hungarian`` sums it,
    in row order over the padded square, so it is the same float either way.
    """
    n_rows = len(cost)
    n = max(n_rows, n_cols)
    assign = unique_optimum(cost, n_cols)
    if assign is None:
        pad = [fill] * (n - n_cols)
        square = [row + pad for row in cost] + [[fill] * n for _ in range(n - n_rows)]
        full, total = hungarian(square)
        return [j if j < n_cols else None for j in full[:n_rows]], total
    total = left_sum(
        [0.0]  # as hungarian's total, a float when the square is empty
        + [fill if j is None else row[j] for row, j in zip(cost, assign)]
        + [fill] * (n - n_rows)
    )
    return assign, total


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


def _levenshtein_walk(packed, texts) -> Iterator[tuple[str, list[int]]]:
    """Exact unit-cost edit distance from every packed key to each text.

    Yields ``(text, [distance to each key])`` once per distinct text, in
    sorted order, as soon as that text is walked, so a caller that stops
    iterating walks no further text. Bit-parallel: the global form (Hyyrö
    2003) of Myers' algorithm (JACM 1999), run on all keys at once as in
    Hyyrö, Fredriksson and Navarro, "Increased bit-parallelism for
    approximate and multiple string matching" (ACM JEA 2005). Column ``j``
    of every key's DP matrix is held as two bit-vectors of its vertical +1
    and -1 deltas and is advanced one character of a text at a time. No
    carry of the addition crosses a guard, since both addends are 0 there.
    Python ints make the vectors as long as the keys, so any length is
    exact.

    The column after a prefix of a text depends only on that prefix, so
    the texts are walked in sorted order and each resumes from the column
    at its common prefix with the text before it: ``states[i]`` is the
    column after the first ``i`` characters of the previous text.
    """
    peq, mask, firsts, segs = packed
    states = [(mask, 0)]
    prev = ""
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
        yield b, [n + (pv & seg).bit_count() - (mv & seg).bit_count() for seg in segs]


def levenshtein(a: str, b: str) -> int:
    """Exact unit-cost edit distance between two strings, over code points:
    the one-key, one-text case of ``_levenshtein_walk``."""
    return next(_levenshtein_walk(_pack_keys([a]), (b,)))[1][0]


def _normalize_key(text: str) -> str:
    return " ".join(str(text).lower().split())


def table_entries(table: DataTable) -> list[tuple[str, Union[str, float]]]:
    """The ``(key, value)`` entries of a table, row by row: the first
    categorical column keys the rows, and an entry's key is its row key, a
    space and its column name, both normalized, then stripped (so a table
    without a categorical column has bare column names as keys)."""
    cat = table.indices_of_kind(CATEGORICAL)
    key_col = cat[0] if cat else None
    names = [_normalize_key(col.name) for col in table.columns]
    entries = []
    for row in table.rows:
        row_key = _normalize_key(row[key_col]) if key_col is not None else ""
        for j, col in enumerate(table.columns):
            if j == key_col:
                continue
            value = row[j] if col.kind != CATEGORICAL else _normalize_key(row[j])
            entries.append((f"{row_key} {names[j]}".strip(), value))
    return entries


def _transposed_entries(table: DataTable) -> Optional[list[tuple[str, float]]]:
    """The entries of ``table`` read sideways, as ``table_entries`` would
    give them for its transpose: each value column in turn, then each row,
    keyed by the column name and the row's x label. None when the table
    has no transpose: when its one categorical column is not first or not
    alone, when it has no value column or no row, and when an x label is
    empty, repeated or the x column's name.
    """
    if table.indices_of_kind(CATEGORICAL) != [0] or table.n_cols < 2 or not table.rows:
        return None
    labels = [row[0] for row in table.rows]
    if len(set(labels)) != len(labels) or "" in labels or table.columns[0].name in labels:
        return None
    xs = [_normalize_key(x) for x in labels]
    entries = []
    for j in range(1, table.n_cols):
        name = _normalize_key(table.columns[j].name)
        entries.extend((f"{name} {x}".strip(), row[j]) for x, row in zip(xs, table.rows))
    return entries


def _value_rows(pred_values, gold_values) -> dict:
    """The value similarity of each distinct prediction value with every
    gold value, as ``{value: row}``.

    A number p against a number g scores 1 - min(1, |p - g| / max(|g|,
    eps)), written ``1.0 - d if d < 1.0 else 0.0`` (the same float); every
    other pair scores 1 when equal and 0 otherwise. A text gold value is
    read as ``(nan, 1.0)``: its d is NaN, which scores 0.0. Cells are
    ``float`` or ``str`` only (``DataTable`` coerces them), so a row is
    keyed by the value itself: 0.0 and -0.0 share a key, and give the same
    row.
    """
    golds = [(g, max(abs(g), EPS)) if isinstance(g, float) else (math.nan, 1.0)
             for g in gold_values]
    rows: dict = {}
    for p in pred_values:
        if p in rows:
            continue
        if isinstance(p, float):
            rows[p] = [1.0 - d if (d := abs(p - g) / s) < 1.0 else 0.0 for g, s in golds]
        else:
            rows[p] = [1.0 if p == g else 0.0 for g in gold_values]
    return rows


def _score_rows(pred_entries, gold_keys, gold_lens, value_rows, f1=None):
    """s(p, g) of every prediction entry against every gold entry, one row
    per prediction entry: ``gold_keys`` is ``_pack_keys`` of the gold keys,
    ``gold_lens`` their lengths and ``value_rows`` is ``_value_rows`` of
    the prediction and gold values.

    Given an ``f1`` to beat, returns None as soon as the rows cannot beat
    it. The bound is ``_cannot_beat``'s sum of row maxima, with each row
    not yet scored counted at the maximum of its value row, which no score
    of the row exceeds (a score is its value similarity times a key
    similarity of at most 1). Float addition is monotone, so this sum is
    never below the full rows' one, and every try dropped here is one
    ``_cannot_beat`` drops too.
    """
    rows = [None] * len(pred_entries)
    at: dict[str, list[int]] = {}
    for i, (key, _) in enumerate(pred_entries):
        at.setdefault(key, []).append(i)
    if f1 is not None:
        n = len(pred_entries) + len(gold_lens)
        caps = [max(value_rows[value]) for _, value in pred_entries]
        if _loses(left_sum(caps), n, f1):
            return None
    scales = {}
    for key, distances in _levenshtein_walk(gold_keys, at):
        scale = scales.get(len(key))
        if scale is None:
            # Two empty keys are at distance 0: max(..., 1) gives them a
            # key similarity of 1.
            scale = scales[len(key)] = [max(len(key), lg, 1) for lg in gold_lens]
        for i in at[key]:
            rows[i] = [(1.0 - d / m) * v
                       for d, m, v in zip(distances, scale, value_rows[pred_entries[i][1]])]
            if f1 is not None:
                caps[i] = max(rows[i])
        if f1 is not None and _loses(left_sum(caps), n, f1):
            return None
    return rows


def _prf(total, n_p, n_g) -> tuple[float, float, float]:
    """Precision, recall and F1 of a matched total over ``n_p`` prediction
    and ``n_g`` gold entries."""
    precision = total / n_p
    recall = total / n_g
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def _rms_once(scores, n_g) -> tuple[float, float, float]:
    """RMS of one orientation from its score rows, one per prediction
    entry with ``n_g`` scores each (neither side empty)."""
    # The cost is -s, padded at 0: 1 - s would round two scores below 0.5
    # that differ in their last bits to one cost, and the solver could
    # then keep the smaller score.
    assign, _ = _assign([[-s for s in row] for row in scores], n_g, 0.0)
    total = left_sum(scores[i][j] for i, j in enumerate(assign) if j is not None)
    return _prf(total, len(scores), n_g)


def _clear_max(line) -> Optional[int]:
    """The index of the largest value of ``line`` (no NaN) when it beats
    every other value by more than ``MARGIN``, else None."""
    top = max(line)
    j = line.index(top)
    rest = line[:j] + line[j + 1 :]
    return j if not rest or top - max(rest) > MARGIN else None


def _certified(pred_entries, keys, packed, gold_lens, value_rows, rows) -> Optional[float]:
    """The matched total of the straight try when ``unique_optimum`` is
    known to name its optimum, else None. ``keys`` are the gold keys,
    ``packed``, ``gold_lens`` and ``value_rows`` as for ``_score_rows``;
    each score row built here is put in ``rows``, at its entry's index.

    No score exceeds its value similarity v (a key similarity is at most
    1), and a score whose two keys are equal is v itself. So a line of the
    smaller side whose v has a clear maximum (``_clear_max``) on a cell of
    equal keys passes ``unique_optimum``'s test on the scores with that
    cell: the other scores lie at or below their v, and float subtraction
    is monotone. With no more prediction entries than gold ones, each row
    that does not pass so is scored (``_score_rows`` walks its key alone)
    and put to that test itself; with more, every column must pass on v.
    """
    n_p, n_g = len(pred_entries), len(keys)
    # The line of each row: its v, or its scores once it is scored.
    lines = [value_rows[value] for _, value in pred_entries]
    if n_p > n_g:
        rows_of = {}
        for j, column in enumerate(zip(*lines)):
            i = _clear_max(column)
            if i is None or pred_entries[i][0] != keys[j] or i in rows_of:
                return None
            rows_of[i] = j
        return left_sum(lines[i][rows_of[i]] for i in sorted(rows_of))
    tops = {value: _clear_max(row) for value, row in value_rows.items()}
    picks = [tops[value] for _, value in pred_entries]
    todo = [i for i, (key, _) in enumerate(pred_entries)
            if picks[i] is None or keys[picks[i]] != key]
    if todo:
        scored = _score_rows([pred_entries[i] for i in todo], packed, gold_lens, value_rows)
        for i, row in zip(todo, scored):
            rows[i] = lines[i] = row
        found = unique_optimum([[-s for s in row] for row in scored], n_g)
        if found is None:
            return None
        for i, j in zip(todo, found):
            picks[i] = j
    if len(set(picks)) < n_p:
        return None
    return left_sum(line[j] for line, j in zip(lines, picks))


def _loses(bound, n, f1) -> bool:
    """Whether an F1 of at most 2 * ``bound`` / ``n`` lies more than
    ``MARGIN`` below ``f1``; ``MARGIN`` covers the rounding of the F1
    actually computed."""
    return 2 * bound / n < f1 - MARGIN


def _cannot_beat(scores, n_g, f1) -> bool:
    """Whether no assignment over ``scores`` reaches an F1 above ``f1``.

    F1 is 2T / (n_p + n_g) for a matched total T, which is at most the sum
    of the row maxima and at most the sum of the column maxima.
    """
    bound = min(left_sum(map(max, scores)), left_sum(map(max, zip(*scores))))
    return _loses(bound, len(scores) + n_g, f1)


def rms_f1(pred: DataTable, gold: DataTable) -> tuple[float, float, float]:
    """Relative mapping similarity (precision, recall, F1) between tables.

    RMS of DePlot (Liu et al. 2023). A table is the set of its ``(key,
    value)`` entries (``table_entries``): key = row key + column key,
    lowercased with whitespace collapsed. Two entries score

        s(p, g) = (1 - NL(p.key, g.key))
                  * (1 - min(1, |p.v - g.v| / max(|g.v|, eps)))

    with NL the edit distance over the longer key's length (0 for two
    empty keys); a text value scores 1 when equal and 0 otherwise. With S
    the sum of s over a 1:1 matching that maximises it (the solver
    minimises -s, which rounds no score), precision = S / |pred|,
    recall = S / |gold| and F1 their harmonic mean. The transposed
    prediction is also tried (when its shape allows) and the better F1
    wins, so a table transcribed sideways is not punished. That try swaps
    the keys of each prediction entry, column key first, then row key
    (``_transposed_entries``); the values stay as they are. The try is
    dropped as soon as it cannot win. It is not made when the first F1 is
    1.0. Otherwise its keys are scored one at a time, and it stops when 2 *
    (sum of its score rows' maxima, a row not yet scored counted at its
    best value similarity) / (|pred| + |gold|), a bound on its F1, lies
    more than 1e-9 below the first F1. With every row scored, the sum of
    the score columns' maxima bounds it as well. Every score stays the
    float a full try would give.

    A prediction whose entries equal the gold's, in order, scores (1.0,
    1.0, 1.0) without scoring work, and so does one whose transposed
    entries do, which is checked before the straight try runs: each entry
    then scores exactly 1.0 against its equal, and no score exceeds 1.0,
    so the full path's total is the entry count and every ratio 1.0. The
    full path runs the straight try first and keeps its triple when its F1
    is 1.0, but that triple is (1.0, 1.0, 1.0) as well. Equal entry lists
    mean |pred| = |gold|, so the straight precision P and recall R are the
    same float, and F1 = 2 * P * P / (P + P) is 1.0 only when P is 1.0 (a
    test checks every |gold| up to 300, with 2,000 totals below each).
    Otherwise the transposed entries are kept for the transposed try.

    The straight try first tries to certify the matching that
    ``unique_optimum`` would name, from the value similarities v and exact
    key lookups (``_certified``). No s exceeds its v, since a key
    similarity is at most 1, and s is v itself where the two keys are
    equal ((1.0 - 0 / m) * v is v). A line of the smaller side (a row when
    |pred| <= |gold|, else a column) whose v has a maximum more than 1e-9
    above the rest of the line, on a cell of equal keys, therefore passes
    ``unique_optimum``'s test on the scores with that cell: its other
    scores lie at or below their v, and float subtraction is monotone. A
    row that does not pass so has its key walked and its scores put to
    that test directly; a column must pass on v. When every line passes
    and no two picks meet, the full path would pick the same cells and sum
    them in the same row order, so the total is the same float. Otherwise
    the rows not yet scored are scored and the full path runs.

    Where this may differ from DePlot's definition: no threshold is
    applied to either distance (a key or value distance is never rounded
    up to 1), text values are compared by equality, keys are normalized as
    above, and the transposed retry is this implementation's.
    """
    gold_entries = table_entries(gold)
    pred_entries = table_entries(pred)
    # A prediction without entries has no transposed form either.
    if not pred_entries and not gold_entries:
        return 1.0, 1.0, 1.0
    if not pred_entries or not gold_entries:
        return 0.0, 0.0, 0.0
    if pred_entries == gold_entries:
        return 1.0, 1.0, 1.0
    flipped = _transposed_entries(pred)
    if flipped == gold_entries:
        return 1.0, 1.0, 1.0
    n_g = len(gold_entries)
    keys = [key for key, _ in gold_entries]
    gold_keys = _pack_keys(keys)
    gold_lens = [len(key) for key in keys]
    # Both tries carry the same prediction values, so they share the rows.
    value_rows = _value_rows(
        [value for _, value in pred_entries], [value for _, value in gold_entries]
    )
    rows = [None] * len(pred_entries)
    total = _certified(pred_entries, keys, gold_keys, gold_lens, value_rows, rows)
    if total is None:
        # Score the rows that the certificate left unscored.
        rest = [i for i, row in enumerate(rows) if row is None]
        if rest:
            scored = _score_rows([pred_entries[i] for i in rest], gold_keys, gold_lens, value_rows)
            for i, row in zip(rest, scored):
                rows[i] = row
        best = _rms_once(rows, n_g)
    else:
        best = _prf(total, len(pred_entries), n_g)
    # Nothing beats an F1 of 1.0.
    if flipped is not None and best[2] != 1.0:
        scores = _score_rows(flipped, gold_keys, gold_lens, value_rows, best[2])
        if scores is not None and not _cannot_beat(scores, n_g, best[2]):
            alt = _rms_once(scores, n_g)
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

    A prediction whose tokens equal one reference's adds each of its
    n-grams to both the matched and the guessed count without counting
    n-grams: every count is clipped by at least its own count in that
    reference, so the full path adds the same integers.

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
        r_token_lists = [p_tokens if r == pred else bleu_tokenize(r) for r in refs]
        pred_len += len(p_tokens)
        ref_len += min(
            (len(r) for r in r_token_lists),
            key=lambda n: (abs(n - len(p_tokens)), n),
        )
        exact = p_tokens in r_token_lists
        for n in range(1, min(_BLEU_N, len(p_tokens)) + 1):
            guessed[n - 1] += len(p_tokens) - n + 1
            if exact:
                matched[n - 1] += len(p_tokens) - n + 1
                continue
            p_counts = _ngram_counts(p_tokens, n)
            ref_counts = _ngram_counts(r_token_lists[0], n)
            for r_tokens in r_token_lists[1:]:
                ref_counts |= _ngram_counts(r_tokens, n)
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
    the table of flat text (text holding ``" | "`` or ``" & "``) that
    parses, and otherwise the numbers in the text. Text that is not flat
    is parsed only ``for_rms``, which parses every side.
    """
    flat = " | " in text or " & " in text
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

    Every pair needs at least one reference (``InvalidConfig``); a
    reference group given as one string is that one reference, as in
    ``corpus_bleu``. "ra" and "rnss" use the first reference; "rms" parses
    both sides as flattened tables (malformed predictions score 0); "bleu"
    is computed corpus-level over all pairs. ``metrics`` must name at least
    one of ``METRIC_NAMES`` and nothing else (``InvalidConfig``).
    """
    if not metrics or any(m not in METRIC_NAMES for m in metrics):
        raise InvalidConfig(
            f"metrics must be one or more of {','.join(METRIC_NAMES)}, not {list(metrics)!r}"
        )
    want_rnss, want_rms = "rnss" in metrics, "rms" in metrics
    report = MetricReport()
    sums: dict[str, float] = {}
    for cid, pred, refs in pairs:
        if isinstance(refs, str):
            refs = [refs]
        if not refs:
            raise InvalidConfig(f"pair {cid!r} has no reference")
        row: dict = {"id": cid}
        gold = refs[0]
        if "ra" in metrics:
            row["ra"] = relaxed_accuracy(pred, gold)
        if want_rnss or want_rms:
            p_rnss, p_table = _parse_side(pred, want_rms)
            # A gold text equal to the prediction reads the same.
            g_rnss, g_table = (
                (p_rnss, p_table) if gold == pred else _parse_side(gold, want_rms)
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
