"""Reference implementations the eval scorers are checked against.

``split_flat_scan`` splits flattened table text one character at a time,
``split_flat_tokens`` one token at a time, ``unflatten_tokens`` parses it
column by column and ``counter_bleu`` clips BLEU n-gram counts with
``Counter`` algebra. They are the straightforward forms of what
``chartkit.flatten._split_flat``, ``chartkit.flatten.unflatten_table`` and
``chartkit.metrics.corpus_bleu`` compute, kept here only as test oracles:
the tests require equal rows, equal tables (or the same error type) and
equal floats. ``rms_entries`` and ``transpose_table`` read a table as the
RMS definition does, by building the transposed ``DataTable``, not by
swapping entry keys as ``chartkit.metrics`` does.
"""

import math
import re
from collections import Counter

from chartkit.errors import MalformedTable, RaggedInput
from chartkit.flatten import CELL_SEP, ROW_SEP
from chartkit.metrics import EPS, bleu_tokenize
from chartkit.tables import (
    CATEGORICAL,
    NUMERIC,
    PLAIN_NUMBER_RE,
    UNIT_SUFFIX_RE,
    Column,
    DataTable,
)


def _normalized(text):
    return " ".join(text.lower().split())


def rms_entries(table):
    """RMS's ``(key, value)`` entries of a table: one per cell outside the
    first categorical column, which keys the rows. The key is the row key
    and the column name, lowercased with whitespace collapsed, joined by a
    space where both are non-empty; a text value is normalized as well."""
    kinds = [c.kind for c in table.columns]
    key_col = kinds.index(CATEGORICAL) if CATEGORICAL in kinds else None
    entries = []
    for row in table.rows:
        row_key = _normalized(row[key_col]) if key_col is not None else ""
        for j, col in enumerate(table.columns):
            if j != key_col:
                key = " ".join(k for k in (row_key, _normalized(col.name)) if k)
                value = _normalized(row[j]) if col.kind == CATEGORICAL else row[j]
                entries.append((key, value))
    return entries


def transpose_table(table):
    """The table read sideways: the x column keeps its name and holds the
    value columns' names, and each row becomes a numeric column named by
    its x label. None when the table is not an x column followed by value
    columns with at least one row, or when the sideways table is no
    ``DataTable`` (an x label empty, repeated or the x column's name)."""
    kinds = [c.kind for c in table.columns]
    if kinds[:1] != [CATEGORICAL] or CATEGORICAL in kinds[1:]:
        return None
    if len(kinds) < 2 or not table.rows:
        return None
    x = table.columns[0]
    try:
        return DataTable(
            [Column(x.name)] + [Column(row[0], NUMERIC) for row in table.rows],
            [[c.name] + [row[j] for row in table.rows]
             for j, c in enumerate(table.columns) if j],
        )
    except ValueError:
        return None


def split_flat_scan(text):
    """Rows of raw cell strings: at each position a cell separator, then a
    row separator, then an escape is tried, else the character is kept."""
    rows, cells, buf = [], [], []
    i, n = 0, len(text)
    while i < n:
        chunk = text[i : i + 3]
        if chunk == CELL_SEP:
            cells.append("".join(buf))
            buf = []
            i += 3
        elif chunk == ROW_SEP:
            cells.append("".join(buf))
            rows.append(cells)
            cells, buf = [], []
            i += 3
        elif text[i] == "\\" and i + 1 < n:
            buf.append(text[i + 1])
            i += 2
        else:
            buf.append(text[i])
            i += 1
    cells.append("".join(buf))
    rows.append(cells)
    return rows


# One token of flattened text, tried in this order: a cell separator, a row
# separator, an escape (a backslash and the character after it), a run of
# characters that are neither a backslash nor a space, any one character
# (a space that starts no separator, or a backslash that ends the text).
_FLAT_TOKEN_RE = re.compile(r" \| | & |\\.|[^\\ ]+|.", re.DOTALL)


def split_flat_tokens(text):
    """Rows of raw cell strings, read one token of ``_FLAT_TOKEN_RE`` at a
    time."""
    rows, cells, buf = [], [], []
    for token in _FLAT_TOKEN_RE.findall(text):
        if token == CELL_SEP:
            cells.append("".join(buf))
            buf = []
        elif token == ROW_SEP:
            cells.append("".join(buf))
            rows.append(cells)
            cells, buf = [], []
        elif token[0] == "\\":
            # An escape keeps the escaped character; a backslash that ends
            # the text is itself the last character.
            buf.append(token[-1])
        else:
            buf.append(token)
    cells.append("".join(buf))
    rows.append(cells)
    return rows


def _plain_float(cell):
    return float(cell) if PLAIN_NUMBER_RE.fullmatch(cell) else None


def unflatten_tokens(text):
    """The table of flattened text, one column at a time: numeric when
    every cell is a plain number, and a numeric header "name (unit)" split
    unless that name collides with another column's, headers that collide
    being kept whole until no name does. Raises ``RaggedInput`` and
    ``MalformedTable`` where ``unflatten_table`` does."""
    rows = split_flat_tokens(text)
    header, data = rows[0], rows[1:]
    for row in data:
        if len(row) != len(header):
            raise RaggedInput("ragged")
    columns, values = [], []
    for j, name in enumerate(header):
        floats = [_plain_float(row[j]) for row in data]
        numeric = bool(floats) and None not in floats
        values.append(floats if numeric else [row[j] for row in data])
        m = UNIT_SUFFIX_RE.match(name) if numeric else None
        columns.append((name, NUMERIC if numeric else CATEGORICAL, m))
    split = {j: m for j, (_, _, m) in enumerate(columns) if m}
    while True:
        names = [split[j].group(1) if j in split else name
                 for j, (name, _, _) in enumerate(columns)]
        clash = [j for j in split if names.count(names[j]) > 1]
        if not clash:
            break
        for j in clash:
            del split[j]
    try:
        cols = [Column(name, kind, split[j].group(2)) if j in split else Column(name, kind)
                for j, (name, (_, kind, _)) in enumerate(zip(names, columns))]
        return DataTable(cols, [list(row) for row in zip(*values)])
    except ValueError as exc:
        raise MalformedTable(str(exc)) from exc


def _ngram_counts(tokens, n):
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def counter_bleu(preds, golds):
    """Corpus BLEU-4 as ``corpus_bleu`` defines it: each n-gram's count is
    clipped by ``p_counts & (ref_1 | ref_2 | ...)``."""
    matched = [0] * 4
    guessed = [0] * 4
    pred_len = ref_len = 0
    for pred, refs in zip(preds, golds):
        p_tokens = bleu_tokenize(pred)
        r_token_lists = [bleu_tokenize(r) for r in refs]
        pred_len += len(p_tokens)
        ref_len += min((len(r) for r in r_token_lists),
                       key=lambda n: (abs(n - len(p_tokens)), n))
        for n in range(1, 5):
            p_counts = _ngram_counts(p_tokens, n)
            if not p_counts:
                continue
            max_ref = Counter()
            for r_tokens in r_token_lists:
                max_ref |= _ngram_counts(r_tokens, n)
            guessed[n - 1] += len(p_tokens) - n + 1
            matched[n - 1] += sum((p_counts & max_ref).values())
    if pred_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(4):
        precision = matched[n] / guessed[n] if guessed[n] else 0.0
        log_sum += math.log(precision or EPS)
    bp = 1.0 if pred_len >= ref_len else math.exp(1.0 - ref_len / pred_len)
    return 100.0 * math.exp(log_sum / 4) * bp
