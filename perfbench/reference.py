"""Independent reference scorers for the eval workloads' output checks.

These restate the RNSS and RMS definitions from the flattened-table format
up: their own flattened-table parser, number extraction, table entries and
a dynamic-programming edit distance. Only ``exhaustive_assignment``, the
brute-force permutation search kept as chartkit's test oracle, is shared
with the code being measured. They are slow on purpose and are used only
on small tables (at most 6 entries a side) or with a fixed assignment.
"""

from __future__ import annotations

import re

EPS = 1e-9
_NUMBER = re.compile(r"[-+]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?%?|[-+]?\.\d+%?")
_PLAIN = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)")
_UNIT = re.compile(r"^(.+) \((.+)\)$")


def edit_distance(a: str, b: str) -> int:
    """Textbook Wagner-Fischer table, kept whole."""
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[len(a)][len(b)]


def numbers_in(text: str) -> list[float]:
    return [float(t.rstrip("%").replace(",", "")) for t in _NUMBER.findall(text)]


def _split(text: str) -> list[list[str]]:
    """Rows of cells: " | " splits cells, " & " rows, backslash escapes."""
    rows, cells, buf, i = [], [], "", 0
    while i < len(text):
        sep = text[i:i + 3]
        if sep == " | ":
            cells.append(buf)
            buf, i = "", i + 3
        elif sep == " & ":
            rows.append(cells + [buf])
            cells, buf, i = [], "", i + 3
        elif text[i] == "\\" and i + 1 < len(text):
            buf, i = buf + text[i + 1], i + 2
        else:
            buf, i = buf + text[i], i + 1
    rows.append(cells + [buf])
    return rows


def parse_table(text: str):
    """(names, numeric flags, data rows) or None where chartkit rejects it.

    A column is numeric when it has data rows and every cell is a plain
    number; a numeric header "name (unit)" is named "name". Ragged rows
    and duplicate column names are rejected.
    """
    header, *data = _split(text)
    if any(len(row) != len(header) for row in data):
        return None
    names, numeric = [], []
    for j, name in enumerate(header):
        is_num = bool(data) and all(_PLAIN.fullmatch(row[j]) for row in data)
        m = _UNIT.match(name) if is_num else None
        names.append(m.group(1) if m else name)
        numeric.append(is_num)
    if len(set(names)) != len(names):
        return None
    rows = [[float(c) if numeric[j] else c for j, c in enumerate(row)]
            for row in data]
    return names, numeric, rows


def table_numbers(text: str) -> list[float]:
    """The number multiset RNSS compares for one side of a pair."""
    table = parse_table(text) if (" | " in text or " & " in text) else None
    if table is None:
        return numbers_in(text)
    names, numeric, rows = table
    out = []
    for row in rows:
        for j, cell in enumerate(row):
            out.extend([cell] if numeric[j] else numbers_in(cell))
    return out


def _norm(text: str) -> str:
    return " ".join(str(text).lower().split())


def entries(table) -> list[tuple[str, object]]:
    """(key, value) per cell off the row-key column, the first categorical one."""
    names, numeric, rows = table
    key_col = numeric.index(False) if False in numeric else None
    out = []
    for row in rows:
        row_key = _norm(row[key_col]) if key_col is not None else ""
        for j, cell in enumerate(row):
            if j != key_col:
                key = f"{row_key} {_norm(names[j])}".strip()
                out.append((key, cell if numeric[j] else _norm(cell)))
    return out


def transposed(table):
    """Rows and columns swapped, when the table has exactly that shape."""
    names, numeric, rows = table
    if numeric.count(False) != 1 or numeric[0] or len(names) < 2 or not rows:
        return None
    header = [row[0] for row in rows]
    if len(set(header)) != len(header) or "" in header or names[0] in header:
        return None
    new_rows = [[names[j]] + [row[j] for row in rows] for j in range(1, len(names))]
    return [names[0]] + header, [False] + [True] * len(header), new_rows


def entry_score(p, g) -> float:
    (pk, pv), (gk, gv) = p, g
    longest = max(len(pk), len(gk))
    k = 1.0 - (edit_distance(pk, gk) / longest if longest else 0.0)
    if isinstance(pv, float) and isinstance(gv, float):
        v = 1.0 - min(1.0, abs(pv - gv) / max(abs(gv), EPS))
    else:
        v = 1.0 if pv == gv else 0.0
    return k * v


def prf(total: float, n_p: int, n_g: int) -> tuple[float, float, float]:
    p, r = total / n_p, total / n_g
    return p, r, (0.0 if p + r == 0 else 2 * p * r / (p + r))


def _padded(cost, n_p, n_g):
    n = max(n_p, n_g)
    return [[cost[i][j] if i < n_p and j < n_g else 1.0 for j in range(n)]
            for i in range(n)]


def rnss(pred: str, gold: str, assign) -> float:
    p, g = table_numbers(pred), table_numbers(gold)
    if not p and not g:
        return 1.0
    if not p or not g:
        return 0.0
    cost = [[min(1.0, abs(a - b) / max(abs(b), EPS)) for b in g] for a in p]
    _, total = assign(_padded(cost, len(p), len(g)))
    return 1.0 - total / max(len(p), len(g))


def _rms_once(p_entries, g_entries, assign):
    if not p_entries and not g_entries:
        return 1.0, 1.0, 1.0
    if not p_entries or not g_entries:
        return 0.0, 0.0, 0.0
    scores = [[entry_score(p, g) for g in g_entries] for p in p_entries]
    n_p, n_g = len(p_entries), len(g_entries)
    perm, _ = assign(_padded([[1.0 - s for s in row] for row in scores], n_p, n_g))
    total = sum(scores[i][perm[i]] for i in range(n_p) if perm[i] < n_g)
    return prf(total, n_p, n_g)


def rms(pred: str, gold: str, assign) -> tuple[float, float, float]:
    p_table, g_table = parse_table(pred), parse_table(gold)
    if p_table is None or g_table is None:
        return 0.0, 0.0, 0.0
    g_entries = entries(g_table)
    best = _rms_once(entries(p_table), g_entries, assign)
    flipped = transposed(p_table)
    if flipped is not None:
        alt = _rms_once(entries(flipped), g_entries, assign)
        if alt[2] > best[2]:
            best = alt
    return best


def small_enough(pred: str, gold: str, limit: int = 6) -> bool:
    """Both sides have at most ``limit`` numbers and table entries."""
    sides = [parse_table(pred), parse_table(gold)]
    sizes = [len(table_numbers(pred)), len(table_numbers(gold))]
    sizes += [len(entries(t)) for t in sides if t is not None]
    return max(sizes) <= limit


def aligned_lower_bounds(pred: str, gold: str, matches) -> tuple[float, float]:
    """(RNSS, RMS F1) of one fixed entry matching.

    ``matches`` lists (pred entry index, gold entry index) pairs. Any fixed
    matching is feasible, so an optimal scorer must reach at least these.
    Assumes row labels carry no digits, so numbers and entries coincide.
    """
    p_e, g_e = entries(parse_table(pred)), entries(parse_table(gold))
    total = sum(entry_score(p_e[i], g_e[j]) for i, j in matches)
    n = max(len(p_e), len(g_e))
    cost = sum(min(1.0, abs(p_e[i][1] - g_e[j][1]) / max(abs(g_e[j][1]), EPS))
               for i, j in matches)
    rnss_lb = 1.0 - (cost + n - len(matches)) / n
    return rnss_lb, prf(total, len(p_e), len(g_e))[2]
