import math
import operator
import random
import re
from functools import reduce
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chartkit.assignment import exhaustive_assignment, hungarian, unique_optimum
from chartkit.errors import (
    ChartKitError,
    InvalidConfig,
    InvalidCostMatrix,
    LengthMismatch,
)
from chartkit.flatten import flatten_table
from chartkit.gen import random_plain_table
from chartkit import metrics
from chartkit.metrics import (
    _levenshtein_walk,
    _pack_keys,
    _transposed_entries,
    corpus_bleu,
    extract_numbers,
    levenshtein,
    relaxed_accuracy,
    rms_f1,
    rnss,
    score_pairs,
    table_entries,
)
from chartkit.tables import CATEGORICAL, Column, DataTable, NUMERIC
from eval_oracles import counter_bleu, rms_entries, transpose_table


# -- relaxed accuracy -------------------------------------------------------

def test_ra_numeric_tolerance():
    assert relaxed_accuracy("98", "100") == 1  # 2% off
    assert relaxed_accuracy("94", "100") == 0  # 6% off
    assert relaxed_accuracy("105", "100") == 1  # exactly 5%
    assert relaxed_accuracy("105.1", "100") == 0


def test_ra_string_fallback():
    assert relaxed_accuracy("Yes", "yes") == 1
    assert relaxed_accuracy(" Yes ", "yes") == 1
    assert relaxed_accuracy("no", "yes") == 0
    assert relaxed_accuracy("about 5", "5") == 0  # not a bare number


def test_ra_zero_gold():
    assert relaxed_accuracy("0", "0") == 1
    assert relaxed_accuracy("0.001", "0") == 0


def test_ra_percent_and_separators():
    assert relaxed_accuracy("12%", "12") == 1
    assert relaxed_accuracy("1,200", "1200") == 1


def test_ra_overflowing_numbers_compare_as_text():
    # Both sides read as inf, and inf - inf is NaN, which no tolerance meets.
    assert relaxed_accuracy("1e400", "1e400") == 1
    assert relaxed_accuracy("1e400", "2e400") == 0


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=1e6, allow_nan=False),
    st.floats(min_value=-0.2, max_value=0.2),
    st.floats(min_value=0.001, max_value=1000),
)
@example(1.0, 0.05, 5.0)
@example(1.0, 0.05, 65.0)
@example(1.0, 0.05, 1.5)
def test_ra_scale_consistent(gold, rel, factor):
    pred = gold * (1 + rel)
    base = relaxed_accuracy(repr(pred), repr(gold))
    scaled = relaxed_accuracy(repr(pred * factor), repr(gold * factor))
    assert base == scaled


# -- rnss -------------------------------------------------------------------

def _num_table(values):
    labels = "abcdefgh"
    return DataTable(
        [Column("x"), Column("v", NUMERIC)],
        [[labels[i], v] for i, v in enumerate(values)],
    )


def test_rnss_examples():
    assert rnss(_num_table([10]), _num_table([10])) == pytest.approx(1.0)
    assert rnss(_num_table([9.5]), _num_table([10])) == pytest.approx(0.95)
    empty = DataTable([Column("x")], [["a"]])
    assert rnss(empty, _num_table([10])) == pytest.approx(0.0)
    assert rnss(empty, empty) == pytest.approx(1.0)


def test_rnss_accepts_text():
    assert rnss("x | v & a | 10", "x | v & a | 10") == pytest.approx(1.0)
    assert rnss("the answer is 9.5", _num_table([10])) == pytest.approx(0.95)


def test_rnss_skips_overflowing_numbers():
    big = "9" * 400
    assert extract_numbers(f"{big} and 5") == [5.0]
    assert rnss(big, big) == 1.0
    assert rnss(f"{big} rose to 5", "it rose to 5") == 1.0


def test_rnss_identity_and_row_order_invariance():
    rng = random.Random(0)
    for _ in range(30):
        t = random_plain_table(rng)
        assert rnss(t, t) == pytest.approx(1.0)
        shuffled_rows = list(t.rows)
        rng.shuffle(shuffled_rows)
        t2 = DataTable(t.columns, shuffled_rows)
        assert rnss(t2, t) == pytest.approx(1.0)


def test_rnss_monotone_under_perturbation():
    gold = _num_table([10, 20, 30])
    base = rnss(_num_table([10, 20, 30]), gold)
    drifted = rnss(_num_table([10, 20, 33]), gold)
    worse = rnss(_num_table([10, 20, 45]), gold)
    assert base >= drifted >= worse


# -- edit distance ------------------------------------------------------------

def dp_levenshtein(a: str, b: str) -> int:
    """The textbook O(len(a) * len(b)) DP: the oracle for ``levenshtein``."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


# Few letters, so that runs and repeats are common; two astral (non-BMP)
# characters, which are one code point each.
_EDIT_ALPHABET = "ab é\U0001F4C8\U00010348"
_EDIT_TEXT = st.text(alphabet=_EDIT_ALPHABET, max_size=150)


@settings(max_examples=400, deadline=None)
@given(_EDIT_TEXT, _EDIT_TEXT)
@example("", "")
@example("", "abc")
@example("abc", "")
@example("a" * 70, "a" * 65)
@example("ab" * 40, "ba" * 40)
@example("x" * 64 + "y", "y" + "x" * 64)
@example("\U0001F4C8" * 3 + "a", "a\U0001F4C8")
def test_levenshtein_matches_dp(a, b):
    assert levenshtein(a, b) == dp_levenshtein(a, b)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=_EDIT_ALPHABET, max_size=80), max_size=8),
       st.text(alphabet=_EDIT_ALPHABET, max_size=80))
@example([], "ab")
@example(["ab", "", "ba"], "abab")
@example(["", "", "a"], "a")
@example(["a" * 70, "b" * 65 + "a", "x" * 66], "a" * 66 + "x")
@example(["ab é"] * 5, "ba é")
@example(["abc", "", "\U0001F4C8"], "")
def test_levenshtein_many_matches_dp(keys, b):
    assert dict(_levenshtein_walk(_pack_keys(keys), (b,)))[b] == [
        dp_levenshtein(k, b) for k in keys
    ]


@st.composite
def _prefix_sharing_texts(draw):
    """Texts made of a few shared stems plus suffixes: an empty suffix
    makes a text that is a prefix of others, and repeats are common."""
    stems = draw(st.lists(st.text(alphabet=_EDIT_ALPHABET, max_size=40),
                          min_size=1, max_size=3))
    return draw(st.lists(
        st.tuples(st.sampled_from(stems), st.text(alphabet=_EDIT_ALPHABET, max_size=20))
        .map("".join), max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=_EDIT_ALPHABET, max_size=60), max_size=6),
       _prefix_sharing_texts())
@example(["ab", ""], ["", "a", "ab", "ab", "abc", "b", ""])
@example(["\U0001F4C8a", "a"], ["\U0001F4C8", "\U0001F4C8\U00010348", "\U0001F4C8", "a"])
@example([], ["x", "xy"])
@example(["ab é"], [])
def test_levenshtein_walk_matches_dp(keys, texts):
    got = dict(_levenshtein_walk(_pack_keys(keys), texts))
    assert sorted(got) == sorted(set(texts))
    for text in texts:
        assert got[text] == [dp_levenshtein(k, text) for k in keys]


# -- rms --------------------------------------------------------------------

def test_rms_identical_tables():
    t = _num_table([1, 2, 3])
    assert rms_f1(t, t) == (1.0, 1.0, 1.0)


def test_rms_half_recall():
    gold = DataTable(
        [Column("x"), Column("v", NUMERIC)], [["a", 1.0], ["b", 2.0]]
    )
    pred = DataTable([Column("x"), Column("v", NUMERIC)], [["a", 1.0]])
    p, r, f1 = rms_f1(pred, gold)
    assert p == pytest.approx(1.0)
    assert r == pytest.approx(0.5)
    assert f1 == pytest.approx(2 / 3)


def test_rms_entry_order_free():
    rng = random.Random(5)
    for _ in range(20):
        t = random_plain_table(rng)
        rows = list(t.rows)
        rng.shuffle(rows)
        assert rms_f1(DataTable(t.columns, rows), t)[2] == pytest.approx(1.0)


def test_rms_transposed_prediction_scores_perfectly():
    gold = DataTable(
        [Column("Year"), Column("North", NUMERIC), Column("South", NUMERIC)],
        [["2001", 1.0, 2.0], ["2002", 3.0, 4.0]],
    )
    flipped = DataTable(
        [Column("Year"), Column("2001", NUMERIC), Column("2002", NUMERIC)],
        [["North", 1.0, 3.0], ["South", 2.0, 4.0]],
    )
    assert rms_f1(flipped, gold)[2] == pytest.approx(1.0)


def test_rms_empty_prediction():
    gold = _num_table([1])
    pred = DataTable([Column("x"), Column("v", NUMERIC)], [])
    assert rms_f1(pred, gold) == (0.0, 0.0, 0.0)


def _value_similarity(p_value, g_value):
    """The value term of RMS's s(p, g), from its definition."""
    if isinstance(p_value, float) and isinstance(g_value, float):
        return 1.0 - min(1.0, abs(p_value - g_value) / max(abs(g_value), 1e-9))
    return 1.0 if p_value == g_value else 0.0


def _entry_score(p, g):
    """s(p, g) of RMS from its definition, with the DP edit distance."""
    (p_key, p_value), (g_key, g_value) = p, g
    v = _value_similarity(p_value, g_value)
    if v == 0.0:
        return 0.0
    longest = max(len(p_key), len(g_key))
    d = dp_levenshtein(p_key, g_key) / longest if longest else 0.0
    return (1.0 - d) * v


def _oracle_rms(pred, gold):
    """RMS from its definition: the entries of ``rms_entries``, the DP edit
    distance for the key term, every permutation for the assignment, the
    retry on ``transpose_table``. The matched total is the largest over all
    permutations, each summed in row order."""

    def once(pe, ge):
        if not pe and not ge:
            return 1.0, 1.0, 1.0
        if not pe or not ge:
            return 0.0, 0.0, 0.0
        scores = [[_entry_score(p, g) for g in ge] for p in pe]
        n = max(len(pe), len(ge))
        total = max(
            reduce(operator.add, (scores[i][perm[i]] for i in range(len(pe))
                                  if perm[i] < len(ge)), 0)
            for perm in permutations(range(n))
        )
        precision, recall = total / len(pe), total / len(ge)
        if precision + recall == 0:
            return precision, recall, 0.0
        return precision, recall, 2 * precision * recall / (precision + recall)

    gold_entries = rms_entries(gold)
    best = once(rms_entries(pred), gold_entries)
    flipped = transpose_table(pred)
    if flipped is not None:
        alt = once(rms_entries(flipped), gold_entries)
        if alt[2] > best[2]:
            best = alt
    return best


def _small_table(rng, labels, names):
    """1-3 rows keyed by ``labels``, 1-2 numeric columns and, sometimes, a
    categorical one whose cells are spelled so that some need normalizing:
    at most 6 entries, so every permutation can be tried."""
    n_rows = rng.randint(0, 3)
    columns = [Column("x")] + [
        Column(name, NUMERIC) for name in rng.sample(names, rng.randint(1, 2))
    ]
    if rng.random() < 0.3:
        columns = columns[:2] + [Column("kind", CATEGORICAL)]
    rows = []
    for label in rng.sample(labels, n_rows):
        rows.append([label] + [
            rng.choice(["a", "b", "A", " a  b", "a b"]) if c.kind == CATEGORICAL
            else round(rng.uniform(-50, 50), rng.choice([0, 2]))
            for c in columns[1:]
        ])
    return DataTable(columns, rows)


def _with_repeats(rng, table):
    """``table`` with its numbers drawn from two of its own, so that entry
    scores tie."""
    numbers = [v for row in table.rows for v in row if isinstance(v, float)]
    pool = rng.sample(numbers, min(2, len(numbers))) or [1.0]
    return DataTable(table.columns, [
        [rng.choice(pool) if isinstance(v, float) else v for v in row]
        for row in table.rows
    ])


def test_rms_matches_definition():
    rng = random.Random(17)
    labels = ["north", "nort", "south", "", "north east", "\U0001F4C8 up"]
    names = ["sales", "sale", "cost", " "]
    kinds = {"drawn": 0, "more_pred_entries": 0, "transposed_repeats": 0}
    for _ in range(2000):
        gold = _small_table(rng, labels, names)
        pred = _small_table(rng, labels, names) if rng.random() < 0.5 else gold
        kind = "drawn"
        r = rng.random()
        if r < 0.4 and transpose_table(gold) is not None:
            pred = transpose_table(gold)
            if rng.random() < 0.7:
                pred, kind = _with_repeats(rng, pred), "transposed_repeats"
        elif r < 0.6 and gold.n_rows > 1:
            # More prediction entries than gold ones: the optimum is checked
            # along the gold side.
            pred = gold
            gold = DataTable(gold.columns, gold.rows[:rng.randint(1, gold.n_rows - 1)])
        if kind == "drawn" and len(rms_entries(pred)) > len(rms_entries(gold)) > 0:
            kind = "more_pred_entries"
        kinds[kind] += 1
        assert rms_f1(pred, gold) == _oracle_rms(pred, gold)
    assert min(kinds.values()) >= 150, kinds
    # Two entry scores below 0.5 that differ in their last bits give one
    # cost 1 - s; the matching must still take the higher score.
    pred = DataTable(
        [Column("x"), Column("sales", NUMERIC), Column(" ", NUMERIC)],
        [["north east", 27.48, -12.0], ["south", 39.03, 7.1]],
    )
    gold = DataTable(
        [Column("x"), Column("cost", NUMERIC), Column(" ", NUMERIC)],
        [["north east", 8.0, 12.0]],
    )
    assert rms_f1(pred, gold) == _oracle_rms(pred, gold)
    assert rms_f1(pred, gold) == (0.044375, 0.08875, 0.059166666666666666)


_LABELS = ["north", "nort", "south", "", "north east", "\U0001F4C8 up"]
_NAMES = ["sales", "sale", "cost", " "]


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(),
       st.sampled_from([0.0, 0.02, 0.3, 1.0]))
def test_rms_with_early_stops_matches_definition(rng, sideways, noise):
    """Straight and transposed predictions, their numbers moved by up to
    ``noise``: the transposed try, stopped early or not, scores as the
    definition does."""
    gold = _small_table(rng, _LABELS, _NAMES)
    pred = (sideways and transpose_table(gold)) or gold
    pred = DataTable(pred.columns, [
        [v * (1 + rng.uniform(-noise, noise)) if isinstance(v, float) else v
         for v in row]
        for row in pred.rows[:rng.randint(1, 3)]
    ])
    assert rms_f1(pred, gold) == _oracle_rms(pred, gold)


def _wide_gold(n_rows=16, n_cols=3):
    names = ["Exports", "Imports", "Balance", "Reserves"][:n_cols]
    return DataTable(
        [Column("Country")] + [Column(name, NUMERIC) for name in names],
        [[f"Region {i:02d} of the survey"] + [float(10 * i + j + 1) for j in range(n_cols)]
         for i in range(n_rows)],
    )


def _scaled(table, factor):
    return DataTable(table.columns, [
        [v * factor if isinstance(v, float) else v for v in row] for row in table.rows
    ])


def _record_walks(monkeypatch):
    """Patch the Levenshtein walk to record, per call, the texts it yields."""
    walked = []
    walk = metrics._levenshtein_walk

    def recording(packed, texts):
        seen = []
        walked.append(seen)
        for text, distances in walk(packed, texts):
            seen.append(text)
            yield text, distances

    monkeypatch.setattr(metrics, "_levenshtein_walk", recording)
    return walked


def _full_try(pred_entries, gold):
    """RMS of one try with every score row built and solved."""
    gold_entries = table_entries(gold)
    value_rows = metrics._value_rows([v for _, v in pred_entries],
                                     [v for _, v in gold_entries])
    scores = metrics._score_rows(
        pred_entries, _pack_keys([k for k, _ in gold_entries]),
        [len(k) for k, _ in gold_entries], value_rows)
    return metrics._rms_once(scores, len(gold_entries))


def _walked_keys(pred, gold):
    """The keys the straight try must walk: those of the prediction entries
    whose value similarities have no maximum above the rest of the row by
    more than 1e-9 on a gold entry with the same key."""
    gold_entries = rms_entries(gold)
    keys = set()
    for key, value in rms_entries(pred):
        v = [_value_similarity(value, g_value) for _, g_value in gold_entries]
        j = v.index(max(v))
        if gold_entries[j][0] != key or any(
                v[j] - x <= 1e-9 for k, x in enumerate(v) if k != j):
            keys.add(key)
    return sorted(keys)


def test_a_losing_transposed_try_stops_early(monkeypatch):
    gold = _wide_gold()
    pred = _scaled(gold, 1.01)  # a straight prediction, F1 below 1.0
    walked = _record_walks(monkeypatch)
    got = rms_f1(pred, gold)
    flipped = _transposed_entries(pred)
    straight = _walked_keys(pred, gold)
    assert len(flipped) == 48 and len(walked) == 2
    # The straight try walks only the keys its certificate cannot vouch
    # for, and then none again.
    assert 0 < len(straight) < 48 and walked[0] == straight
    assert len(walked[1]) < len(flipped)
    # The full transposed try loses, so the stop changed no score.
    assert got == _full_try(table_entries(pred), gold)
    assert _full_try(flipped, gold)[2] < got[2]


def test_a_winning_transposed_try_walks_every_key(monkeypatch):
    gold = _wide_gold()
    pred = _scaled(transpose_table(gold), 1.01)
    walked = _record_walks(monkeypatch)
    got = rms_f1(pred, gold)
    flipped = _transposed_entries(pred)
    assert len(walked) == 2
    # No straight key equals a gold key: the straight try walks each once.
    assert walked[0] == _walked_keys(pred, gold) == sorted(k for k, _ in table_entries(pred))
    assert walked[1] == sorted({key for key, _ in flipped})
    assert got == _full_try(flipped, gold)
    assert got[2] > _full_try(table_entries(pred), gold)[2]


def _spread_gold(n_rows=12, n_cols=3):
    """A wide gold table whose numbers lie a factor 2 apart, so that a
    number moved by 1% stays clearly nearest its own gold number."""
    names = ["Exports", "Imports", "Balance"][:n_cols]
    return DataTable(
        [Column("Country")] + [Column(name, NUMERIC) for name in names],
        [[f"Region {i:02d} of the survey"] + [float(2 ** (n_cols * i + j)) for j in range(n_cols)]
         for i in range(n_rows)],
    )


def _straight_walks(walked, pred):
    """The texts walked that are keys of the straight prediction (the
    transposed try walks its swapped keys)."""
    keys = {key for key, _ in table_entries(pred)}
    return [text for texts in walked for text in texts if text in keys]


def _no_certificate(*args):
    return None


def test_a_noise_only_prediction_walks_no_straight_key(monkeypatch):
    gold = _spread_gold()
    rng = random.Random(5)
    pred = DataTable(gold.columns, [
        [v * (1 + rng.uniform(-0.01, 0.01)) if isinstance(v, float) else v for v in row]
        for row in gold.rows
    ])
    walked = _record_walks(monkeypatch)
    got = rms_f1(pred, gold)
    assert _straight_walks(walked, pred) == []
    monkeypatch.setattr(metrics, "_certified", _no_certificate)
    assert got == rms_f1(pred, gold) and got[2] < 1.0


def test_a_one_row_typo_walks_only_that_row(monkeypatch):
    gold = _spread_gold()
    rows = [list(row) for row in gold.rows]
    rows[4][0] = "Region 04 of the surwey"
    pred = DataTable(gold.columns, rows)
    walked = _record_walks(monkeypatch)
    got = rms_f1(pred, gold)
    assert _straight_walks(walked, pred) == [
        f"region 04 of the surwey {name}" for name in ("balance", "exports", "imports")]
    monkeypatch.setattr(metrics, "_certified", _no_certificate)
    assert got == rms_f1(pred, gold) and got[2] < 1.0


# Numbers whose value similarities differ by about the 1e-9 margin.
_NEAR_MARGIN = [0.0, -0.0, 1.0, 1.0 + 5e-10, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 - 1e-9,
                2.0, 3.5, 100.0]


def _certificate_pair(rng):
    """A gold table and a prediction drawn from it: labels repeated on
    either side, numbers moved by about the margin or drawn anew, text
    values, 0.0 and -0.0, one-entry tables, and fewer, as many or more
    prediction entries than gold ones."""
    labels = ["a", "b", "ab", "north", "nort"]
    columns = [Column("x")] + [Column(n, NUMERIC) for n in ["v", "w"][:rng.randint(1, 2)]]
    if rng.random() < 0.3:
        columns.append(Column("kind", CATEGORICAL))

    def cell(col):
        if col.kind == CATEGORICAL:
            return rng.choice(["p", "q"])
        return rng.choice(_NEAR_MARGIN) * rng.choice([1.0, 1.0, -1.0, 1e3])

    gold = [[rng.choice(labels)] + [cell(c) for c in columns[1:]]
            for _ in range(rng.randint(1, 4))]
    pred = []
    for row in gold:
        if rng.random() < 0.15:
            continue
        row = list(row)
        if rng.random() < 0.15:
            row[0] = rng.choice(labels)
        for j, col in enumerate(columns[1:], 1):
            if rng.random() < 0.3:
                row[j] = cell(col)
            elif col.kind != CATEGORICAL and rng.random() < 0.5:
                row[j] *= 1 + rng.choice([-2e-9, -1e-9, -5e-10, 5e-10, 1e-9, 2e-9])
        pred.append(row)
        if rng.random() < 0.15:
            pred.append(list(row))
    for _ in range(rng.choice([0, 0, 1, 2])):
        pred.append([rng.choice(labels)] + [cell(c) for c in columns[1:]])
    if rng.random() < 0.3:
        rng.shuffle(pred)
    return DataTable(columns, pred), DataTable(columns, gold)


def test_the_certificate_gives_the_full_paths_floats():
    """rms_f1 with the straight try's certificate equals, bit for bit, the
    full path with it switched off; a certified try is one whose full
    scores unique_optimum names too; certified and full tries both occur,
    with no more prediction entries than gold ones and with more."""
    seen = set()
    real_certified = metrics._certified

    def recording(pred_entries, keys, packed, gold_lens, value_rows, rows):
        total = real_certified(pred_entries, keys, packed, gold_lens, value_rows, rows)
        seen.add((total is not None, len(pred_entries) > len(keys)))
        if total is not None:
            scores = metrics._score_rows(pred_entries, packed, gold_lens, value_rows)
            assert unique_optimum([[-s for s in row] for row in scores], len(keys)) is not None
        return total

    def compare(rng):
        pred, gold = _certificate_pair(rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_certified", recording)
            got = rms_f1(pred, gold)
            mp.setattr(metrics, "_certified", _no_certificate)
            full = rms_f1(pred, gold)
        assert [x.hex() for x in got] == [x.hex() for x in full]

    settings(max_examples=600, deadline=None)(
        given(st.randoms(use_true_random=False))(compare))()
    # Fixed draws as well: hypothesis's draws alone miss a certified try
    # with more prediction entries than gold ones on some runs.
    for seed in range(200):
        compare(random.Random(seed))
    assert seen == {(True, False), (False, False), (True, True), (False, True)}, seen


def test_table_entries_keys_normalized():
    t = DataTable(
        [Column("Country"), Column("GDP", NUMERIC)], [["  New  Zealand ", 5.0]]
    )
    assert table_entries(t) == [("new zealand gdp", 5.0)]


def test_transposed_entries_match_the_transposed_table():
    # The sideways entries are the entries of the transposed table, and
    # there are none exactly where that table cannot be built.
    rng = random.Random(23)
    labels = ["north", "nort", "south", "", "north east", "\U0001F4C8 up"]
    names = ["sales", "sale", "cost", " "]
    x, v, w = Column("x"), Column("v", NUMERIC), Column("w", NUMERIC)
    tables = [_small_table(rng, labels, names) for _ in range(500)] + [
        DataTable([x, v], [["a", 1.0], ["a", 2.0]]),  # a repeated label
        DataTable([x, v], [["b", 1.0], ["x", 2.0]]),  # a label named as x
        DataTable([x, v], [["", 1.0]]),  # an empty label
        DataTable([x, v], []),  # no row
        DataTable([x], [["a"]]),  # no value column
        DataTable([v, x], [[1.0, "a"]]),  # the x column not first
        DataTable([v, w], [[1.0, 2.0]]),  # no x column
        DataTable([x, v, w], [["A  B", -0.0, 3.5], ["c", 2.0, 4.0]]),
    ]
    shapes = set()
    for t in tables:
        flipped = transpose_table(t)
        expected = None if flipped is None else rms_entries(flipped)
        assert _transposed_entries(t) == expected
        shapes.add(expected is None)
    assert shapes == {True, False}


# -- assignment solver -------------------------------------------------------

def test_hungarian_known_case():
    cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
    assign, total = hungarian(cost)
    _, expected = exhaustive_assignment(cost)
    assert total == pytest.approx(expected)
    assert sorted(assign) == [0, 1, 2]


def test_hungarian_matches_exhaustive_fuzz():
    rng = random.Random(123)
    for _ in range(300):
        n = rng.randint(1, 6)
        cost = [[rng.random() for _ in range(n)] for _ in range(n)]
        _, fast = hungarian(cost)
        _, slow = exhaustive_assignment(cost)
        assert abs(fast - slow) <= 1e-9


def test_hungarian_assignment_matches_exhaustive():
    # With continuous random costs a tie for the optimum is vanishingly
    # rare; where the best two totals are this close, the optimum is not
    # unique enough to pin a permutation, and the matrix is skipped.
    rng = random.Random(4242)
    checked = 0
    for _ in range(500):
        n = rng.randint(1, 7)
        cost = [[rng.random() for _ in range(n)] for _ in range(n)]
        totals = sorted(sum(cost[i][p[i]] for i in range(n))
                        for p in permutations(range(n)))
        if n > 1 and totals[1] - totals[0] < 1e-9:
            continue
        assert hungarian(cost)[0] == exhaustive_assignment(cost)[0]
        checked += 1
    assert checked >= 495


def test_hungarian_names_a_cost_that_is_not_finite():
    inf, nan = float("inf"), float("nan")
    for cost, named in [([[inf]], "cost[0][0] is inf"),
                        ([[nan]], "cost[0][0] is nan"),
                        ([[1.0, 2.0], [3.0, -inf]], "cost[1][1] is -inf"),
                        ([[inf, 1.0], [inf, 1.0]], "cost[0][0] is inf")]:
        with pytest.raises(ChartKitError, match=re.escape(named)):
            hungarian(cost)
    # A cost the optimum avoids is passed over.
    assert hungarian([[inf, 1.0], [1.0, nan]]) == ([1, 0], 2.0)
    with pytest.raises(ChartKitError, match="square"):
        hungarian([[1.0, 2.0], [3.0]])


def pad_square(matrix, n_rows, n_cols, fill):
    """Embed a rectangular cost matrix into a square one, padding with fill."""
    n = max(n_rows, n_cols)
    out = [[fill] * n for _ in range(n)]
    for i in range(n_rows):
        for j in range(n_cols):
            out[i][j] = matrix[i][j]
    return out


def _rectangular(result, n_rows, n_cols):
    """An assignment of a padded square as ``metrics._assign`` gives it: the
    column of each real row, or None for a padding column, and the total
    as its bits."""
    assign, total = result
    return [j if j < n_cols else None for j in assign[:n_rows]], total.hex()


def test_pad_square(monkeypatch):
    assert pad_square([[0.5]], 1, 1, 1.0) == [[0.5]]
    assert pad_square([[0.5, 0.2]], 1, 2, 1.0) == [[0.5, 0.2], [1.0, 1.0]]
    # rnss and rms_f1 hand _assign their rectangular costs and the padding
    # cost (1 for rnss, 0 for rms_f1's -s). Where it runs hungarian,
    # hungarian gets pad_square of them, every float equal; where
    # unique_optimum names the optimum, _assign gives what hungarian would,
    # bit for bit.
    calls, inputs, checked = [], [], []
    real_hungarian, real_assign = metrics.hungarian, metrics._assign

    def recording_hungarian(cost):
        inputs.append(cost)
        return real_hungarian(cost)

    def recording_assign(cost, n_cols, fill=1.0):
        inputs.clear()
        assign, total = real_assign(cost, n_cols, fill)
        calls.append((cost, n_cols, fill, (assign, total.hex()), list(inputs)))
        return assign, total

    monkeypatch.setattr(metrics, "hungarian", recording_hungarian)
    monkeypatch.setattr(metrics, "_assign", recording_assign)
    rng = random.Random(31)
    for _ in range(200):
        p = [round(rng.uniform(-9, 9), rng.choice([0, 1])) for _ in range(rng.randint(1, 5))]
        g = [round(rng.uniform(-9, 9), rng.choice([0, 1])) for _ in range(rng.randint(1, 5))]
        calls.clear()
        rnss(p, g)
        cost = [[min(1.0, abs(pv - gv) / max(abs(gv), 1e-9)) for gv in g] for pv in p]
        assert [call[:3] for call in calls] == [(cost, len(g), 1.0)]
        checked += calls
    # rms_f1's straight try hands _assign its costs unless _certified
    # names their optimum first; then unique_optimum names it too, and the
    # certified total is its picked scores summed in row order.
    certified = []
    real_certified = metrics._certified

    def recording_certified(*args):
        certified.append(real_certified(*args))
        return certified[-1]

    monkeypatch.setattr(metrics, "_certified", recording_certified)
    outcomes = set()
    labels, names = ["a", "b", "c", "dd"], ["v", "w", "vw"]
    for _ in range(200):
        pred, gold = _small_table(rng, labels, names), _small_table(rng, labels, names)
        pe, ge = rms_entries(pred), rms_entries(gold)
        if not pe or not ge:
            continue
        calls.clear()
        certified.clear()
        rms_f1(pred, gold)
        scores = [[_entry_score(e, f) for f in ge] for e in pe]
        cost = [[-x for x in row] for row in scores]
        outcomes.add(certified == [None])
        if certified == [None]:
            assert calls[0][:3] == (cost, len(ge), 0.0)
        else:
            assign = unique_optimum(cost, len(ge))
            assert assign is not None
            total = reduce(operator.add, (scores[i][j] for i, j in enumerate(assign)
                                          if j is not None), 0)
            assert certified[0].hex() == total.hex()
        checked += calls
    assert outcomes == {True, False}
    for cost, n_cols, fill, got, solved in checked:
        square = pad_square(cost, len(cost), n_cols, fill)
        if solved:
            assert solved == [square]
        assert got == _rectangular(real_hungarian(square), len(cost), n_cols)
    assert {bool(solved) for *_, solved in checked} == {True, False}


def test_assign_matches_hungarian_fuzz():
    # Costs drawn from a few values, so that ties are common, and now and
    # then an inf, NaN or -inf cell. _assign must give hungarian's answer on
    # the padded square, or raise the same error; where unique_optimum
    # names the optimum, the exhaustive search finds that same one.
    rng = random.Random(61)
    inf, nan = float("inf"), float("nan")
    named = solved = raised = 0
    for _ in range(4000):
        n_rows, n_cols = rng.randint(0, 5), rng.randint(0, 5)
        values = rng.sample([0.0, 0.25, 0.5, 1.0, 2.0, -1.0], rng.randint(1, 4))
        values.append(round(rng.random(), 3))
        if rng.random() < 0.25:
            values += rng.sample([inf, nan, -inf], rng.randint(1, 2))
        cost = [[rng.choice(values) for _ in range(n_cols)] for _ in range(n_rows)]
        fill = rng.choice([0.0, 1.0])
        square = pad_square(cost, n_rows, n_cols, fill)
        try:
            expected = _rectangular(hungarian(square), n_rows, n_cols)
        except InvalidCostMatrix as e:
            expected = repr(e)
        try:
            assign, total = metrics._assign(cost, n_cols, fill)
            got = assign, total.hex()
        except InvalidCostMatrix as e:
            got = repr(e)
        assert got == expected, cost
        picks = unique_optimum(cost, n_cols)
        if picks is None:
            solved += 1
            raised += isinstance(got, str)
            continue
        named += 1
        assert picks == got[0]
        assert _rectangular(exhaustive_assignment(square), n_rows, n_cols) == got
    assert min(named, solved - raised, raised) >= 200, (named, solved, raised)


def test_unique_optimum_checks_the_smaller_side():
    inf, nan = float("inf"), float("nan")
    # Rows: each has its own strict minimum.
    assert unique_optimum([[0.1, 0.5, 0.9], [0.5, 0.9, 0.1]], 3) == [0, 2]
    # Columns, when rows outnumber them: row 1 is left to the padding.
    assert unique_optimum([[0.1, 0.5], [0.4, 0.6], [0.9, 0.2]], 2) == [0, None, 1]
    # A tie, two minima in one column, a margin of 1e-9 or less, a line
    # whose minimum is not finite, and a line holding a NaN: nothing is
    # known.
    for cost, n_cols in [([[0.5, 0.5]], 2), ([[0.1, 0.9], [0.2, 0.9]], 2),
                         ([[0.5, 0.5 + 1e-10]], 2), ([[inf, inf]], 2),
                         ([[-inf, 0.5]], 2), ([[nan, 0.5]], 2), ([[0.5, nan]], 2),
                         ([[0.5, 0.9], [nan, 0.1], [0.9, 0.9]], 2)]:
        assert unique_optimum(cost, n_cols) is None, cost
    # An inf cell that is not the minimum is passed over.
    assert unique_optimum([[inf, 0.5, 0.7]], 3) == [1]
    assert unique_optimum([[0.5, inf], [inf, 0.1], [0.9, 0.9]], 2) == [0, 1, None]


# -- bleu ---------------------------------------------------------------------

def test_bleu_perfect_match():
    preds = ["The cat sat down.", "Numbers: 12, 13."]
    assert corpus_bleu(preds, [[p] for p in preds]) == pytest.approx(100.0)


def test_bleu_empty_prediction():
    assert corpus_bleu([""], [["something here"]]) == pytest.approx(0.0)


def test_bleu_hand_tallied_example():
    # pred "the cat sat" vs gold "the cat sat down":
    # p1=3/3, p2=2/2, p3=1/1, p4 has no 4-grams -> epsilon smoothing;
    # brevity penalty exp(1 - 4/3).
    eps = 1e-9
    expected = 100.0 * math.exp(
        (math.log(1) * 3 + math.log(eps)) / 4
    ) * math.exp(1 - 4 / 3)
    got = corpus_bleu(["the cat sat"], [["the cat sat down"]])
    assert got == pytest.approx(expected, rel=1e-9)


def test_bleu_multi_reference_and_length_mismatch():
    score = corpus_bleu(["a b c d"], [["x y z w", "a b c d"]])
    assert score == pytest.approx(100.0)
    with pytest.raises(LengthMismatch):
        corpus_bleu(["a"], [])


def test_bleu_tokenizes_punctuation():
    # "sat." must not merge token "sat" with the period.
    assert corpus_bleu(["the cat sat."], [["the cat sat ."]]) == pytest.approx(100.0)


def test_bleu_clips_by_the_largest_reference_count():
    # Unigram "a": 3 in the prediction, at most 2 in one reference (3 if
    # the references' counts were summed); bigram "a a": 2, at most 1.
    eps = 1e-9
    expected = 100.0 * math.exp(
        (math.log(2 / 3) + math.log(1 / 2) + 2 * math.log(eps)) / 4)
    got = corpus_bleu(["a a a"], [["a a", "a"]])
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == counter_bleu(["a a a"], [["a a", "a"]])


def _bleu_text(rng, words):
    return " ".join(rng.choice(words) for _ in range(rng.choice([0, 1, 2, 3, 5, 8, 13])))


def test_bleu_matches_the_counter_oracle():
    # Four tokens ("B" lowercases to "b", "c." is "c" and "."), so
    # n-grams repeat within a text and the largest count in one reference
    # differs from the sum over the references. Lengths 0-3 leave some
    # orders without n-grams.
    rng = random.Random(17)
    words = ["a", "b", "c.", "B"]
    for _ in range(300):
        preds = [_bleu_text(rng, words) for _ in range(rng.randint(1, 6))]
        golds = [[_bleu_text(rng, words) for _ in range(rng.randint(1, 3))]
                 for _ in preds]
        assert corpus_bleu(preds, golds) == counter_bleu(preds, golds)
    preds = ["", "a", "a b", "a a b", "a a a a b"]
    golds = [["a"], ["b", "a a"], ["a b a b", "b"], ["a a b a a b"], ["a a a", "b a a a a"]]
    assert corpus_bleu(preds, golds) == counter_bleu(preds, golds)


def test_bleu_names_an_empty_reference_group():
    with pytest.raises(InvalidConfig, match="reference group 1 is empty"):
        corpus_bleu(["a b", "a b"], [["a b"], []])


# -- a prediction equal to its gold --------------------------------------------

def _oracle_rnss(p, g):
    """RNSS from its definition: the smaller list padded at cost 1, the
    smallest padded total over every assignment."""
    n = max(len(p), len(g))
    cost = [[min(1.0, abs(pv - gv) / max(abs(gv), 1e-9)) for gv in g] for pv in p]
    _, total = exhaustive_assignment(pad_square(cost, len(p), len(g), 1.0))
    return 1.0 - total / n


def _copies():
    """Tables paired with a copy: identical, rows permuted, a repeated
    entry, 0.0 against -0.0, and text cells spelled differently."""
    x, v, w, kind = Column("x"), Column("v", NUMERIC), Column("w", NUMERIC), Column("kind")
    gold = DataTable([x, v, w], [["a", 1.5, -2.0], ["b", 0.0, 3.0], ["c", 7.25, 1e-12]])
    return [
        (gold, gold),
        (DataTable([x, v, w], [gold.rows[2], gold.rows[0], gold.rows[1]]), gold),
        (DataTable([x, v], [["a", 2.0], ["a", 2.0], ["b", 2.0]]),
         DataTable([x, v], [["a", 2.0], ["a", 2.0], ["b", 2.0]])),
        (DataTable([x, v], [["a", -0.0], ["b", 0.0]]),
         DataTable([x, v], [["a", 0.0], ["b", -0.0]])),
        (DataTable([x, v, kind], [[" A", 1.0, "Up  Down"]]),
         DataTable([x, v, kind], [["a ", 1.0, "up down"]])),
    ]


def test_an_exact_copy_scores_the_full_definitions_floats():
    for pred, gold in _copies():
        p, g = metrics._table_numbers(pred), metrics._table_numbers(gold)
        assert rnss(pred, gold) == _oracle_rnss(p, g) == 1.0
        assert rnss(p[::-1], g) == _oracle_rnss(p[::-1], g) == 1.0
        assert rms_f1(pred, gold) == _oracle_rms(pred, gold)
    gold = DataTable(
        [Column("Year"), Column("North", NUMERIC), Column("South", NUMERIC)],
        [["early", 1.0, 2.0], ["late", 3.0, -0.0]],
    )
    flipped = transpose_table(gold)
    assert rnss(flipped, gold) == 1.0
    assert rms_f1(flipped, gold) == _oracle_rms(flipped, gold) == (1.0, 1.0, 1.0)
    # A number that is not finite costs 1 against its equal, so the copy is
    # scored in full.
    for bad in (math.inf, math.nan):
        assert rnss([bad, 2.0], [2.0, bad]) == _oracle_rnss([bad, 2.0], [2.0, bad]) == 0.5
    preds = ["the cat sat .", "a b a b a", "", "one"]
    golds = [["the dog sat .", "The cat  sat."], ["a b a b a"], ["x"], ["two", "one", "three"]]
    assert corpus_bleu(preds, golds) == counter_bleu(preds, golds)
    rng = random.Random(29)
    words = ["a", "b", "c.", "B"]
    for _ in range(200):
        golds = [[_bleu_text(rng, words) for _ in range(rng.randint(1, 3))]
                 for _ in range(rng.randint(1, 4))]
        preds = [rng.choice(refs) if rng.random() < 0.6 else _bleu_text(rng, words)
                 for refs in golds]
        assert corpus_bleu(preds, golds) == counter_bleu(preds, golds)


def _refuse(*args, **kwargs):
    raise AssertionError("an exact copy must be scored without this call")


def test_an_exact_copy_does_no_scoring_work(monkeypatch):
    monkeypatch.setattr(metrics, "_assign", _refuse)
    monkeypatch.setattr(metrics, "_levenshtein_walk", _refuse)
    monkeypatch.setattr(metrics, "_ngram_counts", _refuse)
    for pred, gold in _copies():
        assert rnss(pred, gold) == 1.0
        if table_entries(pred) == table_entries(gold):  # not the permuted rows
            assert rms_f1(pred, gold) == (1.0, 1.0, 1.0)
    assert rnss([3.0, 1.0, 1.0], [1.0, 3.0, 1.0]) == 1.0
    assert corpus_bleu(["the cat sat .", "a b"], [["x y", "The cat sat."], "a b"]) == 100.0


_NORTH_SOUTH = DataTable(
    [Column("Year"), Column("North", NUMERIC), Column("South", NUMERIC)],
    [["2001", 1.0, 2.0], ["2002", 3.0, 4.0]],
)


def test_a_transposed_copy_scores_no_rows(monkeypatch):
    # The transposed entries are compared before the straight try runs.
    for name in ("_score_rows", "_certified", "_levenshtein_walk", "_assign"):
        monkeypatch.setattr(metrics, name, _refuse)
    assert rms_f1(transpose_table(_NORTH_SOUTH), _NORTH_SOUTH) == (1.0, 1.0, 1.0)


def test_a_transposed_copy_has_an_f1_of_one_only_at_a_full_total():
    """Why answering a transposed copy before the straight try keeps the
    full path's triple: the straight try then has |pred| = |gold| = n, and
    its F1 is 1.0 only when its total is n, that is when it is (1.0, 1.0,
    1.0) as well."""
    rng = random.Random(25)
    copies = 0
    for _ in range(300):
        gold = random_plain_table(rng)
        pred = transpose_table(gold)
        if pred is not None:
            copies += 1
            assert _transposed_entries(pred) == table_entries(gold)
            assert len(table_entries(pred)) == len(table_entries(gold))
    assert copies > 100
    for n in range(1, 301):
        total = float(n)
        assert metrics._prf(total, n, n) == (1.0, 1.0, 1.0)
        for _ in range(2000):
            total = math.nextafter(total, 0.0)
            assert metrics._prf(total, n, n)[2] != 1.0, (total, n)


_EVAL_TEXTS = ["", "a b", "x | v & a | 10", "x | v & a | 1e999", "a | b & 1 | 2 | 3",
               "nan | nan & 1 | 2", "the peak is 5%", "x | v & a | 9 & b | 9", "\\"]
_EVAL_PAIR = st.tuples(
    st.sampled_from(_EVAL_TEXTS),
    st.one_of(st.lists(st.sampled_from(_EVAL_TEXTS), max_size=3),
              st.sampled_from(_EVAL_TEXTS)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_EVAL_PAIR, max_size=4))
@example([("a b", [])])
@example([("a b", ["a b"]), ("x | v & a | 10", [])])
@example([("a b", "a b")])
def test_eval_input_raises_only_chartkit_errors(pairs):
    """Predictions and reference groups of any shape: an empty group, a
    group given as one string, text that is or is not a table."""
    triples = [(f"c{i}", pred, refs) for i, (pred, refs) in enumerate(pairs)]
    try:
        score_pairs(triples)
    except ChartKitError:
        pass
    try:
        corpus_bleu([pred for pred, _ in pairs], [refs for _, refs in pairs])
    except ChartKitError:
        pass


# -- number extraction & report ----------------------------------------------

def test_extract_numbers():
    assert extract_numbers("It rose 1,200 points (12%) to -3.5") == [1200.0, 12.0, -3.5]


def test_score_pairs_reads_a_string_reference_whole():
    # A reference group given as one string is that one reference, as in
    # corpus_bleu, not a group of its characters.
    flat = "x | v & a | 10"
    for pred, gold in [("10", "10"), (flat, flat), ("x | v & a | 9", flat)]:
        as_string = score_pairs([("c", pred, gold)])
        as_list = score_pairs([("c", pred, [gold])])
        assert as_string.to_json_dict() == as_list.to_json_dict()
    assert score_pairs([("c", "10", "10")], ["ra", "bleu"]).aggregate["ra"] == 1


def test_score_pairs_report():
    rng = random.Random(9)
    t = random_plain_table(rng)
    flat = flatten_table(t)
    report = score_pairs([("c1", flat, [flat])])
    assert report.aggregate["ra"] == 1
    assert report.aggregate["rnss"] == pytest.approx(1.0)
    assert report.aggregate["rms_f1"] == pytest.approx(1.0)
    assert report.aggregate["bleu"] == pytest.approx(100.0)
    assert report.per_example[0]["id"] == "c1"


@pytest.fixture
def parses(monkeypatch):
    """The texts ``score_pairs`` hands to ``unflatten_table``, in order."""
    seen = []
    real = metrics.unflatten_table

    def counting(text):
        seen.append(text)
        return real(text)

    monkeypatch.setattr(metrics, "unflatten_table", counting)
    return seen


def test_score_pairs_parses_each_side_once(parses):
    # A gold text equal to the prediction reuses the prediction's parse.
    flat = "x | v & a | 10"
    row = score_pairs([("c", flat, [flat])], ["rnss", "rms"]).per_example[0]
    assert row["rnss"] == 1.0 and row["rms_f1"] == 1.0
    assert parses == [flat]
    parses.clear()
    gold = "x | v & a | 9"
    score_pairs([("c", flat, [gold])], ["rnss", "rms"])
    assert parses == [flat, gold]


def test_corpus_bleu_tokenizes_a_reference_equal_to_its_prediction_once(monkeypatch):
    seen = []
    real = metrics.bleu_tokenize

    def counting(text):
        seen.append(text)
        return real(text)

    preds, golds = ["a b c d", "e f g"], [["x y", "a b c d"], "e f g"]
    monkeypatch.setattr(metrics, "bleu_tokenize", counting)
    assert corpus_bleu(preds, golds) == 100.0
    assert seen == ["a b c d", "x y", "e f g"]


def test_score_pairs_rnss_reads_plain_text(parses):
    # Parsed as tables, both sides would hold no numbers at all (rnss 1.0).
    row = score_pairs([("c", "The chart peaks at 5.", ["It peaks at 4"])],
                      ["rnss", "rms"]).per_example[0]
    assert row["rnss"] == 0.75
    assert "rms_error" not in row
    assert parses == ["The chart peaks at 5.", "It peaks at 4"]


def test_score_pairs_unparseable_flat_text(parses):
    # A ragged table: rnss falls back to the numbers in the text, 1 and 2
    # matching the gold's and 3 unmatched; rms reports the failed parse.
    # Each side is unflattened once, the failed one too.
    pred, gold = "a | b & 1 | 2 | 3", "a | b & 1 | 2"
    for wanted in (["rnss", "rms"], ["rnss"]):
        parses.clear()
        row = score_pairs([("c", pred, [gold])], wanted).per_example[0]
        assert row["rnss"] == 1.0 - 1.0 / 3
        assert parses == [pred, gold]
    row = score_pairs([("c", pred, [gold])], ["rms"]).per_example[0]
    assert row["rms_error"] == "unparseable table"
    assert row["rms_f1"] == row["rms_precision"] == row["rms_recall"] == 0.0


def test_score_pairs_ra_only_parses_nothing(parses):
    report = score_pairs([("c", "x | v & a | 10", ["x | v & a | 10"])], ["ra"])
    assert report.per_example == [{"id": "c", "ra": 1}]
    assert parses == []
