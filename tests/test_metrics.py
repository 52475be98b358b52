import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chartkit.assignment import exhaustive_assignment, hungarian, pad_square
from chartkit.errors import LengthMismatch
from chartkit.flatten import flatten_table
from chartkit.gen import random_plain_table
from chartkit.metrics import (
    corpus_bleu,
    extract_numbers,
    levenshtein,
    relaxed_accuracy,
    rms_f1,
    rnss,
    score_pairs,
    table_entries,
)
from chartkit.tables import Column, DataTable, NUMERIC


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
_EDIT_TEXT = st.text(alphabet="ab é\U0001F4C8\U00010348", max_size=150)


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


def test_table_entries_keys_normalized():
    t = DataTable(
        [Column("Country"), Column("GDP", NUMERIC)], [["  New  Zealand ", 5.0]]
    )
    entry = table_entries(t)[0]
    assert entry.row_key == "new zealand"
    assert entry.col_key == "gdp"


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


def test_pad_square():
    padded = pad_square([[0.5]], 1, 1, 1.0)
    assert padded == [[0.5]]
    padded = pad_square([[0.5, 0.2]], 1, 2, 1.0)
    assert padded == [[0.5, 0.2], [1.0, 1.0]]


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


# -- number extraction & report ----------------------------------------------

def test_extract_numbers():
    assert extract_numbers("It rose 1,200 points (12%) to -3.5") == [1200.0, 12.0, -3.5]


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
