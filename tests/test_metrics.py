import math
import random
import re
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chartkit.assignment import exhaustive_assignment, hungarian, pad_square
from chartkit.errors import ChartKitError, LengthMismatch
from chartkit.flatten import flatten_table
from chartkit.gen import random_plain_table
from chartkit import metrics
from chartkit.metrics import (
    _levenshtein_walk,
    _pack_keys,
    _transposed,
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
    assert _levenshtein_walk(_pack_keys(keys), (b,))[b] == [
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
    got = _levenshtein_walk(_pack_keys(keys), texts)
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


def _oracle_rms(pred, gold):
    """RMS from its definition: the DP edit distance for the key term, every
    permutation for the assignment, the transposed retry."""

    def entry_score(p, g):
        if isinstance(p.value, float) and isinstance(g.value, float):
            v = 1.0 - min(1.0, abs(p.value - g.value) / max(abs(g.value), 1e-9))
        else:
            v = 1.0 if p.value == g.value else 0.0
        if v == 0.0:
            return 0.0
        longest = max(len(p.key), len(g.key))
        d = dp_levenshtein(p.key, g.key) / longest if longest else 0.0
        return (1.0 - d) * v

    def once(pe, ge):
        if not pe and not ge:
            return 1.0, 1.0, 1.0
        if not pe or not ge:
            return 0.0, 0.0, 0.0
        scores = [[entry_score(p, g) for g in ge] for p in pe]
        cost = [[1.0 - x for x in row] for row in scores]
        assign, _ = exhaustive_assignment(pad_square(cost, len(pe), len(ge), 1.0))
        total = sum(scores[i][assign[i]] for i in range(len(pe)) if assign[i] < len(ge))
        precision, recall = total / len(pe), total / len(ge)
        if precision + recall == 0:
            return precision, recall, 0.0
        return precision, recall, 2 * precision * recall / (precision + recall)

    gold_entries = table_entries(gold)
    best = once(table_entries(pred), gold_entries)
    flipped = _transposed(pred)
    if flipped is not None:
        alt = once(table_entries(flipped), gold_entries)
        if alt[2] > best[2]:
            best = alt
    return best


def _small_table(rng, labels, names):
    """1-3 rows keyed by ``labels``, 1-2 numeric columns and, sometimes, a
    categorical one: at most 6 entries, so every permutation can be tried."""
    n_rows = rng.randint(0, 3)
    columns = [Column("x")] + [
        Column(name, NUMERIC) for name in rng.sample(names, rng.randint(1, 2))
    ]
    if rng.random() < 0.3:
        columns = columns[:2] + [Column("kind", CATEGORICAL)]
    rows = []
    for label in rng.sample(labels, n_rows):
        rows.append([label] + [
            rng.choice(["a", "b"]) if c.kind == CATEGORICAL
            else round(rng.uniform(-50, 50), rng.choice([0, 2]))
            for c in columns[1:]
        ])
    return DataTable(columns, rows)


def test_rms_matches_definition():
    rng = random.Random(17)
    labels = ["north", "nort", "south", "", "north east", "\U0001F4C8 up"]
    names = ["sales", "sale", "cost", " "]
    for _ in range(300):
        gold = _small_table(rng, labels, names)
        pred = _small_table(rng, labels, names) if rng.random() < 0.5 else gold
        if rng.random() < 0.3 and _transposed(gold) is not None:
            pred = _transposed(gold)
        assert rms_f1(pred, gold) == _oracle_rms(pred, gold)


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
    flat = "x | v & a | 10"
    row = score_pairs([("c", flat, [flat])], ["rnss", "rms"]).per_example[0]
    assert row["rnss"] == 1.0 and row["rms_f1"] == 1.0
    assert parses == [flat, flat]


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
