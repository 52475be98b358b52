"""Reference implementations the eval scorers are checked against.

``split_flat_scan`` splits flattened table text one character at a time
and ``counter_bleu`` clips BLEU n-gram counts with ``Counter`` algebra.
Both are the straightforward forms of what ``chartkit.flatten._split_flat``
and ``chartkit.metrics.corpus_bleu`` compute, kept here only as test
oracles: the tests require equal rows and equal floats.
"""

import math
from collections import Counter

from chartkit.flatten import CELL_SEP, ROW_SEP
from chartkit.metrics import EPS, bleu_tokenize


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
