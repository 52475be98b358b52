"""Independent brute-force answer evaluator for the QA templates.

The production oracles in chartkit.templates read the rendered chart's
marks and legend. This module recomputes every answer directly from the
chart's canonical wide table plus the documented rendering conventions
(row order = left-to-right, column order = legend order, ties to the
leftmost entry). It deliberately shares no selection logic with the
production path; only the number formatter and the color-word mapping are
reused, since those are presentation, not computation.
"""

import operator
from collections import Counter
from functools import reduce

from chartkit.flatten import format_number as fmt
from chartkit.palettes import color_name
from chartkit.synth import PIE


def _left_sum(values):
    return reduce(operator.add, values, 0)  # left to right, as Python 3.11's sum


class TableFacts:
    """Everything the brute evaluator knows, taken from the wide table."""

    def __init__(self, chart):
        self.chart_type = chart.chart_type
        self.is_pie = chart.chart_type == PIE
        table = chart.table
        self.xs = [row[0] for row in table.rows]
        if self.is_pie:
            self.series = list(self.xs)
            self.columns = {}
            self.seg_values = [row[1] for row in table.rows]
        else:
            self.series = [c.name for c in table.columns[1:]]
            self.columns = {
                c.name: [row[j + 1] for row in table.rows]
                for j, c in enumerate(table.columns[1:])
            }
            self.seg_values = []
        self.legend = list(chart.legend)
        self.word_of = {name: color_name(color) for name, color in self.legend}

    def values(self, series):
        return list(self.columns[series])

    def value_at(self, series, x):
        return self.columns[series][self.xs.index(x)]

    def single(self, x):
        if self.is_pie:
            return self.seg_values[self.xs.index(x)]
        return self.columns[self.series[0]][self.xs.index(x)]

    def reading_order(self):
        """(x, series, value) triples: x outer, series inner."""
        if self.is_pie:
            return [(x, x, v) for x, v in zip(self.xs, self.seg_values)]
        return [
            (x, s, self.columns[s][i])
            for i, x in enumerate(self.xs)
            for s in self.series
        ]

    def all_values(self):
        return [v for _, _, v in self.reading_order()]

    def cluster_values(self, x):
        i = self.xs.index(x)
        return [self.columns[s][i] for s in self.series]


def _median(vals):
    s = sorted(vals)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def _mode(vals):
    counts = Counter(vals)
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def _argmax_reading(triples, key):
    best = None
    for x, s, v in triples:
        if best is None or key(v) > key(best[2]):
            best = (x, s, v)
    return best


def _argmin_reading(triples, key=lambda v: v):
    best = None
    for x, s, v in triples:
        if best is None or key(v) < key(best[2]):
            best = (x, s, v)
    return best


def _first_extreme(vals, largest=True):
    """Index of the max (or min), first occurrence winning ties."""
    best = 0
    for i, v in enumerate(vals):
        if (largest and v > vals[best]) or (not largest and v < vals[best]):
            best = i
    return best


def _rank_desc_labels(xs, vals):
    order = sorted(range(len(vals)), key=lambda i: (-vals[i], i))
    return [xs[o] for o in order]


def _pair_answer(xs, xa, xb):
    first, second = sorted((xa, xb), key=xs.index)
    return f"{first} and {second}"


def _ratio(a, b):
    return fmt(round(a / b, 2))


def _yn(cond):
    return "Yes" if cond else "No"


def brute_answer(chart, template_id, binding):
    """Recompute the answer for (template, binding) from the table alone."""
    t = TableFacts(chart)
    b = binding
    xs = t.xs

    if template_id == "T01":
        return fmt(t.cluster_values(xs[1])[0])
    if template_id == "T02":
        return fmt(t.cluster_values(xs[-2])[-1])
    if template_id == "T03":
        return fmt(t.cluster_values(xs[-1])[-2])
    if template_id == "T04":
        return fmt(t.cluster_values(xs[0])[-2])
    if template_id == "T05":
        vals = t.all_values()
        if b["alt"] == "Topmost":
            return fmt(vals[_first_extreme(vals, largest=True)])
        return fmt(vals[0])
    if template_id == "T06":
        vals = t.all_values()
        if b["alt"] == "Bottommost":
            return fmt(vals[_first_extreme(vals, largest=False)])
        return fmt(vals[-1])
    if template_id == "T07":
        vals = t.all_values()
        if b["alt"] == "left":
            return fmt(vals[1])
        order = sorted(range(len(vals)), key=lambda i: (-vals[i], i))
        return fmt(vals[order[1]])
    if template_id == "T08":
        vals = t.all_values()
        if b["alt"] == "right":
            return fmt(vals[-2])
        order = sorted(range(len(vals)), key=lambda i: (vals[i], i))
        return fmt(vals[order[1]])
    if template_id in ("T09", "T10", "T11", "T12"):
        cluster = t.cluster_values(xs[0] if template_id in ("T09", "T10") else xs[-1])
        largest = template_id in ("T09", "T11")
        return fmt(cluster[_first_extreme(cluster, largest=largest)])

    if template_id == "T13":
        return fmt(t.values(b["_series"])[0])
    if template_id == "T14":
        return fmt(t.values(b["_series"])[-1])
    if template_id == "T15":
        return fmt(t.values(b["_series"])[1])
    if template_id == "T16":
        return fmt(t.values(b["_series"])[-2])
    if template_id in ("T17", "T55", "T90"):
        return b["_series"]
    if template_id == "T18":
        return t.word_of[b["legend_label"]]

    if template_id == "T19":
        return b["x1"] if t.single(b["x1"]) > t.single(b["x2"]) else b["x2"]
    if template_id == "T20":
        vals = t.all_values()
        return fmt((max(vals) + min(vals)) / b["n"])
    if template_id in ("T21", "T76"):
        series = b.get("legend_label") or b["_series"]
        vals = t.values(series)
        return xs[_first_extreme(vals, largest=True)]
    if template_id == "T22":
        vals = t.values(b["legend_label"])
        return fmt(max(vals) - min(vals))
    if template_id == "T23":
        return fmt(_left_sum(v for v in t.seg_values if v > b["value"]))
    if template_id == "T24":
        return fmt(_left_sum(sorted(t.all_values(), reverse=True)[:3]))
    if template_id == "T25":
        vals = t.values(b["legend_label"])
        return fmt(_median(vals) if b["alt"] == "median" else _mode(vals))
    if template_id == "T26":
        return fmt(min(t.values(b["legend_label"])))
    if template_id == "T27":
        vals = t.values(b["legend_label"])
        return fmt(max(vals) if b["alt"] == "largest" else min(vals))
    if template_id in ("T28", "T32"):
        return _pair_answer(xs, b["_xa"], b["_xb"])
    if template_id == "T29":
        s = sorted(t.values(b["legend_label"]))
        return fmt(s[1] + s[-2])
    if template_id == "T30":
        return _rank_desc_labels(xs, t.values(b["legend_label"]))[1]
    if template_id == "T31":
        s = sorted(t.values(b["legend_label"]))
        return fmt(s[len(s) // 2 - 1] + s[len(s) // 2])
    if template_id == "T33":
        vals = t.values(b["legend_label"])[b["_i"] : b["_j"] + 1]
        return fmt(_left_sum(vals) / len(vals))
    if template_id == "T34":
        vals = t.values(b["legend_label"])
        return fmt((max(vals) + min(vals)) / 2)
    if template_id == "T35":
        v1 = t.values(b["legend_label_1"])
        v2 = t.values(b["legend_label_2"])
        return fmt(_left_sum(v1) / len(v1) + _left_sum(v2) / len(v2))
    if template_id == "T36":
        hi = max(t.values(b["legend_label_1"]))
        lo = min(t.values(b["legend_label_2"]))
        return fmt(hi + lo if b["alt"] == "sum" else abs(hi - lo))
    if template_id == "T37":
        v1 = t.values(b["legend_label_1"])
        v2 = t.values(b["legend_label_2"])
        diffs = [abs(a - c) for a, c in zip(v1, v2)]
        largest = b["alt"] == "maximum"
        return xs[_first_extreme(diffs, largest=largest)]
    if template_id == "T38":
        vals = t.values(b["legend_label"])
        return xs[_first_extreme(vals, largest=False)]
    if template_id == "T39":
        triples = t.reading_order()
        pick = _argmax_reading(triples, lambda v: v) if b["alt"] == "largest" \
            else _argmin_reading(triples)
        return pick[0]
    if template_id == "T40":
        return fmt(_left_sum(_median(t.values(s)) for s in t.series))
    if template_id == "T41":
        above = [v for v in t.all_values() if v > b["value"]]
        return fmt(_left_sum(above) / len(above))
    if template_id in ("T42", "T43"):
        v1 = t.values(b["legend_label_1"])
        v2 = t.values(b["legend_label_2"])
        diffs = [abs(a - c) for a, c in zip(v1, v2)]
        if template_id == "T42":
            return fmt(max(diffs) + min(diffs))
        return fmt(max(diffs) if b["alt"] == "maximum" else min(diffs))

    if template_id == "T44":
        return _ratio(max(t.seg_values), min(t.seg_values))
    if template_id == "T45":
        s = sorted(t.seg_values)
        return _ratio(s[-1], s[-2]) if b["alt"] == "largest" else _ratio(s[1], s[0])

    if template_id == "T46":
        vals = t.all_values()
        return fmt(abs(vals[0] - vals[-1]))
    if template_id == "T47":
        return fmt(_left_sum(t.cluster_values(xs[1])))
    if template_id == "T48":
        return fmt(_left_sum(t.cluster_values(xs[-1])))
    if template_id == "T49":
        vals = t.all_values()
        return _ratio(vals[0], vals[1])
    if template_id == "T50":
        return fmt(abs(t.values(b["_series_1"])[-1] - t.values(b["_series_2"])[0]))
    if template_id == "T51":
        vals = t.values(b["_series"])
        return fmt(_left_sum(vals) / len(vals))
    if template_id == "T52":
        return str(sum(1 for v in t.values(b["_series"]) if v > b["N"]))
    if template_id == "T53":
        vals = t.cluster_values(xs[-2])
        return fmt(_left_sum(vals) / len(vals))
    if template_id == "T54":
        return str(sum(1 for v in t.cluster_values(xs[0]) if v > b["N"]))
    if template_id == "T56":
        return fmt(_median(t.values(b["_series"])))
    if template_id == "T57":
        return fmt((_left_sum(t.values(b["_series_1"])) + _left_sum(t.values(b["_series_2"]))) / 2)
    if template_id == "T58":
        return fmt(
            (_median(t.values(b["_series_1"])) + _median(t.values(b["_series_2"]))) / 2
        )
    if template_id == "T59":
        v1, v2 = t.values(b["_series_1"]), t.values(b["_series_2"])
        return fmt(min(abs(a - c) for a, c in zip(v1, v2)))
    if template_id == "T60":
        cluster = t.cluster_values(xs[0])
        return _ratio(cluster[0], cluster[-1])
    if template_id == "T61":
        return fmt(max(t.values(b["_series"])))
    if template_id == "T62":
        return fmt(min(t.values(b["_series"])))
    if template_id == "T63":
        return fmt(_left_sum(t.values(b["_series"])))
    if template_id == "T64":
        return fmt(abs(max(t.cluster_values(xs[0])) - max(t.cluster_values(xs[1]))))
    if template_id == "T65":
        return fmt(t.values(b["_series_1"])[0] + t.values(b["_series_2"])[-1])
    if template_id == "T66":
        s = sorted(t.values(b["_series"]))
        return fmt(s[1] - s[0])
    if template_id == "T67":
        vals = t.values(b["_series"])
        return fmt((max(vals) + min(vals)) / 2)
    if template_id == "T68":
        return fmt(t.value_at(b["_series"], b["x"]))
    if template_id == "T69":
        total = t.value_at(b["_series_1"], b["x"]) + t.value_at(b["_series_2"], b["x"])
        return fmt(total if b["alt"] == "Sum" else total / 2)
    if template_id == "T70":
        return fmt(max(t.values(b["_series_1"])) + max(t.values(b["_series_2"])))
    if template_id == "T71":
        pick = max if b["alt"] == "highest" else min
        best_name, best = None, None
        for name in t.series:
            v = pick(t.values(name))
            if best is None or (b["alt"] == "highest" and v > best) or (
                b["alt"] == "smallest" and v < best
            ):
                best_name, best = name, v
        return t.word_of[best_name]
    if template_id == "T72":
        counts = Counter(t.values(b["_series"]))
        return str(sum(c for c in counts.values() if c >= 2))
    if template_id == "T73":
        vals = t.values(b["_series"])
        return fmt(vals[-1] + vals[-2])
    if template_id == "T74":
        s = sorted(t.all_values())
        return fmt(s[0] * s[1])
    if template_id == "T75":
        vals = t.values(b["_series"])
        return fmt(min(vals) + _median(vals))
    if template_id == "T77":
        vals = t.values(b["_series"])[-3:]
        return fmt(_left_sum(vals) / 3)
    if template_id == "T78":
        return str(sum(1 for v in t.values(b["_series"]) if v > b["value"]))
    if template_id == "T79":
        s = sorted(t.values(b["_series"]), reverse=True)
        return _ratio(s[0], s[1] if b["alt"] == "second" else s[2])
    if template_id == "T80":
        return _yn(
            min(t.values(b["_series_1"])) + min(t.values(b["_series_2"]))
            > max(t.values(b["_series_3"]))
        )
    if template_id == "T81":
        return _yn(
            _median(t.values(b["_series_1"])) > _median(t.values(b["_series_2"]))
        )
    if template_id == "T82":
        return _yn(
            _median(t.values(b["_series_1"])) > max(t.values(b["_series_2"]))
        )
    if template_id == "T83":
        return fmt(t.value_at(b["_series"], b["x1"]) * t.value_at(b["_series"], b["x2"]))
    if template_id == "T84":
        vals = t.all_values()
        n = len(vals)
        mid = vals[n // 2 - 1] + vals[n // 2]
        return _yn(mid > max(vals) + min(vals))
    if template_id == "T85":
        return _ratio(
            t.value_at(b["_series_1"], b["x1"]), t.value_at(b["_series_2"], b["x2"])
        )
    if template_id == "T86":
        return _yn(_left_sum(t.values(b["_series_1"])) > _left_sum(t.values(b["_series_2"])))
    if template_id == "T87":
        a = _left_sum(sorted(t.values(b["_series_1"]))[:2])
        c = _left_sum(sorted(t.values(b["_series_2"]))[:2])
        return fmt(abs(a - c))
    if template_id == "T88":
        s = sorted(t.values(b["_series"]))
        two = s[:2] if b["which"] == "smallest" else s[-2:]
        total = _left_sum(two)
        return fmt(total if b["alt"] == "sum" else total / 2)
    if template_id == "T89":
        return _ratio(t.single(b["_x1"]), t.single(b["_x2"]))

    raise KeyError(f"no brute evaluator for {template_id}")
