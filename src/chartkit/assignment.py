"""Minimum-cost assignment on square matrices, and a check that skips it.

``hungarian`` is the O(n^3) potentials-and-augmenting-paths formulation in
pure Python. Each augmentation grows a tree of columns and scans only the
columns still off it, in ascending order, so a tie goes to the lowest
column, as in the textbook loop over all columns.

rnss and rms_f1 score a rectangular cost matrix padded at a constant
cost up to the larger side (rnss at 1; rms_f1 solves on the negated
scores, padded at 0). ``unique_optimum`` reads the rectangular part
alone. When each line of the smaller side (the rows, or the columns when
rows outnumber them) has a finite minimum below every other cell of the
line by more than ``MARGIN``, and no two of those minima share a column
(a row), every other assignment costs more by over ``MARGIN``: the
padding costs the same whichever cells it takes. ``hungarian`` finds
that optimum too, so the summed float is known without the O(n^3)
search: the same cells, summed in the same row order. Only the padding
column that a leftover row gets is ``hungarian``'s own tie-break, and
nothing reads it. The padding is built only when the check fails, by
``metrics._assign``, which then runs ``hungarian`` on the square. A
rectangular solver (Jonker-Volgenant) would skip the padding always, but
it may pick another optimum on a tie, which changes the summed float
score. ``exhaustive_assignment`` brute-forces every permutation and
exists as the cross-check oracle for small instances.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Optional

from .errors import InvalidCostMatrix
from .tables import left_sum

INF = float("inf")
# How far a line's minimum must lie below the rest of it for
# ``unique_optimum``: far above the rounding of the potentials
# ``hungarian`` sums, for costs of order 1.
MARGIN = 1e-9


def hungarian(cost: list[list[float]]) -> tuple[list[int], float]:
    """Optimal assignment for an n x n cost matrix.

    Returns (assign, total) where assign[i] is the column matched to row i
    and total is the summed cost of the chosen cells. A -inf cost, and an
    inf or NaN cost that the search cannot step around, raise
    ``InvalidCostMatrix`` naming it; an inf or NaN cost is never chosen.
    """
    n = len(cost)
    if n == 0:
        return [], 0.0
    if any(len(row) != n for row in cost):
        raise InvalidCostMatrix("cost matrix must be square")

    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: row assigned to column j (1-based, 0 = none)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        free = list(range(1, n + 1))  # columns off the tree, ascending
        used = [0]  # columns on the tree
        while True:
            i0 = p[j0]
            row = cost[i0 - 1]
            ui = u[i0]
            delta = INF
            j1 = 0
            for j in free:
                cur = row[j - 1] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            # Checked here, not up front, so finite input pays nothing.
            if not -INF < delta < INF:
                raise InvalidCostMatrix(_non_finite(cost))
            for j in used:
                u[p[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
            free.remove(j0)
            used.append(j0)
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    assign = [0] * n
    for j in range(1, n + 1):
        if p[j]:
            assign[p[j] - 1] = j - 1
    total = left_sum(cost[i][assign[i]] for i in range(n))
    return assign, total


def unique_optimum(
    cost: list[list[float]], n_cols: int
) -> Optional[list[Optional[int]]]:
    """The assignment of a provably unique optimum, or None.

    ``cost`` holds the rows of a matrix with ``n_cols`` columns that is
    padded at a constant cost up to a square. The lines of its smaller side
    are checked: the rows when ``len(cost) <= n_cols``, else the columns.
    When every line has a finite minimum that beats the rest of the line by
    more than ``MARGIN`` and holds no NaN, and the minima of no two lines
    meet in one row or column, those cells are the optimum of the padded
    square. The result gives the column of each row, or None for a row
    that the optimum leaves to the padding. When the check fails, None is
    returned and nothing is known.
    """
    n_rows = len(cost)
    lines = cost if n_rows <= n_cols else list(zip(*cost))
    picks = []
    for line in lines:
        ordered = sorted(line)
        best = ordered[0]
        second = ordered[1] if len(ordered) > 1 else INF
        # ``sorted`` does not order a line holding a NaN, and a NaN makes
        # the sum NaN: such a line fails.
        if not (-INF < best < INF and second - best > MARGIN) or math.isnan(sum(line)):
            return None
        picks.append(line.index(best))
    if len(set(picks)) < len(picks):
        return None
    if lines is cost:
        return picks
    assign: list[Optional[int]] = [None] * n_rows
    for j, i in enumerate(picks):
        assign[i] = j
    return assign


def _non_finite(cost: list[list[float]]) -> str:
    """What an error says of the first cost that is not a finite number."""
    for i, row in enumerate(cost):
        for j, c in enumerate(row):
            if not math.isfinite(c):
                return f"cost[{i}][{j}] is {c!r}; costs must be finite"
    return "the costs overflow a float in the search"


def exhaustive_assignment(cost: list[list[float]]) -> tuple[list[int], float]:
    """Permutation search over the same problem; oracle for small n."""
    n = len(cost)
    if n == 0:
        return [], 0.0
    best_perm, best_total = None, INF
    for perm in permutations(range(n)):
        total = left_sum(cost[i][perm[i]] for i in range(n))
        if total < best_total:
            best_perm, best_total = perm, total
    return list(best_perm), best_total
