"""Minimum-cost assignment on square matrices.

``hungarian`` is the O(n^3) potentials-and-augmenting-paths formulation in
pure Python. Each augmentation grows a tree of columns and scans only the
columns still off it, in ascending order, so a tie goes to the lowest
column, as in the textbook loop over all columns. rnss and rms_f1 run it
on cost matrices they build square, row by row, padding the smaller side
at cost 1 up to the larger side's number or entry count, which reaches
tens of rows on wide tables and hundreds at real benchmark table sizes. A
rectangular solver (Jonker-Volgenant) would skip the padding, but it may
pick another optimum on a tie, which changes the summed float score; the
eval workloads' matrices are mostly square already.
``exhaustive_assignment`` brute-forces every permutation and exists as
the cross-check oracle for small instances.
"""

from __future__ import annotations

import math
from itertools import permutations

from .errors import InvalidCostMatrix

INF = float("inf")


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
    total = sum(cost[i][assign[i]] for i in range(n))
    return assign, total


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
        total = sum(cost[i][perm[i]] for i in range(n))
        if total < best_total:
            best_perm, best_total = perm, total
    return list(best_perm), best_total
