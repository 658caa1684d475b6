"""A fixed piece of pure-Python work that tells how fast the machine runs now.

On a shared machine the speed of a core drifts, by up to half and for
minutes at a time, as other tenants come and go; taking the fastest or the
median pass within one run cannot remove a slowdown that lasts the whole
run.  ``calibrate()`` does the kind of work the program does (tuples, sets,
dicts, sorting, sparse elimination over a prime field) on a fixed input,
without the program, so its time changes only with the machine.

Every timed step runs between calibrations, and ``scaled()`` converts
its time to *reference seconds*: the time it would take on a machine where
``calibrate()`` takes ``REFERENCE_S``.  A change to the program moves the
scaled time as it moves the raw time; a change in the machine's speed moves
both the step and its calibrations and cancels out.
"""

from __future__ import annotations

import gc
import statistics
from itertools import combinations
from time import perf_counter

P = 32003
N = 18  # side of the grid torus
# What calibrate() takes on an idle 2-vCPU Intel Xeon VM with CPython 3.11.
REFERENCE_S = 0.015


def _torus(n: int) -> list[tuple[int, ...]]:
    """Triangles of the n x n grid torus."""
    out = []
    for i in range(n):
        for j in range(n):
            a, b = n * i + j, n * i + (j + 1) % n
            c, d = n * ((i + 1) % n) + j, n * ((i + 1) % n) + (j + 1) % n
            out += [tuple(sorted((a, b, d))), tuple(sorted((a, c, d)))]
    return out


def _rank_mod_p(rows: list[dict[int, int]]) -> int:
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], P - 2, P)
                pivots[col] = {k: v * inv % P for k, v in row.items()}
                break
            piv, f = pivots[col], row[col]
            for k, v in piv.items():
                x = (row.get(k, 0) - f * v) % P
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
    return len(pivots)


def calibrate() -> float:
    """Seconds taken by the fixed work on an N x N torus (its ranks are checked).

    The cyclic garbage collector is off meanwhile, so that the size of the
    heap the program left behind does not change the time.
    """
    gc.disable()
    try:
        return _timed(N)
    finally:
        gc.enable()


def _timed(n: int) -> float:
    t0 = perf_counter()
    simplices = set()
    for facet in _torus(n):
        for r in (1, 2, 3):
            simplices.update(combinations(facet, r))
    index = {s: i for i, s in enumerate(sorted(simplices, key=lambda s: (len(s), s)))}
    boundary = {1: [], 2: []}
    for s in sorted(simplices, key=lambda s: (len(s), s)):
        if len(s) > 1:
            boundary[len(s) - 1].append({index[s[:k] + s[k + 1:]]: (-1) ** k % P for k in range(len(s))})
    ranks = (_rank_mod_p(boundary[1]), _rank_mod_p(boundary[2]))
    seconds = perf_counter() - t0
    if ranks != (n * n - 1, 2 * n * n - 1):
        raise AssertionError(f"calibration ranks {ranks}")
    return seconds


def scaled(seconds: float, cal_s: list[float]) -> float:
    """seconds in reference seconds, by the median of the calibrations around it."""
    return seconds * REFERENCE_S / statistics.median(cal_s)
