"""Machine-speed calibration for the timed operations.

On a small shared virtual machine the speed of the same Python code drifts
by 20-40 % within seconds, in phases, for reasons outside the process
(another tenant on the sibling hardware thread, for instance).  A run of
30 s then reads several phases, and its figures move with them.  The drift
acts on all interpreted code alike, so a fixed calibration loop run just
before and just after an operation measures the speed the operation ran at:
over 60 operations on this kind of machine, its time correlated 0.84-0.87
with the operation's time, and their ratio spread a third as much.

The loop is the benchmark's own code and never calls srbetti, so a change to
the program cannot move it.  ``scaled`` converts a measured time to the time
it would take at the speed at which ``calibrate`` takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

# calibrate() takes 7-17 ms, median 12 ms, on a 2.1 GHz Xeon vCPU under Python 3.11
REFERENCE_S = 0.010


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    M = [[x % p for x in row] for row in rows]
    r = 0
    for col in range(len(M[0])):
        piv = next((i for i in range(r, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][col], -1, p)
        for i in range(r + 1, len(M)):
            f = M[i][col] * inv % p
            if f:
                M[i] = [(a - f * b) % p for a, b in zip(M[i], M[r])]
        r += 1
    return r


def _work() -> int:
    """Bitmask, set, dict and small-integer work, like the program's own."""
    sums = list(range(1 << 11))
    for j in range(11):
        bit = 1 << j
        for om in range(1 << 11):
            if om & bit:
                sums[om] += sums[om ^ bit]
    faces = frozenset(m for m in range(1 << 12) if m.bit_count() <= 3)
    index = {f: i for i, f in enumerate(sorted(faces))}
    cofaces = sum(1 for f in faces for j in range(12) if (f | 1 << j) in index)
    rows = [[(i * 7 + j * 13 + i * j) % 5 for j in range(50)] for i in range(40)]
    return sums[-1] + cofaces + _rank_mod_p(rows, 3)


def calibrate() -> float:
    """Seconds taken by a fixed amount of interpreted work."""
    t0 = time.perf_counter()
    for _ in range(3):
        _work()
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """A time measured between two calibrations, at the reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)
