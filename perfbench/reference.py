"""The reference task: a fixed piece of work, without linkbound, whose
time measures the speed of the machine.

The machine of README.md switches every few seconds between a fast speed
and one 1.4-1.8x slower.  Every timed operation and set-up is scaled by
REFERENCE_S over the mean of two timings of this task, one just before it
and one just after, so it reads as that machine at its faster speed would
have measured it.  A change to linkbound does not move the task.
"""

from __future__ import annotations

from time import perf_counter

# The task's time on the machine of README.md at its faster speed.
REFERENCE_S = 0.0011


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, given the task's two timings."""
    return seconds * REFERENCE_S * 2 / (before + after)


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _sub(p: list, q: list) -> list:
    n = max(len(p), len(q))
    return _trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
                  for i in range(n)])


def _div_exact(p: list, q: list) -> list:
    p = list(p)
    out = [0] * (len(p) - len(q) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = p[k + len(q) - 1] // q[-1]
        out[k] = c
        for j, b in enumerate(q):
            p[k + j] -= c * b
    return _trim(out)


# A fixed 8 x 8 matrix of linear integer polynomials (no zero pivot).
REFERENCE_MATRIX = [[[(7 * i + 3 * j + 1) % 11 - 5, (2 * i * j + i + 1) % 7 - 3]
                     for j in range(8)] for i in range(8)]


def reference_s() -> float:
    """Seconds taken by a fixed task that does the kind of work linkbound
    does most, without linkbound: a fraction-free Bareiss determinant of
    REFERENCE_MATRIX over Z[t], on Python lists and integers.  It runs
    just before and just after every timed operation and set-up to measure
    the speed of the machine while it ran."""
    t0 = perf_counter()
    m = [[_trim(list(e)) for e in row] for row in REFERENCE_MATRIX]
    prev = [1]
    for k in range(len(m) - 1):
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = _div_exact(_sub(_mul(m[i][j], m[k][k]), _mul(m[i][k], m[k][j])),
                                     prev)
        prev = m[k][k]
    return perf_counter() - t0
