"""The exact matrix kernel: one fraction-free Bareiss elimination over Z[t]
for determinants, ranks, leading principal minors and ranks at a point.

Entries are integer polynomials in the dense list convention of
:mod:`linkbound.polys`; an integer matrix is a matrix of constants.
Bareiss elimination (Bareiss 1968) keeps every intermediate value in
Z[t]: each step divides exactly by the previous pivot, by integer
``divmod`` on the coefficients, and raises ``ValueError`` if a division
leaves a remainder.  Every entry after step k is the minor bordering the
pivot block, and pivoting is complete over a caller-supplied "entry is
nonzero" test:

* with the test q != 0 the pivots give the determinant, and their number
  is the rank over Q(t);
* with the test q(z0) != 0 every pivot is nonzero at z0, so their number
  is the rank of the matrix at t = z0;
* the pivot search tries the diagonal entry first, so the pivots up to
  the first off-diagonal one are the leading principal minors.
"""

from __future__ import annotations

from . import polys


def _exact_quotient(num: list, den: list) -> list:
    """num / den for integer polynomials whose quotient lies in Z[t].

    Long division with integer ``divmod`` on the coefficients; raises
    ValueError on a nonzero remainder rather than truncating."""
    dd = len(den) - 1
    rem = list(num)
    quo = [0] * max(len(rem) - dd, 0)
    for shift in reversed(range(len(quo))):
        q, r = divmod(rem[shift + dd], den[-1])
        if r:
            raise ValueError("inexact division in Z[t]")
        quo[shift] = q
        for i in range(dd):
            rem[shift + i] -= q * den[i]
    if any(rem[:dd]):
        raise ValueError("inexact division in Z[t]")
    return quo


def _cross(a: list, p: list, h: list, b: list) -> list:
    """a p - h b for dense integer polynomials, trimmed."""
    out = [0] * max(len(a) + len(p), len(h) + len(b), 1)
    for i, c in enumerate(a):
        for j, d in enumerate(p):
            out[i + j] += c * d
    for i, c in enumerate(h):
        for j, d in enumerate(b):
            out[i + j] -= c * d
    while out and not out[-1]:
        out.pop()
    return out


def _bareiss(matrix, nonzero=bool) -> tuple[int, list, list, list]:
    """Fraction-free Bareiss elimination with complete pivoting of a matrix
    of integer polynomials (dense lists).

    At step k the pivot is the first entry of the remaining block, in
    row-major order from (k, k), that passes `nonzero`; the elimination
    stops when no entry passes.  Returns (sign, pivots, rows, cols):
    pivot k is the minor on the original rows rows[:k + 1] and columns
    cols[:k + 1], and sign is the sign of the row and column swaps, so for
    a square matrix of full rank sign times the last pivot is the
    determinant.
    """
    m = [[polys.trim(e) for e in row] for row in matrix]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rows, cols = list(range(nrows)), list(range(ncols))
    sign = 1
    prev = [1]
    pivots = []
    for k in range(min(nrows, ncols)):
        at = next(((i, j) for i in range(k, nrows) for j in range(k, ncols)
                   if nonzero(m[i][j])), None)
        if at is None:
            break
        i, j = at
        if i != k:
            m[k], m[i] = m[i], m[k]
            rows[k], rows[i] = rows[i], rows[k]
            sign = -sign
        if j != k:
            for row in m:
                row[k], row[j] = row[j], row[k]
            cols[k], cols[j] = cols[j], cols[k]
            sign = -sign
        pivot = m[k][k]
        pivots.append(pivot)
        top = m[k]
        for row in m[k + 1:]:
            head = row[k]
            for j in range(k + 1, ncols):
                if head or row[j]:  # else the new entry is 0 as well
                    row[j] = _exact_quotient(_cross(row[j], pivot, head, top[j]), prev)
        prev = pivot
    return sign, pivots, rows[:len(pivots)], cols[:len(pivots)]


def poly_det(matrix) -> list:
    """Determinant of a square matrix of integer polynomials (dense lists).

    Every Bareiss division is exact in Z[t] (the quotients are minors).
    A division that leaves a remainder, which non-integer entries can
    cause, raises ValueError rather than truncating."""
    if not matrix:
        return [1]
    sign, pivots, _, _ = _bareiss(matrix)
    if len(pivots) < len(matrix):
        return []
    return polys.neg(pivots[-1]) if sign < 0 else pivots[-1]


def poly_rank(matrix) -> int:
    """Rank over Q(t) of a matrix of integer polynomials (dense lists)."""
    return len(_bareiss(matrix)[1])


def _constants(matrix) -> list:
    return [[[int(v)] for v in row] for row in matrix]


def int_rank_det(matrix) -> tuple[int, int]:
    """(rank over Q, determinant) of a square integer matrix, from one
    elimination."""
    if not matrix:
        return 0, 1
    sign, pivots, _, _ = _bareiss(_constants(matrix))
    return len(pivots), sign * pivots[-1][0] if len(pivots) == len(matrix) else 0
