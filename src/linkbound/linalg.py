"""Exact matrix kernels: Bareiss determinants over Z and Z[t], ranks over
Q and Q(t).

Polynomial entries use the dense list convention of :mod:`linkbound.polys`.
Bareiss (fraction-free) elimination keeps every intermediate value in the
base ring.  Over Z[t] the entries must be integer polynomials: each
elimination step divides exactly in Z[t], by integer ``divmod`` on the
coefficients, and raises ``ValueError`` if a division leaves a remainder.
Without row swaps the Bareiss pivots are the leading principal minors, so
one elimination yields all of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import polys


def int_det(matrix) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rational_rank(matrix) -> int:
    """Rank over Q of a matrix with int/Fraction entries."""
    m = [[Fraction(v) for v in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, rows):
            if m[i][col] != 0:
                f = m[i][col] / pv
                for j in range(col, cols):
                    m[i][j] -= f * m[rank][j]
        rank += 1
        if rank == rows:
            break
    return rank


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


def _bareiss_pivots(matrix, swap_rows: bool = True) -> tuple[int, list]:
    """(sign, pivots) of fraction-free Bareiss elimination of a square
    matrix of integer polynomials (dense lists).

    The pivots are produced in order and the elimination stops after the
    first zero pivot, so the last pivot times `sign` is the determinant
    (zero when the elimination stopped early).  With `swap_rows` a zero
    pivot is first replaced by swapping in a lower row, and `sign` tracks
    the swaps.  Without row swaps, pivot k is exactly the leading
    principal minor of size k + 1.
    """
    n = len(matrix)
    m = [[polys.trim(e) for e in row] for row in matrix]
    sign = 1
    prev = [1]
    pivots = []
    for k in range(n):
        if not m[k][k] and swap_rows:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
        pivot = m[k][k]
        pivots.append(pivot)
        if not pivot:
            break
        for i in range(k + 1, n):
            row, head = m[i], m[i][k]
            for j in range(k + 1, n):
                num = polys.sub(polys.mul(row[j], pivot), polys.mul(head, m[k][j]))
                row[j] = _exact_quotient(num, prev)
        prev = pivot
    return sign, pivots


def poly_det(matrix) -> list:
    """Determinant of a square matrix of integer polynomials (dense lists),
    via fraction-free Bareiss elimination with row pivoting.

    For integer entries every division is exact in Z[t] (the quotients
    are minors).  It is done by integer divmod on the coefficients, and a
    division that leaves a remainder, which non-integer entries can
    cause, raises ValueError rather than truncating."""
    if not matrix:
        return [1]
    sign, pivots = _bareiss_pivots(matrix)
    det = pivots[-1]
    return polys.neg(det) if sign < 0 else det


def _integer_poly_row(row) -> list[list]:
    """Scale a row of rational polynomials by a positive integer so every
    coefficient is an int (rank-preserving)."""
    mult = 1
    for p in row:
        for c in p:
            if isinstance(c, Fraction):
                mult = lcm(mult, c.denominator)
    return [[int(c * mult) for c in p] for p in row]


def _strip_row_content(row) -> list[list]:
    g = 0
    for p in row:
        for c in p:
            g = gcd(g, abs(c))
    if g > 1:
        return [[c // g for c in p] for p in row]
    return row


def poly_rank(matrix) -> int:
    """Rank over Q(t) of a matrix of integer/rational polynomials, by
    fraction-free Gaussian elimination (cross-multiplied row operations,
    with content stripping to tame coefficient growth)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    m = [_integer_poly_row([polys.trim(e) for e in row]) for row in matrix]
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, rows):
            if m[i][col]:
                f = m[i][col]
                new_row = [polys.sub(polys.mul(m[i][j], pv), polys.mul(f, m[rank][j]))
                           for j in range(cols)]
                m[i] = _strip_row_content(new_row)
        rank += 1
        if rank == rows:
            break
    return rank
