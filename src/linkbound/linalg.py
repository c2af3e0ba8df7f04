"""The exact matrix kernel: one fraction-free Bareiss elimination over Z[t]
for determinants, ranks, leading principal minors and ranks at a point,
and the signature of an integer symmetric matrix by congruence.

Entries are integer polynomials in the dense list convention of
:mod:`linkbound.polys`.  In Bareiss elimination (Bareiss 1968) every
entry after step k is a minor.  On |t| = 1 a minor is at most the
product of its rows' 2-norms (Hadamard's inequality), each coefficient
is at most the minor's largest modulus there, and each row factor below
is at least 1, so every minor of every submatrix has coefficients below
2^(K-2) for K = ceil(bitlen(prod_i max(1, sum_j ||a_ij||_1^2)) / 2) + 2,
computed in integers.  A minor is then its value at t = 2^K read in
balanced base-2^K digits, and is nonzero exactly when that value is
(Kronecker substitution).  So the kernel packs each entry as that
integer and eliminates with integer products and exact integer division
(_eliminate).  Non-integer coefficients raise ``ValueError`` before
packing.  A caller that keeps a matrix packed, as the signature layer
keeps tV - V^T (packed straight from V), eliminates copies of its rows;
an integer matrix is eliminated as it stands, with no packing.

Pivoting is complete over a caller-supplied "entry is nonzero" test:

* with the test q != 0 the pivots give the determinant, and their number
  is the rank over Q(t);
* with the test q(z0) != 0 every pivot is nonzero at z0, so their number
  is the rank of the matrix at t = z0;
* the pivot search tries the diagonal entry first, so the pivots up to
  the first off-diagonal one are the leading principal minors;
* a run stopped after k steps under one test resumes under another, so
  a rank at a point can start from k generic steps.

Rows are scaled lazily: a row whose entry in the pivot column is 0 would
only be multiplied by p_k / p_(k-1), so it is left as it is and
remembers the step s after which it was last written.  When it is next
touched, at step k, it becomes (row p_k - head top) / p_s, the minor that
the eager update gives, and a pivot row is first brought up to date by
p_(k-1) / p_s.  A stale entry is the current one times a ratio of earlier
pivots, each nonzero and passing the test, so the pivot search may read
stale entries and still picks the eager search's pivots.  On a banded
matrix each step rewrites only the rows that meet the band.
"""

from __future__ import annotations

from itertools import islice

from . import polys


def _pack(p, k_bits: int) -> int:
    """The integer polynomial p at t = 2^k_bits."""
    v = 0
    for c in reversed(p):
        v = (v << k_bits) + int(c)
    return v


def _unpack(v: int, k_bits: int) -> list:
    """The integer polynomial whose value at t = 2^k_bits is v and whose
    coefficients lie in [-2^(k_bits-1), 2^(k_bits-1)): the balanced
    base-2^k_bits digits of v, trimmed."""
    out, half = [], 1 << (k_bits - 1)
    while v:
        v, d = divmod(v + half, 1 << k_bits)
        out.append(d - half)
    return out


def _hadamard_bits(norms) -> int:
    """K = ceil(bitlen(prod_i max(1, sum_j n_ij^2)) / 2) + 2 for the
    coefficient 1-norms n_ij of a matrix's entries, row by row: every
    minor of every submatrix has coefficients below 2^(K-2)."""
    bound = 1
    for row in norms:
        bound *= max(1, sum([v * v for v in row]))
    return (bound.bit_length() + 1) // 2 + 2


def _packing_bits(matrix) -> int:
    """The Hadamard K of a matrix of integer polynomials (see
    _hadamard_bits).  Raises ValueError on a non-integer coefficient."""
    norms = []
    for row in matrix:
        if any(c != int(c) for p in row for c in p):
            raise ValueError("non-integer coefficient: the kernel works in Z[t]")
        norms.append([int(sum(map(abs, p))) for p in row])
    return _hadamard_bits(norms)


def _eliminate(m, k_bits: int = 0, nonzero=bool, stop=None, start=None) -> tuple:
    """Fraction-free Bareiss elimination with complete pivoting, in place,
    of a matrix of integers: the entries themselves, or with k_bits > 0
    integer polynomials packed at t = 2^k_bits.

    At step k the pivot is the first entry of the remaining block, in
    row-major order from (k, k), that passes `nonzero`; the elimination
    stops when no entry passes.  A custom test, which needs packed
    entries, gets each nonzero entry unpacked, which is exact because the
    entry is a minor.  Rows are scaled lazily (see the module docstring).
    Returns (sign, pivots, rows, cols), the pivots as integers (packed
    when k_bits > 0): pivot k is the minor on the original rows
    rows[:k + 1] and columns cols[:k + 1], and sign is the sign of the row
    and column swaps, so for a square matrix of full rank sign times the
    last pivot is the determinant.

    A run splits at a step.  With `stop` it ends after at most `stop`
    steps, brings the rows below them up to date and returns rows and
    cols in full; given back as `start`, on the same m, that state
    resumes the run under any test that its last pivot passes, since
    every remaining entry is then a current minor.
    """
    if nonzero is bool:
        passes = bool
    else:
        def passes(v: int) -> bool:
            return v != 0 and nonzero(_unpack(v, k_bits))

    nrows, ncols = len(m), len(m[0]) if m else 0
    if start is None:
        start = 1, [], range(nrows), range(ncols)
    sign, done, rows, cols = start[0], [1, *start[1]], list(start[2]), list(start[3])
    # done[s + 1] is the pivot of step s; done[0] = 1
    first = len(done) - 1
    written = [first - 1] * nrows  # the step after which each row was last written
    last = min(nrows, ncols) if stop is None else min(nrows, ncols, stop)
    for k in range(first, last):
        if passes(m[k][k]):
            i = j = k
        else:
            at = next(((i, j) for i in range(k, nrows) for j in range(k + (i == k), ncols)
                       if passes(m[i][j])), None)
            if at is None:
                break
            i, j = at
        if i != k:
            m[k], m[i] = m[i], m[k]
            rows[k], rows[i] = rows[i], rows[k]
            written[k], written[i] = written[i], written[k]
            sign = -sign
        if j != k:
            for row in islice(m, k, None):
                row[k], row[j] = row[j], row[k]
            cols[k], cols[j] = cols[j], cols[k]
            sign = -sign
        top, s = m[k][k:], written[k]
        if s < k - 1:
            up, down = done[k], done[s + 1]
            top = [v * up // down for v in top]
        pivot = top[0]
        done.append(pivot)
        tail = top[1:]
        for i in range(k + 1, nrows):
            row = m[i]
            head = row[k]
            if head:
                down = done[written[i] + 1]
                row[k + 1:] = [(v * pivot - head * w) // down
                               for v, w in zip(islice(row, k + 1, None), tail)]
                written[i] = k
    pivots = done[1:]
    k = len(pivots)
    if stop is None:
        return sign, pivots, rows[:k], cols[:k]
    for i in range(k, nrows):
        s = written[i]
        if s < k - 1:
            up, down = done[k], done[s + 1]
            m[i][k:] = [v * up // down for v in islice(m[i], k, None)]
    return sign, pivots, rows, cols


def _bareiss(matrix, nonzero=bool) -> tuple[int, list, list, list]:
    """_eliminate on a matrix of integer polynomials (dense lists), packed
    at t = 2^K with the Hadamard K of _packing_bits, its pivots unpacked."""
    k_bits = _packing_bits(matrix)
    sign, pivots, rows, cols = _eliminate(
        [[_pack(p, k_bits) for p in row] for row in matrix], k_bits, nonzero)
    return sign, [_unpack(p, k_bits) for p in pivots], rows, cols


def _determinant(elimination, n: int) -> list:
    """The determinant of an n x n polynomial matrix, n >= 1, from its
    elimination."""
    sign, pivots, _, _ = elimination
    if len(pivots) < n:
        return []
    return polys.neg(pivots[-1]) if sign < 0 else pivots[-1]


def poly_det(matrix) -> list:
    """Determinant of a square matrix of integer polynomials (dense lists);
    a non-integer coefficient raises ValueError."""
    return _determinant(_bareiss(matrix), len(matrix)) if matrix else [1]


def poly_rank(matrix) -> int:
    """Rank over Q(t) of a matrix of integer polynomials (dense lists)."""
    return len(_bareiss(matrix)[1])


def int_rank_det(matrix) -> tuple[int, int]:
    """(rank over Q, determinant) of a square integer matrix, from one
    elimination of the integers themselves."""
    if not matrix:
        return 0, 1
    sign, pivots, _, _ = _eliminate([list(map(int, row)) for row in matrix])
    return len(pivots), sign * pivots[-1] if len(pivots) == len(matrix) else 0


def _integer_symmetric_signature(m) -> tuple[int, int]:
    """(signature, nullity) of an integer symmetric matrix by fraction-free
    congruence.

    Diagonal swaps and the row/column addition i += j are unimodular
    congruences of the trailing block, so the entries stay the Bareiss
    minors of a congruent integer matrix and each update divides exactly
    by the previous pivot (Sylvester's identity).  The k-th pivot p_k is
    the k-th leading minor, and the k-th diagonal entry of the diagonal
    form is p_k / p_(k-1); when the trailing block is zero, its size is
    the nullity.
    """
    n = len(m)
    m = [list(row) for row in m]
    sig, prev = 0, 1
    for k in range(n):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if piv is not None:
                _swap_sym(m, k, piv)
            else:
                pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                             if m[i][j] != 0), None)
                if pair is None:
                    return sig, n - k
                i, j = pair
                for t in range(n):
                    m[i][t] += m[j][t]
                for t in range(n):
                    m[t][i] += m[t][j]
                if i != k:
                    _swap_sym(m, k, i)
        pivot, row = m[k][k], m[k]
        for i in range(k + 1, n):
            mi, f = m[i], m[i][k]
            for j in range(k + 1, n):
                mi[j] = (pivot * mi[j] - f * row[j]) // prev
        sig += 1 if (pivot > 0) == (prev > 0) else -1
        prev = pivot
    return sig, 0


def _swap_sym(m, i, j):
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]
