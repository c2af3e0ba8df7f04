"""The exact matrix kernel: one fraction-free Bareiss elimination over Z[t]
for determinants, ranks, leading principal minors and ranks at a point,
and the signature of an integer symmetric matrix.

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
packing.  A caller may pack a matrix itself, as the signature layer
packs tV - V^T straight from V, and hand over fresh rows; an integer
matrix is eliminated as it stands, with no packing.

Pivoting is complete over a caller-supplied "entry is nonzero" test:

* with the test q != 0 the pivots give the determinant, and their number
  is the rank over Q(t);
* with the test q(z0) != 0 every pivot is nonzero at z0, so their number
  is the rank of the matrix at t = z0;
* a run stopped after k steps under one test resumes under another, so
  a rank at a point can start from k generic steps;
* the rule is symmetric (_eliminate): an index moves in rows and columns
  alike, and where every diagonal entry fails, a pair of steps pivots on
  an entry and then on its mirror, so the pivots give every leading
  principal minor of the pivot rows, 0 at the first step of a pair, never
  two 0 in a row (_principal_signs), and their signs give the inertia of
  a symmetric or hermitian matrix (Frobenius's rule, _frobenius).

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

from itertools import accumulate, islice

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


def _search(k: int, nrows: int, ncols: int):
    """The entries after (k, k) that the pivot search of step k tests: row
    by row from k, each row's diagonal before its other entries from k."""
    for i in range(k, nrows):
        if k < i < ncols:
            yield i, i
        for j in range(k, ncols):
            if j != i:
                yield i, j


def _eliminate(m, k_bits: int = 0, nonzero=bool, stop=None, start=None) -> tuple:
    """Fraction-free Bareiss elimination with complete pivoting, in place,
    of a matrix of integers: the entries themselves, or with k_bits > 0
    integer polynomials packed at t = 2^k_bits.

    At step k (k, k) is the pivot if it passes `nonzero`.  Otherwise the
    first passing entry (i, j) of _search has index i moved to k, in rows
    and in columns (rows alone where there is no column i).  If j = i it is
    the pivot; otherwise j is moved to k + 1 and the pivot is (k, k + 1),
    which puts the mirror (j, i) at (k + 1, k + 1).  Where (i, j) and
    (j, i) pass or fail together, as in a symmetric matrix and in tV - V^T,
    so they do in the trailing block, and the 2 x 2 minor -b b' of
    [[0, b], [b', c]] passes: the next step takes the mirror.  The
    elimination stops when no entry passes.  A custom test, which needs
    packed entries, gets each nonzero entry unpacked, which is exact
    because the entry is a minor.  Rows are scaled lazily (see the module
    docstring).  Returns (sign, pivots, rows, cols), the pivots as
    integers (packed when k_bits > 0): pivot k is the minor on the
    original rows rows[:k + 1] and columns cols[:k + 1], and sign is the
    sign of the row and column swaps, so for a square matrix of full rank
    sign times the last pivot is the determinant.

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

    def swap(a: int, b: int, symmetric: bool = True) -> None:
        """Swap columns a <= b, and rows if symmetric, where they exist."""
        nonlocal sign
        if a == b:
            return
        if symmetric and b < nrows:
            m[a], m[b] = m[b], m[a]
            rows[a], rows[b] = rows[b], rows[a]
            written[a], written[b] = written[b], written[a]
            sign = -sign
        if b < ncols:
            for row in islice(m, k, None):
                row[a], row[b] = row[b], row[a]
            cols[a], cols[b] = cols[b], cols[a]
            sign = -sign

    last = min(nrows, ncols) if stop is None else min(nrows, ncols, stop)
    for k in range(first, last):
        if not passes(m[k][k]):
            at = next(((i, j) for i, j in _search(k, nrows, ncols) if passes(m[i][j])), None)
            if at is None:
                break
            label = cols[at[1]]
            swap(k, at[0])
            j = cols.index(label)
            if j != k:  # a pair: the mirror of the pivot comes to (k + 1, k + 1)
                swap(k + 1, j)
                swap(k, k + 1, symmetric=False)
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


def poly_det(matrix) -> list:
    """Determinant of a square matrix of integer polynomials (dense lists);
    a non-integer coefficient raises ValueError."""
    if not matrix:
        return [1]
    sign, pivots, _, _ = _bareiss(matrix)
    if len(pivots) < len(matrix):
        return []
    return polys.neg(pivots[-1]) if sign < 0 else pivots[-1]


def poly_rank(matrix) -> int:
    """Rank over Q(t) of a matrix of integer polynomials (dense lists)."""
    return len(_bareiss(matrix)[1])


def int_rank_det(matrix) -> tuple[int, int]:
    """(rank over Q, determinant) of a square matrix of ints, copied (not
    passed through int()), from one elimination of the integers themselves."""
    if not matrix:
        return 0, 1
    sign, pivots, _, _ = _eliminate([list(row) for row in matrix])
    return len(pivots), sign * pivots[-1] if len(pivots) == len(matrix) else 0


def _principal_signs(rows, cols) -> list:
    """s_1, s_2, ... with the k x k leading principal minor on rows[:k] of
    a symmetric or hermitian matrix equal to s_k times the k-th pivot of
    its elimination.  A pair takes rows (a, b) and columns (b, a): after
    c steps off the diagonal, s_k = (-1)^(c/2) for even c, and s_k = 0
    at a pair's first step, whose diagonal entry failed the test."""
    return [0 if c % 2 else (-1) ** (c // 2)
            for c in accumulate(i != j for i, j in zip(rows, cols))]


def _frobenius(minors, size: int) -> int:
    """Signature of a nonsingular symmetric or hermitian form of the given
    size from its nonzero leading principal minors in order, or their
    signs: the size minus twice the sign changes of 1, D_1, ..., D_size,
    zeros left out.  A zero D_k lies between nonzero ones, and then
    D_(k-1) D_(k+1) = D_k D' - |M|^2 < 0 (Sylvester's identity), so it
    counts one sign change whatever its sign (Frobenius's rule; Gantmacher,
    The Theory of Matrices, vol. 1, ch. X)."""
    signs = [True] + [d > 0 for d in minors]
    return size - 2 * sum(a != b for a, b in zip(signs, signs[1:]))


def _integer_symmetric_signature(m) -> tuple[int, int]:
    """(signature, nullity) of an integer symmetric matrix from one
    elimination: the size minus the rank, and the inertia of the
    nonsingular block on the pivot rows (_frobenius)."""
    _, pivots, rows, cols = _eliminate([list(row) for row in m])
    minors = [s * p for s, p in zip(_principal_signs(rows, cols), pivots) if s]
    return _frobenius(minors, len(pivots)), len(m) - len(pivots)
