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
(_eliminate).  Two packers feed one tail: _pack takes any matrix of
integer polynomials and raises ``ValueError`` on a non-integer
coefficient, and _packed builds tV - V^T straight from V, the hot path;
_generic_run eliminates what either returns and unpacks its pivots.
poly_det and poly_rank read that tail, and a SeifertData runs it on
tV - V^T once, when it is built; the ranks of tV - V^T at points are
read off that run by the resume rule below (_ranks_at_points): at t = 1,
the rank of V - V^T where parity leaves it open to the construction, and
at the circle points of the signature layer.  An integer matrix is eliminated as it
stands, with no packing.

Pivoting is complete over a caller-supplied "entry is nonzero" test of
the stored integer; a test on the polynomial unpacks the entry itself:

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
updated, at step k, it becomes (row p_k - head top) / p_s, the minor that
the eager update gives; just before a test reads it, it is brought up to
date by p_(k-1) / p_s, so every test, after any resume, sees current
minors.  The update's zero test of a stale head is exact, since a stale
entry is the current one times a ratio of nonzero pivots.  On a banded
matrix each step rewrites only the rows that meet the band.
"""

from __future__ import annotations

from itertools import accumulate, islice


def _unpack(v: int, k_bits: int) -> list:
    """The integer polynomial whose value at t = 2^k_bits is v and whose
    coefficients lie in [-2^(k_bits-1), 2^(k_bits-1)): the balanced
    base-2^k_bits digits of v, trimmed."""
    out, half, mask = [], 1 << (k_bits - 1), (1 << k_bits) - 1
    while v:  # a mask and a shift: one pass over v per digit, where divmod by 2^K takes K/30
        d = ((v + half) & mask) - half
        out.append(d)
        v = (v - d) >> k_bits
    return out


def _hadamard_bits(squares) -> int:
    """K = ceil(bitlen(prod_i max(1, sum_j n_ij^2)) / 2) + 2 for the
    coefficient 1-norms n_ij of a matrix's entries, given row by row as
    the sums sum_j n_ij^2: every minor of every submatrix has coefficients
    below 2^(K-2)."""
    bound = 1
    for s in squares:
        bound *= max(1, s)
    return (bound.bit_length() + 1) // 2 + 2


def _search(k: int, nrows: int, ncols: int):
    """The entries after (k, k) that the pivot search of step k tests: row
    by row from k, each row's diagonal before its other entries from k."""
    for i in range(k, nrows):
        if k < i < ncols:
            yield i, i
        for j in range(k, ncols):
            if j != i:
                yield i, j


def _eliminate(m, nonzero=bool, stop=None, start=None) -> tuple:
    """Fraction-free Bareiss elimination with complete pivoting, in place,
    of a matrix of integers: the entries themselves, or integer
    polynomials packed at t = 2^K.

    At step k (k, k) is the pivot if it passes `nonzero`, a test of the
    stored integer that 0 fails.  Otherwise the first passing entry (i, j)
    of _search has index i moved to k, in rows and in columns (rows alone
    where there is no column i).  If j = i it is the pivot; otherwise j is
    moved to k + 1 and the pivot is (k, k + 1), which puts the mirror
    (j, i) at (k + 1, k + 1).  Where (i, j) and (j, i) pass or fail
    together, as in a symmetric matrix and in tV - V^T, so they do in the
    trailing block, and the 2 x 2 minor -b b' of [[0, b], [b', c]]
    passes: the next step takes the mirror.  The elimination stops when
    no entry passes.  Rows are scaled lazily (see the module docstring).
    Returns (sign, pivots, rows, cols), the pivots as stored: pivot k is
    the minor on the original rows rows[:k + 1] and columns
    cols[:k + 1], and sign is the sign of the row and column swaps, so
    for a square matrix of full rank sign times the last pivot is the
    determinant.

    A run splits at a step.  With `stop` it ends after at most `stop`
    steps and hands back its lazy state as it stands, (sign, pivots,
    rows, cols, written) with rows and cols in full.  Given back as
    `start` on the same m, and copied, it resumes the run under any test
    that its last pivot passes: every entry a test reads is current.
    """
    nrows, ncols = len(m), len(m[0]) if m else 0
    if start is None:
        start = 1, [], range(nrows), range(ncols), [-1] * nrows
    sign, done, rows, cols = start[0], [1, *start[1]], list(start[2]), list(start[3])
    # done[s + 1] is the pivot of step s; done[0] = 1
    written = list(start[4])  # the step after which each row was last written

    def current(i: int) -> list:
        """Row i, brought up to date for step k (times p_(k-1) / p_s)."""
        row, s = m[i], written[i]
        if s < k - 1:
            up, down = done[k], done[s + 1]
            row[k:] = [v * up // down for v in islice(row, k, None)]
            written[i] = k - 1
        return row

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
    for k in range(len(done) - 1, last):
        if not nonzero(current(k)[k]):
            at = next(((i, j) for i, j in _search(k, nrows, ncols) if nonzero(current(i)[j])),
                      None)
            if at is None:
                break
            label = cols[at[1]]
            swap(k, at[0])
            j = cols.index(label)
            if j != k:  # a pair: the mirror of the pivot comes to (k + 1, k + 1)
                swap(k + 1, j)
                swap(k, k + 1, symmetric=False)
        pivot, tail = m[k][k], m[k][k + 1:]
        done.append(pivot)
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
    return sign, pivots, rows, cols, written


def _pack(matrix) -> tuple[int, list]:
    """(K, rows): a matrix of integer polynomials (dense lists) packed at
    t = 2^K for the Hadamard K of its entries' coefficient 1-norms (see
    _hadamard_bits), in fresh lists.  Raises ValueError on a non-integer
    coefficient."""
    if any(c != int(c) for row in matrix for p in row for c in p):
        raise ValueError("non-integer coefficient: the kernel works in Z[t]")
    k_bits = _hadamard_bits([sum([int(sum(map(abs, p))) ** 2 for p in row]) for row in matrix])
    return k_bits, [[sum(int(c) << i * k_bits for i, c in enumerate(p)) for p in row]
                    for row in matrix]


def _packed(v) -> tuple[int, list]:
    """_pack of tV - V^T straight from a square integer matrix V, entry
    (i, j) being (V_ij << K) - V_ji, for the 1-norms |V_ij| + |V_ji|.  K
    covers every minor of every submatrix: a run and the runs resumed from
    its stops read one K."""
    pairs = list(zip(v, zip(*v)))
    k_bits = _hadamard_bits([sum([(s := abs(a) + abs(b)) * s for a, b in zip(row, col)])
                             for row, col in pairs])
    return k_bits, [[(a << k_bits) - b for a, b in zip(row, col)] for row, col in pairs]


def _generic_run(k_bits: int, m) -> tuple:
    """(sign, pivots, rows, cols) of the elimination over Q(t) of a matrix
    packed at t = 2^K (by _pack or _packed), the pivots unpacked to
    tuples: there are r of them for the rank r, and for a square matrix of
    rank r = n sign times the last is its determinant."""
    sign, pivots, rows, cols = _eliminate(m)
    return sign, tuple(tuple(_unpack(p, k_bits)) for p in pivots), tuple(rows), tuple(cols)


def poly_det(matrix) -> list:
    """Determinant of a square matrix of integer polynomials (dense lists);
    a non-integer coefficient raises ValueError."""
    if not matrix:
        return [1]
    sign, pivots, _, _ = _generic_run(*_pack(matrix))
    return [sign * c for c in pivots[-1]] if len(pivots) == len(matrix) else []


def poly_rank(matrix) -> int:
    """Rank over Q(t) of a matrix of integer polynomials (dense lists)."""
    return len(_generic_run(*_pack(matrix))[1])


def _ranks_at_points(v, pivots, tests) -> list:
    """The rank of tV - V^T at each point z0 that a test picks out, test(q)
    being q(z0) != 0 for an integer polynomial q in t, read off the pivots
    p_1..p_r of its generic run (_generic_run).

    Resume rule.  For each test take the largest k <= r with p_k(z0) != 0
    (p_0 = 1), tested from the top.  After k generic steps the trailing
    block holds the (k+1)-minors that border the k x k minor p_k, that is
    p_k times its Schur complement (Sylvester's identity), and evaluation
    at z0 commutes with every minor.  The k x k block is invertible at z0,
    so the rank at z0 is k + the rank of the trailing block at z0, whether
    or not earlier pivots vanish there.  The block is 0 for k = r, and for
    k = n - 1 < r it is +-p_n, which vanishes at z0: the rank is k.
    Otherwise one generic run stops at each such k in increasing order, so
    its steps add up to at most one elimination, and at each stop the
    kernel resumes its lazy state for the tests of that k under the test
    q(z0) != 0, on a copy of the rows from k on (it reads and writes no
    other), so it tests the trailing block alone, each entry unpacked,
    exact as it is a current minor; pivots are counted."""
    r, n = len(pivots), len(v)
    ks = [next((k for k in range(r, 0, -1) if test(pivots[k - 1])), 0) for test in tests]
    ranks, stops = list(ks), sorted({k for k in ks if k < min(r, n - 1)})
    if not stops:
        return ranks
    k_bits, m = _packed(v)
    state = None
    for k in stops:
        state = _eliminate(m, stop=k, start=state)
        for i, test in enumerate(tests):
            if ks[i] == k:
                rows = m[:k] + [list(row) for row in m[k:]]
                ranks[i] = len(_eliminate(rows, lambda q: q != 0 and test(_unpack(q, k_bits)),
                                          start=state)[1])
    return ranks


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
