"""The eager Bareiss kernel that the lazy one replaced, kept as a
reference for tests: every row below the pivot is rewritten at every
step, and entries are packed at t = 2^K with K from the product of the
rows' coefficient 1-norms.  Its pivot search follows the symmetric rule
of linkbound.linalg, written out here step by step.  The lazy kernel
must give the same (sign, pivots, rows, cols) under any "entry is
nonzero" test.  The rank at a circle point that the signature layer computed
before it resumed the generic elimination is kept too: this kernel on
the whole of tV - V^T, with the point test on every entry.
"""

from __future__ import annotations

from linkbound import polys
from linkbound.realroots import RealAlgebraic


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


def _packing_bits(matrix) -> int:
    """K such that every minor of the matrix has coefficients of absolute
    value below 2^(K-2): the bit length of prod_i max(1, sum_j ||a_ij||_1),
    plus 2.  Raises ValueError on a non-integer coefficient."""
    bound = 1
    for row in matrix:
        coeffs = [c for p in row for c in p]
        if any(c != int(c) for c in coeffs):
            raise ValueError("non-integer coefficient: the kernel works in Z[t]")
        bound *= max(1, int(sum(map(abs, coeffs))))
    return bound.bit_length() + 2


def _bareiss(matrix, nonzero=bool) -> tuple[int, list, list, list]:
    """Fraction-free Bareiss elimination with complete pivoting of a matrix
    of integer polynomials (dense lists), on their values at t = 2^K.

    At step k the pivot is (k, k) if it passes `nonzero`.  Otherwise the
    rows from k are scanned, each row's diagonal entry (if it has one)
    before its other entries from column k, and the first passing entry
    (i, j) has index i moved to k, in rows and in columns where the matrix
    has them.  If that puts it on the diagonal it is the pivot; otherwise
    its column is moved to k + 1 in the same way, and then columns k and
    k + 1 are swapped, so the pivot is the entry and its mirror comes to
    (k + 1, k + 1).  The elimination stops when no entry passes.  A
    custom test gets each nonzero entry unpacked, which is exact because
    the entry is a minor.  Returns (sign, pivots, rows, cols): pivot k is
    the minor on the original rows rows[:k + 1] and columns cols[:k + 1],
    and sign is the sign of the row and column swaps, so for a square
    matrix of full rank sign times the last pivot is the determinant.
    """
    k_bits = _packing_bits(matrix)
    m = [[_pack(p, k_bits) for p in row] for row in matrix]

    def passes(v: int) -> bool:
        return bool(v) and (nonzero is bool or nonzero(_unpack(v, k_bits)))

    nrows, ncols = len(m), len(m[0]) if m else 0
    rows, cols = list(range(nrows)), list(range(ncols))
    sign = prev = 1
    pivots = []

    def swap_rows(a, b):
        nonlocal sign
        if a != b and b < nrows:
            m[a], m[b] = m[b], m[a]
            rows[a], rows[b] = rows[b], rows[a]
            sign = -sign

    def swap_cols(a, b):
        nonlocal sign
        if a != b and b < ncols:
            for row in m:
                row[a], row[b] = row[b], row[a]
            cols[a], cols[b] = cols[b], cols[a]
            sign = -sign

    for k in range(min(nrows, ncols)):
        order = [(k, k)]
        for i in range(k, nrows):
            order += [(i, i)] if k < i < ncols else []
            order += [(i, j) for j in range(k, ncols) if j != i]
        at = next(((i, j) for i, j in order if passes(m[i][j])), None)
        if at is None:
            break
        i, j = at
        label = cols[j]
        swap_rows(k, i)
        swap_cols(k, i)
        j = cols.index(label)
        if j != k:  # off the diagonal
            swap_rows(k + 1, j)
            swap_cols(k + 1, j)
            swap_cols(k, k + 1)
        pivot = m[k][k]
        pivots.append(pivot)
        top = m[k]
        for row in m[k + 1:]:
            head = row[k]
            for j in range(k + 1, ncols):
                if head or row[j]:  # else the new entry is 0 as well
                    row[j] = (row[j] * pivot - head * top[j]) // prev
        prev = pivot
    return (sign, [_unpack(p, k_bits) for p in pivots],
            rows[:len(pivots)], cols[:len(pivots)])


# -- the rank at a circle point, by the full kernel ----------------------------


def _xz_parts(q) -> tuple[list, list]:
    """(a, b) with q(z) = a(x) + b(x) z for a dense polynomial q: Horner's
    rule with z^2 = xz - 1, so (a + bz) z = -b + (a + xb) z."""
    a, b = [], []
    for c in reversed(q):
        a, b = polys.sub([c], b), polys.add(a, [0] + b)
    return a, b


def _zero_test(root):
    """The test "x-polynomial q vanishes at root" for a rational or
    RealAlgebraic root; it never refines a bracket."""
    if isinstance(root, RealAlgebraic):
        return root.vanishes
    return lambda q: polys.sign_at(q, root) == 0


def _rank_at(data, root) -> int:
    """Rank of B(z0) at the circle point with z0 + 1/z0 = root in (-2, 2):
    the Bareiss kernel with the test q(z0) != 0 on tV - V^T, which has the
    rank of B(z0) there since z0 != 1.  With q(z) = a(x) + b(x) z,
    q(z0) = 0 exactly when a and b both vanish at the root, since z0 is
    not real.  The whole matrix is eliminated under the test, with every
    entry tested, by the eager kernel above on tV - V^T built from V."""
    vanishes = _zero_test(root)

    def nonzero(q):
        return not all(map(vanishes, _xz_parts(q)))

    v, n = data.matrix, data.size
    form = [[polys.trim([-v[j][i], v[i][j]]) for j in range(n)] for i in range(n)]
    return len(_bareiss(form, nonzero)[1])
