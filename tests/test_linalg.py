"""The exact Z[t] kernel against sympy: Bareiss determinants and ranks
under complete pivoting, the leading minors read off one elimination, the
principal block of B(t) for degenerate Seifert matrices, and the packing
of entries at t = 2^K, including inputs whose minors reach the bound."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from linkbound import SeifertData, signature_function
from linkbound.linalg import (_bareiss, _pack, _packing_bits, _unpack, int_rank_det, poly_det,
                              poly_rank)
from linkbound.signature import (_diagonal_prefix, _integer_symmetric_signature,
                                 _principal_block, _trace_signature_nullity,
                                 pointwise_signature_nullity)

from helpers import b_laurent
from quadfield_reference import _quad_signature_nullity

T = sympy.Symbol("t")
ZZ_T = sympy.ZZ[T]

small_polys = st.lists(st.integers(-3, 3), max_size=3)  # degree <= 2


@st.composite
def degenerate_matrices(draw):
    """Square integer-polynomial matrices, n <= 6, that hit the degenerate
    paths: a zero (1,1) entry (row swap), a zero leading minor (row k-1
    copies row 0 on the first k columns), a singular matrix (last row a
    polynomial multiple of row 0)."""
    n = draw(st.integers(1, 6))
    m = [[draw(small_polys) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        m[0][0] = []
    if n >= 2 and draw(st.booleans()):
        k = draw(st.integers(2, n))
        m[k - 1][:k] = [list(e) for e in m[0][:k]]
    if n >= 2 and draw(st.booleans()):
        factor = draw(small_polys)
        m[-1] = [_mul(factor, e) for e in m[0]]
    return m


def _mul(p, q):
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _domain_matrix(m) -> DomainMatrix:
    rows = [[ZZ_T.from_sympy(sum(c * T ** i for i, c in enumerate(e))) for e in row]
            for row in m]
    return DomainMatrix(rows, (len(m), len(m[0]) if m else 0), ZZ_T)


def sympy_det(m) -> list:
    """det over ZZ[t] by sympy, as dense coefficients from the constant up."""
    if not m:
        return [1]
    det = ZZ_T.to_sympy(_domain_matrix(m).det())
    return _trim(reversed(sympy.Poly(det, T).all_coeffs())) if det != 0 else []


def sympy_rank(m) -> int:
    """Rank over QQ(t) by sympy."""
    return _domain_matrix(m).convert_to(ZZ_T.get_field()).rank()


@settings(max_examples=80, deadline=None)
@given(degenerate_matrices())
def test_poly_det_matches_sympy(m):
    assert _trim(poly_det(m)) == sympy_det(m)


@settings(max_examples=80, deadline=None)
@given(degenerate_matrices())
def test_pivots_are_leading_minors(m):
    """Up to the first off-diagonal pivot the pivots are the leading
    minors, and the next leading minor is 0; every pivot is the minor on
    its pivot rows and columns."""
    _, pivots, rows, cols = _bareiss(m)
    n = len(m)
    s = _diagonal_prefix(rows, cols)
    leading = pivots[:s] + ([[]] if s < n else [])
    assert 1 <= len(leading) <= n
    assert all(leading[:-1])
    assert len(leading) == n or not leading[-1]
    for k, pivot in enumerate(leading, 1):
        assert _trim(pivot) == sympy_det([row[:k] for row in m[:k]])
    for k, pivot in enumerate(pivots, 1):
        assert _trim(pivot) == sympy_det([[m[i][j] for j in cols[:k]] for i in rows[:k]])


@st.composite
def pivoting_matrices(draw):
    """Square matrices, n <= 6, whose elimination must swap both rows and
    columns: a zero leading block of size b and, optionally, a zero first
    row."""
    n = draw(st.integers(2, 6))
    m = [[draw(small_polys) for _ in range(n)] for _ in range(n)]
    b = draw(st.integers(1, n - 1))
    for i in range(b):
        m[i][:b] = [[] for _ in range(b)]
    if draw(st.booleans()):
        m[0] = [[] for _ in range(n)]
    return m


@settings(max_examples=80, deadline=None)
@given(pivoting_matrices())
def test_poly_det_complete_pivoting_matches_sympy(m):
    assert _trim(poly_det(m)) == sympy_det(m)


@st.composite
def rank_deficient_matrices(draw):
    """r x c integer-polynomial matrices, r, c <= 5, in which some rows are
    Z[t]-combinations of the rows before them."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    m = [[draw(small_polys) for _ in range(c)] for _ in range(r)]
    for i in range(1, r):
        if draw(st.booleans()):
            row = [[] for _ in range(c)]
            for src in range(i):
                factor = draw(st.lists(st.integers(-2, 2), max_size=2))
                row = [_trim([a + b for a, b in _zip_pad(x, _mul(factor, y))])
                       for x, y in zip(row, m[src])]
            m[i] = row
    return m


def _zip_pad(p, q):
    width = max(len(p), len(q))
    return zip(list(p) + [0] * (width - len(p)), list(q) + [0] * (width - len(q)))


@settings(max_examples=80, deadline=None)
@given(rank_deficient_matrices())
def test_poly_rank_matches_sympy(m):
    assert poly_rank(m) == sympy_rank(m)


@st.composite
def integer_matrices(draw):
    """Square integer matrices, n <= 5, optionally with a repeated row."""
    n = draw(st.integers(0, 5))
    m = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        m[-1] = list(m[0])
    return m


@settings(max_examples=60, deadline=None)
@given(integer_matrices())
def test_integer_det_and_rank_match_sympy(m):
    """int_rank_det runs the same kernel on constants: one elimination
    gives the rank and the determinant."""
    matrix = sympy.Matrix(m) if m else sympy.zeros(0, 0)
    assert int_rank_det(m) == (matrix.rank(), matrix.det())


@st.composite
def degenerate_seifert(draw):
    """Seifert matrices V, n <= 5, with entries in -2..2; optionally a zero
    (1,1) entry, which makes the first leading minor of B(t) vanish, and/or
    the congruence P V P^T whose P copies index 0 to index k-1, which makes
    the leading minors of B from size k on, and det B, vanish.  Knots whose
    V - V^T is not unimodular are rejected."""
    n = draw(st.integers(1, 5))
    v = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        v[0][0] = 0
    if n >= 2 and draw(st.booleans()):
        k = draw(st.integers(2, n))
        p = [[int(j == (0 if i == k - 1 else i)) for j in range(n)] for i in range(n)]
        v = [[sum(p[i][a] * v[a][b] * p[j][b] for a in range(n) for b in range(n))
              for j in range(n)] for i in range(n)]
    rank, det = int_rank_det([[v[i][j] - v[j][i] for j in range(n)] for i in range(n)])
    assume(rank < n or abs(det) == 1)
    return SeifertData.from_matrix(v, n - rank + 1)


@settings(max_examples=40, deadline=None)
@given(degenerate_seifert())
def test_leading_minors_x_match_sympy(data):
    """The principal block B_I has the generic rank of B, a nonzero
    determinant, and leading minors q in x with det B_I,k(t) =
    c q(t + 1/t) (2 - t - 1/t)^(k // 2) for a rational c > 0, checked as
    t^k det B_I,k(t) = c t^k q(t + 1/t) (2 - t - 1/t)^(k // 2) in Z[t]
    against sympy's determinant of t B_I,k(t), built from V."""
    block, minors = _principal_block(data)
    v, n = data.matrix, data.size
    shifted = [[[-v[j][i], v[i][j] + v[j][i], -v[i][j]] for j in range(n)] for i in range(n)]
    assert len(minors) == len(block) == sympy_rank(shifted)
    assert not minors or minors[-1]
    for k, q in enumerate(minors, 1):
        det = sympy_det([[shifted[i][j] for j in block[:k]] for i in block[:k]])
        if not q:
            assert det == []
            continue
        j = k // 2
        sub = (-(T - 1) ** 2) ** j * sum(c * (T ** 2 + 1) ** i * T ** (k - j - i)
                                         for i, c in enumerate(q))
        sub = _trim(reversed(sympy.Poly(sub, T).all_coeffs()))
        assert det and det[-1] * sub[-1] > 0
        assert [det[-1] * c for c in sub] == [sub[-1] * c for c in det]


@settings(max_examples=60, deadline=None)
@given(degenerate_seifert(), st.lists(st.builds(Fraction, st.integers(-39, 39),
                                                st.integers(1, 20)), min_size=1, max_size=6))
def test_jacobi_signs_match_congruence(data, xs):
    """Jacobi's rule on the integer signs of the leading minors of B_I
    against exact congruence diagonalization of B at the same points."""
    for x in xs:
        if abs(x) < 2:
            assert pointwise_signature_nullity(data, x) == _trace_signature_nullity(data, x)


@settings(max_examples=60, deadline=None)
@given(degenerate_seifert(), st.lists(st.builds(Fraction, st.integers(-39, 39),
                                                st.integers(1, 20)), max_size=4))
def test_trace_form_matches_quadratic_field(data, xs):
    """The integer trace form read off V against the congruence of the
    Laurent matrix B(t) over Q[z]/(z^2 - xz + 1), at random rationals and
    at every rational breakpoint, where the nullity is positive."""
    points = [bp for bp in signature_function(data).breakpoints if isinstance(bp, Fraction)]
    for x in points + [x for x in xs if abs(x) < 2]:
        assert _trace_signature_nullity(data, x) == _quad_signature_nullity(b_laurent(data), x)


@st.composite
def degenerate_symmetric(draw):
    """Integer symmetric matrices, n <= 8; optionally sparse, with a zero
    diagonal and with copies of index 0, which leave no usable diagonal
    pivot, pair distant indices in the row/column addition and drop the
    rank."""
    n = draw(st.integers(0, 8))
    entries = st.sampled_from((0,) * 8 + (-2, -1, 1, 2)) if draw(st.booleans()) \
        else st.integers(-3, 3)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entries)
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    for k in draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=3)):
        if k < n:
            for j in range(n):
                m[k][j] = m[j][k] = m[0][j]
            m[k][k] = m[0][k] = m[k][0] = m[0][0]
    return m


def _descartes_inertia(m) -> tuple[int, int]:
    """(signature, nullity) from sympy's characteristic polynomial: every
    root is real, so Descartes' rule counts the positive and the negative
    roots exactly."""
    if not m:
        return 0, 0
    coeffs = sympy.Matrix(m).charpoly().all_coeffs()[::-1]  # constant first
    zero = next(i for i, c in enumerate(coeffs) if c != 0)

    def changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    pos = changes(coeffs)
    neg = changes([c * (-1) ** i for i, c in enumerate(coeffs)])
    return pos - neg, zero


@settings(max_examples=150, deadline=None)
@given(degenerate_symmetric())
def test_integer_symmetric_signature_matches_charpoly(m):
    assert _integer_symmetric_signature(m) == _descartes_inertia(m)


def test_inexact_bareiss_step_raises():
    """With a non-integer entry the second step divides 1 by the pivot 2;
    a floor division would return det 0 instead of raising."""
    m = [[[2], [1], []],
         [[1], [1], []],
         [[], [], [Fraction(1, 2)]]]
    with pytest.raises(ValueError):
        poly_det(m)


# -- the packed kernel: entries at t = 2^K --------------------------------------

wide_polys = st.lists(st.integers(-1000, 1000), max_size=5)  # degree <= 4


@st.composite
def wide_matrices(draw):
    """r x c matrices, r, c <= 5, with coefficients up to 1000 and degree
    up to 4; optionally the last row a Z[t]-combination of the first two,
    so that the matrix is rank-deficient."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    m = [[draw(wide_polys) for _ in range(c)] for _ in range(r)]
    if r >= 3 and draw(st.booleans()):
        f, g = draw(small_polys), draw(small_polys)
        m[-1] = [_trim([a + b for a, b in _zip_pad(_mul(f, x), _mul(g, y))])
                 for x, y in zip(m[0], m[1])]
    return m


@settings(max_examples=80, deadline=None)
@given(wide_matrices())
def test_packed_kernel_matches_sympy(m):
    """Rank, pivots and (for square input) the determinant of the packed
    kernel against sympy over ZZ[t], on wide coefficients and
    rank-deficient matrices: every pivot is the minor on its pivot rows
    and columns, and their number is the rank."""
    sign, pivots, rows, cols = _bareiss(m)
    assert len(pivots) == sympy_rank(m)
    for k, pivot in enumerate(pivots, 1):
        assert pivot == sympy_det([[m[i][j] for j in cols[:k]] for i in rows[:k]])
    if len(m) == len(m[0]):
        assert _trim(poly_det(m)) == sympy_det(m)


@st.composite
def monomial_diagonals(draw):
    """Diagonal matrices, n <= 4, of monomials c t^e: the determinant is a
    monomial whose coefficient is exactly the packing bound prod |c|."""
    n = draw(st.integers(1, 4))
    m = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        c = draw(st.integers(1, 2 ** 40)) * draw(st.sampled_from([-1, 1]))
        m[i][i] = [0] * draw(st.integers(0, 3)) + [c]
    return m


@settings(max_examples=80, deadline=None)
@given(monomial_diagonals())
def test_determinant_at_the_bound(m):
    """1 x 1 and diagonal inputs, whose determinant reaches the bound
    that sets K: the unpacked pivots are exact."""
    det = sympy_det(m)
    assert abs(det[-1]) == math.prod(abs(m[i][i][-1]) for i in range(len(m)))
    assert _trim(poly_det(m)) == det
    assert _trim(poly_det([m[0][:1]])) == _trim(m[0][0])


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 80), st.data())
def test_pack_unpack_round_trip(k_bits, data):
    """Coefficients up to 2^(K-1) - 1 in absolute value, the edge of the
    balanced digits, come back unchanged."""
    edge = 2 ** (k_bits - 1) - 1
    p = _trim(data.draw(st.lists(st.one_of(st.sampled_from([edge, -edge]),
                                           st.integers(-edge, edge)), max_size=6)))
    assert _unpack(_pack(p, k_bits), k_bits) == p


def test_packing_bits_bound_the_minors():
    """K is the bit length of prod_i max(1, sum_j ||a_ij||_1), plus 2."""
    assert _packing_bits([[[5]]]) == 5
    assert _packing_bits([[[1, -2], [3]], [[], []]]) == 3 + 2
    assert _packing_bits([]) == 3
    with pytest.raises(ValueError):
        _packing_bits([[[Fraction(1, 3)]]])
