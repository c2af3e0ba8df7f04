"""The exact Z[t] kernel against sympy: Bareiss determinants and ranks
under complete pivoting, the leading minors read off one elimination, the
principal block of B(t) for degenerate Seifert matrices, the inertia of
integer symmetric matrices read off the pivots, and the packing
of entries at t = 2^K, including inputs whose minors reach the bound.
The lazy kernel against the eager one it replaced
(tests/bareiss_reference.py), a run resumed from a saved step against one
uninterrupted run, a stopped run that leaves the rows no step wrote as
given and a resumed test that reads current minors, the point test
against the x-z split of every entry, the rows the kernel rewrites on a
band, and its test reading the integers it stores."""

import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from linkbound import RealAlgebraic, seifert_matrix_from_braid, signature_function, torus_braid
from linkbound.linalg import (_eliminate, _generic_run, _integer_symmetric_signature, _pack,
                              _packed, _unpack, poly_det, poly_rank)
from linkbound.realroots import _nonzero_at
from linkbound.signature import (_principal_block, _trace_signature_nullity,
                                 pointwise_signature_nullity)

import bareiss_reference
from bareiss_reference import int_rank_det
from helpers import T, ZZ_T, b_laurent, degenerate_seifert, domain_matrix, sympy_det
from quadfield_reference import _quad_signature_nullity

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


def _run(m, nonzero=bool) -> tuple:
    """(sign, pivots, rows, cols) of the packed kernel on a matrix of
    integer polynomials, the pivots unpacked to lists: the shared tail
    _generic_run under the test q != 0, and otherwise _eliminate with a
    test that reads each nonzero entry unpacked, exact as it is a minor."""
    k_bits, packed = _pack(m)
    if nonzero is bool:
        sign, pivots, rows, cols = _generic_run(k_bits, packed)
        return sign, list(map(list, pivots)), list(rows), list(cols)
    sign, pivots, rows, cols = _eliminate(packed, lambda v: v != 0 and nonzero(_unpack(v, k_bits)))
    return sign, [_unpack(p, k_bits) for p in pivots], rows, cols


def sympy_rank(m) -> int:
    """Rank over QQ(t) by sympy."""
    return domain_matrix(m).convert_to(ZZ_T.get_field()).rank()


@settings(max_examples=80, deadline=None)
@given(degenerate_matrices())
def test_poly_det_matches_sympy(m):
    assert _trim(poly_det(m)) == sympy_det(m)


@settings(max_examples=80, deadline=None)
@given(degenerate_matrices())
def test_pivots_are_leading_minors(m):
    """Up to the first step that moves an index the pivots are the leading
    minors, and the next leading minor is 0; every pivot is the minor on
    its pivot rows and columns."""
    _, pivots, rows, cols = _run(m)
    n = len(m)
    s = next((k for k, (i, j) in enumerate(zip(rows, cols)) if i != k or j != k), len(rows))
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
    """The reference int_rank_det, the oracle of the construction's check
    of V - V^T: one elimination gives the rank and the determinant."""
    matrix = sympy.Matrix(m) if m else sympy.zeros(0, 0)
    assert int_rank_det(m) == (matrix.rank(), matrix.det())


@settings(max_examples=40, deadline=None)
@given(degenerate_seifert())
def test_leading_minors_x_match_sympy(data):
    """The principal block B_I, I in pivot order, has the generic rank of
    B, a nonzero determinant, no two consecutive leading minors
    identically 0, and leading minors q in x with det B_I,k(t) =
    c q(t + 1/t) (2 - t - 1/t)^(k // 2) for a rational c > 0, checked as
    t^k det B_I,k(t) = c t^k q(t + 1/t) (2 - t - 1/t)^(k // 2) in Z[t]
    against sympy's determinant of t B_I,k(t), built from V."""
    block, minors = _principal_block(data)
    v, n = data.matrix, data.size
    shifted = [[[-v[j][i], v[i][j] + v[j][i], -v[i][j]] for j in range(n)] for i in range(n)]
    assert len(minors) == len(block) == sympy_rank(shifted)
    assert not minors or minors[-1]
    assert all(a or b for a, b in zip(minors, minors[1:]))
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
    """Frobenius's rule on the integer signs of the leading minors of B_I
    against the inertia of the trace form of B at the same points."""
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
    pivot, pair distant indices and drop the rank."""
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
    sign, pivots, rows, cols = _run(m)
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
    balanced digits, come back unchanged, and so does an entry that _pack
    packs at its own K."""
    edge = 2 ** (k_bits - 1) - 1
    p = _trim(data.draw(st.lists(st.one_of(st.sampled_from([edge, -edge]),
                                           st.integers(-edge, edge)), max_size=6)))
    assert _unpack(bareiss_reference._pack(p, k_bits), k_bits) == p
    k_bits, packed = _pack([[p]])
    assert _unpack(packed[0][0], k_bits) == p


def test_packing_bits_bound_the_minors():
    """K is ceil(bitlen(prod_i max(1, sum_j ||a_ij||_1^2)) / 2) + 2: the
    all-ones 4 x 4 matrix, whose determinant is 0 and whose Hadamard bound
    is 4^2, gets 7 where the product of the 1-norms, 4^4, gave 11.  Each
    entry is packed as its value at t = 2^K."""
    assert _pack([[[5]]])[0] == 3 + 2
    assert _pack([[[1, -2], [3]], [[], []]]) == (5, [[1 - 2 * 32, 3], [0, 0]])  # bitlen(18) = 5
    assert _pack([[[1]] * 4] * 4)[0] == 5 + 2  # bitlen(256) = 9
    assert _pack([]) == (1 + 2, [])
    with pytest.raises(ValueError):
        _pack([[[Fraction(1, 3)]]])


@st.composite
def small_wide_matrices(draw):
    """r x c matrices, r, c <= 4, with coefficients up to 1000, degree up
    to 3, and optionally a row of large monomials, which brings some minors
    close to the bound."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = [[draw(st.lists(st.integers(-1000, 1000), max_size=4)) for _ in range(c)]
         for _ in range(r)]
    if draw(st.booleans()):
        m[0] = [[0] * draw(st.integers(0, 2)) + [draw(st.integers(-1000, 1000))]
                for _ in range(c)]
    return m


@settings(max_examples=40, deadline=None)
@given(small_wide_matrices())
def test_hadamard_bits_bound_every_minor(m):
    """Every minor of every square submatrix, by sympy, has coefficients
    of absolute value below 2^(K - 2)."""
    limit = 2 ** (_pack(m)[0] - 2)
    for k in range(1, min(len(m), len(m[0])) + 1):
        for rows in itertools.combinations(range(len(m)), k):
            for cols in itertools.combinations(range(len(m[0])), k):
                det = sympy_det([[m[i][j] for j in cols] for i in rows])
                assert all(abs(c) < limit for c in det)


# -- the lazy kernel against the eager one ---------------------------------------

# (x, t^2 - x t + 1 or a multiple of it in Z[t]): the polynomial vanishes
# at the circle point z0 with z0 + 1/z0 = x.
CIRCLE_FACTORS = [(Fraction(-1), [1, 1, 1]), (Fraction(0), [1, 0, 1]),
                  (Fraction(1), [1, -1, 1]),
                  (RealAlgebraic([-2, 0, 1], 1, 2), [1, 0, 0, 0, 1])]


@st.composite
def matrices_at_a_point(draw):
    """(matrix, x): a rank-deficient matrix, one that needs off-diagonal
    pivots or a degenerate one, with some entries multiplied by a
    polynomial that vanishes at the circle point of x, so that the test at
    the point refuses entries that are not 0."""
    m = draw(st.one_of(rank_deficient_matrices(), pivoting_matrices(), degenerate_matrices()))
    x, factor = draw(st.sampled_from(CIRCLE_FACTORS))
    m = [[_trim(_mul(factor, e)) if draw(st.booleans()) else e for e in row] for row in m]
    return m, x


@settings(max_examples=120, deadline=None)
@given(matrices_at_a_point())
def test_lazy_kernel_matches_the_eager_one(case):
    """(sign, pivots, rows, cols) of the lazy kernel equal those of the
    eager one it replaced, under the test q != 0 and under _ranks_at's test
    q(z0) != 0; an integer matrix, eliminated unpacked, gives the pivots
    of its constant polynomials."""
    m, x = case
    assert _run(m) == bareiss_reference._bareiss(m)
    at = _nonzero_at(x)
    assert _run(m, at) == bareiss_reference._bareiss(m, at)
    for q in (e for row in m for e in row):
        vanishes = bareiss_reference._zero_test(x)
        assert at(q) == (not all(map(vanishes, bareiss_reference._xz_parts(q))))
    ints = [[e[0] if e else 0 for e in row] for row in m]
    sign, pivots, rows, cols = bareiss_reference._bareiss([[[v] for v in row] for row in ints])
    assert _eliminate([list(row) for row in ints]) == (sign, [p[0] for p in pivots], rows, cols)


@settings(max_examples=80, deadline=None)
@given(matrices_at_a_point(), st.integers(0, 6))
def test_resumed_elimination_matches_one_run(case, step):
    """A run stopped after `step` steps and resumed from the state it
    returns gives the (sign, pivots, rows, cols) of one uninterrupted run,
    under the test q != 0 and under the test q(z0) != 0, on packed
    entries, the latter unpacking each nonzero entry."""
    m, x = case
    k_bits = _pack(m)[0]
    at = _nonzero_at(x)
    for test in (bool, lambda v: v != 0 and at(_unpack(v, k_bits))):
        whole = _pack(m)[1]
        split = [list(row) for row in whole]
        expected = _eliminate(whole, test)
        state = _eliminate(split, test, stop=step)
        _, pivots, rows, _, written = state
        assert len(pivots) <= step and len(rows) == len(written) == len(m)
        assert _eliminate(split, test, start=state) == expected


def test_a_resumed_test_reads_current_minors():
    """After two generic steps on this matrix the last row is lazy: its
    stored entry (t - 1)(2 - t) is the current t - 2 times p_0 / p_1 =
    -(t - 1), which vanishes at t = 1.  Resumed under the test q(1) != 0,
    the run reads the current entry and finds the rank 3 at t = 1; a test
    of the stale entry would stop at 2."""
    m = [[[-1, 1], [1], [-1, 1]], [[1], [], [1]], [[-1, 1], [1], [1]]]
    k_bits, packed = _pack(m)
    state = _eliminate(packed, stop=2)
    at_one = lambda v: v != 0 and sum(_unpack(v, k_bits)) != 0
    assert len(state[1]) == 2 and len(_eliminate(packed, at_one, start=state)[1]) == 3


def test_a_stopped_run_leaves_untouched_rows_as_given():
    """A run stopped inside the first block of a block sum hands back its
    lazy state: no step wrote a row of the later block, so each is exactly
    as it was given, and the resumed run equals one uninterrupted run."""
    first = [[[2, 1], [1], [0, 1]], [[1], [3], [1]], [[0, 1], [1], [5, 0, 1]]]
    later = [[[3, 1], [1, 1]], [[1, 1], [2, 0, 1]]]
    m = [row + [[]] * 2 for row in first] + [[[]] * 3 + row for row in later]
    k_bits, given = _pack(m)
    at = _nonzero_at(Fraction(1, 2))
    for test in (bool, lambda v: v != 0 and at(_unpack(v, k_bits))):
        expected = _eliminate([list(row) for row in given], test)
        split = [list(row) for row in given]
        state = _eliminate(split, test, stop=2)
        assert len(state[1]) == 2 and split[3:] == given[3:]
        assert _eliminate(split, test, start=state) == expected


@settings(max_examples=60, deadline=None)
@given(degenerate_seifert())
def test_packing_from_v_matches_the_eager_kernel(data):
    """The rows packed straight from V carry the Hadamard K of tV - V^T,
    and their cached elimination equals the eager kernel's on the dense
    form."""
    v, n = data.matrix, data.size
    form = [[_trim([-v[j][i], v[i][j]]) for j in range(n)] for i in range(n)]
    k_bits, rows = _packed(data.matrix)
    assert (k_bits, rows) == _pack(form)
    assert [[_unpack(e, k_bits) for e in row] for row in rows] == form
    sign, pivots, rows, cols = bareiss_reference._bareiss(form)
    assert data._run == (sign, tuple(map(tuple, pivots)), tuple(rows), tuple(cols))


def test_banded_elimination_rewrites_only_the_band():
    """tV - V^T of T(2,19) is tridiagonal, so at each step only the row
    below the pivot has a nonzero entry in the pivot column: the kernel
    rewrites at most 2 rows per step, where the eager kernel rewrote every
    row below the pivot.  A test that passes every nonzero entry marks
    each step, since every diagonal entry passes it."""
    data = seifert_matrix_from_braid(torus_braid(2, 19))
    _, packed = _packed(data.matrix)
    n = len(packed)
    assert all(not packed[i][j] for i in range(n) for j in range(n) if abs(i - j) > 1)
    steps = []

    class Row(list):
        def __setitem__(self, key, value):
            steps[-1].add(id(self))
            super().__setitem__(key, value)

    def nonzero(q):
        steps.append(set())
        return True

    _, pivots, _, _ = _eliminate([Row(row) for row in packed], lambda v: v != 0 and nonzero(v))
    assert len(pivots) == len(steps) == n == 18
    assert max(map(len, steps)) <= 2


def test_the_kernel_tests_the_integers_it_stores(monkeypatch):
    """_eliminate hands its test each entry as the integer it stores and
    never unpacks one: with _unpack replaced by a trap, packed tV - V^T
    of T(4,8) under an integer test eliminates as under the default test."""
    _, packed = _packed(seifert_matrix_from_braid(torus_braid(4, 8)).matrix)
    expected = _eliminate([list(row) for row in packed])
    seen = []

    def nonzero(v):
        seen.append(v)
        return v != 0

    def trap(v, k_bits):
        raise AssertionError("_eliminate unpacked an entry")

    monkeypatch.setattr("linkbound.linalg._unpack", trap)
    assert _eliminate([list(row) for row in packed], nonzero) == expected
    assert seen and all(type(v) is int for v in seen)
