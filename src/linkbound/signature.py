"""Exact evaluation of the hermitian family B(t) = (1-t)V + (1-1/t)V^T on
the unit circle: signatures, nullities, the full piecewise-constant
signature function with averaged values at jumps, Alexander polynomials
and link nullity.

Points z = e^{i theta} are parametrized by x = z + 1/z = 2cos(theta) in
[-2, 2]; the upper half-circle suffices by conjugation symmetry.  Every
principal minor of a hermitian Laurent family is fixed by t -> 1/t and is
therefore an integer polynomial in x.  All linear algebra over Z[t] is the
Bareiss kernel of :mod:`linkbound.linalg`, run once per Seifert matrix:
t B(t) = (1 - t)(tV - V^T), so the one elimination of tV - V^T gives the
Alexander polynomial, the nullity and the reduction of a family A of
generic rank r to its nonsingular principal block A_I on the pivot rows
I; off the roots of det A_I, A(z) has rank r and the signature of A_I(z).
For B(t), which vanishes at t = 1, the k-th leading minor of B_I is
kept divided by (2 - x)^(k // 2), since (1 - t)^2 = t (x - 2): positive
on [-2, 2), the factor changes no sign and no root there, and the jump
polynomial of a knot drops to half the degree, with no root at x = 2.
Signatures at rational x are then exact sign sequences of these reduced
minors (Jacobi's rule).  When one of them vanishes, and at x = +-2, one
fraction-free congruence of an integer symmetric matrix takes over:
A(+-1), or inside (-2, 2) the rational trace form of A(z), which has
twice its signature and nullity; perturbation is never used.
Jumps lie among the roots of det A_I, certified by Sturm isolation in x;
when det A is identically zero a root counts only where the kernel finds
the rank of A(z) below r.  Values at jumps follow the averaged-limit
convention: the mean of the two adjacent interval values.

Readers take an input through one integer form (see _form), for Seifert
data tV - V^T straight from V.  It, and what depends only on the input
(principal block, jump structure, values at x = +-2, the function), is
cached on the input, so a read pays only for its point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm

from . import polys
from .braids import SeifertData
from .errors import InvalidSeifertData, SingularFamilyError
from .factor import _rational_root_split
from .laurent import LaurentPoly, involution, normalize
from .linalg import _bareiss, poly_det
from .realroots import RealAlgebraic, isolate_real_roots


# -- circle points ----------------------------------------------------------


@dataclass(frozen=True)
class CirclePoint:
    """A point z on the unit circle given through x = z + 1/z.

    `x` is a rational or a RealAlgebraic in [-2, 2].  `upper` selects the
    closed half-circle; conjugation symmetry makes all signature data
    equal on the two halves, so the flag is bookkeeping only.
    """

    x: object
    upper: bool = True

    def __post_init__(self):
        object.__setattr__(self, "x", _as_x(self.x))


def _as_x(x):
    """The x of a circle point: a Fraction or RealAlgebraic in [-2, 2]."""
    if isinstance(x, CirclePoint):
        return x.x
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        if abs(x) > 2:
            raise ValueError(f"x = {x} outside [-2, 2]")
        return x
    if isinstance(x, RealAlgebraic):
        if x.compare_rational(-2) <= 0 or x.compare_rational(2) >= 0:
            raise ValueError("algebraic x outside (-2, 2)")
        return x
    raise TypeError("x must be rational or RealAlgebraic")


# -- hermitian Laurent families -----------------------------------------------


@dataclass(frozen=True)
class HermitianFamily:
    """Square matrix of Laurent polynomials with A[j][i] = involution(A[i][j]).

    The hash is computed once, at construction: families key the caches
    below, and hashing n^2 Laurent polynomials per lookup would cost more
    than many reads."""

    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("hermitian family must be square")
        for i in range(n):
            for j in range(i, n):
                if rows[j][i] != involution(rows[i][j]):
                    raise ValueError(f"not hermitian at entry ({i}, {j})")
        object.__setattr__(self, "_hash", hash(rows))

    def __hash__(self):
        return self._hash

    @property
    def size(self) -> int:
        return len(self.entries)


@lru_cache(maxsize=1024)
def b_family(data: SeifertData) -> HermitianFamily:
    """B(t) = (1-t)V + (1-1/t)V^T as a hermitian Laurent family, built once
    per Seifert matrix; the signature layer reads _form instead."""
    v = data.matrix
    n = data.size
    rows = tuple(
        tuple(LaurentPoly({0: v[i][j] + v[j][i], 1: -v[i][j], -1: -v[j][i]})
              for j in range(n))
        for i in range(n))
    return HermitianFamily(rows)


# -- symmetric Laurent -> polynomial in x -------------------------------------


def _xz_parts(q) -> tuple[list, list]:
    """(a, b) with q(z) = a(x) + b(x) z for a dense polynomial q: Horner's
    rule with z^2 = xz - 1, so (a + bz) z = -b + (a + xb) z."""
    a, b = [], []
    for c in reversed(q):
        a, b = polys.sub([c], b), polys.add(a, [0] + b)
    return a, b


def symmetric_laurent_to_xpoly(p: LaurentPoly) -> list:
    """The polynomial q with p(z) = q(z + 1/z), for symmetric p: one pass
    over D_e = z^e + z^-e, with D_0 = 2, D_1 = x and D_{e+1} = x D_e -
    D_{e-1}."""
    if not p.is_symmetric():
        raise ValueError("polynomial is not symmetric under t -> 1/t")
    q = [p.coefficient(0)]
    old, cur = [2], [0, 1]
    for e in range(1, (p.max_exp if p else 0) + 1):
        q = polys.add(q, polys.scale(cur, p.coefficient(e)))
        old, cur = cur, polys.sub([0] + cur, old)
    return polys.trim(q)


# -- principal minors ----------------------------------------------------------


@lru_cache(maxsize=1024)
def _form(data) -> tuple:
    """(L, s, c, D) with L t^s A = (1 - t)^c D for the family A of `data`,
    L > 0 and D a dense integer-polynomial matrix, c = 1 when A(1) = 0.  A
    k x k minor of A is ((1 - t)^c t^-s / L)^k times that of D, so both pick
    the same pivots, and off z = 1 A(z) and D(z) have equal rank.  Seifert
    data has A = B(t), and t B(t) = (1 - t)(tV - V^T) gives the form
    (1, 1, 1, tV - V^T) straight from V."""
    if isinstance(data, SeifertData):
        return 1, 1, 1, tuple(tuple(tuple(polys.trim([-b, a])) for a, b in zip(row, col))
                              for row, col in zip(data.matrix, data.transposed()))
    if not isinstance(data, HermitianFamily):
        raise TypeError("expected SeifertData or HermitianFamily")
    terms = [(e, c) for row in data.entries for p in row for e, c in p.items()]
    mult = lcm(*(c.denominator for _, c in terms))
    shift = max([0] + [-e for e, _ in terms])

    def dense(p):
        coeffs = [0] * (shift + (p.max_exp if p else 0) + 1)
        for e, c in p.items():
            coeffs[e + shift] = int(c * mult)
        return tuple(polys.trim(coeffs))

    rows = tuple(tuple(map(dense, row)) for row in data.entries)
    if any(sum(p) for row in rows for p in row):
        return mult, shift, 0, rows
    return mult, shift, 1, tuple(tuple(tuple(accumulate(p))[:-1] for p in row) for row in rows)


@lru_cache(maxsize=1024)
def _elimination(dense: tuple) -> tuple:
    """The kernel's (sign, pivots, rows, cols) for a dense integer-polynomial
    matrix, once per matrix: for a Seifert matrix, Delta, beta and the
    principal block of B(t) all read the elimination of tV - V^T."""
    sign, pivots, rows, cols = _bareiss(dense)
    return sign, tuple(map(tuple, pivots)), tuple(rows), tuple(cols)


def _minor_x(p, k: int, c: int, shift: int) -> tuple:
    """L^k times the principal k x k minor (1 - t)^(ck) t^(-sk) p(t) of a
    family, for the minor p of its kernel matrix, divided by (2 - x)^j
    with j = floor(ck / 2), as an integer polynomial in x = z + 1/z.

    (1 - t)^2 = t (x - 2), so (1 - t)^(ck) t^(-sk) is (2 - x)^j times
    (-1)^j (1 - t)^(ck - 2j) t^(j - sk): one factor 1 - t when ck is odd,
    a shift, and a sign.  (2 - x)^j > 0 on [-2, 2), so the quotient has the
    sign and the roots of the minor there, and half its degree."""
    j = c * k // 2
    p = list(p)
    if c * k % 2:
        p = [a - b for a, b in zip(p + [0], [0] + p)]  # (1 - t) p
    q = symmetric_laurent_to_xpoly(LaurentPoly.from_dense(p, j - shift * k))
    return tuple(polys.neg(q) if j % 2 else q)


def _diagonal_prefix(rows, cols) -> int:
    """Number of leading elimination steps that pivoted on the diagonal."""
    return next((k for k, (i, j) in enumerate(zip(rows, cols)) if i != k or j != k),
                len(rows))


@lru_cache(maxsize=2048)
def _principal_block(A) -> tuple:
    """(I, leading principal minors in x of A_I = A[I, I]), where I is the
    set of pivot rows of the generic-rank elimination; len(I) is the
    generic rank r.

    For a hermitian family, r independent rows make A_I nonsingular.  Off
    the roots of det A_I the rank of A(z) is therefore r, the Schur
    complement of A_I vanishes, and A(z) has the signature of A_I(z) and
    nullity n - r.  When det A is not identically zero, A_I = A.  I and
    the minors come from the cached elimination of the matrix D of the
    form, tV - V^T for B(t) (see _form).  The pivots up to the first
    off-diagonal one are leading minors; that minor is 0 and each larger
    one takes a determinant of D_I.  Each minor is stored reduced, divided
    by (2 - x)^floor(ck/2) (see _minor_x), which keeps its sign and its
    roots on [-2, 2): every reader (Jacobi's rule, _pick_sample, the jump
    polynomial, _nullity_at_jump) looks only there.
    """
    _, shift, c, dense = _form(A)
    _, pivots, rows, cols = _elimination(dense)
    block = sorted(rows)
    if _diagonal_prefix(rows, cols) < len(block) < len(dense):
        dense = [[dense[i][j] for j in block] for i in block]
        _, pivots, rows, cols = _bareiss(dense)
    k0 = _diagonal_prefix(rows, cols)
    minors = list(pivots[:k0]) + [poly_det([row[:k] for row in dense[:k]])
                                  for k in range(k0 + 1, len(block) + 1)]
    return tuple(block), tuple(_minor_x(p, k, c, shift) for k, p in enumerate(minors, 1))


def _zero_test(root):
    """The test "x-polynomial q vanishes at root" for a rational or
    RealAlgebraic root; it never refines a bracket."""
    if isinstance(root, RealAlgebraic):
        return root.vanishes
    return lambda q: polys.sign_at(q, root) == 0


def _rank_at(A, root) -> int:
    """Rank of A(z0) at the circle point with z0 + 1/z0 = root in (-2, 2):
    the Bareiss kernel with the test q(z0) != 0 on the matrix D of the
    form, tV - V^T for B(t), which has the rank of A(z0) there since z0 != 1.
    With q(z) = a(x) + b(x) z, q(z0) = 0 exactly when a and b both vanish
    at the root, since z0 is not real."""
    vanishes = _zero_test(root)

    def nonzero(q):
        return not all(map(vanishes, _xz_parts(q)))

    return len(_bareiss(_form(A)[3], nonzero)[1])


def _nullity_at_jump(A, root) -> int:
    """Nullity of A(z) at a breakpoint, where the rank is below the generic
    rank r: n - r + 1 when the (r-1)-th leading minor of A_I does not
    vanish there, otherwise n minus the rank at the point."""
    _, minors = _principal_block(A)
    below = minors[-2] if len(minors) >= 2 else (1,)
    if below and not _zero_test(root)(below):
        return A.size - len(minors) + 1
    return A.size - _rank_at(A, root)


# -- exact signatures at a single point ----------------------------------------


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


@lru_cache(maxsize=2048)
def _endpoint(A, z: int) -> tuple[int, int]:
    """(signature, nullity) of A(z) at z = +-1 (x = +-2): L A(z) =
    z^-s (1 - z)^c D(z) for the form (L, s, c, D), so A(1) = 0 when c = 1,
    and otherwise A(z) has the inertia of the integer matrix z^s D(z)."""
    _, shift, c, dense = _form(A)
    if c and z == 1:
        return 0, len(dense)
    return _integer_symmetric_signature(
        [[z ** shift * polys.evaluate(p, z) for p in row] for row in dense])


def _swap_sym(m, i, j):
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


def _trace_signature_nullity(A, x: Fraction) -> tuple[int, int]:
    """(signature, nullity) of A(z) at rational x = a/b in (-2, 2).

    K = Q(z), z^2 - xz + 1 = 0, is imaginary quadratic, so the trace form
    Tr_K/Q h of h = A(z) is a rational symmetric 2n x 2n form with twice
    the signature and nullity of h (Scharlau, Quadratic and Hermitian
    Forms, ch. 10).  On the Q-basis e_i, z e_i it is [[P_0, P_+], [P_-, P_0]]
    with P_s[i][j] = sum_e c_ije D_(e+s)(x), D_e = z^e + z^-e.  It is built
    in integers, times L b^E > 0 for E = shift + 1, the largest |e + s|,
    from L t^shift A = (1 - t)^c D for the form (L, shift, c, D):
    d_e = b^e D_e(a/b) follows d_(e+1) = a d_e - b^2 d_(e-1), and the term
    of D_e is scaled by b^(E-|e|).
    """
    _, shift, c, dense = _form(A)
    if c:
        dense = [[[a - b for a, b in zip(p + (0,), (0,) + p)] for p in row] for row in dense]
    a, b = x.numerator, x.denominator
    top = shift + 1
    d = [2, a]
    while len(d) <= top:
        d.append(a * d[-1] - b * b * d[-2])
    w = [dk * b ** (top - e) for e, dk in enumerate(d)]

    def block(s):
        return [[sum(c * w[abs(k - shift + s)] for k, c in enumerate(p)) for p in row]
                for row in dense]

    p0, plus, minus = block(0), block(1), block(-1)
    sig, nul = _integer_symmetric_signature(
        [r + q for r, q in zip(p0, plus)] + [r + q for r, q in zip(minus, p0)])
    return sig // 2, nul // 2


def pointwise_signature_nullity(data, x) -> tuple[int, int]:
    """Unaveraged (sigma, nullity) of the family at the circle point with
    z + 1/z = x, for rational x in [-2, 2].

    At x = -2 (z = -1) this is the unaveraged signature, which for links
    can differ from (and then beats) the averaged invariant.  The fast
    path is Jacobi's rule on the sign sequence of the leading principal
    minors of A_I (see _principal_block), which holds wherever none of
    them vanishes; the congruence of the integer trace form covers the
    rest.
    """
    x = _as_x(x)
    if not isinstance(x, Fraction):
        raise TypeError("pointwise evaluation needs a rational x")
    n = len(_form(data)[3])
    if n == 0:
        return 0, 0
    if abs(x) == 2:
        return _endpoint(data, int(x) // 2)
    _, minors = _principal_block(data)
    signs = [polys.sign_at(mx, x) for mx in minors]
    if all(signs):
        changes = sum(1 for a, b in zip([1] + signs, signs) if a != b)
        return len(minors) - 2 * changes, n - len(minors)
    return _trace_signature_nullity(data, x)


# -- jump structure -------------------------------------------------------------


def _wall_lo(bp):
    return bp if isinstance(bp, Fraction) else bp.lo


def _wall_hi(bp):
    return bp if isinstance(bp, Fraction) else bp.hi


@lru_cache(maxsize=2048)
def _jump_structure(A):
    """(jump polynomial in x, generic rank r, breakpoints in open (-2, 2)).

    The jump polynomial is det A_I in x divided by (2 - x)^floor(cr/2)
    (see _principal_block), made primitive; off its roots A(z) has rank r.
    For a Seifert matrix of a knot it is the x-form of t^(-g) Delta(t), of
    degree g, so the rational-root split and the Sturm isolation below
    run on integer polynomials of half the degree of det B.  Its roots
    inside (-2, 2) are the candidate jumps.  When det A is not
    identically zero every candidate is a root of det A, where the rank
    drops; otherwise a candidate is kept only where the Bareiss kernel
    finds the rank of A(z) below r.
    """
    n = A.size
    _, minors = _principal_block(A)
    rank = len(minors)
    if rank == 0:
        return (1,), 0, ()
    _, prim = polys.primitive_positive(list(minors[-1]))
    if polys.degree(prim) == 0:
        return tuple(prim), rank, ()

    def jumps(root) -> bool:
        return rank == n or _rank_at(A, root) < rank

    rest, linear = _rational_root_split(list(prim))
    rational_roots = sorted({Fraction(-f[0], f[1]) for f in linear})
    bps: list = [r for r in rational_roots if -2 < r < 2 and jumps(r)]
    if polys.degree(rest) >= 1:
        sqfree = polys.squarefree_part(rest)
        for iv in isolate_real_roots(rest, Fraction(-2), Fraction(2)):
            root = RealAlgebraic(sqfree, iv.lo, iv.hi)
            if not jumps(root):
                continue
            while root.lo <= -2 or root.hi >= 2:
                root._bisect()  # keep the bracket strictly inside (-2, 2)
            for r in bps:
                if isinstance(r, Fraction):
                    root.refine_away_from(r)
            bps.append(root)
    bps.sort(key=lambda b: (b, 0) if isinstance(b, Fraction) else (b.lo, 1))
    # enforce strictly separated walls between consecutive breakpoints
    for left, right in zip(bps, bps[1:]):
        if isinstance(left, Fraction) and isinstance(right, Fraction):
            continue
        while _wall_hi(left) >= _wall_lo(right):
            if isinstance(left, RealAlgebraic):
                left._bisect()
            if isinstance(right, RealAlgebraic):
                right._bisect()
    return tuple(prim), rank, tuple(bps)


def _pick_sample(avoid_xpolys, lo: Fraction, hi: Fraction) -> Fraction:
    """A dyadic point of (lo, hi) avoiding the roots of every polynomial
    in `avoid_xpolys`: the midpoint, then finer dyadic subdivisions.
    Terminates because the polynomials have finitely many roots."""
    assert lo < hi, "sample gap must be nonempty"
    span = hi - lo
    for depth in range(1, 80):
        denom = 2 ** depth
        for j in range(1, denom, 2):
            cand = lo + span * Fraction(j, denom)
            if all(polys.sign_at(p, cand) != 0 for p in avoid_xpolys):
                return cand
    raise AssertionError("no minor-free sample point found")


def _mean(a, b):
    m = Fraction(a + b, 2)
    return int(m) if m.denominator == 1 else m


def _locate(bps, x) -> tuple[int, bool]:
    """(index, is_breakpoint): the matching breakpoint's index, or the
    index of the open interval containing x (0 = leftmost interval)."""
    if isinstance(x, Fraction):
        count = 0
        for i, bp in enumerate(bps):
            if isinstance(bp, Fraction):
                if bp == x:
                    return i, True
                if bp < x:
                    count += 1
            else:
                bp.refine_away_from(x)
                if bp.hi <= x:
                    count += 1
        return count, False
    count = 0
    for i, bp in enumerate(bps):
        if isinstance(bp, Fraction):
            if x.compare_rational(bp) > 0:
                count += 1
        else:
            if bp is x or bp.equals(x):
                return i, True
            while bp.lo < x.hi and x.lo < bp.hi:
                bp._bisect()
                x._bisect()
            if bp.hi <= x.lo:
                count += 1
    return count, False


def signature_nullity_at(data, point) -> tuple:
    """Averaged signature and exact nullity at a circle point.

    Away from the jump locus this is the plain (sigma, nullity) of A(z).
    At a jump the signature is the mean of the two one-sided limits (a
    half-integer when the jump is odd) and the nullity is the exact
    corank there.  At x = 2 (z = 1) the signature is the limit from
    x < 2 (both one-sided limits agree by conjugation symmetry) and the
    nullity is the corank of A(1) -- the full size for Seifert families,
    where B(1) = 0.
    """
    if not _form(data)[3]:
        return 0, 0
    x = _as_x(point)
    if isinstance(x, Fraction):
        if abs(x) == 2:
            sig_pt, nul = _endpoint(data, int(x) // 2)
            if nul == 0:
                return sig_pt, 0
            return _signature_function_cached(data).value_at(x)[0], nul
        jump, _, _ = _jump_structure(data)
        if polys.sign_at(jump, x) != 0:
            return pointwise_signature_nullity(data, x)
    return _signature_function_cached(data).value_at(x)


# -- the assembled function -----------------------------------------------------


@dataclass(frozen=True)
class SignatureFunction:
    """Piecewise-constant signature/nullity data over x in (-2, 2).

    interval_values[i] holds on the open interval between breakpoints
    i-1 and i (with -2 and 2 as the outer walls); averaged_values[i] is
    the averaged-limit value at breakpoint i; samples[i] is the rational
    point that certified interval i.
    """

    size: int
    generic_nullity: int
    breakpoints: tuple
    interval_values: tuple
    averaged_values: tuple
    samples: tuple

    def __post_init__(self):
        # to_json reads copies of the brackets as built, which later
        # queries cannot refine
        object.__setattr__(self, "_json_breakpoints", tuple(
            bp if isinstance(bp, Fraction) else bp.copy() for bp in self.breakpoints))

    def max_abs_sigma(self) -> int:
        return max(abs(s) for s, _ in self.interval_values)

    def argmax_interval(self) -> int:
        best = self.max_abs_sigma()
        for i, (s, _) in enumerate(self.interval_values):
            if abs(s) == best:
                return i
        raise AssertionError

    def value_at(self, x) -> tuple:
        """(sigma, nullity) at x; averaged at breakpoints, clamped to the
        adjacent interval value at x = +-2."""
        if isinstance(x, (int, Fraction)):
            x = Fraction(x)
            if x == 2:
                return self.interval_values[-1]
            if x == -2:
                return self.interval_values[0]
        idx, is_bp = _locate(self.breakpoints, x)
        return self.averaged_values[idx] if is_bp else self.interval_values[idx]

    def to_json(self) -> dict:
        bps = []
        for bp in self._json_breakpoints:
            if isinstance(bp, Fraction):
                bps.append(_json_rat(bp))
            else:
                bp.refine(Fraction(1, 2 ** 20))
                bps.append({"polynomial": list(bp.poly),
                            "interval": [_json_rat(bp.lo), _json_rat(bp.hi)]})
        return {
            "size": self.size,
            "generic_nullity": self.generic_nullity,
            "breakpoints": bps,
            "interval_values": [[s, nu] for s, nu in self.interval_values],
            "averaged_values": [[_json_rat(s), nu] for s, nu in self.averaged_values],
            "samples": [_json_rat(s) for s in self.samples],
        }

    def csv_rows(self) -> list[tuple]:
        """Rows (x_lo, x_hi, sigma, nullity, source); float coordinates,
        intended for plotting."""
        walls = [-2.0]
        for bp in self.breakpoints:
            walls.append(float(bp) if isinstance(bp, Fraction) else bp.to_float())
        walls.append(2.0)
        rows = []
        for i, (s, nu) in enumerate(self.interval_values):
            rows.append((walls[i], walls[i + 1], float(s), nu, "exact"))
            if i < len(self.breakpoints):
                a_s, a_nu = self.averaged_values[i]
                rows.append((walls[i + 1], walls[i + 1], float(a_s), a_nu, "exact"))
        return rows


def _json_rat(v):
    v = Fraction(v)
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


@lru_cache(maxsize=1024)
def _signature_function_cached(A) -> SignatureFunction:
    n = A.size
    _, rank, bps = _jump_structure(A)
    avoid = [p for p in _principal_block(A)[1] if p]
    samples = []
    values = []
    for i in range(len(bps) + 1):
        lo = Fraction(-2) if i == 0 else _wall_hi(bps[i - 1])
        hi = Fraction(2) if i == len(bps) else _wall_lo(bps[i])
        sample = _pick_sample(avoid, lo, hi)
        samples.append(sample)
        sig, nul = pointwise_signature_nullity(A, sample)
        assert nul == n - rank, "interval nullity must equal the generic corank"
        values.append((sig, nul))
    averaged = tuple((_mean(values[i][0], values[i + 1][0]), _nullity_at_jump(A, bp))
                     for i, bp in enumerate(bps))
    return SignatureFunction(n, n - rank, bps, tuple(values), averaged, tuple(samples))


def signature_function(data) -> SignatureFunction:
    """The full signature/nullity function of a Seifert matrix or a
    hermitian family, with certified jump locations."""
    return _signature_function_cached(data)


def breakpoints_equal(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    if isinstance(a, RealAlgebraic) and isinstance(b, RealAlgebraic):
        return a.equals(b)
    return False


def functions_equal(f: SignatureFunction, g: SignatureFunction) -> bool:
    """Equality as functions on the circle (matrix sizes may differ)."""
    return (len(f.breakpoints) == len(g.breakpoints)
            and all(breakpoints_equal(a, b) for a, b in zip(f.breakpoints, g.breakpoints))
            and f.interval_values == g.interval_values
            and f.averaged_values == g.averaged_values)


# -- Alexander polynomial, nullity, Witt evaluation ------------------------------


def _presentation(data: SeifertData) -> tuple:
    """The cached elimination of tV - V^T, the matrix of the form of
    `data`, shared with B(t)'s block."""
    return _elimination(_form(data)[3])


def alexander_from_seifert(data: SeifertData) -> LaurentPoly:
    """normalize(det(tV - V^T)).  The empty matrix gives 1; a vanishing
    determinant (links with positive nullity) returns the zero polynomial
    unnormalized, since normalization is undefined there."""
    if data.size == 0:
        return LaurentPoly.one()
    _, pivots, _, _ = _presentation(data)
    if len(pivots) < data.size:
        return LaurentPoly.zero()
    return normalize(LaurentPoly.from_dense(pivots[-1], 0))  # the sign is a unit


def link_nullity(data: SeifertData) -> int:
    """Corank over Q(t) of the presentation matrix tV - V^T; always within
    [0, components - 1] for valid Seifert data.

    beta is n minus the number of pivots of the cached elimination of
    tV - V^T, which also gives Delta and the principal block of B(t)."""
    beta = data.size - len(_presentation(data)[1])
    if not 0 <= beta <= data.components - 1:
        raise InvalidSeifertData(
            f"nullity {beta} outside [0, {data.components - 1}]: invalid Seifert data")
    return beta


def witt_evaluate(A: HermitianFamily, point):
    """Averaged-limit signature of a nonsingular hermitian family at a
    circle point: the Witt-class evaluation (additive, kills hyperbolic
    summands).  Rejects families with identically zero determinant."""
    if not isinstance(A, HermitianFamily):
        raise TypeError("witt_evaluate expects a HermitianFamily")
    if len(_principal_block(A)[0]) < A.size:
        raise SingularFamilyError("family determinant is identically zero")
    return signature_nullity_at(A, point)[0]


def float_oracle(data, theta: float) -> tuple[int, int]:
    """Floating-point (sigma, nullity) of the family at e^{i theta}, via
    numpy eigenvalues.  Verification oracle only: eigenvalues within 1e-9
    of zero count as null, so values near jumps are not certified."""
    import numpy as np

    if not 0 < theta <= 3.14159265358979324:
        raise ValueError("theta must lie in (0, pi]")
    A = b_family(data) if isinstance(data, SeifertData) else data
    if not isinstance(A, HermitianFamily):
        raise TypeError("expected SeifertData or HermitianFamily")
    n = A.size
    if n == 0:
        return 0, 0
    z = complex(np.cos(theta), np.sin(theta))
    m = np.array([[complex(A.entries[i][j].evaluate_complex(z)) for j in range(n)]
                  for i in range(n)])
    eig = np.linalg.eigvalsh(m)
    pos = int((eig > 1e-9).sum())
    neg = int((eig < -1e-9).sum())
    return pos - neg, n - pos - neg
