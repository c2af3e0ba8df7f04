"""Exact evaluation of the hermitian family B(t) = (1-t)V + (1-1/t)V^T on
the unit circle: signatures, nullities, the full piecewise-constant
signature function with averaged values at jumps, Alexander polynomials
and link nullity.

Points z = e^{i theta} are parametrized by x = z + 1/z = 2cos(theta) in
[-2, 2]; the upper half-circle suffices by conjugation symmetry.  Every
principal minor of a hermitian Laurent family is fixed by t -> 1/t and is
therefore an integer polynomial in x, so signatures at rational x reduce
to exact sign sequences of leading principal minors (Jacobi's rule).
When a leading minor degenerates, an exact congruence diagonalization
over Q[z]/(z^2 - xz + 1) takes over; perturbation is never used.  Jump
locations are certified by Sturm isolation of the determinant's roots in
x, and values at jumps follow the averaged-limit convention: the mean of
the two adjacent interval values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import polys
from .braids import SeifertData
from .errors import InvalidSeifertData, SingularFamilyError
from .factor import _rational_root_split
from .laurent import LaurentPoly, involution, normalize
from .linalg import _bareiss_pivots, poly_det, poly_rank
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
        if isinstance(self.x, (int, Fraction)):
            object.__setattr__(self, "x", Fraction(self.x))
            if abs(self.x) > 2:
                raise ValueError(f"x = {self.x} outside [-2, 2]")
        elif isinstance(self.x, RealAlgebraic):
            if self.x.compare_rational(-2) <= 0 or self.x.compare_rational(2) >= 0:
                raise ValueError("algebraic x outside (-2, 2)")
        else:
            raise TypeError("x must be rational or RealAlgebraic")


def _as_x(point):
    if isinstance(point, CirclePoint):
        return point.x
    if isinstance(point, (int, Fraction)):
        x = Fraction(point)
        if abs(x) > 2:
            raise ValueError(f"x = {x} outside [-2, 2]")
        return x
    if isinstance(point, RealAlgebraic):
        return point
    raise TypeError("expected CirclePoint, rational, or RealAlgebraic")


# -- exact arithmetic in Q[z]/(z^2 - xz + 1) ---------------------------------


@dataclass(frozen=True)
class QuadFieldElem:
    """a + b z in Q[z]/(z^2 - x z + 1) for rational x with x^2 < 4.

    This is where Laurent polynomials take values at the circle point with
    z + 1/z = x.  Conjugation is z -> x - z, and the norm a^2 + abx + b^2
    equals |a + bz|^2 > 0 for nonzero elements, so this is a field.
    """

    a: Fraction
    b: Fraction
    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "x", Fraction(self.x))
        if self.x * self.x >= 4:
            raise ValueError("QuadFieldElem needs x^2 < 4")

    def _like(self, a, b) -> "QuadFieldElem":
        return QuadFieldElem(a, b, self.x)

    def __add__(self, other):
        return self._like(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return self._like(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return self._like(-self.a, -self.b)

    def __mul__(self, other):
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return self._like(a1 * a2 - b1 * b2, a1 * b2 + a2 * b1 + b1 * b2 * self.x)

    def conjugate(self) -> "QuadFieldElem":
        return self._like(self.a + self.b * self.x, -self.b)

    def norm(self) -> Fraction:
        """|a + bz|^2 = a^2 + a b x + b^2."""
        return self.a * self.a + self.a * self.b * self.x + self.b * self.b

    def inverse(self) -> "QuadFieldElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero QuadFieldElem")
        c = self.conjugate()
        return self._like(c.a / n, c.b / n)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def real_value(self) -> Fraction:
        """The rational value of a self-conjugate (b = 0) element."""
        if self.b != 0:
            raise ValueError("element is not self-conjugate")
        return self.a


def quad_eval(p: LaurentPoly, x: Fraction) -> QuadFieldElem:
    """Evaluate a Laurent polynomial at the circle point with z + 1/z = x."""
    a = Fraction(0)
    b = Fraction(0)
    powers = {0: (Fraction(1), Fraction(0)), 1: (Fraction(0), Fraction(1))}

    def power(k):
        if k not in powers:
            if k > 0:
                u, v = power(k - 1)
                powers[k] = (-v, u + x * v)  # z^k = z * z^(k-1)
            else:
                u, v = power(-k)
                powers[k] = (u + x * v, -v)  # z^-k = conjugate of z^k
        return powers[k]

    for e, c in p.items():
        u, v = power(e)
        a += c * u
        b += c * v
    return QuadFieldElem(a, b, x)


# -- hermitian Laurent families -----------------------------------------------


@dataclass(frozen=True)
class HermitianFamily:
    """Square matrix of Laurent polynomials with A[j][i] = involution(A[i][j])."""

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

    @property
    def size(self) -> int:
        return len(self.entries)


def b_family(data: SeifertData) -> HermitianFamily:
    """B(t) = (1-t)V + (1-1/t)V^T as a hermitian Laurent family."""
    v = data.matrix
    n = data.size
    rows = tuple(
        tuple(LaurentPoly({0: v[i][j] + v[j][i], 1: -v[i][j], -1: -v[j][i]})
              for j in range(n))
        for i in range(n))
    return HermitianFamily(rows)


def _as_family(data) -> HermitianFamily:
    if isinstance(data, HermitianFamily):
        return data
    if isinstance(data, SeifertData):
        return b_family(data)
    raise TypeError("expected SeifertData or HermitianFamily")


# -- symmetric Laurent -> polynomial in x -------------------------------------


def laurent_xz_parts(p: LaurentPoly) -> tuple[list, list]:
    """Write p(z) = a(x) + b(x) z using z^2 = xz - 1; returns dense (a, b)."""
    X = [0, 1]
    a, b = [], []
    powers = {0: ([1], []), 1: ([], [1])}

    def power(k):
        if k not in powers:
            if k > 0:
                u, v = power(k - 1)
                powers[k] = (polys.neg(v), polys.add(u, polys.mul(X, v)))
            else:
                u, v = power(-k)
                powers[k] = (polys.add(u, polys.mul(X, v)), polys.neg(v))
        return powers[k]

    for e, c in p.items():
        u, v = power(e)
        a = polys.add(a, polys.scale(u, c))
        b = polys.add(b, polys.scale(v, c))
    return a, b


def symmetric_laurent_to_xpoly(p: LaurentPoly) -> list:
    """The polynomial q with p(z) = q(z + 1/z), for symmetric p."""
    a, b = laurent_xz_parts(p)
    if b:
        raise ValueError("polynomial is not symmetric under t -> 1/t")
    return a


# -- principal minors ----------------------------------------------------------


@lru_cache(maxsize=2048)
def _scaled_matrix(A: HermitianFamily):
    """(scale L, shift s, dense integer-polynomial matrix of L * t^s * A)."""
    mult = 1
    shift = 0
    for row in A.entries:
        for p in row:
            for e, c in p.items():
                if isinstance(c, Fraction):
                    mult = lcm(mult, c.denominator)
                shift = max(shift, -e)
    dense = []
    for row in A.entries:
        drow = []
        for p in row:
            top = shift + (p.max_exp if not p.is_zero else 0)
            coeffs = [0] * (top + 1)
            for e, c in p.items():
                coeffs[e + shift] = int(c * mult)
            drow.append(tuple(polys.trim(coeffs)))
        dense.append(tuple(drow))
    return mult, shift, tuple(dense)


@lru_cache(maxsize=65536)
def _principal_minor_laurent(A: HermitianFamily, subset: tuple) -> LaurentPoly:
    """Determinant of the principal submatrix on `subset` as a Laurent
    polynomial, up to a positive rational constant (enough for signs,
    roots and vanishing tests; exact for integer entries)."""
    if not subset:
        return LaurentPoly.one()
    _, shift, dense = _scaled_matrix(A)
    sub = [[list(dense[i][j]) for j in subset] for i in subset]
    det = poly_det(sub)
    if not det:
        return LaurentPoly.zero()
    return LaurentPoly.from_dense(det, -shift * len(subset))


def _minor_x(minor: LaurentPoly) -> tuple:
    """A principal minor as a dense integer polynomial in x = z + 1/z."""
    if minor.is_zero:
        return ()
    return tuple(polys.clear_denominators(symmetric_laurent_to_xpoly(minor)))


@lru_cache(maxsize=65536)
def _principal_minor_x(A: HermitianFamily, subset: tuple) -> tuple:
    """A principal minor in x; leading ones are read off the one-pass
    leading minors."""
    if subset and subset == tuple(range(len(subset))):
        return _leading_minors_x(A)[len(subset) - 1]
    return _minor_x(_principal_minor_laurent(A, subset))


@lru_cache(maxsize=2048)
def _leading_minors_x(A: HermitianFamily) -> tuple:
    """All leading principal minors in x, from one Bareiss elimination
    without row swaps (its pivots are these minors).  The elimination
    stops at the first identically zero minor; the larger ones are then
    computed one by one."""
    _, shift, dense = _scaled_matrix(A)
    _, pivots = _bareiss_pivots(dense, swap_rows=False)
    minors = [_minor_x(LaurentPoly.from_dense(p, -shift * k))
              for k, p in enumerate(pivots, 1)]
    minors += [_minor_x(_principal_minor_laurent(A, tuple(range(k))))
               for k in range(len(pivots) + 1, A.size + 1)]
    return tuple(minors)


def family_determinant(A: HermitianFamily) -> LaurentPoly:
    """det A(t), up to a positive rational constant for rational entries."""
    return _principal_minor_laurent(A, tuple(range(A.size)))


# -- exact signatures at a single point ----------------------------------------


def _symmetric_rational_signature(m) -> tuple[int, int]:
    """(signature, nullity) of a symmetric rational matrix by congruence."""
    n = len(m)
    m = [[Fraction(v) for v in row] for row in m]
    pos = neg = zero = 0
    for k in range(n):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if piv is not None:
                _swap_sym(m, k, piv)
            else:
                pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                             if m[i][j] != 0), None)
                if pair is None:
                    zero += n - k
                    break
                i, j = pair
                for t in range(n):
                    m[i][t] += m[j][t]
                for t in range(n):
                    m[t][i] += m[t][j]
                if i != k:
                    _swap_sym(m, k, i)
        pivot = m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / pivot
                for t in range(n):
                    m[i][t] -= f * m[k][t]
                for t in range(n):
                    m[t][i] -= f * m[t][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
    return pos - neg, zero


def _swap_sym(m, i, j):
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


def _quad_signature_nullity(A: HermitianFamily, x: Fraction) -> tuple[int, int]:
    """(signature, nullity) of A(z) at rational x in (-2, 2), by exact
    hermitian congruence diagonalization over Q[z]/(z^2 - xz + 1).

    When every remaining diagonal entry vanishes but some off-diagonal
    w = m[i][j] does not, one of w + conj(w) and zw + conj(zw) is nonzero
    (both vanish only for w = 0 since x^2 < 4), so a row/column addition
    always manufactures a usable pivot.  Handles singular matrices: zero
    diagonal entries at the end count the corank.
    """
    n = A.size
    m = [[quad_eval(A.entries[i][j], x) for j in range(n)] for i in range(n)]
    one = QuadFieldElem(1, 0, x)
    zelt = QuadFieldElem(0, 1, x)
    pos = neg = zero = 0
    for k in range(n):
        if m[k][k].is_zero:
            piv = next((i for i in range(k + 1, n) if not m[i][i].is_zero), None)
            if piv is not None:
                _swap_quad(m, k, piv)
            else:
                pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                             if not m[i][j].is_zero), None)
                if pair is None:
                    zero += n - k
                    break
                i, j = pair
                w = m[i][j]
                c = one if not (w + w.conjugate()).is_zero else zelt
                cc = c.conjugate()
                for t in range(n):
                    m[i][t] = m[i][t] + c * m[j][t]
                for t in range(n):
                    m[t][i] = m[t][i] + cc * m[t][j]
                if i != k:
                    _swap_quad(m, k, i)
        pivot = m[k][k]
        inv = pivot.inverse()
        for i in range(k + 1, n):
            if not m[i][k].is_zero:
                f = m[i][k] * inv
                fc = f.conjugate()
                for t in range(n):
                    m[i][t] = m[i][t] - f * m[k][t]
                for t in range(n):
                    m[t][i] = m[t][i] - fc * m[t][k]
        val = pivot.real_value()
        if val > 0:
            pos += 1
        else:
            neg += 1
    return pos - neg, zero


def _swap_quad(m, i, j):
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


def pointwise_signature_nullity(data, x) -> tuple[int, int]:
    """Unaveraged (sigma, nullity) of the family at the circle point with
    z + 1/z = x, for rational x in [-2, 2].

    At x = -2 (z = -1) this is the unaveraged signature, which for links
    can differ from (and then beats) the averaged invariant.  The fast
    path is Jacobi's rule on the leading-principal-minor sign sequence;
    exact congruence diagonalization covers degenerate sequences.
    """
    A = _as_family(data)
    if isinstance(x, CirclePoint):
        x = x.x
    if not isinstance(x, (int, Fraction)):
        raise TypeError("pointwise evaluation needs a rational x")
    x = Fraction(x)
    if abs(x) > 2:
        raise ValueError(f"x = {x} outside [-2, 2]")
    n = A.size
    if n == 0:
        return 0, 0
    if abs(x) == 2:
        z = 1 if x == 2 else -1
        m = [[A.entries[i][j].evaluate(z) for j in range(n)] for i in range(n)]
        return _symmetric_rational_signature(m)
    minors = _leading_minors_x(A)
    values = [polys.evaluate(list(mx), x) if mx else 0 for mx in minors]
    if all(v != 0 for v in values):
        changes = 0
        prev = 1
        for v in values:
            if (v > 0) != (prev > 0):
                changes += 1
            prev = v
        return n - 2 * changes, 0
    return _quad_signature_nullity(A, x)


# -- jump structure -------------------------------------------------------------


def _xpoly_nonzero(p) -> bool:
    return bool(polys.trim(list(p)))


def _wall_lo(bp):
    return bp if isinstance(bp, Fraction) else bp.lo


def _wall_hi(bp):
    return bp if isinstance(bp, Fraction) else bp.hi


@lru_cache(maxsize=2048)
def _jump_structure(A: HermitianFamily):
    """(jump polynomial in x, generic rank, breakpoints in open (-2, 2)).

    The jump polynomial's roots inside (-2, 2) are exactly the circle
    points where the rank of A(z) drops below its generic value: the
    determinant's x-polynomial when det is not identically zero, else the
    gcd of all generic-rank principal minors (hermitian matrices attain
    their rank on principal submatrices).
    """
    n = A.size
    if n == 0:
        return (1,), 0, ()
    det_x = _leading_minors_x(A)[-1]
    if _xpoly_nonzero(det_x):
        jump = list(det_x)
        rank = n
    else:
        _, _, dense = _scaled_matrix(A)
        rank = poly_rank([[list(e) for e in row] for row in dense])
        if rank == 0:
            return (1,), 0, ()
        jump = None
        for subset in itertools.combinations(range(n), rank):
            mx = _principal_minor_x(A, subset)
            if _xpoly_nonzero(mx):
                jump = list(mx) if jump is None else polys.gcd_poly(jump, list(mx))
                if polys.degree(jump) == 0:
                    break
        assert jump is not None  # some principal minor realizes the generic rank
    _, prim = polys.primitive_positive(polys.clear_denominators(jump))
    if polys.degree(prim) == 0:
        return tuple(prim), rank, ()
    rest, linear = _rational_root_split(list(prim))
    rational_roots = sorted({Fraction(-f[0], f[1]) for f in linear})
    bps: list = [r for r in rational_roots if -2 < r < 2]
    if polys.degree(rest) >= 1:
        sqfree = polys.squarefree_part(rest)
        for iv in isolate_real_roots(rest, Fraction(-2), Fraction(2)):
            root = RealAlgebraic(sqfree, iv.lo, iv.hi)
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
            if all(polys.evaluate(list(p), cand) != 0 for p in avoid_xpolys):
                return cand
    raise AssertionError("no minor-free sample point found")


@lru_cache(maxsize=2048)
def _function_core(A: HermitianFamily):
    """(breakpoints, samples, interval (sigma, nullity) values, generic rank)."""
    n = A.size
    if n == 0:
        return (), (Fraction(0),), ((0, 0),), 0
    _, rank, bps = _jump_structure(A)
    avoid = [p for p in _leading_minors_x(A) if _xpoly_nonzero(p)]
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
    return tuple(bps), tuple(samples), tuple(values), rank


def _corank_at_algebraic(A: HermitianFamily, root: RealAlgebraic, generic_rank: int) -> int:
    """Corank of A(z) at an algebraic circle point, via the largest
    principal minor not vanishing there."""
    n = A.size
    for k in range(generic_rank - 1, 0, -1):
        for subset in itertools.combinations(range(n), k):
            mx = _principal_minor_x(A, subset)
            if _xpoly_nonzero(mx) and not root.vanishes(list(mx)):
                return n - k
    return n


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
    A = _as_family(data)
    n = A.size
    if n == 0:
        return 0, 0
    x = _as_x(point)
    if isinstance(x, Fraction):
        if abs(x) == 2:
            z = 1 if x == 2 else -1
            m = [[A.entries[i][j].evaluate(z) for j in range(n)] for i in range(n)]
            sig_pt, nul = _symmetric_rational_signature(m)
            if nul == 0:
                return sig_pt, 0
            _, _, values, _ = _function_core(A)
            return (values[-1][0] if x == 2 else values[0][0]), nul
        jump, _, _ = _jump_structure(A)
        if polys.evaluate(list(jump), x) != 0:
            return pointwise_signature_nullity(A, x)
        bps, _, values, _ = _function_core(A)
        idx, is_bp = _locate(bps, x)
        assert is_bp, "rational jump root must be a recorded breakpoint"
        return _mean(values[idx][0], values[idx + 1][0]), _quad_signature_nullity(A, x)[1]
    # algebraic point
    bps, _, values, rank = _function_core(A)
    idx, is_bp = _locate(bps, x)
    if is_bp:
        sig = _mean(values[idx][0], values[idx + 1][0])
        return sig, _corank_at_algebraic(A, bps[idx], rank)
    return values[idx]


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
        for bp in self.breakpoints:
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
def _signature_function_cached(A: HermitianFamily) -> SignatureFunction:
    n = A.size
    bps, samples, values, rank = _function_core(A)
    averaged = []
    for i, bp in enumerate(bps):
        sig = _mean(values[i][0], values[i + 1][0])
        if isinstance(bp, Fraction):
            nul = _quad_signature_nullity(A, bp)[1]
        else:
            nul = _corank_at_algebraic(A, bp, rank)
        averaged.append((sig, nul))
    return SignatureFunction(n, n - rank, bps, values, tuple(averaged), samples)


def signature_function(data) -> SignatureFunction:
    """The full signature/nullity function of a Seifert matrix or a
    hermitian family, with certified jump locations."""
    return _signature_function_cached(_as_family(data))


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


def _presentation_dense(data: SeifertData) -> list[list[list]]:
    v, vt = data.matrix, data.transposed()
    n = data.size
    return [[polys.trim([-vt[i][j], v[i][j]]) for j in range(n)] for i in range(n)]


@lru_cache(maxsize=1024)
def _presentation_det(data: SeifertData) -> tuple:
    """det(tV - V^T) as dense coefficients, shared by the Alexander
    polynomial and the nullity."""
    return tuple(poly_det(_presentation_dense(data)))


def alexander_from_seifert(data: SeifertData) -> LaurentPoly:
    """normalize(det(tV - V^T)).  The empty matrix gives 1; a vanishing
    determinant (links with positive nullity) returns the zero polynomial
    unnormalized, since normalization is undefined there."""
    if data.size == 0:
        return LaurentPoly.one()
    det = _presentation_det(data)
    if not det:
        return LaurentPoly.zero()
    return normalize(LaurentPoly.from_dense(det, 0))


def link_nullity(data: SeifertData) -> int:
    """Corank over Q(t) of the presentation matrix tV - V^T; always within
    [0, components - 1] for valid Seifert data.

    beta = 0 exactly when the Alexander polynomial det(tV - V^T) is not
    identically zero; no rank is computed then."""
    n = data.size
    if n == 0 or _presentation_det(data):
        return 0
    beta = n - poly_rank(_presentation_dense(data))
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
    if A.size and family_determinant(A).is_zero:
        raise SingularFamilyError("family determinant is identically zero")
    return signature_nullity_at(A, point)[0]


def float_oracle(data, theta: float) -> tuple[int, int]:
    """Floating-point (sigma, nullity) of the family at e^{i theta}, via
    numpy eigenvalues.  Verification oracle only: eigenvalues within 1e-9
    of zero count as null, so values near jumps are not certified."""
    import numpy as np

    if not 0 < theta <= 3.14159265358979324:
        raise ValueError("theta must lie in (0, pi]")
    A = _as_family(data)
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
