"""Exact Levine-Tristram signatures of a Seifert matrix V: the hermitian
form B(t) = (1-t)V + (1-1/t)V^T on the unit circle, its signatures and
nullities, the full piecewise-constant signature function with averaged
values at jumps, the Alexander polynomial and the link nullity.

Points z = e^{i theta} are parametrized by x = z + 1/z = 2cos(theta) in
[-2, 2]; the upper half-circle suffices by conjugation symmetry.  Every
principal minor of B is fixed by t -> 1/t and is therefore an integer
polynomial in x.  All linear algebra over Z[t] is the Bareiss kernel of
:mod:`linkbound.linalg`, run once per Seifert matrix on tV - V^T (see
_form): t B(t) = (1 - t)(tV - V^T), so the one elimination gives the
Alexander polynomial, the nullity and the reduction of B, of generic
rank r, to its nonsingular principal block B_I on the pivot rows I; off
the roots of det B_I, B(z) has rank r and the signature of B_I(z).
The k-th leading minor of B_I is kept divided by (2 - x)^(k // 2), since
(1 - t)^2 = t (x - 2): positive on [-2, 2), the factor changes no sign
and no root there, and the jump polynomial of a knot drops to half the
degree, with no root at x = 2.  Signatures at rational x are then exact
sign sequences of these reduced minors (Jacobi's rule).  When one of
them vanishes, and at x = -2, one fraction-free congruence of an integer
symmetric matrix read off V takes over: B(-1) = 2(V + V^T), or inside
(-2, 2) the rational trace form of B(z), which has twice its signature
and nullity; perturbation is never used.  B(1) = 0.
Jumps lie among the roots of det B_I, certified by Sturm isolation in x;
when det B is identically zero a root counts only where the kernel finds
the rank of B(z) below r.  Values at jumps follow the averaged-limit
convention: the mean of the two adjacent interval values.

The form tV - V^T, and what depends only on V (principal block, jump
structure, values at x = +-2, the function), is cached on the Seifert
data, so a read pays only for its point.  Laurent polynomials appear only
in the answer: the Alexander polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import polys
from .braids import SeifertData
from .errors import InvalidSeifertData
from .factor import _rational_root_split
from .laurent import LaurentPoly, normalize
from .linalg import _bareiss, poly_det
from .realroots import RealAlgebraic, _yun, isolate_real_roots


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


# -- principal minors ----------------------------------------------------------


def _xz_parts(q) -> tuple[list, list]:
    """(a, b) with q(z) = a(x) + b(x) z for a dense polynomial q: Horner's
    rule with z^2 = xz - 1, so (a + bz) z = -b + (a + xb) z."""
    a, b = [], []
    for c in reversed(q):
        a, b = polys.sub([c], b), polys.add(a, [0] + b)
    return a, b


@lru_cache(maxsize=1024)
def _form(data: SeifertData) -> tuple:
    """tV - V^T as a dense integer-polynomial matrix, straight from V.
    t B(t) = (1 - t)(tV - V^T), so a k x k minor of B is ((1 - t)/t)^k
    times that of tV - V^T: both pick the same pivots, and off z = 1 B(z)
    and zV - V^T have equal rank."""
    return tuple(tuple(tuple(polys.trim([-b, a])) for a, b in zip(row, col))
                 for row, col in zip(data.matrix, data.transposed()))


@lru_cache(maxsize=1024)
def _elimination(dense: tuple) -> tuple:
    """The kernel's (sign, pivots, rows, cols) for a dense integer-polynomial
    matrix, once per matrix: for a Seifert matrix, Delta, beta and the
    principal block of B(t) all read the elimination of tV - V^T."""
    sign, pivots, rows, cols = _bareiss(dense)
    return sign, tuple(map(tuple, pivots)), tuple(rows), tuple(cols)


def _minor_x(p, k: int) -> tuple:
    """The principal k x k minor ((1 - t)/t)^k p(t) of B, for the minor p
    of tV - V^T, divided by (2 - x)^j with j = k // 2, as an integer
    polynomial in x = z + 1/z.

    (1 - t)^2 = t (x - 2), so ((1 - t)/t)^k is (2 - x)^j times
    (-1)^j (1 - t)^(k - 2j) t^(j - k): one factor 1 - t when k is odd, a
    shift, and a sign.  (2 - x)^j > 0 on [-2, 2), so the quotient has the
    sign and the roots of the minor there, and half its degree.  The
    shifted minor is symmetric, sum_e c_e t^e with c_-e = c_e, and its
    x-form is c_0 + sum_(e > 0) c_e D_e(x) with D_e = z^e + z^-e, D_0 = 2,
    D_1 = x and D_(e+1) = x D_e - D_(e-1)."""
    j, m = k // 2, k - k // 2
    p = list(p)
    if k % 2:
        p = [a - b for a, b in zip(p + [0], [0] + p)]  # (1 - t) p
    p += [0] * (2 * m + 1 - len(p))
    if p != p[::-1]:
        raise ValueError("minor is not symmetric under t -> 1/t")
    q, old, cur = [p[m]], [2], [0, 1]
    for c in p[m + 1:]:
        q = polys.add(q, polys.scale(cur, c))
        old, cur = cur, polys.sub([0] + cur, old)
    q = polys.trim(q)
    return tuple(polys.neg(q) if j % 2 else q)


def _diagonal_prefix(rows, cols) -> int:
    """Number of leading elimination steps that pivoted on the diagonal."""
    return next((k for k, (i, j) in enumerate(zip(rows, cols)) if i != k or j != k),
                len(rows))


@lru_cache(maxsize=2048)
def _principal_block(data) -> tuple:
    """(I, leading principal minors in x of B_I = B[I, I]), where I is the
    set of pivot rows of the generic-rank elimination; len(I) is the
    generic rank r.

    B is hermitian, so r independent rows make B_I nonsingular.  Off the
    roots of det B_I the rank of B(z) is therefore r, the Schur complement
    of B_I vanishes, and B(z) has the signature of B_I(z) and nullity
    n - r.  When det B is not identically zero, B_I = B.  I and the minors
    come from the cached elimination of tV - V^T (see _form).  The pivots
    up to the first off-diagonal one are leading minors; that minor is 0
    and each larger one takes a determinant of (tV - V^T)_I.  Each minor
    is stored reduced, divided by (2 - x)^(k // 2) (see _minor_x), which
    keeps its sign and its roots on [-2, 2): every reader (Jacobi's rule,
    _pick_sample, the jump polynomial, _nullity_at_jump) looks only there.
    """
    dense = _form(data)
    _, pivots, rows, cols = _elimination(dense)
    block = sorted(rows)
    if _diagonal_prefix(rows, cols) < len(block) < len(dense):
        dense = [[dense[i][j] for j in block] for i in block]
        _, pivots, rows, cols = _bareiss(dense)
    k0 = _diagonal_prefix(rows, cols)
    minors = list(pivots[:k0]) + [poly_det([row[:k] for row in dense[:k]])
                                  for k in range(k0 + 1, len(block) + 1)]
    return tuple(block), tuple(_minor_x(p, k) for k, p in enumerate(minors, 1))


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
    not real."""
    vanishes = _zero_test(root)

    def nonzero(q):
        return not all(map(vanishes, _xz_parts(q)))

    return len(_bareiss(_form(data), nonzero)[1])


def _nullity_at_jump(data, root) -> int:
    """Nullity of B(z) at a breakpoint, where the rank is below the generic
    rank r: n - r + 1 when the (r-1)-th leading minor of B_I does not
    vanish there, otherwise n minus the rank at the point."""
    _, minors = _principal_block(data)
    below = minors[-2] if len(minors) >= 2 else (1,)
    if below and not _zero_test(root)(below):
        return data.size - len(minors) + 1
    return data.size - _rank_at(data, root)


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
def _endpoint(data, z: int) -> tuple[int, int]:
    """(signature, nullity) of B(z) at z = +-1 (x = +-2): B(1) = 0, and
    B(-1) = 2(V + V^T) has the inertia of the integer matrix V + V^T."""
    if z == 1:
        return 0, data.size
    return _integer_symmetric_signature(
        [[p + q for p, q in zip(row, col)] for row, col in zip(data.matrix, data.transposed())])


def _swap_sym(m, i, j):
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


def _trace_signature_nullity(data, x: Fraction) -> tuple[int, int]:
    """(signature, nullity) of B(z) at rational x = a/b in (-2, 2).

    K = Q(z), z^2 - xz + 1 = 0, is imaginary quadratic, so the trace form
    Tr_K/Q h of h = B(z) is a rational symmetric 2n x 2n form with twice
    the signature and nullity of h (Scharlau, Quadratic and Hermitian
    Forms, ch. 10).  On the Q-basis e_i, z e_i it is [[P_0, P_+], [P_-, P_0]]
    with P_s = sum_e c_e D_(e+s)(x), D_e = z^e + z^-e, for the
    coefficients c_-1 = -V^T, c_0 = V + V^T and c_1 = -V of B(t), so
    P_- = P_+^T.  It is built in integers, times b^2: d_e = b^2 D_e(a/b)
    is 2b^2, ab and a^2 - 2b^2 for e = 0, 1, 2.
    """
    a, b = x.numerator, x.denominator
    d0, d1, d2 = 2 * b * b, a * b, a * a - 2 * b * b
    pairs = [list(zip(row, col)) for row, col in zip(data.matrix, data.transposed())]
    p0 = [[(d0 - d1) * (p + q) for p, q in row] for row in pairs]
    plus = [[d1 * (p + q) - d0 * q - d2 * p for p, q in row] for row in pairs]
    minus = [list(col) for col in zip(*plus)]
    sig, nul = _integer_symmetric_signature(
        [r + q for r, q in zip(p0, plus)] + [r + q for r, q in zip(minus, p0)])
    return sig // 2, nul // 2


def pointwise_signature_nullity(data, x) -> tuple[int, int]:
    """Unaveraged (sigma, nullity) of B(z) at the circle point with
    z + 1/z = x, for rational x in [-2, 2].

    At x = -2 (z = -1) this is the unaveraged signature, which for links
    can differ from (and then beats) the averaged invariant.  The fast
    path is Jacobi's rule on the sign sequence of the leading principal
    minors of B_I (see _principal_block), which holds wherever none of
    them vanishes; the congruence of the integer trace form covers the
    rest.
    """
    x = _as_x(x)
    if not isinstance(x, Fraction):
        raise TypeError("pointwise evaluation needs a rational x")
    n = data.size
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
def _jump_structure(data):
    """(jump polynomial in x, generic rank r, breakpoints in open (-2, 2)).

    The jump polynomial is det B_I in x divided by (2 - x)^(r // 2)
    (see _principal_block), made primitive; off its roots B(z) has rank r.
    For a knot it is the x-form of t^(-g) Delta(t), of degree g, so the
    rational-root split and the Sturm isolation below run on integer
    polynomials of half the degree of det B.  Its roots inside (-2, 2) are
    the candidate jumps.  When det B is not identically zero every
    candidate is a root of det B, where the rank drops; otherwise a
    candidate is kept only where the Bareiss kernel finds the rank of
    B(z) below r.  The square-free part that defines the algebraic
    breakpoints comes from the one decomposition that the isolation reads.
    """
    n = data.size
    _, minors = _principal_block(data)
    rank = len(minors)
    if rank == 0:
        return (1,), 0, ()
    _, prim = polys.primitive_positive(list(minors[-1]))
    if polys.degree(prim) == 0:
        return tuple(prim), rank, ()

    def jumps(root) -> bool:
        return rank == n or _rank_at(data, root) < rank

    rest, linear = _rational_root_split(list(prim))
    rational_roots = sorted({Fraction(-f[0], f[1]) for f in linear})
    bps: list = [r for r in rational_roots if -2 < r < 2 and jumps(r)]
    if polys.degree(rest) >= 1:
        sqfree = _yun(tuple(rest))[1]
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

    Away from the jump locus this is the plain (sigma, nullity) of B(z).
    At a jump the signature is the mean of the two one-sided limits (a
    half-integer when the jump is odd) and the nullity is the exact
    corank there.  At x = 2 (z = 1) the signature is the limit from
    x < 2 (both one-sided limits agree by conjugation symmetry) and the
    nullity is the corank of B(1) = 0, the full size.
    """
    if data.size == 0:
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
def _signature_function_cached(data) -> SignatureFunction:
    n = data.size
    _, rank, bps = _jump_structure(data)
    avoid = [p for p in _principal_block(data)[1] if p]
    samples = []
    values = []
    for i in range(len(bps) + 1):
        lo = Fraction(-2) if i == 0 else _wall_hi(bps[i - 1])
        hi = Fraction(2) if i == len(bps) else _wall_lo(bps[i])
        sample = _pick_sample(avoid, lo, hi)
        samples.append(sample)
        sig, nul = pointwise_signature_nullity(data, sample)
        assert nul == n - rank, "interval nullity must equal the generic corank"
        values.append((sig, nul))
    averaged = tuple((_mean(values[i][0], values[i + 1][0]), _nullity_at_jump(data, bp))
                     for i, bp in enumerate(bps))
    return SignatureFunction(n, n - rank, bps, tuple(values), averaged, tuple(samples))


def signature_function(data: SeifertData) -> SignatureFunction:
    """The full signature/nullity function of a Seifert matrix, with
    certified jump locations."""
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


# -- Alexander polynomial, nullity, float oracle ---------------------------------


def _presentation(data: SeifertData) -> tuple:
    """The cached elimination of tV - V^T, shared with B(t)'s block."""
    return _elimination(_form(data))


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


def float_oracle(data: SeifertData, theta: float) -> tuple[int, int]:
    """Floating-point (sigma, nullity) of B(z) = (1 - z)V + (1 - 1/z)V^T at
    z = e^{i theta}, built from V in numpy and read by its eigenvalues.
    Verification oracle only: eigenvalues within 1e-9 of zero count as
    null, so values near jumps are not certified."""
    import numpy as np

    if not 0 < theta <= 3.14159265358979324:
        raise ValueError("theta must lie in (0, pi]")
    n = data.size
    if n == 0:
        return 0, 0
    v = np.array(data.matrix, dtype=float)
    z = complex(np.cos(theta), np.sin(theta))
    m = (1 - z) * v + (1 - z.conjugate()) * v.T
    eig = np.linalg.eigvalsh(m)
    pos = int((eig > 1e-9).sum())
    neg = int((eig < -1e-9).sum())
    return pos - neg, n - pos - neg
