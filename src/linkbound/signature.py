"""Exact Levine-Tristram signatures of a Seifert matrix V: the hermitian
form B(t) = (1-t)V + (1-1/t)V^T on the unit circle, its signatures and
nullities, the full piecewise-constant signature function with averaged
values at jumps, the Alexander polynomial and the link nullity.

Points z = e^{i theta} are parametrized by x = z + 1/z = 2cos(theta) in
[-2, 2]; the upper half-circle suffices by conjugation symmetry.  Every
principal minor of B is fixed by t -> 1/t and is therefore an integer
polynomial in x, read off its coefficients with a cached table of the
x-forms of z^e + z^-e.  All linear algebra over Z[t] is the Bareiss
kernel of :mod:`linkbound.linalg`, run once per Seifert matrix on tV - V^T,
packed straight from V, when the SeifertData is built and checks V - V^T
at t = 1 with it (see braids.SeifertData): t B(t) = (1 - t)(tV - V^T), so
the one elimination gives the Alexander polynomial, the nullity and the
reduction of B, of generic rank r, to its nonsingular principal block
B_I on the pivot rows I; off the roots of det B_I, B(z) has rank r and
the signature of B_I(z); its pivots give every leading minor of B_I.
The k-th leading minor of B_I is kept divided by (2 - x)^(k // 2), since
(1 - t)^2 = t (x - 2): positive on [-2, 2), the factor changes no sign
and no root there, and the jump polynomial of a knot drops to half the
degree, with no root at x = 2.  Signatures at rational x in [-2, 2) are
then exact sign sequences of the reduced minors not identically 0
(Frobenius's rule); at x = -2 the reduction divides by 4^(k // 2) > 0.
When one of them vanishes at x, the inertia of an integer symmetric
matrix read off V, by the same kernel, takes over: B(-1) = 2(V + V^T)
at x = -2, or inside (-2, 2) the rational trace form of B(z), which has
twice its signature and nullity.  B(1) = 0.
Jumps lie among the roots of det B_I, certified by Sturm isolation in x
on integer brackets (a, b, d) for (a/d, b/d); the breakpoints are built
from the certified brackets without a second count.  When det B is
identically zero the multiplicity e of a root of det B_I decides it (see
_jump_structure): odd e is a jump, and at e = 1 the rank of B(z) is
r - 1; a root of even e counts only where the rank of B(z) is below r.
That rank, and the nullity at a multiple root, are read off the kept run
(see _ranks_at) by linalg._Run.ranks_at, the resume rule of the
construction at t = 1: one generic run per build serves every root.
Each interval is read at a dyadic sample where no leading minor vanishes
but those identically 0: the sample search walks integer numerators over
one denominator and asks _block_signature at each, the one reader of a
certified value at a rational point, so the interval value needs no
second read.
The jump locus thus builds a Fraction only for each sample and each
rational breakpoint.  Values at jumps follow the averaged-limit
convention: the mean of the two adjacent interval values; the nullity
at a simple root is n - r + 1.

The elimination is kept on the SeifertData from its construction, and
the principal block, value at x = -2 and function once a read builds
them (see _owned); the jump structure and the ranks
at its roots live for one build, so the breakpoints that reads refine
belong to that object's function alone, and a fresh equal SeifertData
builds its own from V.  A read is located among the breakpoints of the
certified function, which the first read builds, by cross-multiplication:
its walls are integers over one denominator.  A Fraction x = p/q has its
numerator and denominator read once: the range check, the bisection of
the walls (_rational) and the test for x = +-2, q = 1 and |p| = 2, run
on p and q, so a warm read builds and compares no Fraction, and to_json
builds none; any other point is checked once (_as_x).
pointwise_signature_nullity, unaveraged, is the independent route.
Laurent polynomials appear only in the answer: the Alexander polynomial.
"""

from __future__ import annotations

import bisect
import collections
from fractions import Fraction
from functools import wraps
from math import gcd, lcm

from . import polys
from .braids import SeifertData, _Value
from .factor import _rational_root_split
from .laurent import LaurentPoly
from .linalg import _frobenius, _integer_symmetric_signature, _principal_signs
from .realroots import RealAlgebraic, _nonzero_at, _yun, isolate_real_roots


# -- circle points ----------------------------------------------------------


class CirclePoint(_Value):
    """A point z on the unit circle given through x = z + 1/z.

    `x` is a rational or a RealAlgebraic in [-2, 2]; z and its conjugate
    share it, and conjugation symmetry makes all signature data equal on
    the two half-circles.
    """

    _fields = ("x",)

    def __init__(self, x):
        super().__init__(_as_x(x))


def _as_x(x):
    """The x of a circle point: a Fraction or RealAlgebraic in [-2, 2]."""
    if type(x) is not Fraction:
        if isinstance(x, CirclePoint):
            return x.x
        if isinstance(x, RealAlgebraic):
            # a bracket strictly inside (-2d, 2d) settles it without a sign
            if not (-2 * x._d < x._a and x._b < 2 * x._d) and (
                    x.compare_rational(-2) <= 0 or x.compare_rational(2) >= 0):
                raise ValueError("algebraic x outside (-2, 2)")
            return x
        if type(x) is not int:  # nor a bool, an int subclass
            raise TypeError("x must be rational, RealAlgebraic or a CirclePoint")
        x = Fraction(x)
    if abs(x.numerator) > 2 * x.denominator:  # |x| > 2, in integers
        raise _outside(x)
    return x


def _outside(x: Fraction) -> ValueError:
    return ValueError(f"x = {x} outside [-2, 2]")


def _owned(build):
    """build(data), run once per SeifertData and kept in the private dict
    `_derived` that the data owns: a later call is one dict lookup, and the
    value lives and dies with the data."""
    @wraps(build)
    def read(data):
        try:
            return data._derived[build]
        except KeyError:
            value = data._derived[build] = build(data)
            return value
    return read


# -- principal minors ----------------------------------------------------------


def _minor_x(p, k: int) -> tuple:
    """The principal k x k minor ((1 - t)/t)^k p(t) of B, for the minor p
    of tV - V^T, divided by (2 - x)^j with j = k // 2, as an integer
    polynomial in x = z + 1/z.

    (1 - t)^2 = t (x - 2), so ((1 - t)/t)^k is (2 - x)^j times
    (-1)^j (1 - t)^(k - 2j) t^(j - k): one factor 1 - t when k is odd, a
    shift, and a sign.  (2 - x)^j > 0 on [-2, 2), so the quotient has the
    sign and the roots of the minor there, and half its degree.  The
    shifted minor is symmetric, sum_e c_e t^e with c_-e = c_e, and its
    x-form is c_0 + sum_(e > 0) c_e D_e(x), read off the table of the
    D_e (see _chebyshev) in integers."""
    j, m = k // 2, k - k // 2
    p = list(p)
    if k % 2:
        p = [a - b for a, b in zip(p + [0], [0] + p)]  # (1 - t) p
    p += [0] * (2 * m + 1 - len(p))
    if p != p[::-1]:
        raise ValueError("minor is not symmetric under t -> 1/t")
    sign = -1 if j % 2 else 1
    q = [sign * p[m]] + [0] * m
    for c, terms in zip(p[m + 1:2 * m + 1], _chebyshev(m)):
        if c:
            c *= sign
            for i, a in terms:
                q[i] += c * a
    return tuple(polys.trim(q))


def _chebyshev(m: int) -> list:
    """The x-forms of D_e = z^e + z^-e for e = 1, 2, ..., at least m of
    them, each as its nonzero (power of x, coefficient) pairs: D_0 = 2,
    D_1 = x and D_(e+1) = x D_e - D_(e-1).  One table serves every m: it
    grows to the largest m asked for, and each caller reads its first m.
    It grows in a copy that then replaces it, so no caller, in any
    thread, sees an entry appended twice."""
    table, old, cur = _CHEBYSHEV[0]
    if len(table) < m:
        table = list(table)
        while len(table) < m:
            table.append(tuple((i, a) for i, a in enumerate(cur) if a))
            old, cur = cur, polys.sub([0] + cur, old)
        _CHEBYSHEV[0] = table, old, cur
    return table


# the table of _chebyshev, with D_(e-1) and D_e for its next entry e as
# dense coefficient lists
_CHEBYSHEV = [([], [2], [0, 1])]


@_owned
def _principal_block(data) -> tuple:
    """(I, leading principal minors in x of B_I = B[I, I]), where I holds
    the pivot rows of the generic-rank elimination in pivot order; len(I)
    is the generic rank r.

    B is hermitian, so r independent rows make B_I nonsingular.  Off the
    roots of det B_I the rank of B(z) is therefore r, the Schur complement
    of B_I vanishes, and B(z) has the signature of B_I(z) and nullity
    n - r.  When det B is not identically zero, I holds every index.  The
    k-th pivot of the run of tV - V^T kept on the data (linalg._Run) is
    the k-th leading minor of (tV - V^T)_I times the sign, or the 0, of
    linalg._principal_signs: a k x k minor of B is ((1 - t)/t)^k times
    that of tV - V^T, so both pick the same pivots, and off z = 1 B(z) and
    zV - V^T have equal rank.  Each minor is stored reduced, divided by
    (2 - x)^(k // 2) (see _minor_x), which keeps its sign and its roots on
    [-2, 2): every reader (Frobenius's rule in _block_signature, the
    jump polynomial) looks only there.
    """
    run = data._run
    minors = [polys.neg(p) if s < 0 else p if s else ()
              for s, p in zip(_principal_signs(run.rows, run.cols), run.pivots)]
    return run.rows, tuple(_minor_x(p, k) for k, p in enumerate(minors, 1))


def _ranks_at(data, roots) -> list:
    """The rank of B(z0) at each circle point with z0 + 1/z0 = root in
    (-2, 2): that of tV - V^T at z0 (see _principal_block), since z0 != 1,
    read off the stored run (linalg._Run.ranks_at) under q(z0) != 0."""
    return data._run.ranks_at([_nonzero_at(root) for root in roots])


# -- exact signatures at a single point ----------------------------------------


def _endpoint(data, z: int) -> tuple[int, int]:
    """(signature, nullity) of B(z) at z = +-1 (x = +-2): B(1) = 0, and
    B(-1) = 2(V + V^T) has the inertia of the integer matrix V + V^T
    (see _at_minus_one)."""
    return (0, data.size) if z == 1 else _at_minus_one(data)


@_owned
def _at_minus_one(data) -> tuple[int, int]:
    """(signature, nullity) of B(-1) = 2(V + V^T), read as at any rational
    x: off the principal block (_block_signature), where its reduced
    minors are the minors divided by 4^(k // 2) > 0, and otherwise by one
    elimination of the integer matrix V + V^T.  No leading minor of
    T(2,q) vanishes at -2; one of T(3,6), T(3,7) or T(4,4) does."""
    return _block_signature(data, -2, 1) or _integer_symmetric_signature(
        [[p + q for p, q in zip(row, col)] for row, col in zip(data.matrix, data.transposed())])


def _block_signature(data, p: int, q: int) -> tuple[int, int] | None:
    """(signature, nullity) of B(z) at x = p/q in [-2, 2), q > 0, by
    Frobenius's rule on the signs of the leading principal minors of B_I
    (see _principal_block) there, or None where one of them that is not
    identically 0 vanishes at x."""
    _, minors = _principal_block(data)
    signs = [polys.sign_at_ratio(mx, p, q) for mx in minors if mx]
    if all(signs):
        return _frobenius(signs, len(minors)), data.size - len(minors)
    return None


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
    can differ from (and then beats) the averaged invariant.  It never
    reads the signature function: the independent route.  The fast path
    is Frobenius's rule on the signs of the leading principal minors of
    B_I (_block_signature), wherever only those identically 0 vanish;
    the inertia of the integer trace form covers the rest.
    """
    x = _as_x(x)
    if type(x) is not Fraction:
        raise TypeError("pointwise evaluation needs a rational x")
    p, q = x.numerator, x.denominator
    if q == 1 and abs(p) == 2:
        return _endpoint(data, p // 2)
    return _block_signature(data, p, q) or _trace_signature_nullity(data, x)


# -- jump structure -------------------------------------------------------------


def _wall(bp) -> tuple[int, int, int]:
    """(a, b, d), d > 0, with the breakpoint in [a/d, b/d]: a = b if rational."""
    if isinstance(bp, RealAlgebraic):
        return bp._a, bp._b, bp._d
    return bp.numerator, bp.numerator, bp.denominator


def _separated(left, right) -> bool:
    """Whether the wall of `left` ends strictly before that of `right`."""
    _, b, d = _wall(left)
    a, _, e = _wall(right)
    return b * e < a * d


def _jump_structure(data):
    """(jump polynomial in x, generic rank r, the breakpoints in open
    (-2, 2), each paired with its multiplicity as a root of the jump
    polynomial, the nullity of B(z) at each breakpoint).

    The jump polynomial is det B_I in x divided by (2 - x)^(r // 2)
    (see _principal_block), made primitive; off its roots B(z) has rank r.
    For a knot it is the x-form of t^(-g) Delta(t), of degree g, so the
    rational-root split and the Sturm isolation below run on integer
    polynomials of half the degree of det B.  Its roots inside (-2, 2) are
    the candidate jumps, each with the multiplicity e that the split or
    the isolation certifies; x - x0 = (t - z0)(t - 1/z0)/t, so e is also
    the order of det B_I at z0 != +-1.  When det B is not identically zero
    every candidate is a root of det B, where the rank drops.  Otherwise:

    - a candidate of odd e is a jump;
    - at a candidate of e = 1, B(z0) has rank r - 1, nullity n - r + 1;
    - a candidate of even e is kept only where the Bareiss kernel finds
      the rank of B(z0) below r.

    For e > 1 the jump test and the nullity read one rank, and one call
    of _ranks_at reads them all.

    Proof.  B has rank r over Q(t) and B_I is nonsingular, so
    B = B[:, I] B_I^-1 B[I, :], and det B[S, T] det B_I =
    det B[S, I] det B[I, T] for all r-subsets S, T.  B(t)^T = B(1/t) and
    the minors have integer coefficients, so det B[I, S] and det B[S, I]
    vanish at z0 to one order a_S: on the circle, one is the conjugate
    of the other.  T = S gives 0 <= ord det B[S, S] = 2 a_S - e; for odd
    e, 2 a_S >= e + 1, and ord det B[S, T] = a_S + a_T - e >= 1, so every
    r x r minor of B vanishes at z0.  The corank of B_I(z0) is at most
    the order e of det B_I there, so rank B(z0) >= r - e: for e = 1 the
    rank is r - 1.

    The square-free part that defines the algebraic breakpoints comes
    from the one decomposition that the isolation reads.
    """
    n = data.size
    _, minors = _principal_block(data)
    rank = len(minors)
    if rank == 0:
        return (1,), 0, (), ()
    _, prim = polys.primitive_positive(list(minors[-1]))
    if polys.degree(prim) == 0:
        return tuple(prim), rank, (), ()
    rest, linear = _rational_root_split(list(prim))
    # each linear factor is (-s, den), den > 0, with root s/den
    candidates = sorted((Fraction(-c, den), e) for (c, den), e in
                        collections.Counter(map(tuple, linear)).items() if abs(c) < 2 * den)
    if polys.degree(rest) >= 1:
        sqfree = _yun(tuple(rest))[1]
        candidates += [(RealAlgebraic._certified(sqfree, a, b, d), e)  # in increasing order
                       for a, b, d, e in isolate_real_roots(rest, -2, 2)]
    ranks = iter(_ranks_at(data, [root for root, e in candidates if e > 1]))
    rationals, algebraic = [], []
    for root, e in candidates:
        nul = n - (rank - 1 if e == 1 else next(ranks))
        if rank == n or e % 2 or nul > n - rank:
            (algebraic if isinstance(root, RealAlgebraic) else rationals).append((root, e, nul))
    found: list = []
    for root, e, nul in algebraic:
        while not (_separated(-2, root) and _separated(root, 2)):
            root._bisect()  # keep the bracket strictly inside (-2, 2)
        # the rational jumps below it go first; comparing refines it away
        while rationals and root.compare_rational(rationals[0][0]) > 0:
            found.append(rationals.pop(0))
        found.append((root, e, nul))
    found += rationals
    bps = [b for b, _, _ in found]
    # enforce strictly separated walls between consecutive breakpoints
    for left, right in zip(bps, bps[1:]):
        while not _separated(left, right):
            if isinstance(left, RealAlgebraic):
                left._bisect()
            if isinstance(right, RealAlgebraic):
                right._bisect()
    return tuple(prim), rank, tuple((b, e) for b, e, _ in found), tuple(nul for *_, nul in found)


def _pick_sample(data, a: int, d: int, b: int, e: int) -> tuple[Fraction, tuple[int, int]]:
    """(x, (signature, nullity) of B(z) at x) for a dyadic point x of
    (a/d, b/e) where _block_signature reads the value: no leading minor
    of the principal block that is not identically 0 vanishes there.
    The candidates are the midpoint, then finer dyadic subdivisions,
    walked as integer numerators over one denominator; only the chosen x
    is built as a Fraction.  Terminates because the minors have finitely
    many roots."""
    den = lcm(d, e)
    lo = a * (den // d)
    span = b * (den // e) - lo
    assert span > 0, "sample gap must be nonempty"
    for depth in range(1, 80):
        lo, den = 2 * lo, 2 * den  # x = (lo + j span) / den, j odd below 2^depth
        for j in range(1, 1 << depth, 2):
            num = lo + j * span
            g = gcd(num, den)
            num, dg = num // g, den // g
            if (value := _block_signature(data, num, dg)) is not None:
                return Fraction(num, dg), value
    raise AssertionError("no minor-free sample point found")


def _mean(a: int, b: int):
    """(a + b)/2: an int, or a Fraction for a half-integer."""
    s = a + b
    return Fraction(s, 2) if s % 2 else s // 2


def signature_nullity_at(data, point) -> tuple:
    """Averaged signature and exact nullity at a circle point.

    Away from the jump locus this is the plain (sigma, nullity) of B(z).
    At a jump the signature is the mean of the two one-sided limits (a
    half-integer when the jump is odd) and the nullity is the exact
    corank there.  At x = 2 (z = 1) the signature is the limit from
    x < 2 (both one-sided limits agree by conjugation symmetry) and the
    nullity is the corank of B(1) = 0, the full size.

    The point is checked once and located in the certified function (see
    value_at), which the first read of a Seifert matrix builds: a cold
    read of T(3,7) takes about 0.4 ms, of T(3,20) about 3 ms, and a warm
    read at a rational about 1.4 us (CPython 3.11, 2-CPU Xeon, least of
    30 cold reads at x = 1/3).  The first read at x = -2 adds the signs
    of the minors there, about 0.01 ms for T(3,5), or, where one of them
    vanishes, an elimination of V + V^T, about 0.1 ms for T(3,7).
    """
    if type(point) is not Fraction:
        x = _as_x(point)
        if type(x) is not Fraction:
            return signature_function(data)._locate(x)
        point = x
    p, q = point.numerator, point.denominator
    if abs(p) > 2 * q:
        raise _outside(point)
    sig, nul = signature_function(data)._rational(p, q)
    if q == 1 and abs(p) == 2:
        nul = _endpoint(data, p // 2)[1]
    return sig, nul


# -- the assembled function -----------------------------------------------------


class SignatureFunction(_Value):
    """Piecewise-constant signature/nullity data over x in (-2, 2).

    interval_values[i] holds on the open interval between breakpoints
    i-1 and i (with -2 and 2 as the outer walls); averaged_values[i] is
    the averaged-limit value at breakpoint i; samples[i] is the rational
    point that certified interval i.
    """

    _fields = ("size", "generic_nullity", "breakpoints", "interval_values", "averaged_values",
               "samples")

    def __init__(self, size: int, generic_nullity: int, breakpoints: tuple,
                 interval_values: tuple, averaged_values: tuple, samples: tuple):
        super().__init__(size, generic_nullity, breakpoints, interval_values, averaged_values,
                         samples)
        # to_json reads copies of the brackets as built, which later
        # queries cannot refine
        object.__setattr__(self, "_json_breakpoints", tuple(
            bp if isinstance(bp, Fraction) else bp.copy() for bp in breakpoints))
        # Brackets only shrink, so the walls as built, over one denominator,
        # stay increasing, separated enclosures of the breakpoints.
        walls = [_wall(bp) for bp in breakpoints]
        den = lcm(*(d for _, _, d in walls))
        object.__setattr__(self, "_walls", (tuple(a * (den // d) for a, _, d in walls),
                                            tuple(b * (den // d) for _, b, d in walls), den))

    def max_abs_sigma(self) -> int:
        return max(abs(s) for s, _ in self.interval_values)

    def argmax_interval(self) -> int:
        best = self.max_abs_sigma()
        for i, (s, _) in enumerate(self.interval_values):
            if abs(s) == best:
                return i
        raise AssertionError

    def value_at(self, x) -> tuple:
        """(sigma, nullity) at x, a rational, RealAlgebraic or CirclePoint
        in [-2, 2]; averaged at breakpoints, clamped to the adjacent
        interval value at x = +-2.  The walls are integers over one
        denominator D: a rational x = p/q takes one bisection of them at
        pD/q and refines a breakpoint only inside its bracket."""
        if type(x) is not Fraction:
            x = _as_x(x)
            if type(x) is not Fraction:
                return self._locate(x)
        p, q = x.numerator, x.denominator
        if abs(p) > 2 * q:
            raise _outside(x)
        return self._rational(p, q)

    def _rational(self, p: int, q: int) -> tuple:
        """value_at x = p/q, q > 0, |p| <= 2q: one bisection of the walls in
        integers, building and comparing no Fraction."""
        los, his, den = self._walls
        k, r = divmod(p * den, q)  # x D lies in [k, k + 1)
        i = bisect.bisect_left(his, k + (r > 0))  # the first wall that ends at or after x
        if i == len(his) or k < los[i]:
            return self.interval_values[i]
        bp = self.breakpoints[i]
        if type(bp) is Fraction:
            return self.averaged_values[i]
        bp._compare(p, q)  # x now lies outside the bracket
        return self.interval_values[i + (bp._b * q <= p * bp._d)]

    def _locate(self, x: RealAlgebraic) -> tuple:
        """value_at an algebraic x, compared only with the breakpoints whose
        walls meet its bracket."""
        los, his, den = self._walls
        a, b, d = _wall(x)
        count = bisect.bisect_right(his, a * den // d)
        for i in range(count, bisect.bisect_left(los, -(-b * den // d))):
            bp = self.breakpoints[i]
            if type(bp) is Fraction:
                if x._compare(bp.numerator, bp.denominator) <= 0:
                    break
            elif bp is x or bp.equals(x):
                return self.averaged_values[i]
            else:
                while not (_separated(bp, x) or _separated(x, bp)):
                    bp._bisect()
                    x._bisect()
                if _separated(x, bp):
                    break
            count += 1
        return self.interval_values[count]

    def to_json(self) -> dict:
        bps = []
        for bp in self._json_breakpoints:
            if type(bp) is Fraction:
                bps.append(_json_rat(bp))
            else:
                a, b, d = _wall(bp.refine(_JSON_WIDTH))
                bps.append({"polynomial": list(bp.poly),
                            "interval": [_json_rat(a, d), _json_rat(b, d)]})
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


# the width to which to_json refines an algebraic breakpoint's bracket
_JSON_WIDTH = Fraction(1, 2 ** 20)


def _json_rat(v, d: int = 1):
    """v/d for an int or Fraction v and an int d > 0, reduced by one gcd
    and built as no Fraction: an int, or the string "p/q"."""
    p, q = v.numerator, v.denominator * d
    g = gcd(p, q)
    return p // g if q == g else f"{p // g}/{q // g}"


@_owned
def signature_function(data: SeifertData) -> SignatureFunction:
    """The full signature/nullity function of a Seifert matrix, with
    certified jump locations."""
    n = data.size
    _, rank, jumps, nullities = _jump_structure(data)
    bps = tuple(bp for bp, _ in jumps)
    walls = [(-2, -2, 1)] + [_wall(bp) for bp in bps] + [(2, 2, 1)]
    samples, values = zip(*(_pick_sample(data, a, d, b, e)
                            for (_, a, d), (b, _, e) in zip(walls, walls[1:])))
    averaged = tuple((_mean(left[0], right[0]), nul)
                     for left, right, nul in zip(values, values[1:], nullities))
    return SignatureFunction(n, n - rank, bps, values, averaged, samples)


# -- Alexander polynomial, nullity, float oracle ---------------------------------


def alexander_from_seifert(data: SeifertData) -> LaurentPoly:
    """normalize(det(tV - V^T)).  The empty matrix gives 1; a vanishing
    determinant (links with positive nullity) returns the zero polynomial
    unnormalized, since normalization is undefined there."""
    if data.size == 0:
        return LaurentPoly.one()
    pivots = data._run.pivots
    if len(pivots) < data.size:
        return LaurentPoly.zero()
    return LaurentPoly.from_dense(pivots[-1], 0).normalize()  # the sign is a unit


def link_nullity(data: SeifertData) -> int:
    """Corank over Q(t) of tV - V^T: n minus the pivots of the stored
    elimination, which also gives Delta and the principal block of B(t).
    It lies in [0, components - 1]: the rank over Q(t) is at least the
    rank n - m + 1 at t = 1 that SeifertData requires of m components."""
    return data.size - len(data._run.pivots)


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
