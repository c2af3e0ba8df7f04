"""Exact real-root isolation by Sturm sequences, in integers.

Windows are treated as *open* intervals: a root sitting exactly on a
window endpoint is not reported.  Multiplicities come from Yun's
square-free decomposition.  :class:`RealAlgebraic` wraps one isolated
irrational root and supports exact sign queries of polynomials at that
root, which is what certifying signature jumps requires.

Every point is a pair of integers (a, d), d > 0, standing for a/d, and
every bracket is integers (a, b, d) over one denominator; every sign is
the sign of d^k p(a/d) by one integer Horner pass
(:func:`linkbound.polys.sign_at_ratio`).  Bisection of (a/d, b/d) gives
(2a, a + b)/2d or (a + b, 2b)/2d, the rationals that Fraction bisection
gives, so isolation, refinement and comparison build no Fraction.  Sturm
chains hold primitive integer polynomials and are computed once per
polynomial.  Within one isolation each point's Sturm count is taken
once, kept under the point in lowest terms.  The chain is the one
remainder sequence of (p, p'), and its last element is gcd(p, p'): a
constant one means p is square-free, and otherwise Yun's decomposition
starts from it.  An interval that isolates the single root of a
square-free polynomial is bisected by the sign of that polynomial at the
midpoint alone, since a simple root is a sign change.  A breakpoint built
from a bracket of :func:`isolate_real_roots` is not counted again; the
public :class:`RealAlgebraic` constructor checks everything, and refuses
a defining polynomial with a rational root.  A root x0 also stands for
the circle point z0 with z0 + 1/z0 = x0: _nonzero_at tests q(z0) != 0
for integer polynomials q in t.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

from . import polys
from .errors import ZeroPolynomialError
from .factor import _rational_root_split


def sturm_chain(p) -> tuple:
    """Sturm chain of p: p, p', then negated Euclidean remainders, each
    scaled by a positive rational to a primitive integer polynomial.
    Positive scaling changes no sign, so sign variations and root counts
    are those of the classical chain.  Computed once per polynomial."""
    return _sturm_chain(tuple(polys.trim(p)))


@lru_cache(maxsize=512)
def _sturm_chain(p: tuple) -> tuple:
    chain = [tuple(polys.primitive(p))]
    d = polys.derivative(chain[0])
    if d:
        chain.append(tuple(polys.primitive(d)))
        while True:
            rem = polys.pseudo_remainder(chain[-2], chain[-1])
            if not rem:
                break
            chain.append(tuple(polys.primitive(polys.neg(rem))))
    return tuple(chain)


def sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _chain_signs(chain, a: int, d: int) -> list:
    """Signs of every element of a Sturm chain at a/d, d > 0: the one
    place a chain is evaluated."""
    return [polys.sign_at_ratio(c, a, d) for c in chain]


class _SturmCounts:
    """A Sturm chain read at points a/d, each point evaluated once: at(a, d)
    is (sign of the chain's polynomial at a/d, sign variations of the
    chain there), kept under the point in lowest terms for the lifetime
    of the object, which is one isolation."""

    def __init__(self, chain):
        self.chain, self._memo = chain, {}

    def at(self, a: int, d: int) -> tuple[int, int]:
        g = gcd(a, d)
        key = (a // g, d // g)
        hit = self._memo.get(key)
        if hit is None:
            signs = _chain_signs(self.chain, *key)
            hit = self._memo[key] = (signs[0], sign_variations(signs))
        return hit

    def sign(self, a: int, d: int) -> int:
        return self.at(a, d)[0]

    def roots(self, a: int, b: int, d: int) -> int:
        """Distinct real roots of the chain's polynomial in (a/d, b/d], from
        the kept counts."""
        return self.at(a, d)[1] - self.at(b, d)[1]


def _nonroot_endpoint(counts, anchor: int, inward: int, d: int) -> tuple[int, int]:
    """(c, e): a point c/e strictly between the root anchor/d of the counted
    polynomial and inward/d, not a root of it, with no root of it strictly
    between c/e and anchor/d.  The candidates are anchor/d moved towards
    inward/d by |anchor - inward|/2^k d, k = 1, 2, ..."""
    step = inward - anchor
    while True:
        anchor, d = 2 * anchor, 2 * d
        c = anchor + step
        if counts.sign(c, d) != 0:
            # roots in (c, anchor] = anchor itself; in (anchor, c] = none
            if (counts.roots(c, anchor, d) == 1 if step < 0
                    else counts.roots(anchor, c, d) == 0):
                return c, d


def _isolate_squarefree(counts, lo: int, hi: int, d: int) -> list[tuple[int, int, int]]:
    """Disjoint open isolating brackets (u, v, e), in increasing order, for
    all roots of the square-free polynomial of `counts` (a _SturmCounts)
    strictly inside (lo/d, hi/d).  Emitted endpoints are never roots of
    it.  Each point's chain is evaluated once: the two halves of a
    bisection share the midpoint's count."""
    if len(counts.chain) == 1:
        return []  # a constant polynomial
    a, e = (lo, d) if counts.sign(lo, d) != 0 else _nonroot_endpoint(counts, lo, hi, d)
    b, f = (hi, d) if counts.sign(hi, d) != 0 else _nonroot_endpoint(counts, hi, lo, d)
    d = lcm(e, f)
    a, b = a * (d // e), b * (d // f)
    if not a < b:
        return []
    out = []
    stack = [(a, b, d, False)]  # (u, v, d, boxed); the left half is popped first
    while stack:
        u, v, d, boxed = stack.pop()
        n = 1 if boxed else counts.roots(u, v, d)  # u, v are non-roots: counts open (u, v)
        if n == 1:
            out.append((u, v, d))
        elif n > 1:
            m = u + v  # the midpoint, over 2d
            if counts.sign(m, 2 * d) == 0:
                # Exact rational root at the bisection point; box it tightly,
                # in (m -+ w)/d with w/d = (v - u)/4d, (v - u)/8d, ...
                m, w, u, v, d = 2 * m, v - u, 4 * u, 4 * v, 4 * d
                while (counts.sign(m - w, d) == 0 or counts.sign(m + w, d) == 0
                       or counts.roots(m - w, m + w, d) != 1):
                    m, u, v, d = 2 * m, 2 * u, 2 * v, 2 * d
                stack += [(m + w, v, d, False), (m - w, m + w, d, True), (u, m - w, d, False)]
            else:
                stack += [(m, 2 * v, 2 * d, False), (2 * u, m, 2 * d, False)]
    return out


def _bisected(poly, a: int, b: int, d: int, sign_lo: int) -> tuple[int, int, int]:
    """The half of (a/d, b/d) that holds the one root of `poly` in it, as
    (a', b', d'), where poly has the sign sign_lo != 0 at a/d and no
    multiple root in the bracket.  A midpoint that is a root of poly is
    nudged right by (b - a)/4d, then (b - a)/8d, ... first."""
    m, w, a, b, d = a + b, b - a, 2 * a, 2 * b, 2 * d
    while (s := polys.sign_at_ratio(poly, m, d)) == 0:
        m, a, b, d = 2 * m + w, 2 * a, 2 * b, 2 * d
    return (a, m, d) if s != sign_lo else (m, b, d)


@lru_cache(maxsize=512)
def _yun(q: tuple) -> tuple:
    """(Yun's square-free decomposition of q, the square-free part), once
    per polynomial.  The part is the product of the factors (Gauss's
    lemma).  The one remainder sequence of (q, q') is the Sturm chain of
    q's primitive positive form p, whose last element is gcd(q, q'): when
    it is constant, p is square-free and its own decomposition, and
    otherwise Yun starts from it.  A caller that needs the part, the
    roots and the chain of the same polynomial thus runs that sequence
    once."""
    p = tuple(polys.primitive_positive(polys.primitive(q))[1])
    if polys.degree(p) <= 0:
        return (), (1,)
    last = sturm_chain(p)[-1]
    if polys.degree(last) == 0:
        return ((p, 1),), p
    g = polys.primitive_positive(last)[1]
    factors = tuple((tuple(f), m) for f, m in polys.squarefree_decomposition(p, g))
    return factors, tuple(reduce(polys.mul, (f for f, _ in factors), [1]))


def isolate_real_roots(q, lo, hi) -> list[tuple[int, int, int, int]]:
    """Isolate all distinct real roots of q strictly inside (lo, hi), for
    rationals lo and hi.

    Returns pairwise-disjoint brackets (a, b, d, multiplicity), in
    increasing order: the open interval (a/d, b/d), with d > 0 and
    gcd(a, b, d) = 1, contains exactly one distinct root of q, and the
    multiplicity is that root's, from the square-free decomposition.
    Roots at lo or hi are excluded (open window).  Every bracket isolates
    its root within the square-free part of q, and its endpoints are not
    roots of q.  Raises ZeroPolynomialError for q = 0.
    """
    q = polys.trim(q)
    if not q:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    (a, e), (b, f) = _ratio(lo), _ratio(hi)
    d = lcm(e, f)
    a, b = a * (d // e), b * (d // f)
    if not a < b or polys.degree(q) == 0:
        return []
    factors, sq = _yun(tuple(q))
    found = []  # mutable records [u, v, e, sign of the factor at u/e, mult, factor]
    for factor, mult in factors:
        counts = _SturmCounts(sturm_chain(factor))
        for u, v, e in _isolate_squarefree(counts, a, b, d):
            found.append([u, v, e, counts.sign(u, e), mult, factor])
    if len(factors) > 1 and (polys.sign_at_ratio(q, a, d) == 0
                             or polys.sign_at_ratio(q, b, d) == 0):
        # A root of one factor inside another's interval, or on its end,
        # lies inside its own interval, so the disjointness loop below
        # separates them.  A root at a window end has no interval: refine
        # until each interval isolates its root within the full
        # square-free part and the endpoints avoid all roots of q.
        counts = _SturmCounts(sturm_chain(sq))
        for item in found:
            while not (counts.sign(item[0], item[2]) != 0 and counts.sign(item[1], item[2]) != 0
                       and counts.roots(*item[:3]) == 1):
                _halve(item)
    # Disjointness across factors, compared over the lcm of the denominators.
    while True:
        den = lcm(*(item[2] for item in found))
        found.sort(key=lambda it: (it[0] * (den // it[2]), it[1] * (den // it[2])))
        overlap = [i for i, (x, y) in enumerate(zip(found, found[1:]))
                   if x[1] * y[2] > y[0] * x[2]]
        if not overlap:
            break
        for i in overlap:
            _halve(found[i])
            _halve(found[i + 1])
    out = []
    for u, v, e, _, mult, _ in found:
        g = gcd(u, v, e)
        out.append((u // g, v // g, e // g, mult))
    return out


def _halve(item):
    """Shrink an isolation record around its root, keeping the new endpoint
    off the roots of the record's factor.  The record isolates one simple
    root of the square-free factor, whose sign at the left end never
    changes."""
    item[:3] = _bisected(item[5], *item[:4])


def _ratio(c) -> tuple[int, int]:
    """(numerator, denominator > 0) of a rational c."""
    c = c if isinstance(c, (int, Fraction)) else Fraction(c)
    return c.numerator, c.denominator


@lru_cache(maxsize=1024)
def _gcd(q: tuple, poly: tuple) -> tuple:
    return tuple(polys.gcd_poly(q, poly))


class RealAlgebraic:
    """One real algebraic number: a primitive square-free integer defining
    polynomial and an open isolating interval (a/d, b/d), integers over one
    denominator d > 0 (.lo and .hi build Fractions).

    The defining polynomial must have no rational roots (callers split
    those off first), so bisection points are never the root itself.
    Refinement only shrinks the bracket; the represented number never
    changes, making shared instances safe to reuse.  The bracket's
    endpoints are never roots, and the polynomial has one sign on the
    left of the root and the other on its right, so bisection and the
    comparisons below evaluate the polynomial, not its Sturm chain: each
    sign is one integer Horner pass, and comparisons cross-multiply.
    """

    __slots__ = ("poly", "_a", "_b", "_d", "_sign_lo")

    def __init__(self, poly, lo, hi):
        self._isolate(poly, lo, hi)
        if _rational_root_split(list(self.poly))[1]:
            raise ValueError("defining polynomial must have no rational root")

    def _isolate(self, poly, lo, hi):
        """The checks of the public constructor but the rational-root one:
        poly square-free and nonconstant, (lo, hi) isolating one of its
        roots, the ends not roots.  The bracket is kept over the lcm of
        the ends' denominators."""
        _, prim = polys.primitive_positive(polys.primitive(poly))
        if polys.degree(prim) < 1:
            raise ValueError("defining polynomial must be nonconstant")
        chain = sturm_chain(tuple(prim))
        if polys.degree(chain[-1]) > 0:  # the last element is gcd(poly, poly')
            raise ValueError("defining polynomial must be square-free")
        (a, e), (b, f) = _ratio(lo), _ratio(hi)
        d = lcm(e, f)
        self._set_bracket(prim, a * (d // e), b * (d // f), d)
        if self._sign_lo == 0 or polys.sign_at_ratio(self.poly, self._b, self._d) == 0:
            raise ValueError("interval endpoints must not be roots")
        if _SturmCounts(chain).roots(self._a, self._b, self._d) != 1:
            raise ValueError("interval does not isolate a single root")

    @classmethod
    def _certified(cls, poly, a: int, b: int, d: int) -> "RealAlgebraic":
        """The root in a bracket (a, b, d, _) that isolate_real_roots(q, ...)
        returned, with poly the square-free part of q from _yun.  That
        isolation certified what the public constructor checks (poly
        primitive, positive-leading and square-free, the endpoints not
        roots, one root inside), so nothing is counted again."""
        root = object.__new__(cls)
        root._set_bracket(poly, a, b, d)
        return root

    def _set_bracket(self, poly, a: int, b: int, d: int):
        self.poly, self._a, self._b, self._d = tuple(poly), a, b, d
        self._sign_lo = polys.sign_at_ratio(self.poly, a, d)

    @property
    def lo(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._b, self._d)

    def _bisect(self):
        self._a, self._b, self._d = _bisected(self.poly, self._a, self._b, self._d,
                                              self._sign_lo)

    def refine(self, max_width) -> "RealAlgebraic":
        p, q = _ratio(max_width)
        if p <= 0:
            raise ValueError(f"refinement width must be positive, got {max_width}")
        while (self._b - self._a) * q > p * self._d:
            self._bisect()
        return self

    def refine_away_from(self, value) -> "RealAlgebraic":
        """Shrink the bracket until `value` lies strictly outside it (or is
        found to be the root)."""
        self._compare(*_ratio(value))
        return self

    def copy(self) -> "RealAlgebraic":
        """The same root with its own bracket, which later refinement of
        either leaves alone."""
        twin = object.__new__(RealAlgebraic)
        twin.poly, twin._a, twin._b, twin._d, twin._sign_lo = \
            self.poly, self._a, self._b, self._d, self._sign_lo
        return twin

    def sign_of(self, q) -> int:
        """Exact sign of the integer/rational polynomial q at this root."""
        q = polys.trim(q)
        if self.vanishes(q):
            return 0
        counts = _SturmCounts(sturm_chain(_yun(tuple(q))[1]))  # ((1,),) for a constant q
        while ((s := polys.sign_at_ratio(q, self._a, self._d)) == 0
               or counts.roots(self._a, self._b, self._d)):
            self._bisect()
        return s

    def vanishes(self, q) -> bool:
        """Whether q is zero at this root.  Never refines the bracket.

        g = gcd(q, poly) divides the square-free poly, so its roots are
        simple roots of poly and the bracket holds at most one of them: g
        vanishes at this root exactly when it changes sign across the
        bracket.  g does not depend on the bracket, so it is cached per
        (q, poly) pair and the breakpoints of one function share it."""
        q = polys.trim(q)
        if not q:
            return True
        g = _gcd(tuple(q), self.poly)
        return (polys.degree(g) >= 1 and polys.sign_at_ratio(g, self._a, self._d)
                != polys.sign_at_ratio(g, self._b, self._d))

    def compare_rational(self, c) -> int:
        """Sign of (root - c): 0 only when c is the root itself, which the
        class contract excludes."""
        return self._compare(*_ratio(c))

    def _compare(self, p: int, q: int) -> int:
        """compare_rational at c = p/q, q > 0, refining away from c: the
        bracket is bisected only while c lies inside it."""
        if self._a * q < p * self._d < self._b * q:
            if polys.sign_at_ratio(self.poly, p, q) == 0:
                return 0
            self._bisect()
            while self._a * q < p * self._d < self._b * q:
                self._bisect()
        return 1 if p * self._d <= self._a * q else -1

    def equals(self, other) -> bool:
        if not isinstance(other, RealAlgebraic):
            if isinstance(other, (int, Fraction)):
                return False  # the root is irrational
            raise TypeError(f"cannot compare a real algebraic number with {type(other).__name__}")
        d, e = self._d, other._d
        lo, hi = max(self._a * e, other._a * d), min(self._b * e, other._b * d)  # over d e
        if lo >= hi:
            return False  # each number lies strictly inside its own bracket
        if self.poly == other.poly:
            # The intersection lies in one isolating bracket, so it holds
            # at most one root, and holds one exactly on a sign change.
            return (polys.sign_at_ratio(self.poly, lo, d * e)
                    != polys.sign_at_ratio(self.poly, hi, d * e))
        if not self.vanishes(list(other.poly)):
            return False
        return self._compare(other._a, e) > 0 and self._compare(other._b, e) < 0

    def to_float(self, width=Fraction(1, 10**12)) -> float:
        self.refine(width)
        return (self._a + self._b) / (2 * self._d)  # int / int rounds correctly

    def __repr__(self):
        return f"RealAlgebraic({list(self.poly)}, ({self.lo}, {self.hi}))"


def _nonzero_at(root):
    """The test q(z0) != 0 for an integer polynomial q in t at the circle
    point z0, z0 + 1/z0 = root in (-2, 2), linear in the degree of q; it
    never refines a bracket.  At a rational root p/d Horner's rule with
    z0^2 = x z0 - 1 runs on integers, (a, b) <- (c d^(i+1) - d b, d a + p b)
    for d^i (a + b z0).  At an algebraic root it first reduces q modulo
    W = t^m P(t + 1/t), P the root's polynomial, times a nonzero constant;
    then q(z0) = a(x) + b(x) z0 is 0 exactly when a and b vanish at the
    root, since z0 is not real."""
    if isinstance(root, RealAlgebraic):
        w = polys.circle_form(root.poly)
        return lambda q: not all(map(root.vanishes, polys.xz_parts(polys.pseudo_remainder(q, w))))
    p, d = root.numerator, root.denominator

    def nonzero(q) -> bool:
        a = b = 0
        power = d
        for c in reversed(q):
            a, b = c * power - d * b, d * a + p * b
            power *= d
        return bool(a or b)
    return nonzero
