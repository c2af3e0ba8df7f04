"""Exact real-root isolation by Sturm sequences over the rationals.

Windows are treated as *open* intervals: a root sitting exactly on a
window endpoint is not reported.  Multiplicities come from Yun's
square-free decomposition.  :class:`RealAlgebraic` wraps one isolated
irrational root and supports exact sign queries of polynomials at that
root, which is what certifying signature jumps requires; its bracket is
integers over one denominator, so it builds and compares no Fraction.

Sturm chains hold primitive integer polynomials and are computed once per
polynomial; every sign is the sign of d^k p(a/d) in integers
(:func:`linkbound.polys.sign_at_ratio`).  Within one isolation each point's
Sturm count is taken once.  The chain is the one remainder sequence of
(p, p'), and its last element is gcd(p, p'): a constant one means p is
square-free, and otherwise Yun's decomposition starts from it.  An
interval that isolates the single root of a square-free polynomial is
bisected by the sign of that polynomial at the midpoint alone, since a
simple root is a sign change.  A breakpoint built from a certified
interval of :func:`isolate_real_roots` is not counted again; the public
:class:`RealAlgebraic` constructor checks everything, and refuses a
defining polynomial with a rational root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm

from . import polys
from .errors import ZeroPolynomialError
from .factor import _rational_root_split


@dataclass(frozen=True)
class IsolatingInterval:
    """Open interval (lo, hi) containing exactly one distinct real root of
    the target polynomial, tagged with that root's multiplicity."""

    lo: Fraction
    hi: Fraction
    multiplicity: int = 1

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("isolating interval requires lo < hi")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


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


def _chain_signs(chain, x) -> list:
    """Signs of every element of a Sturm chain at a rational x: the one
    place a chain is evaluated."""
    return [polys.sign_at(c, x) for c in chain]


def _variations(chain, a: int, d: int) -> int:
    """Sign variations of a Sturm chain at a/d, d > 0."""
    return sign_variations([polys.sign_at_ratio(c, a, d) for c in chain])


def count_roots(chain, a, b) -> int:
    """Distinct real roots of the chain's polynomial in the half-open
    interval (a, b].  Valid even when a or b is a simple root, so for
    square-free polynomials at any endpoints."""
    return sign_variations(_chain_signs(chain, a)) - sign_variations(_chain_signs(chain, b))


class _SturmCounts:
    """A Sturm chain read at points, each point evaluated once: at(x) is
    (sign of the chain's polynomial at x, sign variations of the chain at
    x), kept for the lifetime of the object, which is one isolation."""

    def __init__(self, chain):
        self.chain, self._memo = chain, {}

    def at(self, x) -> tuple[int, int]:
        hit = self._memo.get(x)
        if hit is None:
            signs = _chain_signs(self.chain, x)
            hit = self._memo[x] = (signs[0], sign_variations(signs))
        return hit

    def sign(self, x) -> int:
        return self.at(x)[0]

    def roots(self, a, b) -> int:
        """count_roots over (a, b] from the kept counts."""
        return self.at(a)[1] - self.at(b)[1]


def _nonroot_endpoint(counts, anchor, inward, from_high) -> Fraction:
    """A point strictly between `anchor` and `inward` that is not a root of
    the counted polynomial, with no root of it strictly between the point
    and `anchor`."""
    step = abs(anchor - inward) / 2
    anchor_is_root = counts.sign(anchor) == 0
    while True:
        cand = anchor - step if from_high else anchor + step
        if counts.sign(cand) != 0:
            if from_high:
                # roots in (cand, anchor] = anchor itself, at most
                if counts.roots(cand, anchor) == (1 if anchor_is_root else 0):
                    return cand
            else:
                # roots in (anchor, cand] = none (cand is not a root)
                if counts.roots(anchor, cand) == 0:
                    return cand
        step /= 2


def _isolate_squarefree(counts, lo, hi) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open isolating intervals for all roots of the square-free
    polynomial of `counts` (a _SturmCounts) strictly inside (lo, hi).
    Emitted endpoints are never roots of it.  Each point's chain is
    evaluated once: the two halves of a bisection share the midpoint's
    count."""
    if len(counts.chain) == 1:
        return []  # a constant polynomial
    a = lo if counts.sign(lo) != 0 else _nonroot_endpoint(counts, lo, hi, from_high=False)
    b = hi if counts.sign(hi) != 0 else _nonroot_endpoint(counts, hi, lo, from_high=True)
    if not a < b:
        return []
    out = []
    stack = [(a, b)]
    while stack:
        u, v = stack.pop()
        n = counts.roots(u, v)  # u, v are non-roots: counts open (u, v)
        if n == 0:
            continue
        if n == 1:
            out.append((u, v))
            continue
        m = (u + v) / 2
        if counts.sign(m) == 0:
            # Exact rational root at the bisection point; box it tightly.
            eps = (v - u) / 4
            while (counts.sign(m - eps) == 0 or counts.sign(m + eps) == 0
                   or counts.roots(m - eps, m + eps) != 1):
                eps /= 2
            out.append((m - eps, m + eps))
            stack.append((u, m - eps))
            stack.append((m + eps, v))
        else:
            stack.append((u, m))
            stack.append((m, v))
    out.sort()
    return out


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


def isolate_real_roots(q, lo, hi) -> list[IsolatingInterval]:
    """Isolate all distinct real roots of q strictly inside (lo, hi).

    Returns pairwise-disjoint intervals, each containing exactly one
    distinct root of q, tagged with that root's multiplicity from the
    square-free decomposition.  Roots at lo or hi are excluded (open
    window).  Every interval isolates its root within the square-free
    part of q, and its endpoints are not roots of q.  Raises
    ZeroPolynomialError for q = 0.
    """
    q = polys.trim(q)
    if not q:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi or polys.degree(q) == 0:
        return []
    factors, sq = _yun(tuple(q))
    found = []  # mutable records [lo, hi, mult, factor]
    for factor, mult in factors:
        for u, v in _isolate_squarefree(_SturmCounts(sturm_chain(factor)), lo, hi):
            found.append([u, v, mult, factor])
    if len(factors) > 1 and (polys.sign_at(q, lo) == 0 or polys.sign_at(q, hi) == 0):
        # A root of one factor inside another's interval, or on its end,
        # lies inside its own interval, so the disjointness loop below
        # separates them.  A root at a window end has no interval: refine
        # until each interval isolates its root within the full
        # square-free part and the endpoints avoid all roots of q.
        counts = _SturmCounts(sturm_chain(sq))
        for item in found:
            while not (counts.sign(item[0]) != 0 and counts.sign(item[1]) != 0
                       and counts.roots(item[0], item[1]) == 1):
                _halve(item)
    # Disjointness across factors.
    while True:
        found.sort(key=lambda it: (it[0], it[1]))
        overlap = [i for i in range(len(found) - 1) if found[i][1] > found[i + 1][0]]
        if not overlap:
            break
        for i in overlap:
            _halve(found[i])
            _halve(found[i + 1])
    return [IsolatingInterval(Fraction(u), Fraction(v), mult)
            for u, v, mult, _ in found]


def _halve(item):
    """Shrink an isolation record around its root, keeping the new endpoint
    off the roots of the record's factor.  The record isolates one simple
    root of the square-free factor, so the root lies in (u, m) exactly
    when the factor changes sign there."""
    u, v, _, factor = item
    m = (u + v) / 2
    eps = (v - u) / 4
    while (s := polys.sign_at(factor, m)) == 0:
        m += eps
        eps /= 2
    if s != polys.sign_at(factor, u):
        item[1] = m
    else:
        item[0] = m


def _ratio(c) -> tuple[int, int]:
    """(numerator, denominator > 0) of a rational c."""
    c = c if isinstance(c, (int, Fraction)) else Fraction(c)
    return c.numerator, c.denominator


def refine_isolating_interval(q, interval: IsolatingInterval,
                              max_width) -> IsolatingInterval:
    """Shrink an isolating interval of q below `max_width` > 0 by bisection.

    The root may be rational: a bisection point landing on it is nudged
    before the containing half is selected, so the root always stays
    strictly inside the returned interval.  Bisection and checks are
    RealAlgebraic's, on the square-free part of q, bar the refusal of a
    rational root.
    """
    root = object.__new__(RealAlgebraic)
    root._isolate(polys.squarefree_part(q), interval.lo, interval.hi)
    root.refine(max_width)
    return IsolatingInterval(root.lo, root.hi, interval.multiplicity)


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
        roots, the ends not roots."""
        _, prim = polys.primitive_positive(polys.primitive(poly))
        if polys.degree(prim) < 1:
            raise ValueError("defining polynomial must be nonconstant")
        chain = sturm_chain(tuple(prim))
        if polys.degree(chain[-1]) > 0:  # the last element is gcd(poly, poly')
            raise ValueError("defining polynomial must be square-free")
        self._set_bracket(prim, Fraction(lo), Fraction(hi))
        if self._sign_lo == 0 or polys.sign_at_ratio(self.poly, self._b, self._d) == 0:
            raise ValueError("interval endpoints must not be roots")
        if _variations(chain, self._a, self._d) - _variations(chain, self._b, self._d) != 1:
            raise ValueError("interval does not isolate a single root")

    @classmethod
    def _certified(cls, poly, interval: IsolatingInterval) -> "RealAlgebraic":
        """The root in an interval that isolate_real_roots(q, ...) returned,
        with poly the square-free part of q from _yun.  That isolation
        certified what the public constructor checks (poly primitive,
        positive-leading and square-free, the endpoints not roots, one
        root inside), so nothing is counted again."""
        root = object.__new__(cls)
        root._set_bracket(poly, interval.lo, interval.hi)
        return root

    def _set_bracket(self, poly, lo: Fraction, hi: Fraction):  # over the lcm of denominators
        self.poly, self._d = tuple(poly), (d := lcm(lo.denominator, hi.denominator))
        self._a, self._b = lo.numerator * d // lo.denominator, hi.numerator * d // hi.denominator
        self._sign_lo = polys.sign_at_ratio(self.poly, self._a, d)

    @property
    def lo(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._b, self._d)

    def _bisect(self):
        m, w, a, b, d = self._a + self._b, self._b - self._a, 2 * self._a, 2 * self._b, 2 * self._d
        while (s := polys.sign_at_ratio(self.poly, m, d)) == 0:  # nudge the midpoint by w/2d
            m, a, b, d = 2 * m + w, 2 * a, 2 * b, 2 * d
        self._a, self._b, self._d = (a, m, d) if s != self._sign_lo else (m, b, d)

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
        chain = sturm_chain(polys.squarefree_part(q))  # ((1,),) for a constant q
        while ((s := polys.sign_at_ratio(q, self._a, self._d)) == 0
               or _variations(chain, self._a, self._d) != _variations(chain, self._b, self._d)):
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
        """compare_rational at c = p/q, q > 0, refining away from c."""
        if self._a * q < p * self._d < self._b * q and polys.sign_at_ratio(self.poly, p, q) == 0:
            return 0
        while self._a * q < p * self._d < self._b * q:
            self._bisect()
        return 1 if p * self._d <= self._a * q else -1

    def equals(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return False  # the root is irrational
        if not isinstance(other, RealAlgebraic):
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
