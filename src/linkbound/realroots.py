"""Exact real-root isolation by Sturm sequences over the rationals.

Windows are treated as *open* intervals: a root sitting exactly on a
window endpoint is not reported.  Multiplicities come from Yun's
square-free decomposition.  :class:`RealAlgebraic` wraps one isolated
irrational root and supports exact sign queries of polynomials at that
root, which is what certifying signature jumps requires.

Sturm chains hold primitive integer polynomials and are computed once per
polynomial; every sign is decided in integer arithmetic
(:func:`linkbound.polys.sign_at`).  An interval that isolates the single
root of a square-free polynomial is bisected by the sign of that
polynomial at the midpoint alone, since a simple root is a sign change.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from . import polys
from .errors import ZeroPolynomialError


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


def count_roots(chain, a, b) -> int:
    """Distinct real roots of the chain's polynomial in the half-open
    interval (a, b].  Valid even when a or b is a simple root, so for
    square-free polynomials at any endpoints."""
    va = sign_variations([polys.sign_at(c, a) for c in chain])
    vb = sign_variations([polys.sign_at(c, b) for c in chain])
    return va - vb


def _nonroot_endpoint(p, chain, anchor, inward, from_high) -> Fraction:
    """A point strictly between `anchor` and `inward` that is not a root of
    p, with no root of p strictly between it and `anchor`."""
    step = abs(anchor - inward) / 2
    anchor_is_root = polys.sign_at(p, anchor) == 0
    while True:
        cand = anchor - step if from_high else anchor + step
        if polys.sign_at(p, cand) != 0:
            if from_high:
                # roots in (cand, anchor] = anchor itself, at most
                if count_roots(chain, cand, anchor) == (1 if anchor_is_root else 0):
                    return cand
            else:
                # roots in (anchor, cand] = none (cand is not a root)
                if count_roots(chain, anchor, cand) == 0:
                    return cand
        step /= 2


def _isolate_squarefree(p, chain, lo, hi) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open isolating intervals for all roots of squarefree p
    strictly inside (lo, hi).  Emitted endpoints are never roots of p."""
    if polys.degree(p) <= 0:
        return []
    a = lo if polys.sign_at(p, lo) != 0 else _nonroot_endpoint(p, chain, lo, hi, from_high=False)
    b = hi if polys.sign_at(p, hi) != 0 else _nonroot_endpoint(p, chain, hi, lo, from_high=True)
    if not a < b:
        return []
    out = []
    stack = [(a, b)]
    while stack:
        u, v = stack.pop()
        n = count_roots(chain, u, v)  # u, v are non-roots: counts open (u, v)
        if n == 0:
            continue
        if n == 1:
            out.append((u, v))
            continue
        m = (u + v) / 2
        if polys.sign_at(p, m) == 0:
            # Exact rational root at the bisection point; box it tightly.
            eps = (v - u) / 4
            while (polys.sign_at(p, m - eps) == 0
                   or polys.sign_at(p, m + eps) == 0
                   or count_roots(chain, m - eps, m + eps) != 1):
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
    lemma).  A caller that needs the part and the roots of the same
    polynomial thus takes one gcd(q, q'), not two."""
    factors = tuple((tuple(f), m) for f, m in polys.squarefree_decomposition(q))
    return factors, tuple(reduce(polys.mul, (f for f, _ in factors), [1]))


def isolate_real_roots(q, lo, hi) -> list[IsolatingInterval]:
    """Isolate all distinct real roots of q strictly inside (lo, hi).

    Returns pairwise-disjoint intervals, each containing exactly one
    distinct root of q, tagged with that root's multiplicity from the
    square-free decomposition.  Roots at lo or hi are excluded (open
    window).  Raises ZeroPolynomialError for q = 0.
    """
    q = polys.trim(q)
    if not q:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi or polys.degree(q) == 0:
        return []
    factors, sq = _yun(tuple(q))
    sq_chain = sturm_chain(sq)
    found = []  # mutable records [lo, hi, mult, factor]
    for factor, mult in factors:
        chain = sturm_chain(factor)
        for u, v in _isolate_squarefree(factor, chain, lo, hi):
            found.append([u, v, mult, factor])
    # Refine until each interval isolates its root within the full
    # square-free part (no root of another factor intrudes) and the
    # endpoints avoid all roots of q.
    for item in found:
        while not (polys.sign_at(sq, item[0]) != 0
                   and polys.sign_at(sq, item[1]) != 0
                   and count_roots(sq_chain, item[0], item[1]) == 1):
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


def refine_isolating_interval(q, interval: IsolatingInterval,
                              max_width) -> IsolatingInterval:
    """Shrink an isolating interval of q below `max_width` by bisection.

    The root may be rational: a bisection point landing on it is nudged
    before the containing half is selected, so the root always stays
    strictly inside the returned interval.
    """
    sq = polys.squarefree_part(q)
    if (polys.sign_at(sq, interval.lo) == 0 or polys.sign_at(sq, interval.hi) == 0
            or count_roots(sturm_chain(sq), interval.lo, interval.hi) != 1):
        raise ValueError("interval does not isolate a root of q")
    item = [interval.lo, interval.hi, interval.multiplicity, sq]
    while item[1] - item[0] > max_width:
        _halve(item)
    return IsolatingInterval(item[0], item[1], interval.multiplicity)


@lru_cache(maxsize=1024)
def _gcd(q: tuple, poly: tuple) -> tuple:
    return tuple(polys.gcd_poly(q, poly))


class RealAlgebraic:
    """One real algebraic number: a primitive square-free integer defining
    polynomial together with an open isolating interval.

    The defining polynomial must have no rational roots (callers split
    those off first), so bisection points are never the root itself.
    Refinement only shrinks the bracket; the represented number never
    changes, making shared instances safe to reuse.  The bracket's
    endpoints are never roots, and the polynomial has one sign on the
    left of the root and the other on its right, so bisection and the
    comparisons below evaluate the polynomial, not its Sturm chain.
    """

    __slots__ = ("poly", "_lo", "_hi", "_sign_lo")

    def __init__(self, poly, lo, hi):
        _, prim = polys.primitive_positive(polys.primitive(poly))
        if polys.degree(prim) < 1:
            raise ValueError("defining polynomial must be nonconstant")
        self.poly = tuple(prim)
        chain = sturm_chain(self.poly)
        if polys.degree(chain[-1]) > 0:  # the last element is gcd(poly, poly')
            raise ValueError("defining polynomial must be square-free")
        self._lo = Fraction(lo)
        self._hi = Fraction(hi)
        self._sign_lo = polys.sign_at(self.poly, self._lo)
        if self._sign_lo == 0 or polys.sign_at(self.poly, self._hi) == 0:
            raise ValueError("interval endpoints must not be roots")
        if count_roots(chain, self._lo, self._hi) != 1:
            raise ValueError("interval does not isolate a single root")

    @property
    def lo(self) -> Fraction:
        return self._lo

    @property
    def hi(self) -> Fraction:
        return self._hi

    def _bisect(self):
        m = (self._lo + self._hi) / 2
        eps = (self._hi - self._lo) / 4
        while (s := polys.sign_at(self.poly, m)) == 0:
            m += eps
            eps /= 2
        if s != self._sign_lo:
            self._hi = m
        else:
            self._lo = m

    def refine(self, max_width) -> "RealAlgebraic":
        while self._hi - self._lo > max_width:
            self._bisect()
        return self

    def refine_away_from(self, value: Fraction) -> "RealAlgebraic":
        """Shrink the bracket until `value` lies strictly outside it."""
        while self._lo < value < self._hi:
            self._bisect()
        return self

    def copy(self) -> "RealAlgebraic":
        """The same root with its own bracket, which later refinement of
        either leaves alone."""
        twin = object.__new__(RealAlgebraic)
        twin.poly, twin._lo, twin._hi, twin._sign_lo = \
            self.poly, self._lo, self._hi, self._sign_lo
        return twin

    def sign_of(self, q) -> int:
        """Exact sign of the integer/rational polynomial q at this root."""
        q = polys.trim(q)
        if self.vanishes(q):
            return 0
        qchain = sturm_chain(polys.squarefree_part(q)) if polys.degree(q) >= 1 else None
        while True:
            s = polys.sign_at(q, self._lo)
            if s != 0 and (qchain is None or count_roots(qchain, self._lo, self._hi) == 0):
                return s
            self._bisect()

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
        return (polys.degree(g) >= 1
                and polys.sign_at(g, self._lo) != polys.sign_at(g, self._hi))

    def compare_rational(self, c) -> int:
        """Sign of (root - c): 0 only when c is the root itself, which the
        class contract excludes."""
        c = Fraction(c)
        if self._lo < c < self._hi and polys.sign_at(self.poly, c) == 0:
            return 0
        self.refine_away_from(c)
        return 1 if c <= self._lo else -1

    def equals(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return False  # the root is irrational
        if not isinstance(other, RealAlgebraic):
            return NotImplemented
        lo, hi = max(self._lo, other._lo), min(self._hi, other._hi)
        if lo >= hi:
            return False  # each number lies strictly inside its own bracket
        if self.poly == other.poly:
            # The intersection lies in one isolating bracket, so it holds
            # at most one root, and holds one exactly on a sign change.
            return polys.sign_at(self.poly, lo) != polys.sign_at(self.poly, hi)
        if not self.vanishes(list(other.poly)):
            return False
        return self.compare_rational(other._lo) > 0 and self.compare_rational(other._hi) < 0

    def to_float(self, width=Fraction(1, 10**12)) -> float:
        self.refine(width)
        return float((self._lo + self._hi) / 2)

    def __repr__(self):
        return f"RealAlgebraic({list(self.poly)}, ({self._lo}, {self._hi}))"
