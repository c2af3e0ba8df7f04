"""The real algebraic number with a Fraction bracket, kept verbatim as an
independent reference for :class:`linkbound.realroots.RealAlgebraic`,
which keeps its bracket as integers over one denominator."""

from __future__ import annotations

from fractions import Fraction

from linkbound import polys
from linkbound.realroots import _gcd, sturm_chain

from isolation_reference import count_roots, sign_at, squarefree_part


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
        self._sign_lo = sign_at(self.poly, self._lo)
        if self._sign_lo == 0 or sign_at(self.poly, self._hi) == 0:
            raise ValueError("interval endpoints must not be roots")
        if count_roots(chain, self._lo, self._hi) != 1:
            raise ValueError("interval does not isolate a single root")

    @classmethod
    def _certified(cls, poly, interval: IsolatingInterval) -> "RealAlgebraic":
        """The root in an interval that isolate_real_roots(q, ...) returned,
        with poly the square-free part of q from _yun.  That isolation
        certified what the public constructor checks (poly primitive,
        positive-leading and square-free, the endpoints not roots, one
        root inside), so nothing is counted again."""
        root = object.__new__(cls)
        root.poly, root._lo, root._hi = tuple(poly), interval.lo, interval.hi
        root._sign_lo = sign_at(root.poly, root._lo)
        return root

    @property
    def lo(self) -> Fraction:
        return self._lo

    @property
    def hi(self) -> Fraction:
        return self._hi

    def _bisect(self):
        m = (self._lo + self._hi) / 2
        eps = (self._hi - self._lo) / 4
        while (s := sign_at(self.poly, m)) == 0:
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
        qchain = sturm_chain(squarefree_part(q)) if polys.degree(q) >= 1 else None
        while True:
            s = sign_at(q, self._lo)
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
                and sign_at(g, self._lo) != sign_at(g, self._hi))

    def compare_rational(self, c) -> int:
        """Sign of (root - c): 0 only when c is the root itself, which the
        class contract excludes."""
        c = Fraction(c)
        if self._lo < c < self._hi and sign_at(self.poly, c) == 0:
            return 0
        self.refine_away_from(c)
        return 1 if c <= self._lo else -1

    def equals(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return False  # the root is irrational
        if not isinstance(other, RealAlgebraic):
            raise TypeError(f"cannot compare a real algebraic number with {type(other).__name__}")
        lo, hi = max(self._lo, other._lo), min(self._hi, other._hi)
        if lo >= hi:
            return False  # each number lies strictly inside its own bracket
        if self.poly == other.poly:
            # The intersection lies in one isolating bracket, so it holds
            # at most one root, and holds one exactly on a sign change.
            return sign_at(self.poly, lo) != sign_at(self.poly, hi)
        if not self.vanishes(list(other.poly)):
            return False
        return self.compare_rational(other._lo) > 0 and self.compare_rational(other._hi) < 0

    def to_float(self, width=Fraction(1, 10**12)) -> float:
        self.refine(width)
        return float((self._lo + self._hi) / 2)

    def __repr__(self):
        return f"RealAlgebraic({list(self.poly)}, ({self._lo}, {self._hi}))"
