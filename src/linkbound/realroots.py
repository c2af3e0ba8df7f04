"""Exact real-root isolation by Sturm sequences over the rationals.

Windows are treated as *open* intervals: a root sitting exactly on a
window endpoint is not reported.  Multiplicities come from Yun's
square-free decomposition.  :class:`RealAlgebraic` wraps one isolated
irrational root and supports exact sign queries of polynomials at that
root, which is what certifying signature jumps requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def sturm_chain(p) -> list[list]:
    """Sturm chain of p: p, p', then negated Euclidean remainders."""
    chain = [polys.trim(p)]
    d = polys.derivative(p)
    if d:
        chain.append(d)
        while True:
            rem = polys.div_rem(chain[-2], chain[-1])[1]
            if not rem:
                break
            chain.append(polys.neg(rem))
    return chain


def sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain, a, b) -> int:
    """Distinct real roots of the chain's polynomial in the half-open
    interval (a, b].  Valid even when a or b is itself a root."""
    va = sign_variations([polys.evaluate(c, a) for c in chain])
    vb = sign_variations([polys.evaluate(c, b) for c in chain])
    return va - vb


def _nonroot_endpoint(p, chain, anchor, inward, from_high) -> Fraction:
    """A point strictly between `anchor` and `inward` that is not a root of
    p, with no root of p strictly between it and `anchor`."""
    step = abs(anchor - inward) / 2
    anchor_is_root = polys.evaluate(p, anchor) == 0
    while True:
        cand = anchor - step if from_high else anchor + step
        if polys.evaluate(p, cand) != 0:
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
    a = lo if polys.evaluate(p, lo) != 0 else _nonroot_endpoint(p, chain, lo, hi, from_high=False)
    b = hi if polys.evaluate(p, hi) != 0 else _nonroot_endpoint(p, chain, hi, lo, from_high=True)
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
        if polys.evaluate(p, m) == 0:
            # Exact rational root at the bisection point; box it tightly.
            eps = (v - u) / 4
            while (polys.evaluate(p, m - eps) == 0
                   or polys.evaluate(p, m + eps) == 0
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
    sq = polys.squarefree_part(q)
    sq_chain = sturm_chain(sq)
    found = []  # mutable records [lo, hi, mult, factor, factor_chain]
    for factor, mult in polys.squarefree_decomposition(q):
        chain = sturm_chain(factor)
        for u, v in _isolate_squarefree(factor, chain, lo, hi):
            found.append([u, v, mult, factor, chain])
    # Refine until each interval isolates its root within the full
    # square-free part (no root of another factor intrudes) and the
    # endpoints avoid all roots of q.
    for item in found:
        while not (polys.evaluate(sq, item[0]) != 0
                   and polys.evaluate(sq, item[1]) != 0
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
            for u, v, mult, _, _ in found]


def _halve(item):
    """Shrink an isolation record around its root, keeping the new endpoint
    off the roots of the record's factor."""
    u, v, _, factor, chain = item
    m = (u + v) / 2
    eps = (v - u) / 4
    while polys.evaluate(factor, m) == 0:
        m += eps
        eps /= 2
    if count_roots(chain, u, m) == 1:
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
    sq = polys.squarefree_part(polys.trim(q))
    chain = sturm_chain(sq)
    if count_roots(chain, interval.lo, interval.hi) != 1:
        raise ValueError("interval does not isolate a root of q")
    item = [interval.lo, interval.hi, interval.multiplicity, sq, chain]
    while item[1] - item[0] > max_width:
        _halve(item)
    return IsolatingInterval(item[0], item[1], interval.multiplicity)


class RealAlgebraic:
    """One real algebraic number: a primitive square-free integer defining
    polynomial together with an open isolating interval.

    The defining polynomial must have no rational roots (callers split
    those off first), so bisection points are never the root itself.
    Refinement only shrinks the bracket; the represented number never
    changes, making shared instances safe to reuse.
    """

    __slots__ = ("poly", "_lo", "_hi", "_chain")

    def __init__(self, poly, lo, hi):
        _, prim = polys.primitive_positive(polys.clear_denominators(polys.trim(poly)))
        if polys.degree(prim) < 1:
            raise ValueError("defining polynomial must be nonconstant")
        if polys.degree(polys.gcd_poly(prim, polys.derivative(prim))) > 0:
            raise ValueError("defining polynomial must be square-free")
        self.poly = tuple(prim)
        self._lo = Fraction(lo)
        self._hi = Fraction(hi)
        self._chain = sturm_chain(prim)
        if polys.evaluate(prim, self._lo) == 0 or polys.evaluate(prim, self._hi) == 0:
            raise ValueError("interval endpoints must not be roots")
        if count_roots(self._chain, self._lo, self._hi) != 1:
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
        while polys.evaluate(self.poly, m) == 0:
            m += eps
            eps /= 2
        if count_roots(self._chain, self._lo, m) == 1:
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
        twin.poly, twin._lo, twin._hi, twin._chain = self.poly, self._lo, self._hi, self._chain
        return twin

    def sign_of(self, q) -> int:
        """Exact sign of the integer/rational polynomial q at this root."""
        q = polys.trim(q)
        if self.vanishes(q):
            return 0
        qchain = sturm_chain(polys.squarefree_part(q)) if polys.degree(q) >= 1 else None
        while True:
            if polys.evaluate(q, self._lo) != 0 and (
                    qchain is None or count_roots(qchain, self._lo, self._hi) == 0):
                return 1 if polys.evaluate(q, self._lo) > 0 else -1
            self._bisect()

    def vanishes(self, q) -> bool:
        """Whether q is zero at this root: gcd(q, poly) has a root in the
        bracket.  Never refines the bracket."""
        q = polys.trim(q)
        if not q:
            return True
        g = polys.gcd_poly(q, list(self.poly))
        return polys.degree(g) >= 1 and count_roots(sturm_chain(g), self._lo, self._hi) == 1

    def compare_rational(self, c) -> int:
        """Sign of (root - c); never 0 since the root is irrational."""
        return self.sign_of([-Fraction(c), 1])

    def equals(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return False  # the root is irrational
        if not isinstance(other, RealAlgebraic):
            return NotImplemented
        if not self.vanishes(list(other.poly)):
            return False
        return self.compare_rational(other._lo) > 0 and self.compare_rational(other._hi) < 0

    def to_float(self, width=Fraction(1, 10**12)) -> float:
        self.refine(width)
        return float((self._lo + self._hi) / 2)

    def __repr__(self):
        return f"RealAlgebraic({list(self.poly)}, ({self._lo}, {self._hi}))"
