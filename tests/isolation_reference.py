"""The Fraction-based root isolation, kept verbatim as an independent
reference for :func:`linkbound.realroots.isolate_real_roots`, which
bisects integer brackets (a, b, d) over one denominator: the
IsolatingInterval record, the isolation that returns it, and
refine_isolating_interval; also the square-free part by its own gcd,
which the library now reads from Yun's decomposition
(linkbound.realroots._yun)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from linkbound import polys
from linkbound.errors import ZeroPolynomialError
from linkbound.realroots import RealAlgebraic, _yun, sign_variations, sturm_chain


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


def squarefree_part(p) -> list:
    """p divided by gcd(p, p'), made primitive and positive-leading."""
    p = polys.primitive(p)
    return polys.primitive_positive(polys.div_exact(p, polys.gcd_poly(p, polys.derivative(p))))[1]


def sign_at(p, x) -> int:
    """Sign (-1, 0 or 1) of p(x) at a rational x, an int or a Fraction."""
    return polys.sign_at_ratio(p, x.numerator, x.denominator)


def count_roots(chain, a, b) -> int:
    """Distinct real roots of the chain's polynomial in the half-open
    interval (a, b], for rationals a and b.  Valid even when a or b is a
    simple root, so for square-free polynomials at any endpoints."""
    return sign_variations(_chain_signs(chain, a)) - sign_variations(_chain_signs(chain, b))


def _chain_signs(chain, x) -> list:
    """Signs of every element of a Sturm chain at a rational x: the one
    place a chain is evaluated."""
    return [sign_at(c, x) for c in chain]


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
    factors, sq, _ = _yun(tuple(q))
    found = []  # mutable records [lo, hi, mult, factor]
    for factor, mult in factors:
        for u, v in _isolate_squarefree(_SturmCounts(sturm_chain(factor)), lo, hi):
            found.append([u, v, mult, factor])
    if len(factors) > 1 and (sign_at(q, lo) == 0 or sign_at(q, hi) == 0):
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
    while (s := sign_at(factor, m)) == 0:
        m += eps
        eps /= 2
    if s != sign_at(factor, u):
        item[1] = m
    else:
        item[0] = m


def refine_isolating_interval(q, interval: IsolatingInterval,
                              max_width) -> IsolatingInterval:
    """Shrink an isolating interval of q below `max_width` > 0 by bisection.

    Bisection and checks are RealAlgebraic's, on the square-free part of
    q, so the root must be irrational.
    """
    root = RealAlgebraic(squarefree_part(q), interval.lo, interval.hi)
    root.refine(max_width)
    return IsolatingInterval(root.lo, root.hi, interval.multiplicity)
