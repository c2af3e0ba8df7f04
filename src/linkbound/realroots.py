"""Exact real-root isolation by Sturm sequences, in integers.

Every entry point reads its polynomials through
:func:`linkbound.polys.primitive`, which refuses a coefficient that is
not an integer with TypeError before any cache is read.  Windows are
treated as *open* intervals: a root sitting exactly on a window endpoint
is not reported.  The roots are isolated once, on the square-free part
from Yun's decomposition; a bracket's multiplicity is the power of the
one Yun factor that changes sign across it.  :class:`RealAlgebraic`
wraps one isolated irrational root and supports exact sign queries of
polynomials at that root, which is what certifying signature jumps
requires.

Every point is a pair of integers (a, d), d > 0, standing for a/d, and
every bracket is integers (a, b, d) over one denominator; every sign is
the sign of d^k p(a/d) by one integer Horner pass
(:func:`linkbound.polys.sign_at_ratio`).  Bisection of (a/d, b/d) gives
(2a, a + b)/2d or (a + b, 2b)/2d, the rationals that Fraction bisection
gives, so isolation, refinement and comparison build no Fraction.  Sturm
chains hold primitive integer polynomials and are computed once and
handed on.  Within one isolation each point's Sturm count is taken
once, kept under the point in lowest terms.  The chain is the one
remainder sequence of (p, p'), and its last element is gcd(p, p'): a
constant one means p is square-free, and otherwise Yun's decomposition
starts from it.  An interval that isolates the single root of a
square-free polynomial is bisected by the sign of that polynomial at the
midpoint alone, since a simple root is a sign change.  Refinement to a
width reaches the node of the bisection tree that bisection reaches, by
certified secant steps on 2^k grids with k doubling (_descend), so
brackets and the floats and JSON read from them do not depend on the
route, at any depth.  A breakpoint built from a bracket of
:func:`isolate_real_roots` is not counted again; the public
:class:`RealAlgebraic` constructor checks everything, and refuses a
defining polynomial with a rational root.  A root x0 also stands for the
circle point z0 with z0 + 1/z0 = x0: _nonzero_at tests q(z0) != 0 for
integer polynomials q in t.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

from . import polys
from .errors import ZeroPolynomialError


def sturm_chain(p) -> tuple:
    """Sturm chain of the integer polynomial p: p, p', then negated
    Euclidean remainders, each scaled by a positive rational to a
    primitive integer polynomial.  Positive scaling changes no sign, so
    sign variations and root counts are those of the classical chain.
    Computed on each call: a caller that reads the chain again keeps it."""
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


def _descend(poly, a: int, w: int, d: int, sign_lo: int, depth: int) -> tuple[int, int]:
    """(a', d') for the node (a', a' + w)/d' that `depth` bisections of the
    bracket (a, a + w)/d reach, or for a node higher on the same path:
    poly is square-free with one root in the bracket, sign_lo its sign at
    a/d.  Bisection keeps w and doubles d, so the node k levels down is
    cell i of the grid (a 2^k + i w)/(d 2^k), 0 <= i < 2^k.

    Each step guesses the cell by the secant through the node's ends,
    rounded to the nearest inner grid point j, and certifies the cell on
    the root's side of j by the signs of poly at its two ends (quadratic
    interval refinement: J. Abbott, ACM CCA 2014).  poly has no rational
    root, so no grid point is the root, and a sign change across the
    cell puts it strictly inside, in the cell that bisection reaches.  A
    certified step doubles k, a missed one halves it, and at k = 1 the
    step is a bisection, which always certifies: the descent always
    reaches the node `depth` levels down."""
    n = len(poly) - 1
    fa, fb = polys.scaled_value(poly, a, d), polys.scaled_value(poly, a + w, d)
    k = 2
    while depth:
        k = min(k, depth)
        grid = 1 << k
        # the secant meets 0 at the fraction |fa| / (|fa| + |fb|) of the node
        num, den = abs(fa), abs(fa) + abs(fb)
        j = min(max((2 * num * grid + den) // (2 * den), 1), grid - 1)
        a2, d2 = a << k, d << k
        fm = polys.scaled_value(poly, a2 + j * w, d2)
        if (fm > 0) == (sign_lo > 0):  # the root is right of j
            i, fl = j, fm
            fr = fb << k * n if j + 1 == grid else polys.scaled_value(poly, a2 + (j + 1) * w, d2)
        else:
            i, fr = j - 1, fm
            fl = fa << k * n if j == 1 else polys.scaled_value(poly, a2 + i * w, d2)
        if (fl > 0) == (sign_lo > 0) and (fr > 0) != (sign_lo > 0):
            a, d, fa, fb = a2 + i * w, d2, fl, fr
            depth -= k
            k *= 2
        else:
            k //= 2
    return a, d


def _yun(q) -> tuple:
    """(Yun's square-free decomposition of the integer polynomial q, the
    square-free part, the Sturm chain of q's primitive positive form p),
    from the one remainder sequence of (q, q').  The part is the product
    of the factors (Gauss's lemma).  The chain's last element is
    gcd(q, q'): when it is constant, p is square-free, its own
    decomposition and part, and the chain is the part's; otherwise Yun
    starts from it.  A caller that needs the part, the roots and the
    chain of one polynomial thus runs that sequence once, and hands on
    what it needs again."""
    p = tuple(polys.primitive_positive(q)[1])
    chain = sturm_chain(p)
    if polys.degree(chain[-1]) <= 0:
        return ((p, 1),) if polys.degree(p) > 0 else (), p, chain
    g = polys.primitive_positive(chain[-1])[1]
    factors = tuple((tuple(f), m) for f, m in polys.squarefree_decomposition(p, g))
    return factors, tuple(reduce(polys.mul, (f for f, _ in factors), [1])), chain


def isolate_real_roots(q, lo, hi) -> list[tuple[int, int, int, int]]:
    """Isolate all distinct real roots of the integer polynomial q strictly
    inside (lo, hi), for rationals lo and hi.

    Returns pairwise-disjoint brackets (a, b, d, multiplicity), in
    increasing order: the open interval (a/d, b/d), with d > 0 and
    gcd(a, b, d) = 1, contains exactly one distinct root of q, and the
    multiplicity is that root's.  Roots at lo or hi are excluded (open
    window).  One isolation of the square-free part of q (from _yun)
    gives every bracket, so each isolates its root within that part and
    its endpoints are not roots of q; the root is simple in exactly one
    Yun factor, the one whose sign differs at the two ends, and its
    power is the multiplicity.  Raises ZeroPolynomialError for q = 0.
    """
    return _isolate(q, lo, hi)[0]


def _isolate(q, lo, hi) -> tuple[list, tuple]:
    """(isolate_real_roots(q, lo, hi), the square-free part of q that the
    isolation counted on).  The part's chain is q's own when q is
    square-free and is built only otherwise, so the brackets and the
    RealAlgebraic._certified roots built on them read one decomposition."""
    q = polys.primitive(q)
    if not q:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    (a, e), (b, f) = _ratio(lo), _ratio(hi)
    d = lcm(e, f)
    a, b = a * (d // e), b * (d // f)
    factors, part, chain = _yun(q)
    if polys.degree(chain[-1]) > 0:  # q is not square-free
        chain = sturm_chain(part)
    out = []
    for u, v, e in _isolate_squarefree(_SturmCounts(chain), a, b, d) if a < b else ():
        mult = factors[0][1] if len(factors) == 1 else next(
            m for factor, m in factors
            if polys.sign_at_ratio(factor, u, e) != polys.sign_at_ratio(factor, v, e))
        g = gcd(u, v, e)
        out.append((u // g, v // g, e // g, mult))
    return out, part


def _ratio(c) -> tuple[int, int]:
    """(numerator, denominator > 0) of a rational c, an int or a Fraction; a
    float, a string or a bool raises TypeError, where Fraction() would read
    it."""
    if type(c) is bool or not isinstance(c, (int, Fraction)):
        raise TypeError(f"rational arguments must be int or Fraction, got {type(c).__name__}")
    return c.numerator, c.denominator


def _has_rational_root(poly, chain) -> bool:
    """Whether the square-free integer polynomial poly, positive-leading,
    with the Sturm chain `chain`, has a rational root.

    A rational root s/t has t | L, the leading coefficient, and two
    fractions with denominators <= L differ by at least 1/(t L) >= 1/L^2
    (Hardy and Wright, ch. X).  So each real root, isolated within the
    Cauchy bound, is bisected to a closed bracket narrower than 1/L^2; a
    rational root is then nearer its midpoint than any other fraction
    with denominator <= L, and is the one that limit_denominator(L)
    returns, by continued fractions.  A midpoint that is the root leaves
    it on the closed bracket's right end."""
    lead, bound = poly[-1], 1 + max(map(abs, poly))
    for a, b, d in _isolate_squarefree(_SturmCounts(chain), -bound, bound, 1):
        root = RealAlgebraic._certified(poly, a, b, d)
        while (root._b - root._a) * lead * lead >= root._d:
            root._bisect()
        x = Fraction(root._a + root._b, 2 * root._d).limit_denominator(lead)
        if polys.sign_at_ratio(poly, x.numerator, x.denominator) == 0:
            return True
    return False


# The one polynomial cache, kept for the frontier: no benchmark workload
# calls it, but one report each of T(4,28), T(4,40) and T(3,26)#-T(3,26)
# hits it 11, 18 and 1203 times, and took 10-23% longer without it.
@lru_cache(maxsize=1024)
def _gcd(q: tuple, poly: tuple) -> tuple:
    return tuple(polys.gcd_poly(q, poly))


class RealAlgebraic:
    """One real algebraic number: a primitive square-free integer defining
    polynomial and an open isolating interval (a/d, b/d), integers over one
    denominator d > 0 (.lo and .hi build Fractions).

    The defining polynomial has no rational root, so no rational point, a
    bisection point or a grid point of refine's descent, is the root
    itself.  Refinement only shrinks the bracket; the represented number
    never changes, making shared instances safe to reuse.  The bracket's
    endpoints are never roots, and the polynomial has one sign on the
    left of the root and the other on its right, so bisection and the
    comparisons below evaluate the polynomial, not its Sturm chain: each
    sign is one integer Horner pass, and comparisons cross-multiply.
    refine, which to_float and SignatureFunction.to_json call, reaches
    bisection's bracket in a few evaluations by a certified descent
    (_descend); the other operations bisect.
    """

    __slots__ = ("poly", "_a", "_b", "_d", "_sign_lo")

    def __init__(self, poly, lo, hi):
        """Checks poly, an integer polynomial (polys.primitive), nonconstant,
        square-free and with no rational root, and (lo, hi) isolating one
        of its roots, the ends not roots.  The bracket is kept over the
        lcm of the ends' denominators."""
        _, prim = polys.primitive_positive(polys.primitive(poly))
        if polys.degree(prim) < 1:
            raise ValueError("defining polynomial must be nonconstant")
        chain = sturm_chain(prim)
        if polys.degree(chain[-1]) > 0:  # the last element is gcd(poly, poly')
            raise ValueError("defining polynomial must be square-free")
        (a, e), (b, f) = _ratio(lo), _ratio(hi)
        d = lcm(e, f)
        self._set_bracket(prim, a * (d // e), b * (d // f), d)
        if self._sign_lo == 0 or polys.sign_at_ratio(self.poly, self._b, self._d) == 0:
            raise ValueError("interval endpoints must not be roots")
        if _SturmCounts(chain).roots(self._a, self._b, self._d) != 1:
            raise ValueError("interval does not isolate a single root")
        if _has_rational_root(prim, chain):
            raise ValueError("defining polynomial must have no rational root")

    @classmethod
    def _certified(cls, poly, a: int, b: int, d: int) -> "RealAlgebraic":
        """The root in a bracket (a, b, d, _) that _isolate(q, ...) returned
        for a q with no rational root, with poly the square-free part that
        it returned with the bracket, the very polynomial that isolation
        counted on.  Isolation certified what the public constructor
        checks (poly primitive, positive-leading and square-free, the
        endpoints not roots, one root inside), so nothing is counted
        again."""
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
        """Keep the half of the bracket that holds the root, by the sign of
        poly at the midpoint, which is never 0: the root is irrational."""
        m, d = self._a + self._b, 2 * self._d  # the midpoint m/d
        left = polys.sign_at_ratio(self.poly, m, d) != self._sign_lo  # the root is left of it
        self._a, self._b, self._d = (2 * self._a, m, d) if left else (m, 2 * self._b, d)

    def refine(self, max_width) -> "RealAlgebraic":
        """Shrink the bracket to width at most max_width > 0, to the node
        of the bisection tree that bisection reaches, at any depth: the
        descent jumps down the tree by certified grid steps (_descend)."""
        p, q = _ratio(max_width)
        if p <= 0:
            raise ValueError(f"refinement width must be positive, got {max_width}")
        w = self._b - self._a
        if w * q > p * self._d:
            # the halvings that bisection makes: the least s with w/(2^s d) <= p/q
            s = ((w * q - 1) // (p * self._d)).bit_length()
            self._a, self._d = _descend(self.poly, self._a, w, self._d, self._sign_lo, s)
            self._b = self._a + w
        return self

    def refine_away_from(self, value) -> "RealAlgebraic":
        """Shrink the bracket until the rational `value` lies strictly
        outside it."""
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
        """Exact sign of the integer polynomial q at this root."""
        q = polys.primitive(q)  # a positive multiple: the same sign
        if self.vanishes(q):
            return 0
        _, part, chain = _yun(q)  # ((1,),) for a constant q
        counts = _SturmCounts(chain if polys.degree(chain[-1]) <= 0 else sturm_chain(part))
        while ((s := polys.sign_at_ratio(q, self._a, self._d)) == 0
               or counts.roots(self._a, self._b, self._d)):
            self._bisect()
        return s

    def vanishes(self, q) -> bool:
        """Whether the integer polynomial q is zero at this root.  Never
        refines the bracket.

        g = gcd(q, poly) divides the square-free poly, so its roots are
        simple roots of poly and the bracket holds at most one of them: g
        vanishes at this root exactly when it changes sign across the
        bracket.  g does not depend on the bracket, so it is cached per
        (q, poly) pair and the breakpoints of one function share it."""
        q = polys.primitive(q)
        if not q:
            return True
        g = _gcd(tuple(q), self.poly)
        return (polys.degree(g) >= 1 and polys.sign_at_ratio(g, self._a, self._d)
                != polys.sign_at_ratio(g, self._b, self._d))

    def compare_rational(self, c) -> int:
        """Sign of (root - c) for a rational c: 1 or -1, never 0, since the
        root is irrational."""
        return self._compare(*_ratio(c))

    def _compare(self, p: int, q: int) -> int:
        """compare_rational at c = p/q, q > 0, refining away from c: the
        bracket is bisected only while c lies inside it."""
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
