"""Exact factorization of integer polynomials by Kronecker interpolation,
and the Fox-Milnor norm test for Alexander polynomials.

Kronecker's method finds a degree-d factor, if one exists, by evaluating
at d+1 integer points: a factor's value at x_i must divide p(x_i), so
interpolating divisor tuples and trial-dividing is a complete (if
exponential) search.  Divisor tuples are pruned by the congruence
g(a) = g(b) mod (a-b), which holds for every integer polynomial and cuts
the search down to desk scale.  A search takes each point's divisors
and ranks the points by their number once, for all degrees.
"""

from __future__ import annotations

import math

from . import polys
from .braids import _Value
from .errors import DegreeCapError, ZeroPolynomialError
from .laurent import LaurentPoly

# The largest Fox-Milnor degree cap.  Kronecker's search is exponential in
# the degree: factoring Phi_19 (degree 18) takes seconds, and with a cap
# of 100 the report on T(2,25) does not finish in a minute.
MAX_DEGREE_CAP = 18
DEFAULT_DEGREE_CAP = 12


def _divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of |n|, n != 0, by trial division."""
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def _interpolate_integer(xs, ys):
    """The interpolant of ys at the distinct integer nodes xs by Newton
    divided differences; None unless all its coefficients are integers.

    Divided differences of an integer polynomial at integer nodes are
    integers and the Newton basis is integral, so the first inexact
    division rules the tuple out."""
    c = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            c[i], r = divmod(c[i] - c[i - 1], xs[i] - xs[i - j])
            if r:
                return None
    poly = []
    for xi, ci in zip(reversed(xs), reversed(c)):
        poly = polys.add(polys.mul(poly, [-xi, 1]), [ci])
    return poly


def _quadratic_root(p) -> list | None:
    """The primitive linear factor [-s, den] of the integer quadratic p
    whose root s/den comes first in the divisor search of
    _rational_root_split (least den, then least |s|, then s > 0), read
    off the discriminant; None when the roots are irrational or not real."""
    c, b, a = p
    disc = b * b - 4 * a * c
    r = math.isqrt(disc) if disc >= 0 else -1
    if r * r != disc:
        return None
    roots = [polys.primitive_positive([b + e, 2 * a])[1] for e in (r, -r)]
    # the factor [-s, den] has root s/den
    return min(roots, key=lambda f: (f[1], abs(f[0]), f[0] > 0))


def _rational_root_split(p) -> tuple[list, list[list]]:
    """Split all rational-root linear factors off a primitive integer
    polynomial.  Returns (rest, [primitive linear factors with repeats])."""
    linear = []
    while polys.degree(p) >= 1:
        if p[0] == 0:
            found = [0, 1]
        elif polys.degree(p) == 1:  # its own root: no divisor search
            found = polys.primitive_positive(p)[1]
        elif polys.degree(p) == 2:  # its roots off the discriminant
            found = _quadratic_root(p)
            if not found:
                break
        else:
            nums = _divisors(p[0])
            found = next((polys.primitive_positive([-s, den])[1]
                          for den in _divisors(p[-1]) for num in nums
                          for s in (num, -num) if polys.sign_at_ratio(p, s, den) == 0), None)
            if not found:
                break
        linear.append(found)
        p = polys.div_exact(p, found)
    return p, linear


def _search_divisor_tuples(p, xs, divisor_lists, target_degree):
    """Depth-first search over divisor tuples with congruence pruning."""
    k = len(xs)
    ys = [0] * k

    def rec(i):
        if i == k:
            g = _interpolate_integer(xs, ys)
            if (g is None or polys.degree(g) < target_degree
                    or p[-1] % g[-1] != 0 or polys.content(g) != 1):
                return None
            try:
                polys.div_exact(p, g)
            except ValueError:
                return None
            return g
        for y in divisor_lists[i]:
            if all((y - ys[j]) % (xs[i] - xs[j]) == 0 for j in range(i)):
                ys[i] = y
                hit = rec(i + 1)
                if hit is not None:
                    return hit
        return None

    return rec(0)


def _kronecker_factor(p):
    """A nontrivial factor of the primitive integer polynomial p (which
    must have no rational roots), or None when p is irreducible.

    Degrees are searched from 1 up, so candidate interpolants of lower
    degree can be skipped: a lower-degree factor would already have been
    found by its own (independently complete) search.
    """
    n = polys.degree(p)
    if n < 2:
        return None
    pool = [(-1) ** (i + 1) * ((i + 1) // 2) for i in range(n // 2 + 4)]  # 0, 1, -1, 2, -2, ...
    divisors = {x: _divisors(polys.scaled_value(p, x)) for x in pool}  # p(x) != 0: no rational roots
    ranked = sorted(pool, key=lambda x: len(divisors[x]))  # stable: ties keep pool order
    for d in range(1, n // 2 + 1):
        xs = sorted(ranked[: d + 1], key=pool.index)
        divisor_lists = []
        for i, x in enumerate(xs):
            if i == 0:
                # A factor and its negation both divide p; fixing the sign
                # at the first point halves the search without loss.
                divisor_lists.append(list(divisors[x]))
            else:
                divisor_lists.append([s * e for e in divisors[x] for s in (1, -1)])
        g = _search_divisor_tuples(p, xs, divisor_lists, d)
        if g is not None:
            if g[-1] < 0:
                g = polys.neg(g)
            return g
    return None


def factor_integer_polynomial(p) -> tuple[int, list[tuple[tuple, int]]]:
    """Complete factorization of a nonzero integer polynomial.

    Returns (c, [(factor, multiplicity), ...]) with p = c * prod f^m and
    each factor irreducible over Q, primitive, positive-leading, sorted.
    A coefficient that polys.primitive refuses raises its TypeError.
    Each of Yun's square-free factors loses its rational roots, and then
    Kronecker splits what is left; Yun's factors are pairwise coprime, so
    no irreducible factor is found twice.
    """
    prim = polys.primitive(p)
    if not prim:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    c, prim = polys.primitive_positive(prim)
    c *= polys.content(p)
    factors = []
    for sq_factor, mult in polys.squarefree_decomposition(prim):
        rest, found = _rational_root_split(sq_factor)
        stack = [rest] if polys.degree(rest) >= 1 else []
        while stack:
            q = stack.pop()
            g = _kronecker_factor(q)
            if g is None:
                found.append(q)
            else:
                stack += [g, polys.div_exact(q, g)]
        factors += [(tuple(f), mult) for f in found]
    return c, sorted(factors)


# -- Fox-Milnor ------------------------------------------------------------


def _reversed_factor(f: tuple) -> tuple:
    """The reciprocal polynomial t^deg f(1/t), canonically normalized."""
    return tuple(polys.primitive_positive(list(reversed(f)))[1])


class FoxMilnorResult(_Value):
    _fields = ("verdict", "witness", "reason")  # verdict: "passes" | "fails" | "inconclusive"

    def __init__(self, verdict: str, witness: LaurentPoly | None = None, reason: str = ""):
        super().__init__(verdict, witness, reason)

    @property
    def passes(self) -> bool:
        return self.verdict == "passes"


def check_degree_cap(degree_cap: int) -> None:
    """Raise DegreeCapError for a cap below 0 or above MAX_DEGREE_CAP."""
    if degree_cap < 0:
        raise DegreeCapError(f"degree cap {degree_cap} is negative")
    if degree_cap > MAX_DEGREE_CAP:
        raise DegreeCapError(
            f"degree cap {degree_cap} exceeds the maximum {MAX_DEGREE_CAP}")


def fox_milnor_test(p: LaurentPoly, degree_cap: int = DEFAULT_DEGREE_CAP) -> FoxMilnorResult:
    """Decide whether p factors as +-t^k f(t) f(1/t) over Z[t, 1/t].

    This is the classical necessary condition on the Alexander polynomial
    of a slice knot.  Fast necessary checks (|p(1)| = 1, even width,
    |p(-1)| a perfect square) run first; the complete decision then
    factors normalize(p) via Kronecker.  Degrees above `degree_cap` come
    back "inconclusive"; a cap below 0 or above MAX_DEGREE_CAP raises
    DegreeCapError.
    A passing verdict carries a witness f with normalize(f(t) f(1/t)) =
    normalize(p).
    """
    check_degree_cap(degree_cap)
    if p.is_zero:
        raise ZeroPolynomialError("Fox-Milnor test needs a nonzero polynomial")
    at_one = abs(sum(v for _, v in p.items()))  # |p(1)|, in integers
    if at_one != 1:
        return FoxMilnorResult("fails", reason=f"|p(1)| = {at_one} != 1")
    q = p.normalize()
    if q.width() % 2 != 0:
        return FoxMilnorResult("fails", reason=f"odd width {q.width()}")
    at_minus_one = abs(sum(-v if e % 2 else v for e, v in q.items()))
    if math.isqrt(at_minus_one) ** 2 != at_minus_one:
        return FoxMilnorResult(
            "fails", reason=f"|p(-1)| = {at_minus_one} is not a perfect square")
    if q.width() > degree_cap:
        return FoxMilnorResult(
            "inconclusive", reason=f"degree {q.width()} exceeds cap {degree_cap}")

    _, dense = q.to_dense()
    _, factors = factor_integer_polynomial(dense)
    mults = dict(factors)
    witness = LaurentPoly.one()
    # One rule in sorted order: a self-reciprocal factor needs an even
    # power, and half of it enters the witness; any other factor needs its
    # reciprocal to the same power, and the smaller of the two enters.
    for f, mult in factors:
        rev = _reversed_factor(f)
        if rev == f:
            if mult % 2 != 0:
                return FoxMilnorResult(
                    "fails",
                    reason=f"self-reciprocal factor {list(f)} has odd multiplicity {mult}")
            witness = witness * LaurentPoly.from_dense(f) ** (mult // 2)
        elif mults.get(rev) != mult:
            return FoxMilnorResult(
                "fails", reason=f"factor {list(f)} does not pair with its reciprocal")
        elif f < rev:
            witness = witness * LaurentPoly.from_dense(f) ** mult
    product = witness * witness.involution()
    if product.normalize() != q:
        # The +-t^k unit absorbs signs, so this should never trigger.
        raise AssertionError("witness reconstruction failed")
    return FoxMilnorResult("passes", witness=witness.normalize())
