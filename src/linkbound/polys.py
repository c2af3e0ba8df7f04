"""Dense univariate polynomial helpers over exact rational arithmetic.

A polynomial is a list of coefficients ordered from the constant term
upwards, with no trailing zeros; ``[]`` is the zero polynomial.
Coefficients are Python ints or :class:`fractions.Fraction` values, which
mix freely.  Everything here is exact; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def trim(p) -> list:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def degree(p) -> int:
    """Degree of p, with the convention deg 0 = -1."""
    return len(p) - 1


def add(p, q) -> list:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p) -> list:
    return [-c for c in p]


def sub(p, q) -> list:
    return add(p, neg(q))


def mul(p, q) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def scale(p, c) -> list:
    if c == 0:
        return []
    return [a * c for a in p]


def evaluate(p, x):
    """Horner evaluation; exact for int/Fraction arguments.

    At a Fraction x = a/b the loop is homogeneous Horner on b^d p(a/b),
    which stays in integers when p has integer coefficients; one Fraction
    is built at the end instead of one per step."""
    if isinstance(x, Fraction) and p:
        return Fraction(*_homogeneous(p, x))
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _homogeneous(p, x: Fraction) -> tuple:
    """(b^d p(a/b), b^d) for x = a/b in lowest terms and d = deg p >= 0."""
    a, b = x.numerator, x.denominator
    acc, bk = 0, 1
    for c in reversed(p):
        acc = acc * a + c * bk
        bk *= b
    return acc, bk // b


def sign_at(p, x) -> int:
    """Sign (-1, 0 or 1) of p(x) at a rational x.  At x = a/b it is the
    sign of b^d p(a/b), so integer p needs no Fraction at all."""
    v = _homogeneous(p, x)[0] if isinstance(x, Fraction) else evaluate(p, x)
    return (v > 0) - (v < 0)


def derivative(p) -> list:
    return trim([i * c for i, c in enumerate(p)][1:])


def div_rem(p, q) -> tuple[list, list]:
    """Quotient and remainder over the rationals; q must be nonzero."""
    q = trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = trim(list(p))
    dq = degree(q)
    lead = Fraction(q[-1])
    quo = [0] * max(0, len(rem) - dq)
    while rem and degree(rem) >= dq:
        shift = degree(rem) - dq
        coef = Fraction(rem[-1]) / lead
        quo[shift] = coef
        for i, c in enumerate(q):
            rem[shift + i] -= coef * c
        rem = trim(rem)
    return trim(quo), rem


def divides(q, p) -> bool:
    """True when q divides p exactly over the rationals."""
    return not div_rem(p, q)[1]


def div_exact(p, q) -> list:
    """Exact quotient; raises when the division leaves a remainder."""
    quo, rem = div_rem(p, q)
    if rem:
        raise ValueError("inexact polynomial division")
    return [_intify(c) for c in quo]


def _intify(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def intify(p) -> list:
    return [_intify(c) for c in p]


def clear_denominators(p) -> list:
    """Scale by the lcm of the denominators, yielding an integer polynomial."""
    m = 1
    for c in p:
        if isinstance(c, Fraction):
            m = lcm(m, c.denominator)
    return [int(c * m) for c in p]


def content(p) -> int:
    """Positive integer content of an integer polynomial (0 for p = 0)."""
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    return g


def primitive_positive(p) -> tuple[int, list]:
    """Write the integer polynomial p as c * prim, with prim primitive and
    positive-leading.  Returns (c, prim); (0, []) for the zero polynomial."""
    p = trim(p)
    if not p:
        return 0, []
    c = content(p)
    prim = [x // c for x in p]
    if prim[-1] < 0:
        return -c, [-x for x in prim]
    return c, prim


def gcd_poly(p, q) -> list:
    """Primitive positive-leading gcd of two int/rational polynomials."""
    a, b = trim(p), trim(q)
    while b:
        a, b = b, div_rem(a, b)[1]
    if not a:
        return []
    _, prim = primitive_positive(clear_denominators(a))
    return prim


def squarefree_part(p) -> list:
    """p divided by gcd(p, p'), made primitive and positive-leading."""
    g = gcd_poly(p, derivative(p))
    _, prim = primitive_positive(clear_denominators(div_exact(p, g)))
    return prim


def squarefree_decomposition(p) -> list[tuple[list, int]]:
    """Yun's algorithm: p ~ prod f_i^i with the f_i squarefree, pairwise
    coprime, primitive and positive-leading.  Equality holds up to a
    rational unit; constant factors are dropped."""
    p = trim(p)
    if degree(p) <= 0:
        return []
    out = []
    g = gcd_poly(p, derivative(p))
    b = div_exact(p, g)
    c = div_exact(derivative(p), g)
    d = sub(c, derivative(b))
    i = 1
    while degree(b) > 0:
        a = gcd_poly(b, d)
        b = div_exact(b, a)
        c = div_exact(d, a)
        d = sub(c, derivative(b))
        if degree(a) > 0:
            _, prim = primitive_positive(clear_denominators(a))
            out.append((prim, i))
        i += 1
    return out
