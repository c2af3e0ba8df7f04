"""Dense univariate polynomial helpers in exact integer arithmetic.

A polynomial is a list of coefficients ordered from the constant term
upwards, with no trailing zeros; ``[]`` is the zero polynomial.
Coefficients are integers, read by :func:`primitive` as Seifert entries
are read.  Division is exact division in Z[x], gcds are primitive
pseudo-remainder sequences, and a value at a/d is d^k p(a/d), one integer
Horner pass (:func:`scaled_value`).  Everything here is exact.
"""

from __future__ import annotations

from math import gcd

from .braids import _check_integers


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


def scaled_value(p, a: int, d: int = 1) -> int:
    """d^k p(a/d), k = deg p, for integers a and d > 0 (p(a) by default):
    one integer Horner pass."""
    acc, dk = 0, 1
    for c in reversed(p):
        acc, dk = acc * a + c * dk, dk * d
    return acc


def sign_at_ratio(p, a: int, d: int) -> int:
    """Sign (-1, 0 or 1) of p(a/d) for integers a and d > 0: the sign of
    scaled_value(p, a, d)."""
    v = scaled_value(p, a, d)
    return (v > 0) - (v < 0)


def derivative(p) -> list:
    return trim([i * c for i, c in enumerate(p)][1:])


def div_exact(p, q) -> list:
    """The quotient p / q in Z[x] of integer polynomials; raises ValueError
    when q does not divide p there.  For a primitive q this is
    divisibility over Q (Gauss's lemma), which is how every caller uses
    it."""
    q, rem = trim(q), trim(p)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    dq, lead = len(q) - 1, q[-1]
    quo = []
    for shift in range(len(rem) - 1 - dq, -1, -1):
        coef, r = divmod(rem[shift + dq], lead)
        if r:
            raise ValueError("inexact polynomial division")
        quo.append(coef)
        if coef:
            for i in range(dq):
                rem[shift + i] -= coef * q[i]
    if any(rem[:dq]):
        raise ValueError("inexact polynomial division")
    return trim(reversed(quo))


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


def primitive(p) -> list:
    """The primitive integer polynomial c p with c > 0 ([] for p = 0).  The
    coefficients are read by braids._check_integer: ints and __index__
    values (NumPy integers) as ints; a float, Fraction, str or bool raises
    TypeError."""
    q = trim(_check_integers(p, "polynomial coefficients", TypeError))
    g = content(q)
    return [c // g for c in q] if g else []


def circle_form(p) -> list:
    """t^m p(t + 1/t) for p of degree m, zero at z wherever p is zero at
    x = z + 1/z: Horner's rule w <- w (t^2 + 1) + p_i t^(m - i)."""
    m = len(p) - 1
    w = [p[m]]
    for i in range(m - 1, -1, -1):
        w = [a + b for a, b in zip(w + [0, 0], [0, 0] + w)]
        w[m - i] += p[i]
    return w


def xz_parts(q) -> tuple[list, list]:
    """(a, b) with q(z) = a(x) + b(x) z wherever x = z + 1/z: Horner's rule
    with z^2 = xz - 1, (a + bz) z + c = (c - b) + (a + xb) z, on two
    coefficient lists of len(q)."""
    a, b = [0] * len(q), [0] * len(q)
    for c in reversed(q):
        a, b = [-v for v in b], [u + v for u, v in zip(a, [0] + b)]
        a[0] += c
    return trim(a), trim(b)


def pseudo_remainder(a, b) -> list:
    """|lc(b)|^k times the remainder of a by b, for integer polynomials:
    each step multiplies by the positive |lc(b)|, so no division, and no
    sign changes."""
    rem = trim(a)
    m, s = abs(b[-1]), 1 if b[-1] > 0 else -1
    while len(rem) >= len(b):
        head = rem.pop() * s  # the top term cancels
        shift = len(rem) + 1 - len(b)
        if m != 1:
            rem = [c * m for c in rem]
        rem[shift:] = [c - head * u for c, u in zip(rem[shift:], b)]
        while rem and not rem[-1]:
            rem.pop()
    return rem


def gcd_poly(p, q) -> list:
    """Primitive positive-leading gcd of two integer polynomials: the
    primitive pseudo-remainder sequence, on integers (Knuth, TAOCP vol. 2,
    4.6.1)."""
    a, b = primitive(p), primitive(q)
    while b:
        a, b = b, primitive(pseudo_remainder(a, b))
    return primitive_positive(a)[1]


def squarefree_decomposition(p, g) -> list[tuple[list, int]]:
    """Yun's algorithm: p ~ prod f_i^i with the f_i squarefree, pairwise
    coprime, primitive and positive-leading, given g = gcd(p, p'),
    primitive (realroots._yun reads it off p's Sturm chain).  Equality
    holds up to a rational unit; constant factors are dropped.  Every gcd
    is primitive and divides a primitive polynomial, so each quotient is
    integral."""
    p = primitive(p)
    if degree(p) <= 0:
        return []
    out = []
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
            out.append((a, i))
        i += 1
    return out
