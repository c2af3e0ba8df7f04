"""The exact congruence signature over the quadratic field
Q[z]/(z^2 - xz + 1), kept as an independent reference for the rational
trace form that :mod:`linkbound.signature` reads instead."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from linkbound.laurent import LaurentPoly


@dataclass(frozen=True)
class QuadFieldElem:
    """a + b z in Q[z]/(z^2 - x z + 1) for rational x with x^2 < 4.

    This is where Laurent polynomials take values at the circle point with
    z + 1/z = x.  Conjugation is z -> x - z, and the norm a^2 + abx + b^2
    equals |a + bz|^2 > 0 for nonzero elements, so this is a field.
    """

    a: Fraction
    b: Fraction
    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "x", Fraction(self.x))
        if self.x * self.x >= 4:
            raise ValueError("QuadFieldElem needs x^2 < 4")

    def _like(self, a, b) -> "QuadFieldElem":
        return QuadFieldElem(a, b, self.x)

    def __add__(self, other):
        return self._like(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return self._like(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return self._like(-self.a, -self.b)

    def __mul__(self, other):
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return self._like(a1 * a2 - b1 * b2, a1 * b2 + a2 * b1 + b1 * b2 * self.x)

    def conjugate(self) -> "QuadFieldElem":
        return self._like(self.a + self.b * self.x, -self.b)

    def norm(self) -> Fraction:
        """|a + bz|^2 = a^2 + a b x + b^2."""
        return self.a * self.a + self.a * self.b * self.x + self.b * self.b

    def inverse(self) -> "QuadFieldElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero QuadFieldElem")
        c = self.conjugate()
        return self._like(c.a / n, c.b / n)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def real_value(self) -> Fraction:
        """The rational value of a self-conjugate (b = 0) element."""
        if self.b != 0:
            raise ValueError("element is not self-conjugate")
        return self.a


def quad_eval(p: LaurentPoly, x: Fraction) -> QuadFieldElem:
    """Evaluate a Laurent polynomial at the circle point with z + 1/z = x."""
    a = Fraction(0)
    b = Fraction(0)
    powers = {0: (Fraction(1), Fraction(0)), 1: (Fraction(0), Fraction(1))}

    def power(k):
        if k not in powers:
            if k > 0:
                u, v = power(k - 1)
                powers[k] = (-v, u + x * v)  # z^k = z * z^(k-1)
            else:
                u, v = power(-k)
                powers[k] = (u + x * v, -v)  # z^-k = conjugate of z^k
        return powers[k]

    for e, c in p.items():
        u, v = power(e)
        a += c * u
        b += c * v
    return QuadFieldElem(a, b, x)


def _swap_sym(m, i, j):
    """Swap index i with j in the rows and the columns of m."""
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


def _quad_signature_nullity(A: list[list[LaurentPoly]], x: Fraction) -> tuple[int, int]:
    """(signature, nullity) of A(z) at rational x in (-2, 2), for a
    hermitian matrix A of Laurent polynomials, by exact hermitian
    congruence diagonalization over Q[z]/(z^2 - xz + 1).

    When every remaining diagonal entry vanishes but some off-diagonal
    w = m[i][j] does not, one of w + conj(w) and zw + conj(zw) is nonzero
    (both vanish only for w = 0 since x^2 < 4), so a row/column addition
    always manufactures a usable pivot.  Handles singular matrices: zero
    diagonal entries at the end count the corank.
    """
    n = len(A)
    m = [[quad_eval(A[i][j], x) for j in range(n)] for i in range(n)]
    one = QuadFieldElem(1, 0, x)
    zelt = QuadFieldElem(0, 1, x)
    pos = neg = zero = 0
    for k in range(n):
        if m[k][k].is_zero:
            piv = next((i for i in range(k + 1, n) if not m[i][i].is_zero), None)
            if piv is not None:
                _swap_sym(m, k, piv)
            else:
                pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                             if not m[i][j].is_zero), None)
                if pair is None:
                    zero += n - k
                    break
                i, j = pair
                w = m[i][j]
                c = one if not (w + w.conjugate()).is_zero else zelt
                cc = c.conjugate()
                for t in range(n):
                    m[i][t] = m[i][t] + c * m[j][t]
                for t in range(n):
                    m[t][i] = m[t][i] + cc * m[t][j]
                if i != k:
                    _swap_sym(m, k, i)
        pivot = m[k][k]
        inv = pivot.inverse()
        for i in range(k + 1, n):
            if not m[i][k].is_zero:
                f = m[i][k] * inv
                fc = f.conjugate()
                for t in range(n):
                    m[i][t] = m[i][t] - f * m[k][t]
                for t in range(n):
                    m[t][i] = m[t][i] - fc * m[t][k]
        val = pivot.real_value()
        if val > 0:
            pos += 1
        else:
            neg += 1
    return pos - neg, zero
