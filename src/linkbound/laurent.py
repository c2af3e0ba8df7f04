"""Integer/rational Laurent polynomials in one variable t, with the ring
involution t -> 1/t.

Coefficients are stored sparsely as {exponent: coefficient}; exponents are
arbitrary integers.  The canonical representative modulo the units +-t^k
(produced by :func:`normalize`) has minimum exponent 0 and positive
leading coefficient, so Alexander polynomials compare by plain equality.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ZeroPolynomialError


def _clean(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class LaurentPoly:
    """Immutable sparse Laurent polynomial with int/Fraction coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        c = {}
        for e, v in items:
            e = int(e)
            v = _clean(v + c.get(e, 0))
            if v == 0:
                c.pop(e, None)
            else:
                c[e] = v
        object.__setattr__(self, "_c", c)

    # -- construction helpers -------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def t(cls, k: int = 1) -> "LaurentPoly":
        return cls({k: 1})

    @classmethod
    def from_dense(cls, coeffs, min_exp: int = 0) -> "LaurentPoly":
        return cls({min_exp + i: c for i, c in enumerate(coeffs)})

    # -- basic queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    def items(self):
        return sorted(self._c.items())

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ZeroPolynomialError("zero polynomial has no exponents")
        return min(self._c)

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ZeroPolynomialError("zero polynomial has no exponents")
        return max(self._c)

    def to_dense(self) -> tuple[int, list]:
        """(min_exp, coefficient list from min_exp upwards); ((0, []) for 0)."""
        if not self._c:
            return 0, []
        lo, hi = self.min_exp, self.max_exp
        return lo, [self._c.get(e, 0) for e in range(lo, hi + 1)]

    def is_integral(self) -> bool:
        return all(isinstance(v, int) for v in self._c.values())

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self._c)
        for e, v in other._c.items():
            out[e] = out.get(e, 0) + v
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        out = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + v1 * v2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of general Laurent polynomials")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: v for e, v in self._c.items()})

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x):
        """Exact evaluation at a nonzero rational (or int) point."""
        if any(e < 0 for e in self._c) and x == 0:
            raise ZeroDivisionError("evaluation at 0 with negative exponents")
        acc = Fraction(0)
        for e, v in self._c.items():
            acc += v * Fraction(x) ** e
        return _clean(acc)

    # -- the involution and unit normalization -----------------------------

    def involution(self) -> "LaurentPoly":
        """Apply t -> 1/t coefficient-wise."""
        return LaurentPoly({-e: v for e, v in self._c.items()})

    def normalize(self) -> "LaurentPoly":
        """Canonical representative modulo units +-t^k: minimum exponent 0
        and positive leading coefficient.  Undefined for 0."""
        if not self._c:
            raise ZeroPolynomialError("cannot normalize the zero polynomial")
        shifted = self.shifted(-self.min_exp)
        if shifted._c[shifted.max_exp] < 0:
            return -shifted
        return shifted

    def width(self) -> int:
        """max exponent - min exponent; invariant under units."""
        if not self._c:
            raise ZeroPolynomialError("zero polynomial has no width")
        return self.max_exp - self.min_exp

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        return f"LaurentPoly({format_laurent(self)!r})"

    def __str__(self):
        return format_laurent(self)


def _coerce(v) -> LaurentPoly:
    if isinstance(v, LaurentPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return LaurentPoly({0: v})
    raise TypeError(f"cannot coerce {type(v).__name__} to LaurentPoly")


# -- module-level operation names ---------------------------------------


def normalize(p: LaurentPoly) -> LaurentPoly:
    return p.normalize()


def width(p: LaurentPoly) -> int:
    return p.width()


def involution(p: LaurentPoly) -> LaurentPoly:
    return p.involution()


def units_equal(p: LaurentPoly, q: LaurentPoly) -> bool:
    """Equality up to multiplication by a unit +-t^k (0 only equals 0)."""
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    return p.normalize() == q.normalize()


# -- presentation and JSON interchange ------------------------------------


def format_laurent(p: LaurentPoly) -> str:
    """Compact human-readable form, highest exponent first: "t^2-t+1"."""
    if p.is_zero:
        return "0"
    parts = []
    for e, v in sorted(p._c.items(), reverse=True):
        sign = "-" if v < 0 else "+"
        mag = -v if v < 0 else v
        if e == 0:
            body = str(mag)
        else:
            tpow = "t" if e == 1 else f"t^{e}"
            body = tpow if mag == 1 else f"{mag}{tpow}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out


# a rational coefficient as a JSON string: "p" or "p/q", q nonzero, in
# ASCII digits
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _coeff_from_json(v):
    """A coefficient: an int, an integral float or a "p" or "p/q" string
    with q nonzero; a bool is refused, not read as 0 or 1, and so is a
    string that Fraction() would also read, such as "1e3" or "1_000"."""
    if isinstance(v, str):
        if not _RATIONAL.fullmatch(v):
            raise ValueError(f"bad coefficient {v!r}")
        return Fraction(v)
    if type(v) is int:
        return v
    if type(v) is float:
        if not v.is_integer():
            raise ValueError(f"non-integer float coefficient {v!r}")
        return int(v)
    raise ValueError(f"bad coefficient {v!r}")


def laurent_to_json(p: LaurentPoly) -> dict:
    """{"exponent": coefficient} with string exponent keys, each coefficient
    an int or a string "p/q"."""
    return {str(e): v if isinstance(v, int) else f"{v.numerator}/{v.denominator}"
            for e, v in p.items()}


def _exponent_from_json(key) -> int:
    """An exponent key: the decimal form of an int, as str() writes it;
    int() would also read "1_0" as 10 and " 2 " as 2."""
    e = int(key)
    if str(e) != key:
        raise ValueError(f"bad exponent key {key!r}")
    return e


def laurent_from_json(obj) -> LaurentPoly:
    """Accepts the {"exponent": coefficient} form or a coefficient array
    with a "min_exponent" field, a JSON int (default 0)."""
    if isinstance(obj, dict) and "coefficients" in obj:
        coeffs = [_coeff_from_json(v) for v in obj["coefficients"]]
        low = obj.get("min_exponent", 0)
        if type(low) is not int:  # nor a bool, a float or a string
            raise ValueError(f"min_exponent must be an integer, got {low!r}")
        return LaurentPoly.from_dense(coeffs, low)
    if isinstance(obj, dict):
        return LaurentPoly({_exponent_from_json(k): _coeff_from_json(v) for k, v in obj.items()})
    raise ValueError("expected a Laurent polynomial object")
