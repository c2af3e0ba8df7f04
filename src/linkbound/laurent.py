"""Laurent polynomials with integer coefficients, the ring Z[t, 1/t] in
which Alexander polynomials live, with the involution t -> 1/t.

Coefficients are stored sparsely as {exponent: coefficient}.  Exponents
and coefficients follow the rule of Seifert matrix entries: an int or a
value with __index__ (a NumPy integer, say) is stored as an int, and a
float, Fraction, string or bool raises TypeError.  The canonical
representative modulo the units +-t^k (produced by
:meth:`LaurentPoly.normalize`) has minimum exponent 0 and positive
leading coefficient, so Alexander polynomials compare by plain equality.
"""

from __future__ import annotations

import reprlib

from .braids import _check_integer, _json_keys
from .errors import ZeroPolynomialError


class LaurentPoly:
    """Immutable sparse Laurent polynomial with int coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        c = {}
        for e, v in items:
            e = _check_integer(e, "Laurent exponents", TypeError)
            v = _check_integer(v, "Laurent coefficients", TypeError) + c.get(e, 0)
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
    def from_dense(cls, coeffs, min_exp: int = 0) -> "LaurentPoly":
        min_exp = _check_integer(min_exp, "Laurent exponents", TypeError)  # True + 0 is 1
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
        if type(other) is int:
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
    """v, or the constant v; TypeError for a v that is not an integer."""
    return v if isinstance(v, LaurentPoly) else LaurentPoly({0: v})


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


def _coeff_from_json(v) -> int:
    """A coefficient: an int or an integral float; a bool is refused, not
    read as 0 or 1, and so is a string, such as "1/2" or "3"."""
    if type(v) is int:
        return v
    if type(v) is float and v.is_integer():
        return int(v)
    raise ValueError(f"bad coefficient {reprlib.repr(v)}")


def laurent_to_json(p: LaurentPoly) -> dict:
    """{"exponent": coefficient} with string exponent keys."""
    return {str(e): v for e, v in p.items()}


def _exponent_from_json(key) -> int:
    """An exponent key: the decimal form of an int, as str() writes it;
    int() would also read "1_0" as 10 and " 2 " as 2.  Any other key, one
    that int() cannot read included, is a bad exponent key."""
    try:
        if type(key) is str and str(e := int(key)) == key:
            return e
    except ValueError:
        pass
    raise ValueError(f"bad exponent key {reprlib.repr(key)}")


def laurent_from_json(obj) -> LaurentPoly:
    """Accepts the {"exponent": coefficient} form or a coefficient array
    (a JSON array) with a "min_exponent" field, a JSON int (default 0), and
    no other key; ValueError for anything else."""
    if isinstance(obj, dict) and "coefficients" in obj:
        _json_keys(obj, ("coefficients", "min_exponent"), "Laurent polynomial")
        coeffs, low = obj["coefficients"], obj.get("min_exponent", 0)
        # a string or an object would iterate, and a number raise TypeError
        if type(coeffs) is not list:
            raise ValueError(f"coefficients must be an array, got {type(coeffs).__name__}")
        if type(low) is not int:  # nor a bool, a float or a string
            raise ValueError(f"min_exponent must be an integer, got {reprlib.repr(low)}")
        return LaurentPoly.from_dense([_coeff_from_json(v) for v in coeffs], low)
    if isinstance(obj, dict):
        return LaurentPoly({_exponent_from_json(k): _coeff_from_json(v) for k, v in obj.items()})
    raise ValueError("expected a Laurent polynomial object")
