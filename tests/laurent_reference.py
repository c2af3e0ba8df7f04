"""The exact value of a Laurent polynomial at a rational point, as
LaurentPoly.evaluate gave it before the library dropped the method (no
library path evaluates an Alexander polynomial at a point), kept as a
value helper for the tests."""

from fractions import Fraction


def laurent_value(p, x):
    """p(x) at a rational x, nonzero where p has a negative exponent: an
    int where the value is integral, else a Fraction."""
    value = sum((v * Fraction(x) ** e for e, v in p.items()), Fraction(0))
    return int(value) if value.denominator == 1 else value
