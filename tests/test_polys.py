"""The integer polynomial algebra against sympy: gcds by primitive
pseudo-remainder sequences, exact division in Z[x], and the half-degree
jump polynomials of torus knots."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import ring

from linkbound import LaurentPoly, alexander_from_seifert, seifert_matrix_from_braid, \
    torus_braid
from linkbound import polys
from linkbound.signature import _jump_structure

from isolation_reference import sign_at

ZX, _ = ring("x", ZZ)

int_polys = st.lists(st.integers(-9, 9), max_size=6).map(polys.trim)
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
rat_polys = st.lists(rationals, max_size=5).map(polys.trim)


def _to_ring(p, R):
    return R.from_list([R.domain.convert(c) for c in reversed(p)] or [R.domain.zero])


def _from_ring(f) -> list:
    return polys.trim(reversed(f.to_dense()))


def _primitive_positive(coeffs) -> list:
    """The primitive integer polynomial with positive leading coefficient
    and the roots of the rational `coeffs`."""
    coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in polys.trim(coeffs)]
    if not coeffs:
        return []
    m = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * m) for c in coeffs]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // g for c in ints]


@settings(max_examples=150, deadline=None)
@given(int_polys, int_polys, int_polys)
def test_gcd_of_integer_polynomials_matches_sympy(g, a, b):
    """A planted common factor g: gcd(g a, g b) is sympy's gcd over Z
    made primitive and positive-leading."""
    p, q = polys.mul(g, a), polys.mul(g, b)
    expected = _primitive_positive(_from_ring(_to_ring(p, ZX).gcd(_to_ring(q, ZX))))
    assert polys.gcd_poly(p, q) == expected
    assert polys.gcd_poly(q, p) == expected
    if p:
        assert polys.div_exact(polys.primitive(p), expected)  # the gcd divides p


@settings(max_examples=150, deadline=None)
@given(rat_polys, rat_polys, rat_polys)
def test_gcd_refuses_rational_polynomials(g, a, b):
    """The polynomial algebra is integer only: a gcd of polynomials with
    Fraction coefficients raises TypeError, where it used to clear their
    denominators."""
    p, q = polys.mul(g, a), polys.mul(g, b)
    if p or q:
        with pytest.raises(TypeError, match="polynomial coefficients must be integers"):
            polys.gcd_poly(p, q)


@settings(max_examples=150, deadline=None)
@given(int_polys, int_polys.filter(bool), int_polys)
def test_div_exact_matches_sympy_exquo(p, q, r):
    """div_exact is exact division in Z[x]: sympy's exquo over Z, and
    ValueError where exquo fails.  A planted product always divides."""
    assert polys.div_exact(polys.mul(q, r), q) == r
    try:
        expected = _from_ring(_to_ring(p, ZX).exquo(_to_ring(q, ZX)))
    except ExactQuotientFailed:
        with pytest.raises(ValueError):
            polys.div_exact(p, q)
    else:
        assert polys.div_exact(p, q) == expected


def test_div_exact_is_integral():
    """2x is not a multiple of 4x in Z[x], though it is over Q."""
    assert polys.div_exact([0, 4], [0, 2]) == [2]
    with pytest.raises(ValueError):
        polys.div_exact([0, 2], [0, 4])
    with pytest.raises(ValueError):
        polys.div_exact([1, 0, 1], [1, 1])  # remainder 2
    with pytest.raises(ZeroDivisionError):
        polys.div_exact([1], [])


@pytest.mark.parametrize("q", [9, 19, 25])
def test_torus_knot_jump_polynomial_has_half_degree(q):
    """The jump polynomial of T(2,q) is the x-form of t^-(q-1)/2 Delta(t):
    degree (q - 1)/2, and no factor 2 - x left from (1 - t)^(q-1)."""
    data = seifert_matrix_from_braid(torus_braid(2, q))
    jump, rank, _, _ = _jump_structure(data)
    half = (q - 1) // 2
    assert rank == q - 1 and polys.degree(jump) == half
    assert sign_at(list(jump), 2) != 0
    x = LaurentPoly({1: 1, -1: 1})
    jump_t = sum((x ** i * c for i, c in enumerate(jump)), LaurentPoly.zero())
    assert jump_t == alexander_from_seifert(data) * LaurentPoly({-half: 1})
