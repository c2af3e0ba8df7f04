import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkbound import (LaurentPoly, ZeroPolynomialError, format_laurent,
                       involution, laurent_from_json, laurent_to_json,
                       normalize, units_equal, width)

TREFOIL = LaurentPoly({2: 1, 1: -1, 0: 1})
T35 = LaurentPoly({8: 1, 7: -1, 5: 1, 4: -1, 3: 1, 1: -1, 0: 1})
COMPANION = LaurentPoly({2: 2, 1: -5, 0: 2})


def laurent_strategy(max_deg=8, max_coeff=9):
    return st.dictionaries(st.integers(-max_deg, max_deg),
                           st.integers(-max_coeff, max_coeff),
                           max_size=7).map(LaurentPoly)


nonzero_laurent = laurent_strategy().filter(lambda p: not p.is_zero)


def test_normalize_unit_multiple():
    p = LaurentPoly({-1: -1}) * TREFOIL  # -t^-1 (t^2 - t + 1)
    assert normalize(p) == TREFOIL


def test_normalize_shifts_to_zero():
    assert normalize(LaurentPoly({3: 2, 2: -5, 1: 2})) == COMPANION


def test_normalize_idempotent_on_normal_form():
    assert normalize(T35) == T35
    assert normalize(normalize(COMPANION)) == normalize(COMPANION)


def test_normalize_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        normalize(LaurentPoly.zero())


def test_width_examples():
    assert width(LaurentPoly.one()) == 0
    assert width(TREFOIL) == 2
    assert width(T35 * COMPANION) == 10


def test_width_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        width(LaurentPoly.zero())


def test_involution_examples():
    assert involution(LaurentPoly.t()) == LaurentPoly({-1: 1})
    assert involution(TREFOIL) == LaurentPoly({-2: 1, -1: -1, 0: 1})
    # the trefoil Alexander polynomial is symmetric up to units
    assert normalize(involution(TREFOIL)) == TREFOIL


@settings(max_examples=200, deadline=None)
@given(laurent_strategy(), laurent_strategy())
def test_involution_is_ring_homomorphism(p, q):
    assert involution(p * q) == involution(p) * involution(q)
    assert involution(p + q) == involution(p) + involution(q)
    assert involution(involution(p)) == p


@settings(max_examples=100, deadline=None)
@given(nonzero_laurent, nonzero_laurent)
def test_width_additive_under_product(p, q):
    assert width(p * q) == width(p) + width(q)


@settings(max_examples=100, deadline=None)
@given(nonzero_laurent, st.integers(-5, 5), st.booleans())
def test_normalize_kills_units(p, k, flip):
    unit = LaurentPoly({k: -1 if flip else 1})
    assert normalize(p * unit) == normalize(p)
    assert units_equal(p * unit, p)


def test_arithmetic_basics():
    t = LaurentPoly.t()
    assert (t + 1) * (t - 1) == LaurentPoly({2: 1, 0: -1})
    assert (t - 1) ** 3 == LaurentPoly({3: 1, 2: -3, 1: 3, 0: -1})
    assert TREFOIL.evaluate(1) == 1
    assert TREFOIL.evaluate(-1) == 3
    assert COMPANION.evaluate(Fraction(1, 2)) == 0


def test_json_round_trip():
    obj = laurent_to_json(COMPANION)
    assert obj == {"0": 2, "1": -5, "2": 2}
    assert laurent_from_json(obj) == COMPANION
    dense = {"coefficients": [2, -5, 2], "min_exponent": -1}
    assert laurent_from_json(dense) == LaurentPoly({-1: 2, 0: -5, 1: 2})


def test_json_fraction_coefficients():
    p = LaurentPoly({0: Fraction(1, 2), 3: 2})
    assert laurent_to_json(p) == {"0": "1/2", "3": 2}
    assert laurent_from_json(laurent_to_json(p)) == p


@pytest.mark.parametrize("obj", [
    {"coefficients": [1, -1, 1], "min_exponent": 1.5},
    {"coefficients": [1, -1, 1], "min_exponent": 1.0},
    {"coefficients": [1, -1, 1], "min_exponent": True},
    {"coefficients": [1, -1, 1], "min_exponent": "1"},
    {"coefficients": [1, -1, 1], "min_exponent": None},
    {"coefficients": [1, True, 1]},
    {"1": True}, {"0": False}, {"0": 1.5},
    {"1_0": 1}, {" 2 ": 1}, {"+1": 1}, {"-0": 1}, {"\u0663": 1},
    {"0": "1e3"}, {"0": "1_000"}, {"0": " 1"}, {"0": "1.5"}, {"0": "+1"}, {"0": "1/-2"},
    {"0": "1/0"}, {"0": "-3/00"}, {"0": "\u0663"}], ids=repr)
def test_json_refuses_what_it_would_coerce(obj):
    """A min_exponent that is not a JSON int and a bool coefficient are
    refused, where they used to read as t^3 - t^2 + t or t.  So are an
    exponent key that is not an int as str() writes it ("1_0" read as
    t^10, " 2 " as t^2) and a string coefficient not of the form "p" or
    "p/q" in ASCII digits with q nonzero ("1e3" and "1_000" read as
    1000)."""
    with pytest.raises(ValueError):
        laurent_from_json(obj)


def test_json_keeps_integral_floats_and_fraction_strings():
    assert laurent_from_json({"coefficients": [1.0, -1, "1/2"], "min_exponent": -2}) == \
        LaurentPoly({-2: 1, -1: -1, 0: Fraction(1, 2)})
    assert laurent_from_json({"1": 2.0, "0": "3/4"}) == LaurentPoly({1: 2, 0: Fraction(3, 4)})
    assert laurent_from_json({"-2": "-6/04", "0": "7", "10": "-1"}) == \
        LaurentPoly({-2: Fraction(-3, 2), 0: 7, 10: -1})


def test_format():
    assert format_laurent(TREFOIL) == "t^2-t+1"
    assert format_laurent(COMPANION) == "2t^2-5t+2"
    assert format_laurent(LaurentPoly.zero()) == "0"
    assert format_laurent(LaurentPoly({-1: 1, 0: 3})) == "3+t^-1"
    assert format_laurent(LaurentPoly({1: -1})) == "-t"


def test_hash_consistency():
    assert hash(LaurentPoly({0: 2})) == hash(LaurentPoly({0: Fraction(2)}))
    assert LaurentPoly({0: 2}) == LaurentPoly({0: Fraction(4, 2)})


def test_random_symmetric_products(seed=0):
    rng = random.Random(seed)
    for _ in range(30):
        terms = {rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(4)}
        p = LaurentPoly(terms)
        if p.is_zero:
            continue
        sym = p * involution(p)
        assert sym == involution(sym)
