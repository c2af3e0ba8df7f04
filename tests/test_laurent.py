import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkbound import (LaurentPoly, ZeroPolynomialError, builtin_catalog, format_laurent,
                       laurent_from_json, laurent_to_json, units_equal)

from laurent_reference import laurent_value

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
    assert p.normalize() == TREFOIL


def test_normalize_shifts_to_zero():
    assert LaurentPoly({3: 2, 2: -5, 1: 2}).normalize() == COMPANION


def test_normalize_idempotent_on_normal_form():
    assert T35.normalize() == T35
    assert COMPANION.normalize().normalize() == COMPANION.normalize()


def test_normalize_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        LaurentPoly.zero().normalize()


def test_width_examples():
    assert LaurentPoly.one().width() == 0
    assert TREFOIL.width() == 2
    assert (T35 * COMPANION).width() == 10


def test_width_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        LaurentPoly.zero().width()


def test_involution_examples():
    assert LaurentPoly({1: 1}).involution() == LaurentPoly({-1: 1})
    assert TREFOIL.involution() == LaurentPoly({-2: 1, -1: -1, 0: 1})
    # the trefoil Alexander polynomial is symmetric up to units
    assert TREFOIL.involution().normalize() == TREFOIL


@settings(max_examples=200, deadline=None)
@given(laurent_strategy(), laurent_strategy())
def test_involution_is_ring_homomorphism(p, q):
    assert (p * q).involution() == p.involution() * q.involution()
    assert (p + q).involution() == p.involution() + q.involution()
    assert p.involution().involution() == p


@settings(max_examples=100, deadline=None)
@given(nonzero_laurent, nonzero_laurent)
def test_width_additive_under_product(p, q):
    assert (p * q).width() == p.width() + q.width()


@settings(max_examples=100, deadline=None)
@given(nonzero_laurent, st.integers(-5, 5), st.booleans())
def test_normalize_kills_units(p, k, flip):
    unit = LaurentPoly({k: -1 if flip else 1})
    assert (p * unit).normalize() == p.normalize()
    assert units_equal(p * unit, p)


def test_arithmetic_basics():
    t = LaurentPoly({1: 1})
    assert (t + 1) * (t + -1) == LaurentPoly({2: 1, 0: -1})
    assert (t + -1) ** 3 == LaurentPoly({3: 1, 2: -3, 1: 3, 0: -1})
    assert laurent_value(TREFOIL, 1) == 1
    assert laurent_value(TREFOIL, -1) == 3
    assert laurent_value(COMPANION, Fraction(1, 2)) == 0


def test_catalog_sum_alexander_is_the_product():
    """The catalog writes Delta of T(3,5) # companion out as a literal: it
    is Delta(T(3,5)) Delta(companion), multiplied here."""
    entry = {e.name: e for e in builtin_catalog()}["t35_sum_w2companion"]
    assert laurent_to_json(T35 * COMPANION) == entry.expected["alexander"]


def test_json_round_trip():
    obj = laurent_to_json(COMPANION)
    assert obj == {"0": 2, "1": -5, "2": 2}
    assert laurent_from_json(obj) == COMPANION
    dense = {"coefficients": [2, -5, 2], "min_exponent": -1}
    assert laurent_from_json(dense) == LaurentPoly({-1: 2, 0: -5, 1: 2})


def test_fraction_coefficients_are_refused():
    """A Fraction coefficient, and its "p/q" JSON form, are refused: an
    Alexander polynomial has integer coefficients."""
    with pytest.raises(TypeError):
        LaurentPoly({0: Fraction(1, 2), 3: 2})
    with pytest.raises(ValueError):
        laurent_from_json({"0": "1/2", "3": 2})


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(), st.fractions(), st.decimals(allow_nan=False), st.text(),
                 st.booleans()))
@example(Fraction(1, 2))
@example(0.5)
@example("1")
@example(1.5)
@example("2")
@example(True)
@example(Fraction(2))
@example(2.0)
def test_every_refused_type_raises_type_error(value):
    """A float, Fraction, Decimal, string or bool, integral or not, raises
    TypeError as a coefficient and as an exponent, through the
    constructor, from_dense and the arithmetic: {1.5: 1} used to read as
    t, {"2": 3} as 3t^2 and {0: 0.5} as 0.5."""
    for make in (lambda: LaurentPoly({0: value}), lambda: LaurentPoly({value: 1}),
                 lambda: LaurentPoly.from_dense([value]), lambda: LaurentPoly.from_dense([1], value),
                 lambda: TREFOIL * value, lambda: TREFOIL + value):
        with pytest.raises(TypeError):
            make()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
       st.dictionaries(st.integers(-100, 100), st.integers(-100, 100), max_size=6))
def test_numpy_integers_are_stored_as_int(kind, coeffs):
    p = LaurentPoly({kind(e): kind(v) for e, v in coeffs.items()})
    assert all(type(e) is int and type(v) is int for e, v in p.items())
    assert p == LaurentPoly(coeffs) and hash(p) == hash(LaurentPoly(coeffs))
    assert all(type(v) is int for _, v in (p * kind(3)).items())


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
    {"0": "1/0"}, {"0": "-3/00"}, {"0": "\u0663"}, {"0": "1/2"}, {"0": "7"},
    {"coefficients": "121"}, {"coefficients": {"3": 7, "5": 1}}, {"coefficients": 7},
    {"coefficients": [1, "1/2"]}, {1: 1}, {None: 1},
    {"coefficients": [1, -1, 1], "min_exponent": 0, "0": 5}], ids=repr)
def test_json_refuses_what_it_would_coerce(obj):
    """A min_exponent that is not a JSON int and a bool coefficient are
    refused, where they used to read as t^3 - t^2 + t or t.  So are an
    exponent key that is not an int as str() writes it ("1_0" read as
    t^10, " 2 " as t^2), any string coefficient ("1e3" and "1_000" read as
    1000, "1/2" as a Fraction) and coefficients that are not an array
    ("121" read as t^2 + 2t + 1, {"3": 7, "5": 1} as 5t + 3), and a key
    beside "coefficients" and "min_exponent" (a "0": 5 was dropped)."""
    with pytest.raises(ValueError):
        laurent_from_json(obj)


def test_json_keeps_integral_floats_and_refuses_fraction_strings():
    assert laurent_from_json({"coefficients": [1.0, -1, 1], "min_exponent": -2}) == \
        LaurentPoly({-2: 1, -1: -1, 0: 1})
    assert laurent_from_json({"1": 2.0, "0": 3}) == LaurentPoly({1: 2, 0: 3})
    assert all(type(v) is int for _, v in laurent_from_json({"1": 2.0, "0": -4.0}).items())
    for obj in ({"coefficients": [1.0, -1, "1/2"], "min_exponent": -2}, {"1": 2.0, "0": "3/4"},
                {"-2": "-6/04", "0": "7", "10": "-1"}):
        with pytest.raises(ValueError):
            laurent_from_json(obj)


def test_format():
    assert format_laurent(TREFOIL) == "t^2-t+1"
    assert format_laurent(COMPANION) == "2t^2-5t+2"
    assert format_laurent(LaurentPoly.zero()) == "0"
    assert format_laurent(LaurentPoly({-1: 1, 0: 3})) == "3+t^-1"
    assert format_laurent(LaurentPoly({1: -1})) == "-t"


def test_hash_consistency():
    assert hash(LaurentPoly({0: 2})) == hash(LaurentPoly({0: np.int64(2)}))
    assert LaurentPoly({0: 2}) == LaurentPoly([(0, 1), (0, 1)])
    for value in (Fraction(2), Fraction(4, 2)):
        with pytest.raises(TypeError):
            LaurentPoly({0: value})


def test_random_symmetric_products(seed=0):
    rng = random.Random(seed)
    for _ in range(30):
        terms = {rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(4)}
        p = LaurentPoly(terms)
        if p.is_zero:
            continue
        sym = p * p.involution()
        assert sym == sym.involution()
