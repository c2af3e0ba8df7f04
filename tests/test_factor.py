import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from linkbound import LaurentPoly, ZeroPolynomialError, \
    factor_integer_polynomial, fox_milnor_test, involution, normalize
from linkbound import polys
from linkbound.factor import _interpolate_integer

PHI15 = LaurentPoly({8: 1, 7: -1, 5: 1, 4: -1, 3: 1, 1: -1, 0: 1})
COMPANION = LaurentPoly({2: 2, 1: -5, 0: 2})


def test_factor_simple():
    c, factors = factor_integer_polynomial([-1, 0, 1])  # x^2 - 1
    assert c == 1
    assert factors == [((-1, 1), 1), ((1, 1), 1)]


def test_factor_content_and_multiplicity():
    # 6 (x - 1)^2 (x + 2)
    p = [6 * c for c in polys.mul(polys.mul([-1, 1], [-1, 1]), [2, 1])]
    c, factors = factor_integer_polynomial(p)
    assert c == 6
    assert dict(factors) == {(-1, 1): 2, (2, 1): 1}


def test_factor_irreducible_cyclotomic():
    _, dense = normalize(PHI15).to_dense()
    c, factors = factor_integer_polynomial(dense)
    assert c == 1
    assert factors == [(tuple(dense), 1)]


def test_factor_with_x_power():
    c, factors = factor_integer_polynomial([0, 0, 2, 2])  # 2 x^2 (x + 1)
    assert c == 2
    assert dict(factors) == {(0, 1): 2, (1, 1): 1}


def test_factor_zero_rejected():
    with pytest.raises(ZeroPolynomialError):
        factor_integer_polynomial([])


def _sympy_factorization(p):
    x = sympy.symbols("x")
    expr = sum(c * x ** i for i, c in enumerate(p))
    content, factors = sympy.factor_list(sympy.Poly(expr, x))
    out = {}
    for f, mult in factors:
        coeffs = tuple(int(v) for v in reversed(sympy.Poly(f, x).all_coeffs()))
        out[coeffs] = out.get(coeffs, 0) + mult
    return int(content), out


def test_factorization_matches_sympy_on_random_inputs():
    rng = random.Random(99)
    done = 0
    while done < 30:
        deg = rng.randint(1, 8)
        p = polys.trim([rng.randint(-6, 6) for _ in range(deg + 1)])
        if polys.degree(p) < 1:
            continue
        done += 1
        c, got = factor_integer_polynomial(p)
        sc, want = _sympy_factorization(p)
        assert c == sc
        assert dict(got) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=1, max_size=7, unique=True), st.data())
def test_newton_interpolation_matches_sympy(xs, data):
    """Newton divided differences in integers against sympy's rational
    interpolant: None exactly when some coefficient is not an integer.
    Half the draws take their values from an integer polynomial."""
    if data.draw(st.booleans()):
        g = data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=len(xs)))
        ys = [polys.evaluate(g, x) for x in xs]
    else:
        ys = data.draw(st.lists(st.integers(-30, 30), min_size=len(xs), max_size=len(xs)))
    t = sympy.Symbol("t")
    expected = sympy.Poly(sympy.interpolate(list(zip(xs, ys)), t), t).all_coeffs()[::-1]
    expected = polys.trim(expected)
    if all(c.is_integer for c in expected):
        assert _interpolate_integer(xs, ys) == [int(c) for c in expected]
    else:
        assert _interpolate_integer(xs, ys) is None


def test_fox_milnor_trivial():
    res = fox_milnor_test(LaurentPoly.one())
    assert res.passes and res.witness == LaurentPoly.one()


def test_fox_milnor_companion_witness():
    res = fox_milnor_test(COMPANION)
    assert res.verdict == "passes"
    assert res.witness == LaurentPoly({1: 1, 0: -2})  # t - 2
    # -t (t-2)(1/t - 2) is 2t^2 - 5t + 2
    f = res.witness
    prod = f * involution(f)
    assert normalize(prod) == COMPANION


def test_fox_milnor_fails_on_satellite_product():
    res = fox_milnor_test(PHI15 * COMPANION)
    assert res.verdict == "fails"


def test_fox_milnor_value_at_one_guard():
    res = fox_milnor_test(LaurentPoly({1: 1, 0: 1}))  # p(1) = 2
    assert res.verdict == "fails"


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), min_size=1))
def test_fox_milnor_reads_p_at_one_and_minus_one_in_integers(coeffs):
    """The guards read p(1) and p(-1) as integer sums of the coefficients,
    without LaurentPoly.evaluate, and give its verdicts and reasons."""
    p = LaurentPoly(coeffs)
    if p.is_zero:
        return
    at_one, at_minus_one = abs(p.evaluate(1)), abs(normalize(p).evaluate(-1))
    evaluate = LaurentPoly.evaluate
    LaurentPoly.evaluate = None
    try:
        res = fox_milnor_test(p)
    finally:
        LaurentPoly.evaluate = evaluate
    if at_one != 1:
        assert res.verdict == "fails" and res.reason == f"|p(1)| = {at_one} != 1"
    elif normalize(p).width() % 2 == 0 and math.isqrt(at_minus_one) ** 2 != at_minus_one:
        assert res.reason == f"|p(-1)| = {at_minus_one} is not a perfect square"


def test_fox_milnor_odd_width_fails_fast():
    p = LaurentPoly({1: 2, 0: -1})  # 2t - 1: p(1) = 1 but width 1
    assert fox_milnor_test(p).verdict == "fails"


def test_fox_milnor_degree_cap():
    res = fox_milnor_test(PHI15 * COMPANION, degree_cap=6)
    assert res.verdict == "inconclusive"


def test_fox_milnor_zero_rejected():
    with pytest.raises(ZeroPolynomialError):
        fox_milnor_test(LaurentPoly.zero())


def test_fox_milnor_norms_always_pass():
    rng = random.Random(5)
    for _ in range(50):
        coeffs = {e: rng.randint(-3, 3) for e in range(rng.randint(1, 4) + 1)}
        p = LaurentPoly(coeffs)
        if p.is_zero:
            p = LaurentPoly({0: 1})
        # arrange p(1) = +-1
        v = p.evaluate(1)
        p = p + LaurentPoly({0: 1 - v})
        assert abs(p.evaluate(1)) == 1
        res = fox_milnor_test(normalize(p * involution(p)))
        assert res.verdict == "passes", res.reason
        w = res.witness
        assert normalize(w * involution(w)) == normalize(p * involution(p))
