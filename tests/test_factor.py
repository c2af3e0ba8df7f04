import math
import random
import time
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from linkbound import BraidWord, LaurentPoly, SeifertData, ZeroPolynomialError, \
    alexander_from_seifert, assemble_report, connected_sum, factor_integer_polynomial, \
    fox_milnor_test, seifert_matrix_from_braid, signature_function, torus_braid
from linkbound import factor, polys
from linkbound.factor import _interpolate_integer

import burau_reference
import factor_reference
from laurent_reference import laurent_value

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
    _, dense = PHI15.normalize().to_dense()
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
    """Seeded random polynomials of degree <= 8, and seeded products
    c x^k f g^m with k <= 3 and m <= 3, where Yun's decomposition yields x
    with its multiplicity, alone or beside the other factors of that
    multiplicity, and the rational-root split takes it off as the root 0."""
    rng = random.Random(99)
    inputs = []
    while len(inputs) < 30:
        deg = rng.randint(1, 8)
        p = polys.trim([rng.randint(-6, 6) for _ in range(deg + 1)])
        if polys.degree(p) >= 1:
            inputs.append(p)
    rng = random.Random(28)
    while len(inputs) < 70:
        f, g = ([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] for _ in range(2))
        p = [0] * rng.randint(0, 3) + [rng.choice([1, -1, 2, -6])]
        for q in [f] + [g] * rng.randint(1, 3):
            p = polys.mul(p, q)
        if polys.degree(p) >= 1:
            inputs.append(p)
    for p in inputs:
        c, got = factor_integer_polynomial(p)
        sc, want = _sympy_factorization(p)
        assert c == sc
        assert dict(got) == want


def test_kronecker_takes_each_points_divisors_once(monkeypatch):
    """One Kronecker search takes the divisors of p at each of its n // 2 + 4
    points once, for all its degrees, and each try of the rational-root
    split takes those of the leading and the constant term once."""
    calls = []
    divisors = factor._divisors

    def counted(n):
        calls.append(n)
        return divisors(n)

    monkeypatch.setattr(factor, "_divisors", counted)
    _, dense = PHI15.normalize().to_dense()  # irreducible: every degree is searched
    assert factor._kronecker_factor(dense) is None
    points = [0, 1, -1, 2, -2, 3, -3, 4]
    assert calls == [polys.scaled_value(dense, x) for x in points]
    calls.clear()
    # (2x - 1)(3x + 1)(x^2 + 1): each root is found at a denominator > 1
    rest, linear = factor._rational_root_split(polys.mul(polys.mul([-1, 2], [1, 3]), [1, 0, 1]))
    assert rest == [1, 0, 1] and len(linear) == 2
    # each try: the two end coefficients; the quadratic rest x^2 + 1 is
    # read off its discriminant, with no try
    assert len(calls) == 2 * len(linear)
    calls.clear()
    # (2x - 1)(3x + 1)(x^3 - 2): a cubic rest takes its try
    rest, linear = factor._rational_root_split(polys.mul(polys.mul([-1, 2], [1, 3]), [-2, 0, 0, 1]))
    assert rest == [-2, 0, 0, 1] and len(linear) == 2
    assert len(calls) == 2 * (len(linear) + 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=1, max_size=7, unique=True), st.data())
def test_newton_interpolation_matches_sympy(xs, data):
    """Newton divided differences in integers against sympy's rational
    interpolant: None exactly when some coefficient is not an integer.
    Half the draws take their values from an integer polynomial."""
    if data.draw(st.booleans()):
        g = data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=len(xs)))
        ys = [polys.scaled_value(g, x) for x in xs]
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
    prod = f * f.involution()
    assert prod.normalize() == COMPANION


def test_fox_milnor_fails_on_satellite_product():
    res = fox_milnor_test(PHI15 * COMPANION)
    assert res.verdict == "fails"


def test_fox_milnor_value_at_one_guard():
    res = fox_milnor_test(LaurentPoly({1: 1, 0: 1}))  # p(1) = 2
    assert res.verdict == "fails"


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), min_size=1))
def test_fox_milnor_reads_p_at_one_and_minus_one_in_integers(coeffs):
    """The guards read p(1) and p(-1) as integer sums of the coefficients
    (LaurentPoly has no evaluate), and give the verdicts and reasons of
    the exact values."""
    p = LaurentPoly(coeffs)
    if p.is_zero:
        return
    at_one, at_minus_one = abs(laurent_value(p, 1)), abs(laurent_value(p.normalize(), -1))
    assert not hasattr(LaurentPoly, "evaluate")
    res = fox_milnor_test(p)
    if at_one != 1:
        assert res.verdict == "fails" and res.reason == f"|p(1)| = {at_one} != 1"
    elif p.normalize().width() % 2 == 0 and math.isqrt(at_minus_one) ** 2 != at_minus_one:
        assert res.reason == f"|p(-1)| = {at_minus_one} is not a perfect square"


def test_fox_milnor_odd_width_fails_fast():
    p = LaurentPoly({1: 2, 0: -1})  # 2t - 1: p(1) = 1 but width 1
    assert fox_milnor_test(p).verdict == "fails"


def _assert_witness(res, p):
    """res passes p with a witness w: normalize(w(t) w(1/t)) = normalize(p)."""
    assert res.verdict == "passes", res.reason
    w = res.witness
    assert (w * w.involution()).normalize() == p.normalize()


def test_fox_milnor_degree_cap():
    """The cap of 12 bounds the degree of the odd part of Yun's
    decomposition, not the width: f f* for an irreducible f of degree 7
    with f(1) = -1 is square-free, so its odd part has degree 14 and the
    verdict is inconclusive, naming 14; Phi_15^2 has width 16 and an odd
    part of degree 0, and passes with witness Phi_15, where a cap on the
    width left it inconclusive."""
    f = LaurentPoly({7: 1, 1: -1, 0: -1})  # t^7 - t - 1
    res = fox_milnor_test(f * f.involution())
    assert (res.verdict, res.reason) == ("inconclusive", "degree 14 exceeds cap 12")
    square = PHI15 * PHI15
    res = fox_milnor_test(square)
    assert square.width() == 16
    _assert_witness(res, square)
    assert res.witness == PHI15


def test_fox_milnor_refuses_a_polynomial_that_is_not_symmetric():
    """+-t^k f(t) f(1/t) is symmetric, so a p that passes the three
    checks on its values but is not symmetric fails with its own reason,
    before any factoring, whatever its width."""
    for p in (LaurentPoly({0: 2, 1: -4, 2: 3}),  # 2 - 4t + 3t^2: |p(1)| = 1, |p(-1)| = 9
              LaurentPoly({0: 2, 1: -4, 2: 3}) ** 9):
        res = fox_milnor_test(p)
        assert (res.verdict, res.reason) == (
            "fails", "not symmetric: p(1/t) is not p(t) up to units")


def test_fox_milnor_passes_t361_sum_mirror():
    """T(3,61) # -T(3,61), the closure of (s1 s2)^61 (s3^-1 s4^-1)^61 on
    five strands: its Burau Delta is Delta_{T(3,61)}^2 up to units, of
    width 240, and Fox-Milnor passes it with a valid witness within 10 ms
    (least of three calls), where a cap on the width of 12 to 18 left it
    inconclusive."""
    dense = burau_reference.burau_alexander(BraidWord(5, (1, 2) * 61 + (-3, -4) * 61))
    delta = LaurentPoly.from_dense(list(dense))
    knot = alexander_from_seifert(seifert_matrix_from_braid(torus_braid(3, 61)))
    assert delta.normalize() == (knot * knot).normalize() and delta.width() == 240
    times = []
    for _ in range(3):
        start = time.perf_counter()
        res = fox_milnor_test(delta)
        times.append(time.perf_counter() - start)
        _assert_witness(res, delta)
    assert min(times) < 0.01, times


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
        v = laurent_value(p, 1)
        p = p + LaurentPoly({0: 1 - v})
        assert abs(laurent_value(p, 1)) == 1
        res = fox_milnor_test((p * p.involution()).normalize())
        assert res.verdict == "passes", res.reason
        w = res.witness
        assert (w * w.involution()).normalize() == (p * p.involution()).normalize()


# Irreducible factors for the products below: linear ones with rational
# roots, quadratics and a cubic without, and the cyclotomic Phi_m for
# m = 2, 3, 4, 5, 6, 8, 10, 12.  Many have |f(1)| = 1, so their products
# reach the pairing; f and its reciprocal make a pair.
IRREDUCIBLE = [(-1, 2), (2, -1), (2, 3), (1, -1, -1), (1, -3, 1), (1, -2, 2), (2, 1, 1),
               (-1, -1, 0, 1), (1, 1), (1, 1, 1), (1, 0, 1), (1, 1, 1, 1, 1), (1, -1, 1),
               (1, 0, 0, 0, 1), (1, -1, 1, -1, 1), (1, 0, -1, 0, 1)]


@st.composite
def factored_products(draw):
    """(c t^k prod f^m, with each f drawn from IRREDUCIBLE, optionally
    with its reciprocal to the same power, k): degree at most 12, a unit or
    a small content, and a power of t."""
    p = [draw(st.sampled_from([1, -1, 1, 2, -3]))]
    for _ in range(draw(st.integers(0, 4))):
        f, mult = list(draw(st.sampled_from(IRREDUCIBLE))), draw(st.integers(1, 3))
        for g in [f, f[::-1]] if draw(st.booleans()) else [f]:
            for _ in range(mult):
                p = polys.mul(p, g)
    assume(polys.degree(p) <= 12)
    return p, draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(factored_products())
@example(([1], 0))
@example((polys.mul([2, -5, 2], [1, -1, 1]), 0))  # (2t - 1)(t - 2) Phi_6: odd power
@example((polys.mul(polys.mul([2, -5, 2], [1, -1, 1]), [1, -1, 1]), 1))  # passes
@example((polys.mul(polys.mul([2, -1], [2, -1]), [-1, 2]), 0))  # a pair of powers 2 and 1
@example((polys.mul(polys.mul([1, -1, -1], [-1, -1, 1]), [1, 0, -1, 0, 1]), 2))
def test_one_factorization_pass_matches_the_merge(case):
    """factor_integer_polynomial, which factors each Yun factor in one
    loop, gives the factor list of the merge it replaced, and
    fox_milnor_test, which factors only the odd part of Yun's
    decomposition, gives the verdict of the consumed-factor walk
    (tests/factor_reference.py) wherever that decides, and its reason
    too where p is symmetric; a passing witness w has
    normalize(w(t) w(1/t)) = normalize(p)."""
    p, shift = case
    assert factor_integer_polynomial(p) == factor_reference.factor_integer_polynomial(p)
    delta = LaurentPoly.from_dense(p, shift)
    got, want = fox_milnor_test(delta), factor_reference.fox_milnor_test(delta)
    if want.verdict != "inconclusive":
        assert got.verdict == want.verdict
        if delta.involution().normalize() == delta.normalize():
            assert got.reason == want.reason
    if got.passes:
        _assert_witness(got, delta)


def _unit_at_one(coeffs) -> LaurentPoly:
    """The polynomial with coefficients coeffs of t, t^2, ..., and the
    constant term that makes its value at 1 equal 1."""
    return LaurentPoly(dict(enumerate([1 - sum(coeffs)] + coeffs)))


def _palindrome(a: int, b: int) -> LaurentPoly:
    """a t^4 + b t^3 + c t^2 + b t + a with c = 1 - 2a - 2b: self-reciprocal,
    1 at t = 1 and 1 - 4b at t = -1, a square for b = 0 and b = -2."""
    return LaurentPoly({0: a, 1: b, 2: 1 - 2 * a - 2 * b, 3: b, 4: a})


@st.composite
def norm_products(draw):
    """f f* g^2 h with f(1) = g(1) = h(1) = 1: f of degree 1-3 and not
    self-reciprocal, g random of degree 0-2 or self-reciprocal of degree
    at most 4, and h 1 or self-reciprocal of degree at most 4 (Phi_12,
    t^4 - t^2 + 1, among them); the width is at most 18."""
    small = st.integers(-3, 3)
    f = _unit_at_one(draw(st.lists(small, min_size=1, max_size=3)))
    assume(f.involution().normalize() != f.normalize())
    if draw(st.booleans()):
        g = _unit_at_one(draw(st.lists(small, max_size=2)))
    else:
        g = _palindrome(draw(small), draw(small))
    h = LaurentPoly.one()
    if draw(st.booleans()):
        h = _palindrome(draw(small), draw(st.sampled_from([0, -2])))
    return f * f.involution() * g * g * h


@settings(max_examples=150, deadline=None)
@given(norm_products())
@example(LaurentPoly({0: 1, 1: -1, 2: 1}) ** 3)  # Phi_6^3: |p(-1)| = 27
@example(LaurentPoly({0: 2, 1: -5, 2: 2}) ** 2 * LaurentPoly({0: 1, 2: -1, 4: 1}))  # Phi_12
@example(LaurentPoly({0: 2, 1: -5, 2: 2}) * LaurentPoly({0: -1, 2: 3, 4: -1}))  # passes
def test_fox_milnor_matches_the_uncapped_reference_on_norm_products(p):
    """The verdict on f f* g^2 h equals the verdict of
    tests/factor_reference.py, which factors p whole, at its largest cap,
    18, where it always decides; every passing witness is valid."""
    got = fox_milnor_test(p)
    want = factor_reference.fox_milnor_test(p, factor_reference.MAX_DEGREE_CAP)
    assert want.verdict != "inconclusive"
    assert got.verdict == want.verdict, (p, got, want)
    if got.passes:
        _assert_witness(got, p)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6)), max_size=3),
       st.lists(st.integers(-9, 9), min_size=1, max_size=4))
@example([(1, 2), (1, 2)], [1])  # (2x - 1)^2: a double root
@example([(4, 6), (-3, 2)], [3])  # roots 2/3 and -3/2, content 3
@example([], [2, 0, 1])  # x^2 + 2: no real root
@example([], [-2, 0, 1])  # x^2 - 2: irrational roots
def test_the_quadratic_rule_splits_as_the_divisor_search(roots, cofactor):
    """Reading the rational roots of a quadratic off its discriminant
    finds the factors of the divisor search it replaced
    (tests/factor_reference.py), in the same order, on products of
    linear factors den x - s and an integer cofactor."""
    p = polys.primitive(reduce(polys.mul, [[-s, den] for s, den in roots] + [cofactor], [1]))
    assume(polys.degree(p) >= 1)
    assert factor._rational_root_split(p) == factor_reference.rational_root_split(p)


@pytest.mark.parametrize("a", [10 ** 4, 10 ** 6, 10 ** 9, 10 ** 40])
def test_a_quadratic_jump_polynomial_takes_no_divisors(monkeypatch, a):
    """The jump polynomial of the block sum of [[a, 1], [0, a]] with itself
    is the square of the linear one below, with constant term about 4a^4:
    the rational-root split reads its root 2 - 1/a^2 off the
    discriminant instead of trial-dividing, which took over 30 s at
    a = 10^4, so a report takes no divisor."""
    calls = []
    monkeypatch.setattr(factor, "_divisors", lambda n: calls.append(n))
    knot = SeifertData.from_matrix([[a, 1], [0, a]])
    start = time.perf_counter()
    data = connected_sum(knot, knot)
    report = assemble_report(data)
    assert time.perf_counter() - start < 0.1
    assert not calls
    assert signature_function(data).breakpoints == (Fraction(2 * a * a - 1, a * a),)
    assert report.lower == 2


@pytest.mark.parametrize("a", [10 ** 7, 10 ** 40])
def test_a_linear_jump_polynomial_takes_no_divisors(monkeypatch, a):
    """The jump polynomial of V = [[a, 1], [0, a]] is linear in x, with
    root 2 - 1/a^2: the rational-root split reads it off the polynomial
    instead of trial-dividing 2a^2 - 1, which took 2.8 s at a = 10^7, so a
    report takes no divisor and under 0.1 s."""
    calls = []
    monkeypatch.setattr(factor, "_divisors", lambda n: calls.append(n))
    start = time.perf_counter()
    data = SeifertData.from_matrix([[a, 1], [0, a]])
    report = assemble_report(data)
    assert time.perf_counter() - start < 0.1
    assert not calls
    assert signature_function(data).breakpoints == (Fraction(2 * a * a - 1, a * a),)
    assert (report.lower, report.upper, report.slice_verdict) == (1, 1, "obstructed")
