import math
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from linkbound import RealAlgebraic, ZeroPolynomialError, isolate_real_roots, \
    seifert_matrix_from_braid, signature_function, torus_braid
from linkbound import polys, realroots
from linkbound.realroots import sturm_chain

from isolation_reference import (IsolatingInterval, count_roots, refine_isolating_interval, sign_at,
                                 squarefree_part)
from isolation_reference import isolate_real_roots as reference_isolation
from realalgebraic_reference import RealAlgebraic as ReferenceAlgebraic

X = sympy.Symbol("x")


def intervals(q, lo, hi) -> list[IsolatingInterval]:
    """The brackets (a, b, d, multiplicity) of isolate_real_roots as the
    intervals (a/d, b/d) of the reference."""
    return [IsolatingInterval(Fraction(a, d), Fraction(b, d), m)
            for a, b, d, m in isolate_real_roots(q, lo, hi)]


def test_single_linear_root():
    out = isolate_real_roots([-1, 1], Fraction(-2), Fraction(2))
    assert len(out) == 1
    a, b, d, multiplicity = out[0]
    assert a < d < b  # a/d < 1 < b/d
    assert multiplicity == 1


def test_boundary_roots_excluded():
    # x^2 - 4 has roots exactly at the open window's endpoints
    assert isolate_real_roots([-4, 0, 1], Fraction(-2), Fraction(2)) == []


def test_trefoil_derived_polynomial():
    # det(tV - V^T) for V = [[-1, 1], [0, -1]] is t^2 - t + 1, which is
    # x - 1 after the x = t + 1/t substitution: a single root at x = 1.
    out = intervals([-1, 1], Fraction(-2), Fraction(2))
    assert len(out) == 1 and out[0].lo < 1 < out[0].hi


def test_two_quadratic_factors():
    # (x^2 - 2)(x^2 - 3): four roots inside (-2, 2)
    p = polys.mul([-2, 0, 1], [-3, 0, 1])
    out = intervals(p, Fraction(-2), Fraction(2))
    assert len(out) == 4
    floats = sorted((iv.lo + iv.hi) / 2 for iv in out)
    expect = sorted([-(3 ** 0.5), -(2 ** 0.5), 2 ** 0.5, 3 ** 0.5])
    for mid, want in zip(floats, expect):
        assert abs(float(mid) - want) < max(float(iv.width) for iv in out) + 1e-9


def test_multiplicities_from_squarefree_decomposition():
    # (x - 1)^2 (x + 1)
    p = polys.mul(polys.mul([-1, 1], [-1, 1]), [1, 1])
    out = intervals(p, Fraction(-2), Fraction(2))
    mults = sorted((float(iv.midpoint), iv.multiplicity) for iv in out)
    assert len(out) == 2
    assert mults[0][1] == 1 and abs(mults[0][0] + 1) < 1
    assert mults[1][1] == 2 and abs(mults[1][0] - 1) < 1


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        isolate_real_roots([], Fraction(-2), Fraction(2))


def test_disjointness_and_containment():
    rng = random.Random(11)
    for _ in range(40):
        deg = rng.randint(1, 8)
        p = [rng.randint(-9, 9) for _ in range(deg + 1)]
        p = polys.trim(p)
        if polys.degree(p) < 1:
            continue
        out = intervals(p, Fraction(-5), Fraction(5))
        for a, b in zip(out, out[1:]):
            assert a.hi <= b.lo
        for iv in out:
            # exactly one distinct root inside, via the square-free part
            sq = squarefree_part(p)
            assert count_roots(sturm_chain(sq), iv.lo, iv.hi) == 1


def _float_root_count(p, lo, hi):
    """Distinct real roots of p in (lo, hi), via numpy eigenvalue roots."""
    roots = np.roots(list(reversed(p)))
    real = [r.real for r in roots if abs(r.imag) < 1e-7]
    real = [r for r in real if lo < r < hi]
    real.sort()
    distinct = []
    for r in real:
        if not distinct or abs(r - distinct[-1]) > 1e-6:
            distinct.append(r)
    return len(distinct)


def test_random_polynomials_match_float_count():
    rng = random.Random(2024)
    window = (Fraction(-8), Fraction(8))
    for _ in range(100):
        deg = rng.randint(1, 8)
        p = polys.trim([rng.randint(-9, 9) for _ in range(deg + 1)])
        if polys.degree(p) < 1:
            continue
        out = intervals(p, *window)
        assert len(out) == _float_root_count(p, float(window[0]), float(window[1]))
        for iv in out:
            if iv.multiplicity % 2 == 1:
                lo_val = polys.evaluate(p, iv.lo)
                hi_val = polys.evaluate(p, iv.hi)
                assert lo_val != 0 and hi_val != 0
                assert (lo_val > 0) != (hi_val > 0)


def test_real_algebraic_sqrt2():
    sqrt2 = RealAlgebraic([-2, 0, 1], 1, 2)
    assert sqrt2.sign_of([-2, 0, 1]) == 0
    assert sqrt2.sign_of([0, 1]) == 1            # x > 0
    assert sqrt2.sign_of([-3, 0, 1]) == -1       # x^2 - 3 < 0 at sqrt(2)
    assert sqrt2.compare_rational(Fraction(3, 2)) < 0
    assert sqrt2.compare_rational(Fraction(7, 5)) > 0
    assert abs(sqrt2.to_float() - 2 ** 0.5) < 1e-9


def test_vanishes_and_copy_leave_the_bracket_alone():
    """vanishes decides by a gcd and one Sturm count, without bisecting;
    a copy refines independently of its original."""
    root = RealAlgebraic([-2, 0, 1], 1, 2)
    assert root.vanishes([-2, 0, 1]) and root.vanishes([2, 0, -1, 0, 0])
    assert not root.vanishes([-3, 0, 1]) and not root.vanishes([0, 1])
    assert (root.lo, root.hi) == (1, 2)
    twin = root.copy()
    twin.refine(Fraction(1, 1000))
    assert (root.lo, root.hi) == (1, 2)
    assert twin.hi - twin.lo <= Fraction(1, 1000) and twin.equals(root)


def test_real_algebraic_equality():
    a = RealAlgebraic([-2, 0, 1], 1, 2)
    b = RealAlgebraic([-2, 0, 1], Fraction(5, 4), Fraction(3, 2))
    c = RealAlgebraic([-2, 0, 1], -2, 0)   # -sqrt(2)
    d = RealAlgebraic([-3, 0, 1], 1, 2)    # sqrt(3)
    assert a.equals(b)
    assert not a.equals(c)
    assert not a.equals(d)
    assert not a.equals(Fraction(7, 5))
    for other in (1.4, "7/5", None):  # neither rational nor algebraic
        with pytest.raises(TypeError):
            a.equals(other)


def test_real_algebraic_rejects_bad_data():
    with pytest.raises(ValueError):
        RealAlgebraic([1], 0, 1)              # constant
    with pytest.raises(ValueError, match="rational root"):
        RealAlgebraic([-1, 1], 0, 2)          # x - 1
    with pytest.raises(ValueError, match="rational root"):
        RealAlgebraic(polys.mul([-2, 0, 1], [1, 2]), 1, 2)  # sqrt(2), but -1/2 is a root
    with pytest.raises(ValueError):
        RealAlgebraic([-2, 0, 1], -2, 2)      # two roots inside
    with pytest.raises(ValueError):
        RealAlgebraic(polys.mul([-2, 0, 1], [-2, 0, 1]), 1, 2)  # not square-free


def test_isolating_interval_validation():
    """The reference's interval record refuses an empty interval and a
    multiplicity below 1."""
    with pytest.raises(ValueError):
        IsolatingInterval(Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        IsolatingInterval(Fraction(0), Fraction(1), 0)


def test_refine_isolating_interval():
    """The reference's refinement, which bisects with RealAlgebraic, on
    the reference's intervals."""
    # irrational root
    p = [-2, 0, 1]
    (iv,) = reference_isolation(p, Fraction(0), Fraction(2))
    tight = refine_isolating_interval(p, iv, Fraction(1, 10 ** 9))
    assert tight.width <= Fraction(1, 10 ** 9)
    assert tight.lo < Fraction(1414213563, 10 ** 9)
    assert tight.hi > Fraction(1414213562, 10 ** 9)
    assert tight.multiplicity == iv.multiplicity
    # rational root sitting exactly on bisection points
    q = polys.mul([-1, 1], [-1, 1])  # (x - 1)^2
    (iv2,) = reference_isolation(q, Fraction(-2), Fraction(2))
    tight2 = refine_isolating_interval(q, iv2, Fraction(1, 1000))
    assert tight2.lo < 1 < tight2.hi
    assert tight2.width <= Fraction(1, 1000)
    assert tight2.multiplicity == 2
    with pytest.raises(ValueError):
        refine_isolating_interval([1, 0, 1], iv2, Fraction(1, 4))  # no real roots


# -- integer arithmetic against the Fraction and sympy references ----------

int_polys = st.lists(st.integers(-20, 20), max_size=9).map(polys.trim)
rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 30))


def _fraction_horner(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


@settings(max_examples=300, deadline=None)
@given(int_polys, rationals)
def test_integer_horner_matches_fraction_horner(p, x):
    value = _fraction_horner(p, x)
    assert polys.evaluate(p, x) == value
    assert sign_at(p, x) == (value > 0) - (value < 0)
    mixed = [Fraction(c, 3) for c in p]
    assert polys.evaluate(mixed, x) == _fraction_horner(mixed, x)


@st.composite
def polys_with_rational_roots(draw):
    """Integer polynomials, some with repeated roots at small rationals."""
    p = draw(int_polys)
    for _ in range(draw(st.integers(0, 3))):
        p = polys.mul(p or [1], [-draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2]))])
    assume(polys.degree(p) >= 1)
    return p


@settings(max_examples=200, deadline=None)
@given(polys_with_rational_roots(), rationals, rationals)
def test_count_roots_matches_sympy(p, a, b):
    """The primitive integer Sturm chain counts the distinct roots in
    (a, b], at endpoints that are simple roots too."""
    assume(a < b)
    assume(not any(polys.evaluate(p, e) == polys.evaluate(polys.derivative(p), e) == 0
                   for e in (a, b)))
    expected = sympy.Poly(list(reversed(p)), X).count_roots(a, b)
    if polys.evaluate(p, a) == 0:
        expected -= 1
    chain = sturm_chain(p)
    assert all(all(isinstance(c, int) for c in q) for q in chain)
    assert count_roots(chain, a, b) == expected


square_free_factors = st.sampled_from([(-1, 1), (1, 1), (0, 1), (-1, 2), (1, 2), (-3, 2),
                                        (-2, 0, 1), (-3, 0, 1), (-1, -1, 1), (-1, 1, 1),
                                        (1, 0, 1), (-2, 0, 0, 1), (1, -3, 0, 1)])
window_ends = st.sampled_from([Fraction(k, 2) for k in range(-5, 6)]) | rationals


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(square_free_factors, st.integers(1, 3)), min_size=1, max_size=4,
                unique_by=lambda fm: fm[0]),
       window_ends, window_ends)
def test_isolation_contract_on_products(factors, lo, hi):
    """On a product q of powers of distinct square-free factors, in
    windows whose ends may be roots of a factor: the intervals are
    disjoint, each holds exactly one distinct root of q, no endpoint is
    a root of q, there is one interval per root of q strictly inside the
    window, and each carries the power of the factor that vanishes at
    its root."""
    assume(lo < hi)
    q = [1]
    for f, m in factors:
        for _ in range(m):
            q = polys.mul(q, f)
    sq = squarefree_part(q)
    chain = sturm_chain(sq)
    out = intervals(q, lo, hi)
    for a, b in zip(out, out[1:]):
        assert a.hi <= b.lo
    inside = sympy.Poly(list(reversed(sq)), X).count_roots(lo, hi)  # closed [lo, hi]
    inside -= (sign_at(sq, lo) == 0) + (sign_at(sq, hi) == 0)
    assert len(out) == inside
    for iv in out:
        assert lo <= iv.lo and iv.hi <= hi
        assert sign_at(q, iv.lo) != 0 and sign_at(q, iv.hi) != 0
        assert count_roots(chain, iv.lo, iv.hi) == 1
        (power,) = [m for f, m in factors if count_roots(sturm_chain(f), iv.lo, iv.hi) == 1]
        assert iv.multiplicity == power


polynomial_windows = st.tuples(
    st.lists(st.tuples(square_free_factors, st.integers(1, 3)), min_size=1, max_size=4,
             unique_by=lambda fm: fm[0]),
    window_ends, window_ends, st.lists(st.integers(-9, 9), max_size=8))


@settings(max_examples=300, deadline=None)
@given(polynomial_windows)
@example(([((-1, 1), 2), ((-1, 2), 1), ((-2, 0, 1), 1)], Fraction(-1), Fraction(1), []))
@example(([((0, 1), 1), ((-2, 0, 1), 1)], Fraction(-2), Fraction(2), []))  # a root at a midpoint
@example(([((-1, 1), 1), ((-3, 0, 1), 1)], Fraction(1), Fraction(2), []))  # a root at an end
@example(([((0, 1), 1), ((1, 0, 1), 3), ((-1, -1, 1), 2)], Fraction(-5, 2), Fraction(0), []))
def test_brackets_match_the_fraction_isolation(spec):
    """The integer brackets (a, b, d, multiplicity) are the intervals of
    the Fraction isolation they replaced (tests/isolation_reference.py)
    as rationals, multiplicities included, in the same order, and in
    lowest terms: on products of powers of several square-free factors
    with rational roots, in windows with rational ends that may be
    roots, and on random integer polynomials."""
    factors, lo, hi, extra = spec
    q = polys.trim(extra) if polys.degree(polys.trim(extra)) >= 1 else [1]
    for f, m in factors:
        for _ in range(m):
            q = polys.mul(q, f)
    new = isolate_real_roots(q, lo, hi)
    assert all(d > 0 and math.gcd(a, b, d) == 1 for a, b, d, _ in new)
    assert ([(Fraction(a, d), Fraction(b, d), m) for a, b, d, m in new]
            == [(iv.lo, iv.hi, iv.multiplicity) for iv in reference_isolation(q, lo, hi)])


def _roots(p):
    sq = squarefree_part(p)
    return [RealAlgebraic(sq, iv.lo, iv.hi) for iv in intervals(p, -20, 20)
            if not any(polys.evaluate(sq, r) == 0 for r in (iv.lo, iv.hi))]


def _common_factor(a, b):
    return sympy.gcd(sympy.Poly(list(reversed(a.poly)), X), sympy.Poly(list(reversed(b.poly)), X))


def _equal_by_sympy(a, b) -> bool:
    """The gcd path: gcd(a.poly, b.poly) has a root in both brackets."""
    g = _common_factor(a, b)
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    return g.degree() >= 1 and lo < hi and g.count_roots(lo, hi) == 1


irreducible_quadratics = st.sampled_from([(-2, 0, 1), (-3, 0, 1), (-1, -1, 1), (-5, 0, 1),
                                          (-1, 1, 1), (-7, 2, 1)])


@settings(max_examples=60, deadline=None)
@given(st.lists(irreducible_quadratics, min_size=1, max_size=3, unique=True),
       st.lists(irreducible_quadratics, min_size=1, max_size=3, unique=True),
       st.lists(st.integers(0, 40), min_size=8, max_size=8))
def test_equals_and_vanishes_match_gcd_path(fa, fb, widths):
    """Irrational roots of products of irreducible quadratics, at random
    bracket widths: equals agrees with the gcd reference, for equal and
    for different defining polynomials, and never depends on the widths;
    vanishes sees a common factor only where its root is in the bracket."""
    pa, pb = [1], [1]
    for f in fa:
        pa = polys.mul(pa, f)
    for f in fb:
        pb = polys.mul(pb, f)
    roots = [(r, w) for r, w in zip(_roots(pa) + _roots(pb), widths * 4)]
    for r, w in roots:
        r.refine(Fraction(1, 2 ** w))
    for a, _ in roots:
        for b, _ in roots:
            g = _common_factor(a, b)
            assert a.vanishes(b.poly) == (g.degree() >= 1 and g.count_roots(a.lo, a.hi) == 1)
            expected = _equal_by_sympy(a, b)
            assert a.copy().equals(b.copy()) == expected
            assert a.equals(b) == expected


@settings(max_examples=150, deadline=None)
@given(irreducible_quadratics, st.integers(0, 1), rationals, st.integers(0, 30))
def test_compare_rational_matches_sign_of(poly, which, c, width):
    """compare_rational (refine away from c, read the bracket) against
    the sign of x - c at the root decided by sign_of."""
    root = _roots(poly)[which]
    root.refine(Fraction(1, 2 ** width))
    expected = root.copy().sign_of([-c, 1])
    assert root.compare_rational(c) == expected != 0
    assert (root.to_float() > c) == (expected > 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(irreducible_quadratics, min_size=1, max_size=3, unique=True),
       st.lists(irreducible_quadratics, min_size=1, max_size=3, unique=True),
       st.integers(0, 40))
def test_vanishes_same_from_warm_and_cold_gcd_cache(fa, fb, width):
    """The cached gcd does not depend on the bracket: after the bracket is
    refined, vanishes answers from the warm cache as from a cold one and
    as before the refinement."""
    pa, pb = [1], [1]
    for f in fa:
        pa = polys.mul(pa, f)
    for f in fb:
        pb = polys.mul(pb, f)
    qs = [pa, pb, polys.mul(pb, [1, 1])] + [list(f) for f in fa + fb]
    for root in _roots(pa):
        realroots._gcd.cache_clear()
        before = [root.vanishes(q) for q in qs]
        root.refine(Fraction(1, 2 ** width))
        hits = realroots._gcd.cache_info().hits
        warm = [root.vanishes(q) for q in qs]
        assert realroots._gcd.cache_info().hits == hits + len(qs)
        realroots._gcd.cache_clear()
        assert warm == before == [root.vanishes(q) for q in qs]


def test_refining_to_a_width_at_most_zero_raises():
    """No bracket is ever that narrow, so a width <= 0 is refused at once
    instead of bisecting for ever."""
    for refine in (lambda r: r.refine(0), lambda r: r.refine(-1),
                   lambda r: r.refine(Fraction(-1, 3)), lambda r: r.to_float(0)):
        root = RealAlgebraic([-2, 0, 1], 1, 2)
        with pytest.raises(ValueError, match="positive"):
            refine(root)
        assert (root.lo, root.hi) == (1, 2)
    for width in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            refine_isolating_interval([-2, 0, 1], IsolatingInterval(Fraction(1), Fraction(2)), width)


# -- the integer bracket against the Fraction bracket it replaced ----------


# irreducible factors of degree 4 to 6, with real roots
high_degree_factors = st.sampled_from([(-2, 0, 0, 0, 1), (1, 0, -10, 0, 1), (-1, -1, 0, 0, 0, 1),
                                       (1, -6, 0, 0, 0, 0, 1)])


@st.composite
def brackets(draw):
    """(square-free integer polynomial of degree at most 8, lo, hi) with
    (lo, hi) isolating one of its real roots.  Some roots are rational, so
    bisection points land on them, and the ends are often not dyadic: a
    sub-interval (i/k, j/k) of an isolating interval, when it still
    isolates the root."""
    factors = draw(st.lists(square_free_factors | high_degree_factors, min_size=1, max_size=3,
                            unique=True))
    p = [1]
    for f in factors:
        p = polys.mul(p, f)
    assume(polys.degree(p) <= 8)
    found = intervals(p, Fraction(-3), Fraction(3))
    assume(found)
    iv = draw(st.sampled_from(found))
    k = draw(st.integers(1, 7))
    i = draw(st.integers(0, k - 1))
    j = draw(st.integers(i + 1, k))
    lo, hi = iv.lo + iv.width * Fraction(i, k), iv.lo + iv.width * Fraction(j, k)
    try:
        ReferenceAlgebraic(p, lo, hi)
    except ValueError:
        lo, hi = iv.lo, iv.hi
    return p, lo, hi


def _bracket(poly, lo, hi) -> RealAlgebraic:
    """RealAlgebraic(poly, lo, hi) with every check of the constructor but
    the refusal of a rational root, as the reference's
    refine_isolating_interval builds one: bisection still lands on the rational roots of `brackets`."""
    root = object.__new__(RealAlgebraic)
    root._isolate(poly, lo, hi)
    return root


# 1/n for the widths of refine and to_float: shallow ones, which bisect,
# and deep ones, which descend (RealAlgebraic.refine)
width_inverses = st.integers(1, 10 ** 6) | st.sampled_from(
    [2 ** 20, 10 ** 12, 3 ** 40, 2 ** 100, 10 ** 60, 2 ** 200])

operations = st.lists(st.tuples(
    st.sampled_from(["bisect", "refine", "refine_away_from", "compare_rational", "equals",
                     "vanishes", "sign_of", "copy", "to_float"]),
    rationals, width_inverses, int_polys), max_size=12)


@settings(max_examples=200, deadline=None)
@given(brackets(), brackets(), operations)
@example(([-2, 0, 1], Fraction(4, 3), Fraction(3, 2)), ([-2, 0, 1], Fraction(1), Fraction(2)),
         [("equals", Fraction(0), 1, []), ("compare_rational", Fraction(7, 5), 1, []),
          ("refine", Fraction(0), 3 ** 9, []), ("to_float", Fraction(0), 10 ** 6, [])])
@example(([-3, 0, 1], Fraction(5, 3), Fraction(9, 5)), ([-2, 0, 1], Fraction(1), Fraction(2)),
         [("compare_rational", Fraction(26, 15), 1, []), ("refine", Fraction(0), 2 ** 200, []),
          ("to_float", Fraction(0), 10 ** 60, [])])  # d = 15 2^k: not a power of two
@example(([-2, 0, 0, 0, 0, 0, 0, 0, 1], Fraction(0), Fraction(2)),
         ([1, -6, 0, 0, 0, 0, 1], Fraction(0), Fraction(1)),
         [("refine", Fraction(0), 10 ** 60, []), ("to_float", Fraction(0), 2 ** 200, [])])
@example(([-1, 1], Fraction(1, 3), Fraction(5, 3)), ([-2, 0, 1], Fraction(1), Fraction(2)),
         [("refine", Fraction(0), 2 ** 100, [])])  # the root 1 is the bracket's midpoint
def test_integer_bracket_matches_the_fraction_bracket(spec, other_spec, ops):
    """One random sequence of operations on the integer bracket and on the
    Fraction bracket it replaced (tests/realalgebraic_reference.py) gives
    equal answers and equal brackets after every step.  The reference
    refines by bisection, so a descent reaches bisection's node, down to
    widths 2^-200 and 10^-60, on polynomials of degree up to 8 and
    brackets over any denominator."""
    new, ref = _bracket(*spec), ReferenceAlgebraic(*spec)
    other_new, other_ref = _bracket(*other_spec), ReferenceAlgebraic(*other_spec)
    for name, c, n, q in ops:
        width = Fraction(1, n)
        if name == "bisect":
            new._bisect(), ref._bisect()
        elif name == "refine":
            new.refine(width), ref.refine(width)
        elif name == "refine_away_from":
            if sign_at(list(ref.poly), c) != 0:  # the reference never ends at its root
                new.refine_away_from(c), ref.refine_away_from(c)
        elif name == "compare_rational":
            assert new.compare_rational(c) == ref.compare_rational(c)
        elif name == "equals":
            assert new.equals(other_new) == ref.equals(other_ref)
            assert (other_new.lo, other_new.hi) == (other_ref.lo, other_ref.hi)
        elif name == "vanishes":
            assert new.vanishes(q) == ref.vanishes(q)
        elif name == "sign_of":
            assert new.sign_of(q or [1]) == ref.sign_of(q or [1])
        elif name == "copy":
            new, ref = new.copy(), ref.copy()
        else:
            assert new.to_float(width) == ref.to_float(width)
        assert (new.lo, new.hi) == (ref.lo, ref.hi)
    assert repr(new) == repr(ref)


def _evaluations(monkeypatch) -> list:
    """The points at which the polynomial is evaluated from now on, for
    its sign (polys.sign_at_ratio) or its value (realroots._scaled_value)."""
    calls = []
    for owner, name in ((polys, "sign_at_ratio"), (realroots, "_scaled_value")):
        def spy(p, a, d, real=getattr(owner, name)):
            calls.append(Fraction(a, d))
            return real(p, a, d)
        monkeypatch.setattr(owner, name, spy)
    return calls


def _bisected_to(root, width) -> tuple:
    """The bracket (a, b, d) of `root` refined to `width` by bisection
    alone, as the reference refines."""
    p, q = width.numerator, width.denominator
    while (root._b - root._a) * q > p * root._d:
        root._bisect()
    return root._a, root._b, root._d


def test_refine_descends_in_a_few_evaluations(monkeypatch):
    """refine(10^-12) on each algebraic breakpoint of T(3,5), as its
    signature function builds it, evaluates the polynomial at most 12
    times, where bisection evaluates it once per halving, over 30 times,
    and reaches bisection's bracket."""
    f = signature_function(seifert_matrix_from_braid(torus_braid(3, 5)))
    algebraic = [bp for bp in f.breakpoints if isinstance(bp, RealAlgebraic)]
    assert len(algebraic) == 4
    width = Fraction(1, 10 ** 12)
    calls = _evaluations(monkeypatch)
    for bp in algebraic:
        descended = bp.copy().refine(width)
        assert len(calls) <= 12
        calls.clear()
        assert _bisected_to(bp.copy(), width) == (descended._a, descended._b, descended._d)
        assert len(calls) > 30
        calls.clear()


def test_descent_falls_back_to_bisection(monkeypatch):
    """The two ways a descent leaves its grid steps both end on
    bisection's bracket.  x^8 - 2 on (0, 2): the secant through the ends'
    values -2 and 254 points at the grid point 1/2 of the quarters, and
    the root 2^(1/8) ~ 1.09 lies right of 1 too, so the step misses and
    the next is one halving, at 1.  x - 1 on (1/3, 5/3): the secant lands
    on the root 1, a grid point, where the polynomial vanishes, and
    bisection, which steps past it, takes over."""
    width = Fraction(1, 2 ** 60)
    calls = _evaluations(monkeypatch)
    root = RealAlgebraic([-2, 0, 0, 0, 0, 0, 0, 0, 1], 0, 2)
    expected = _bisected_to(root.copy(), width)
    calls.clear()
    root.refine(width)
    assert calls[:5] == [0, 2, Fraction(1, 2), 1, 1]
    assert (root._a, root._b, root._d) == expected
    rational = _bracket([-1, 1], Fraction(1, 3), Fraction(5, 3))
    expected = _bisected_to(rational.copy(), width)
    calls.clear()
    rational.refine(width)
    assert calls[:3] == [Fraction(1, 3), Fraction(5, 3), 1]
    assert (rational._a, rational._b, rational._d) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=4), st.integers(1, 3),
       st.lists(st.integers(-5, 5), max_size=4), st.integers(1, 4))
def test_yun_part_is_the_squarefree_part(f, m, g, den):
    """The square-free part that RealAlgebraic.sign_of reads from the
    cached Yun decomposition (realroots._yun) is p / gcd(p, p'), primitive
    and positive-leading (tests/isolation_reference.py), for f^m g / den."""
    q = [Fraction(c, den) for c in polys.mul(reduce(polys.mul, [f] * m, [1]), g)]
    assume(polys.trim(q))
    assert list(realroots._yun(tuple(polys.trim(q)))[1]) == squarefree_part(q)
