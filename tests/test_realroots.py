import random
from fractions import Fraction

import numpy as np
import pytest

from linkbound import IsolatingInterval, RealAlgebraic, ZeroPolynomialError, \
    isolate_real_roots, refine_isolating_interval
from linkbound import polys


def test_single_linear_root():
    out = isolate_real_roots([-1, 1], Fraction(-2), Fraction(2))
    assert len(out) == 1
    iv = out[0]
    assert iv.lo < 1 < iv.hi
    assert iv.multiplicity == 1


def test_boundary_roots_excluded():
    # x^2 - 4 has roots exactly at the open window's endpoints
    assert isolate_real_roots([-4, 0, 1], Fraction(-2), Fraction(2)) == []


def test_trefoil_derived_polynomial():
    # det(tV - V^T) for V = [[-1, 1], [0, -1]] is t^2 - t + 1, which is
    # x - 1 after the x = t + 1/t substitution: a single root at x = 1.
    out = isolate_real_roots([-1, 1], Fraction(-2), Fraction(2))
    assert len(out) == 1 and out[0].lo < 1 < out[0].hi


def test_two_quadratic_factors():
    # (x^2 - 2)(x^2 - 3): four roots inside (-2, 2)
    p = polys.mul([-2, 0, 1], [-3, 0, 1])
    out = isolate_real_roots(p, Fraction(-2), Fraction(2))
    assert len(out) == 4
    floats = sorted((iv.lo + iv.hi) / 2 for iv in out)
    expect = sorted([-(3 ** 0.5), -(2 ** 0.5), 2 ** 0.5, 3 ** 0.5])
    for mid, want in zip(floats, expect):
        assert abs(float(mid) - want) < max(float(iv.width) for iv in out) + 1e-9


def test_multiplicities_from_squarefree_decomposition():
    # (x - 1)^2 (x + 1)
    p = polys.mul(polys.mul([-1, 1], [-1, 1]), [1, 1])
    out = isolate_real_roots(p, Fraction(-2), Fraction(2))
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
        out = isolate_real_roots(p, Fraction(-5), Fraction(5))
        for a, b in zip(out, out[1:]):
            assert a.hi <= b.lo
        for iv in out:
            # exactly one distinct root inside, via the square-free part
            sq = polys.squarefree_part(p)
            from linkbound.realroots import count_roots, sturm_chain
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
        out = isolate_real_roots(p, *window)
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


def test_real_algebraic_rejects_bad_data():
    with pytest.raises(ValueError):
        RealAlgebraic([1], 0, 1)              # constant
    with pytest.raises(ValueError):
        RealAlgebraic([-2, 0, 1], -2, 2)      # two roots inside
    with pytest.raises(ValueError):
        RealAlgebraic(polys.mul([-2, 0, 1], [-2, 0, 1]), 1, 2)  # not square-free


def test_isolating_interval_validation():
    with pytest.raises(ValueError):
        IsolatingInterval(Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        IsolatingInterval(Fraction(0), Fraction(1), 0)


def test_refine_isolating_interval():
    # irrational root
    p = [-2, 0, 1]
    (iv,) = isolate_real_roots(p, Fraction(0), Fraction(2))
    tight = refine_isolating_interval(p, iv, Fraction(1, 10 ** 9))
    assert tight.width <= Fraction(1, 10 ** 9)
    assert tight.lo < Fraction(1414213563, 10 ** 9)
    assert tight.hi > Fraction(1414213562, 10 ** 9)
    assert tight.multiplicity == iv.multiplicity
    # rational root sitting exactly on bisection points
    q = polys.mul([-1, 1], [-1, 1])  # (x - 1)^2
    (iv2,) = isolate_real_roots(q, Fraction(-2), Fraction(2))
    tight2 = refine_isolating_interval(q, iv2, Fraction(1, 1000))
    assert tight2.lo < 1 < tight2.hi
    assert tight2.width <= Fraction(1, 1000)
    assert tight2.multiplicity == 2
    with pytest.raises(ValueError):
        refine_isolating_interval([1, 0, 1], iv2, Fraction(1, 4))  # no real roots
