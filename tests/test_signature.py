import collections
import copy
import math
import pickle
import random
import sys
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkbound import (BraidWord, CirclePoint, LaurentPoly, RealAlgebraic, SeifertData,
                       alexander_from_seifert, assemble_report, connected_sum,
                       float_oracle, link_nullity,
                       mirror, pointwise_signature_nullity,
                       seifert_matrix_from_braid, signature_function,
                       signature_nullity_at, stabilize, torus_braid,
                       units_equal)
from linkbound import linalg, polys, realroots, signature
from linkbound.factor import _rational_root_split
from linkbound.linalg import _eliminate, _pack, _unpack, poly_det
from linkbound.signature import _minor_x

import bareiss_reference
from helpers import (b_laurent, cold, count_eliminations,
                     degenerate_family, degenerate_seifert, mixed_double, random_knot_data,
                     random_seifert_data, random_unimodular, record_stops, sympy_det, zero_padded)
from isolation_reference import sign_at
from quadfield_reference import QuadFieldElem, quad_eval
from read_reference import breakpoints_equal, functions_equal

TREFOIL_V = SeifertData.from_matrix([[-1, 1], [0, -1]], 1, "trefoil")
UNKNOT = seifert_matrix_from_braid(BraidWord(1, ()))


def evaluate_complex(p: LaurentPoly, z: complex) -> complex:
    """p(z) in floats, for the float comparisons below."""
    return sum(v * z ** e for e, v in p.items())


# -- QuadFieldElem -------------------------------------------------------------

def test_quadfield_arithmetic():
    x = Fraction(1, 2)
    z = QuadFieldElem(0, 1, x)
    one = QuadFieldElem(1, 0, x)
    assert z * z == QuadFieldElem(-1, x, x)          # z^2 = xz - 1
    assert z * z.conjugate() == one                  # |z| = 1
    w = QuadFieldElem(Fraction(2, 3), Fraction(-1, 5), x)
    assert w * w.inverse() == one
    assert w.conjugate().conjugate() == w
    assert w.norm() > 0


def test_quadfield_matches_complex():
    rng = random.Random(4)
    for _ in range(25):
        x = Fraction(rng.randint(-19, 19), 10)
        theta = math.acos(float(x) / 2)
        zc = complex(math.cos(theta), math.sin(theta))
        p = LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(4)})
        val = quad_eval(p, x)
        approx = complex(val.a + val.b * zc.real, val.b * zc.imag)
        assert abs(approx - evaluate_complex(p, zc)) < 1e-9


def test_quadfield_rejects_boundary():
    with pytest.raises(ValueError):
        QuadFieldElem(1, 1, 2)


# -- B(t) and its integer form ---------------------------------------------------

ONE_MINUS_T = LaurentPoly({0: 1, 1: -1})


def _form(data):
    """tV - V^T as dense integer polynomials, unpacked from the packed rows
    that the kernel eliminates (see linalg._packed)."""
    k_bits, rows = linalg._packed(data.matrix)
    return tuple(tuple(tuple(_unpack(v, k_bits)) for v in row) for row in rows)


def test_b_family_trefoil_entries():
    """The form of the trefoil is tV - V^T, and (1 - t)/t times it is B(t)."""
    form = _form(TREFOIL_V)
    assert form == (((1, -1), (0, 1)), ((-1,), (1, -1)))
    b = [[LaurentPoly.from_dense(p, -1) * ONE_MINUS_T for p in row] for row in form]
    assert b[0][0] == LaurentPoly({1: 1, -1: 1, 0: -2})
    assert b[0][1] == LaurentPoly({0: 1, 1: -1})
    assert b[1][0] == LaurentPoly({0: 1, -1: -1})
    assert b[1][1] == b[0][0]


def test_b_family_empty():
    assert _form(UNKNOT) == ()
    assert signature._principal_block(UNKNOT) == ((), ())


def test_b_family_vanishes_at_one():
    """B(1) = 0: at x = 2 the nullity is the full size."""
    rng = random.Random(6)
    for _ in range(10):
        data = random_seifert_data(rng, max_size=4)
        assert pointwise_signature_nullity(data, 2) == (0, data.size)
        assert signature_nullity_at(data, 2)[1] == data.size


def test_b_family_hermitian_validation():
    """Every leading minor of B is fixed by t -> 1/t, so _minor_x accepts
    each one; a minor that is not symmetric is refused."""
    rng = random.Random(61)
    for _ in range(20):
        form = _form(random_seifert_data(rng, max_size=5))
        for k in range(1, len(form) + 1):
            _minor_x(poly_det([row[:k] for row in form[:k]]), k)
    with pytest.raises(ValueError):
        _minor_x((0, 1), 1)  # (1 - t) t / t = 1 - t


def test_symmetric_to_xpoly():
    """((1 - t)/t)^k p(t) / (2 - x)^(k // 2) in x: -x for p = 1 + t^2,
    k = 2, and x^2 - 2 for p = 1 + t^4, k = 4; the trefoil's
    determinant t^2 - t + 1 becomes 1 - x."""
    assert _minor_x((1, 0, 1), 2) == (0, -1)
    assert _minor_x((1, 0, 0, 0, 1), 4) == (-2, 0, 1)
    assert _minor_x((1, -1, 1), 2) == (1, -1)
    assert _minor_x((), 3) == ()


def test_one_chebyshev_table_read_by_prefix(monkeypatch):
    """_chebyshev keeps one table of the x-forms of D_e = z^e + z^-e,
    grown to the largest m asked for: after m = 120, a call with m = 60
    computes no new entry.  Each entry is D_e: at z = 2, x = 5/2, it takes
    the value 2^e + 2^-e."""
    table = signature._chebyshev(120)
    sub = mock.Mock(side_effect=polys.sub)
    monkeypatch.setattr(polys, "sub", sub)
    assert signature._chebyshev(60) is table
    sub.assert_not_called()
    assert len(table) >= 120
    for e, terms in enumerate(table[:120], 1):
        assert sum(a * Fraction(5, 2) ** i for i, a in terms) == 2 ** e + Fraction(1, 2 ** e)


# -- signatures at points -----------------------------------------------------------

def test_unknot_everywhere_zero():
    for x in (Fraction(-2), Fraction(0), Fraction(2), Fraction(1, 3)):
        assert signature_nullity_at(UNKNOT, x) == (0, 0)


def test_trefoil_signature_values():
    assert signature_nullity_at(TREFOIL_V, Fraction(-2)) == (-2, 0)
    assert signature_nullity_at(TREFOIL_V, Fraction(1)) == (-1, 1)
    assert signature_nullity_at(TREFOIL_V, Fraction(0)) == (-2, 0)
    assert signature_nullity_at(TREFOIL_V, CirclePoint(Fraction(3, 2))) == (0, 0)
    # at z = 1 the family vanishes: nullity is the full size,
    # the averaged signature the limit from inside
    assert signature_nullity_at(TREFOIL_V, Fraction(2)) == (0, 2)


def test_rational_root_is_no_algebraic_point():
    """x - 1 has the rational root 1, a breakpoint of the trefoil: the
    public constructor refuses it, where it used to build a number whose
    read gave the interval value (-2, 0) instead of the averaged value at
    x = 1."""
    with pytest.raises(ValueError, match="rational root"):
        signature_nullity_at(TREFOIL_V, RealAlgebraic([-1, 1], 0, 2))
    assert signature_nullity_at(TREFOIL_V, Fraction(1)) == (-1, 1)


def test_algebraic_point_outside_the_circle_rejected():
    """An algebraic x outside (-2, 2), sqrt(5) here, is no circle point:
    signature_nullity_at rejects it as CirclePoint does, instead of
    answering with an interval value."""
    root5 = RealAlgebraic([-5, 0, 1], 2, 3)
    for call in (lambda: CirclePoint(root5), lambda: signature_nullity_at(TREFOIL_V, root5)):
        with pytest.raises(ValueError, match="outside"):
            call()
    assert signature_nullity_at(TREFOIL_V, RealAlgebraic([-2, 0, 1], 1, 2)) == (0, 0)


def test_value_at_takes_only_circle_points():
    """value_at rejects what signature_nullity_at rejects: x outside
    [-2, 2] raises ValueError, and a float, a string or None raises
    TypeError instead of matching the first breakpoint.  A CirclePoint
    reads like its x, and x = +-2 clamps to the end intervals."""
    data = seifert_matrix_from_braid(torus_braid(3, 5))
    f = signature_function(data)
    for read in (f.value_at, lambda x: signature_nullity_at(data, x)):
        for x in (3, -7, Fraction(-201, 100)):
            with pytest.raises(ValueError, match="outside"):
                read(x)
        for x in (0.5, "1/2", None):
            with pytest.raises(TypeError):
                read(x)
    half = Fraction(1, 2)
    assert f.value_at(CirclePoint(half)) == f.value_at(half) == (-4, 0)
    assert pointwise_signature_nullity(data, half) == (-4, 0)
    assert (f.value_at(-2), f.value_at(2)) == (f.interval_values[0], f.interval_values[-1])


def test_warm_reads_locate_the_point_in_the_function(monkeypatch):
    """A warm read at a rational outside every breakpoint bracket makes no
    polys.sign_at_ratio call, and one inside an algebraic bracket bisects that
    breakpoint alone; both answer as pointwise_signature_nullity does."""
    data = seifert_matrix_from_braid(torus_braid(3, 7))
    f = signature_function(data)
    signature_nullity_at(data, Fraction(0))
    inside = [(bp, (bp.lo + bp.hi) / 2) for bp in f.breakpoints if isinstance(bp, RealAlgebraic)]
    assert len(inside) >= 4
    expected = [pointwise_signature_nullity(data, x) for _, x in inside]
    signs, bisected = [], []
    sign_at_ratio, bisect = polys.sign_at_ratio, RealAlgebraic._bisect

    def counted_sign_at_ratio(p, a, d):
        signs.append((a, d))
        return sign_at_ratio(p, a, d)

    def recorded_bisect(root):
        bisected.append(root)
        bisect(root)

    monkeypatch.setattr(polys, "sign_at_ratio", counted_sign_at_ratio)
    monkeypatch.setattr(RealAlgebraic, "_bisect", recorded_bisect)
    for x, value in zip(f.samples, f.interval_values):
        assert signature_nullity_at(data, x) == f.value_at(x) == value
    assert signs == [] and bisected == []
    for (bp, x), value in zip(inside, expected):
        assert signature_nullity_at(data, x) == value
        assert bisected and all(root is bp for root in bisected)
        bisected.clear()


def test_unknot_reads_validate_the_point():
    """On n = 0 every read route checks the point before answering (0, 0):
    signature_nullity_at once skipped the check there."""
    f = signature_function(UNKNOT)
    reads = (lambda x: signature_nullity_at(UNKNOT, x), f.value_at,
             lambda x: pointwise_signature_nullity(UNKNOT, x))
    for read in reads:
        with pytest.raises(ValueError, match="outside"):
            read(7)
        for x in ("foo", None, 0.5, True):
            with pytest.raises(TypeError):
                read(x)
        assert read(Fraction(1, 2)) == read(-2) == (0, 0)


def test_a_bool_is_not_a_circle_point():
    """True is an int to Python but no x: every read route and CirclePoint
    raise TypeError instead of reading it as 1, where T(3,5) has (-4, 0)."""
    data = seifert_matrix_from_braid(torus_braid(3, 5))
    f = signature_function(data)
    assert f.value_at(1) == (-4, 0)
    for read in (f.value_at, CirclePoint, lambda x: signature_nullity_at(data, x),
                 lambda x: pointwise_signature_nullity(data, x)):
        for x in (True, False):
            with pytest.raises(TypeError):
                read(x)


def test_warm_reads_compare_no_fraction(monkeypatch):
    """Warm reads compare integers only: at rationals outside every
    bracket and at the breakpoints rebuilt from to_json, as a client does,
    no Fraction comparison runs.  An algebraic read off the breakpoints,
    sqrt(3) in (17/10, 9/5), bisects only itself and the breakpoint whose
    bracket meets its own, (3/2, 7/4), until the two are apart."""
    data = seifert_matrix_from_braid(torus_braid(3, 7))  # brackets as built: no read refined them
    f = signature_function(data)
    signature_nullity_at(data, Fraction(0))
    rebuilt = [RealAlgebraic(bp["polynomial"], *map(Fraction, bp["interval"]))
               if isinstance(bp, dict) else Fraction(bp) for bp in f.to_json()["breakpoints"]]
    assert sum(isinstance(bp, RealAlgebraic) for bp in rebuilt) >= 4
    sqrt3 = RealAlgebraic([-3, 0, 1], Fraction(17, 10), Fraction(9, 5))
    expected = pointwise_signature_nullity(data, sqrt3.copy().refine(Fraction(1, 10 ** 6)).lo)
    meets = [bp for bp in f.breakpoints
             if isinstance(bp, RealAlgebraic) and bp.lo < sqrt3.hi and sqrt3.lo < bp.hi]
    assert len(meets) == 1
    compared, bisected = collections.Counter(), []
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        def counted(a, b, name=name, compare=getattr(Fraction, name)):
            compared[name] += 1
            return compare(a, b)
        monkeypatch.setattr(Fraction, name, counted)
    bisect = RealAlgebraic._bisect

    def recorded_bisect(root):
        bisected.append(root)
        bisect(root)

    monkeypatch.setattr(RealAlgebraic, "_bisect", recorded_bisect)
    for x, value in zip(f.samples, f.interval_values):
        assert signature_nullity_at(data, x) == f.value_at(x) == value
    for x, value in zip(rebuilt, f.averaged_values):
        assert signature_nullity_at(data, x) == f.value_at(x) == value
    assert not compared and not bisected
    assert signature_nullity_at(data, sqrt3) == expected
    assert not compared
    assert {id(root) for root in bisected} == {id(sqrt3), id(meets[0])}


@pytest.mark.parametrize("data", [seifert_matrix_from_braid(torus_braid(3, 5)),
                                  seifert_matrix_from_braid(torus_braid(3, 6)),
                                  seifert_matrix_from_braid(torus_braid(4, 4)),
                                  zero_padded(seifert_matrix_from_braid(torus_braid(3, 5)), 1)])
def test_samples_are_read_only_through_block_signature(monkeypatch, data):
    """signature_function takes the signs of the leading minors at its
    samples only through _block_signature, which alone runs Frobenius's
    rule, and that read succeeds once per interval: at its sample, with
    its value."""
    data = cold(data)
    minors = signature._principal_block(data)[1]  # kept on the data for the build
    reads, inside = [], []
    block_signature, frobenius, sign_at_ratio = (
        signature._block_signature, signature._frobenius, polys.sign_at_ratio)

    def spy_block(data, p, q):
        inside.append(True)
        value = block_signature(data, p, q)
        inside.pop()
        if value is not None:
            reads.append((Fraction(p, q), value))
        return value

    def spy_frobenius(*args):
        assert inside
        return frobenius(*args)

    def spy_sign(poly, a, d):
        assert inside or not any(poly is m for m in minors)
        return sign_at_ratio(poly, a, d)

    monkeypatch.setattr(signature, "_block_signature", spy_block)
    monkeypatch.setattr(signature, "_frobenius", spy_frobenius)
    monkeypatch.setattr(polys, "sign_at_ratio", spy_sign)
    f = signature_function(data)
    assert len(f.samples) >= 2
    assert reads == list(zip(f.samples, f.interval_values))


@pytest.mark.parametrize("p, q", [(2, 19), (2, 8), (3, 6)])
def test_cold_report_builds_a_fraction_per_sample_and_rational_breakpoint(monkeypatch, p, q):
    """A cold report isolates, bisects and searches for samples in
    integers: of the Fractions it builds, _pick_sample builds one per
    interval sample and _jump_structure one per rational breakpoint, and
    nothing else builds one.  T(2,19) has nine algebraic breakpoints and
    ten samples (the parent built 111 Fractions there); T(2,8) and the
    link T(3,6) have rational breakpoints.  No averaged value is a
    half-integer: every interval value has the parity of the generic
    rank."""
    data = seifert_matrix_from_braid(torus_braid(p, q))
    f = signature_function(data)
    expected = collections.Counter(
        _pick_sample=len(f.samples),
        _jump_structure=sum(isinstance(bp, Fraction) for bp in f.breakpoints))
    assert expected["_pick_sample"] >= 3
    data = cold(data)
    built = collections.Counter()
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        frame = sys._getframe(1)  # the named function that asked for it
        while (frame.f_code.co_filename.endswith("fractions.py")
               or frame.f_code.co_name.startswith("<")):
            frame = frame.f_back
        built[frame.f_code.co_name] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assemble_report(data)
    monkeypatch.undo()
    assert +built == +expected


def test_trefoil_signature_function():
    f = signature_function(TREFOIL_V)
    assert f.breakpoints == (Fraction(1),)
    assert f.interval_values == ((-2, 0), (0, 0))
    assert f.averaged_values == ((-1, 1),)
    assert f.max_abs_sigma() == 2
    assert f.value_at(Fraction(1)) == (-1, 1)
    assert f.value_at(Fraction(-1)) == (-2, 0)
    assert f.value_at(2) == (0, 0)


def test_unknot_signature_function():
    f = signature_function(UNKNOT)
    assert f.breakpoints == ()
    assert f.interval_values == ((0, 0),)


def test_torus_3_5_max_signature():
    f = signature_function(seifert_matrix_from_braid(torus_braid(3, 5)))
    assert f.max_abs_sigma() == 8
    assert f.argmax_interval() == 0
    assert [v[0] for v in f.interval_values] == [-8, -6, -4, -2, 0]


# -- Alexander polynomial and nullity -------------------------------------------------

def test_alexander_examples():
    assert alexander_from_seifert(UNKNOT) == LaurentPoly.one()
    assert alexander_from_seifert(TREFOIL_V) == LaurentPoly({2: 1, 1: -1, 0: 1})
    t35 = alexander_from_seifert(seifert_matrix_from_braid(torus_braid(3, 5)))
    assert t35 == LaurentPoly({8: 1, 7: -1, 5: 1, 4: -1, 3: 1, 1: -1, 0: 1})


def test_link_nullity_examples():
    assert link_nullity(TREFOIL_V) == 0
    assert link_nullity(SeifertData.from_matrix([[1]], 2)) == 0
    assert link_nullity(SeifertData.from_matrix([[0]], 2)) == 1


def test_nullity_matches_generic_interval_nullity():
    rng = random.Random(44)
    for _ in range(20):
        data = random_seifert_data(rng, max_size=5)
        f = signature_function(data)
        assert f.generic_nullity == link_nullity(data)
        assert all(nu == f.generic_nullity for _, nu in f.interval_values)


def test_zero_matrix_link():
    data = SeifertData.from_matrix([[0]], 2)
    f = signature_function(data)
    assert f.breakpoints == ()
    assert f.interval_values == ((0, 1),)
    assert alexander_from_seifert(data).is_zero


# -- Witt classes --------------------------------------------------------------------

def test_witt_positive_entry():
    """V = (1), a two-component link: B(z) = 2 - x > 0 off z = 1."""
    data = SeifertData.from_matrix([[1]], 2)
    for x in (Fraction(-2), Fraction(1), Fraction(3, 2)):
        assert signature_nullity_at(data, x) == (1, 0)
    assert signature_nullity_at(data, 2) == (1, 1)


def test_witt_hyperbolic_is_zero():
    """V = [[0, 1], [0, 0]] gives the hyperbolic form B(z) =
    [[0, 1 - z], [1 - 1/z, 0]]: signature 0 everywhere, and added to the
    trefoil's V it leaves the trefoil's function."""
    hyp = SeifertData.from_matrix([[0, 1], [0, 0]])
    for x in (Fraction(-2), Fraction(-1), Fraction(0), Fraction(3, 2), Fraction(2)):
        assert signature_nullity_at(hyp, x)[0] == 0
    assert functions_equal(signature_function(connected_sum(TREFOIL_V, hyp)),
                           signature_function(TREFOIL_V))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 3), st.booleans())
@example(20, 0, True)  # a knot whose leading minor of B_I vanishes at -2
@example(47, 1, True)  # a link whose leading minor of B_I vanishes at -2
def test_minus_two_reads_the_inertia_of_v_plus_vt(seed, pad, generic):
    """At x = -2, pointwise_signature_nullity and the nullity of
    signature_nullity_at equal the integer inertia of V + V^T, on random
    braid knots or random Seifert matrices, padded by 0_pad, whichever
    route reads them: Frobenius's rule on the principal block, or, where
    one of its minors vanishes at -2 (a few random Seifert matrices in a
    hundred), the elimination of V + V^T."""
    rng = random.Random(seed)
    data = random_seifert_data(rng) if generic else random_knot_data(rng, 4, 12)
    if pad:
        data = zero_padded(data, pad)
    sig, nul = linalg._integer_symmetric_signature(
        [[p + q for p, q in zip(row, col)] for row, col in zip(data.matrix, data.transposed())])
    assert pointwise_signature_nullity(cold(data), -2) == (sig, nul)
    assert signature_nullity_at(cold(data), Fraction(-2))[1] == nul


@pytest.mark.parametrize("p, q, vanishes", [(3, 6, True), (3, 7, True), (4, 4, True),
                                            (2, 3, False), (2, 6, False), (2, 9, False),
                                            (2, 14, False)])
def test_minus_two_takes_the_principal_block_where_no_minor_vanishes(monkeypatch, p, q,
                                                                     vanishes):
    """T(3,6), T(3,7) and T(4,4) have a leading minor of B_I that vanishes
    at x = -2, so their value there is the inertia of V + V^T; no minor of
    T(2,q) does, so Frobenius's rule on the block reads it with no second
    elimination.  Both routes give the inertia."""
    data = seifert_matrix_from_braid(torus_braid(p, q))
    _, minors = signature._principal_block(data)
    assert any(m and polys.sign_at_ratio(m, -2, 1) == 0 for m in minors) == vanishes
    expected = linalg._integer_symmetric_signature(
        [[a + b for a, b in zip(row, col)] for row, col in zip(data.matrix, data.transposed())])
    calls = []
    inertia = signature._integer_symmetric_signature
    monkeypatch.setattr(signature, "_integer_symmetric_signature",
                        lambda m: calls.append(len(m)) or inertia(m))
    assert pointwise_signature_nullity(data, -2) == expected
    assert calls == ([data.size] if vanishes else [])


def test_witt_matches_signature_engine():
    """At x = -2 the averaged value, the inertia of V + V^T and the
    float oracle agree for the trefoil."""
    assert signature_nullity_at(TREFOIL_V, Fraction(-2)) == (-2, 0)
    assert pointwise_signature_nullity(TREFOIL_V, -2) == float_oracle(TREFOIL_V, math.pi)


# -- float oracle ---------------------------------------------------------------------

def test_float_oracle_examples():
    assert float_oracle(TREFOIL_V, math.pi)[0] == -2
    assert float_oracle(UNKNOT, 1.0) == (0, 0)
    assert float_oracle(TREFOIL_V, math.pi / 2)[0] == -2


def test_float_oracle_domain():
    with pytest.raises(ValueError):
        float_oracle(TREFOIL_V, 0.0)
    with pytest.raises(ValueError):
        float_oracle(TREFOIL_V, 3.5)


def test_exact_matches_oracle_away_from_breakpoints():
    rng = random.Random(123)
    for _ in range(25):
        data = random_seifert_data(rng, max_size=5)
        f = signature_function(data)
        walls = [float(bp) if isinstance(bp, Fraction) else bp.to_float()
                 for bp in f.breakpoints]
        for _ in range(8):
            x = Fraction(rng.randint(-1999, 1999), 1000)
            if any(abs(float(x) - w) < 1e-3 for w in walls):
                continue
            theta = math.acos(float(x) / 2)
            assert pointwise_signature_nullity(data, x) == float_oracle(data, theta)


def test_trace_form_matches_oracle_on_t3_20():
    """At every sample of T(3,20) (n = 38), the 76 x 76 integer trace form
    and the Frobenius read agree with the float oracle."""
    data = seifert_matrix_from_braid(torus_braid(3, 20))
    for x in signature_function(data).samples:
        oracle = float_oracle(data, math.acos(float(x) / 2))
        assert signature._trace_signature_nullity(data, x) == oracle
        assert pointwise_signature_nullity(data, x) == oracle


def test_conjugation_symmetry_of_family():
    # B(conj z) and B(z) have the same eigenvalues, so sigma(theta) = sigma(-theta)
    rng = random.Random(77)
    for _ in range(10):
        fam = b_laurent(random_seifert_data(rng, max_size=4))
        theta = rng.uniform(0.1, 3.0)
        for sign in (1, -1):
            z = complex(math.cos(sign * theta), math.sin(sign * theta))
            m = np.array([[complex(evaluate_complex(p, z)) for p in row] for row in fam])
            eig = np.linalg.eigvalsh(m)
            if sign == 1:
                ref = (int((eig > 1e-9).sum()), int((eig < -1e-9).sum()))
            else:
                assert (int((eig > 1e-9).sum()), int((eig < -1e-9).sum())) == ref


# -- structural invariants ------------------------------------------------------------

def test_connected_sum_additivity():
    tre = seifert_matrix_from_braid(BraidWord(2, (1, 1, 1)))
    fig8 = seifert_matrix_from_braid(BraidWord(3, (1, -2, 1, -2)))
    s = connected_sum(tre, fig8)
    fs = signature_function(s)
    fa, fb = signature_function(tre), signature_function(fig8)
    for x in fs.samples:
        assert fs.value_at(x)[0] == fa.value_at(x)[0] + fb.value_at(x)[0]
    for bp, (sig, _) in zip(fs.breakpoints, fs.averaged_values):
        assert sig == fa.value_at(bp)[0] + fb.value_at(bp)[0]


def test_mirror_antisymmetry():
    rng = random.Random(15)
    for _ in range(15):
        data = random_seifert_data(rng, max_size=5)
        f = signature_function(data)
        g = signature_function(mirror(data))
        assert len(f.breakpoints) == len(g.breakpoints)
        assert tuple(-s for s, _ in f.interval_values) == \
            tuple(s for s, _ in g.interval_values)


def test_stabilization_preserves_function():
    rng = random.Random(92)
    for _ in range(15):
        data = random_seifert_data(rng, max_size=4)
        st_data = stabilize(data, rng.choice(["row-first", "column-first"]),
                            [rng.randint(-3, 3) for _ in range(data.size)])
        assert functions_equal(signature_function(data),
                               signature_function(st_data))
        da = alexander_from_seifert(data)
        db = alexander_from_seifert(st_data)
        assert units_equal(da, db)


def test_corank_two_at_algebraic_jumps():
    # T(2,5) # T(2,5): both summands share the two algebraic jump points,
    # so the corank there is 2 and the signature falls in steps of 4
    t25 = seifert_matrix_from_braid(torus_braid(2, 5))
    s = connected_sum(t25, t25)
    f = signature_function(s)
    assert len(f.breakpoints) == 2
    assert [v[0] for v in f.interval_values] == [-8, -4, 0]
    assert f.averaged_values == ((-6, 2), (-2, 2))


def test_quad_eval_is_multiplicative():
    rng = random.Random(13)
    for _ in range(30):
        x = Fraction(rng.randint(-19, 19), 10)
        p = LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(3)})
        q = LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(3)})
        assert quad_eval(p * q, x) == quad_eval(p, x) * quad_eval(q, x)
        assert quad_eval(p + q, x) == quad_eval(p, x) + quad_eval(q, x)
        assert quad_eval(p.involution(), x) == quad_eval(p, x).conjugate()


def test_jump_parity_bound():
    rng = random.Random(58)
    checked = 0
    while checked < 30:
        data = random_seifert_data(rng, max_size=5)
        f = signature_function(data)
        for i, (_, nu) in enumerate(f.averaged_values):
            left = f.interval_values[i][0]
            right = f.interval_values[i + 1][0]
            drop = nu - f.generic_nullity
            assert abs(left - right) <= 2 * drop
            assert f.averaged_values[i][0] == Fraction(left + right, 2)
            checked += 1


def test_sigma_rank_parity_on_intervals():
    rng = random.Random(21)
    for _ in range(20):
        data = random_seifert_data(rng, max_size=5)
        f = signature_function(data)
        rank = f.size - f.generic_nullity
        for s, nu in f.interval_values:
            assert (s - rank) % 2 == 0


def test_det_parametrization_consistency():
    # roots of the x-polynomial in (-2, 2) match the circle roots of
    # det(tV - V^T) on the open upper half circle
    rng = random.Random(33)
    done = 0
    while done < 50:
        data = random_seifert_data(rng, max_size=5)
        delta = alexander_from_seifert(data)
        if delta.is_zero:
            continue
        done += 1
        f = signature_function(data)
        _, dense = delta.to_dense()
        roots = np.roots(list(reversed(dense)))
        circle = [r for r in roots
                  if abs(abs(r) - 1) < 1e-6 and r.imag > 1e-6]
        distinct = []
        for r in sorted(circle, key=lambda v: v.real):
            if not distinct or abs(r - distinct[-1]) > 1e-6:
                distinct.append(r)
        assert len(distinct) == len(f.breakpoints)


def test_signature_function_json_round_trip_shape():
    f = signature_function(seifert_matrix_from_braid(torus_braid(3, 5)))
    obj = f.to_json()
    assert obj["size"] == 8
    assert len(obj["breakpoints"]) == 4
    assert all(isinstance(bp, dict) and "polynomial" in bp
               for bp in obj["breakpoints"])
    rows = f.csv_rows()
    assert rows[0][0] == -2.0 and rows[-1][1] == 2.0


def test_to_json_unchanged_by_reads():
    """Reads refine the shared breakpoint brackets; to_json serialises
    copies of the brackets as built, so it does not change."""
    inputs = [seifert_matrix_from_braid(torus_braid(3, 5)),
              seifert_matrix_from_braid(torus_braid(3, 7)),
              zero_padded(seifert_matrix_from_braid(torus_braid(2, 5)), 1)]
    rng = random.Random(31)
    for data in inputs:
        f = signature_function(data)
        before = f.to_json()
        for i in range(200):
            x = Fraction(rng.randint(-2000, 2000), 1000)
            kind = i % 5
            if kind == 0:
                f.value_at(x)
            elif kind == 1:
                signature_nullity_at(data, x)
            elif kind == 2:
                bp = rng.choice(f.breakpoints)
                f.value_at(bp)
                signature_nullity_at(data, bp)
            elif kind == 3:
                pointwise_signature_nullity(data, x)
            else:
                f.csv_rows()
        assert f.to_json() == before


def _read_stream(rng, n_breakpoints, count):
    """(kind, point) reads: random rationals, x = +-2, and breakpoint j of
    the function itself ("own") or rebuilt from its to_json ("json")."""
    reads = []
    for _ in range(count):
        kind = rng.choice(["at", "at", "value_at", "pointwise"])
        roll = rng.random()
        if kind == "pointwise" or roll < 0.5 or not n_breakpoints:
            point = rng.choice([Fraction(rng.randint(-1999, 1999), rng.randint(1, 1000)),
                                Fraction(2), Fraction(-2)])
            point = max(min(point, Fraction(2)), Fraction(-2))
        else:
            point = ("own" if roll < 0.75 else "json", rng.randrange(n_breakpoints))
        reads.append((kind, point))
    return reads


def _answers(data, reads) -> list:
    f = signature_function(data)
    rebuilt = [Fraction(bp) if not isinstance(bp, dict) else
               RealAlgebraic(bp["polynomial"], *map(Fraction, bp["interval"]))
               for bp in f.to_json()["breakpoints"]]
    out = []
    for kind, point in reads:
        if isinstance(point, tuple):
            source, j = point
            point = f.breakpoints[j] if source == "own" else rebuilt[j]
        if kind == "at":
            out.append(signature_nullity_at(data, point))
        elif kind == "value_at":
            out.append(f.value_at(point))
        else:
            out.append(pointwise_signature_nullity(data, point))
    return out


@pytest.mark.parametrize("make", [
    lambda: seifert_matrix_from_braid(torus_braid(3, 5)),
    lambda: seifert_matrix_from_braid(torus_braid(2, 6)),
    lambda: zero_padded(seifert_matrix_from_braid(torus_braid(2, 5)), 1)])
def test_reads_do_not_depend_on_order_or_caches(make):
    """200 reads in two shuffled orders on a warmed SeifertData, and on a
    fresh equal one with empty realroots caches, give the same answers;
    to_json is the same before and after them."""
    data = make()
    f = signature_function(data)
    before = f.to_json()
    reads = _read_stream(random.Random(7), len(f.breakpoints), 200)
    answers = []
    for seed, fresh in ((1, False), (2, False), (3, True)):
        if fresh:
            data = cold(make())
        order = list(range(len(reads)))
        random.Random(seed).shuffle(order)
        got = _answers(data, [reads[i] for i in order])
        answers.append([a for _, a in sorted(zip(order, got))])
        assert signature_function(data).to_json() == before
    assert answers[0] == answers[1] == answers[2]


def test_a_fresh_equal_seifert_data_starts_from_v():
    """A SeifertData owns its signature function: signature_function(d)
    is signature_function(d), and reads refine the breakpoint brackets of
    that one function in place.  A fresh equal SeifertData of T(3,20),
    built after 40 refining reads at every algebraic breakpoint of the
    first, builds its own function from V: its brackets are those as
    built, and its to_json, 200 reads and its report equal the first
    one's, witness and samples included."""
    data = seifert_matrix_from_braid(torus_braid(3, 20))
    f = signature_function(data)
    assert signature_function(data) is f
    assert signature_function(TREFOIL_V) is signature_function(TREFOIL_V)
    built = _brackets(f.breakpoints)
    first = f.to_json(), assemble_report(data).to_json()
    reads = _read_stream(random.Random(11), len(f.breakpoints), 200)
    answers = _answers(data, reads)
    for bp in f.breakpoints:
        if isinstance(bp, RealAlgebraic):
            for _ in range(40):
                f.value_at(Fraction(bp._a + bp._b, 2 * bp._d))
    assert _brackets(f.breakpoints) != built
    fresh = SeifertData.from_matrix(data.matrix, data.components, data.label)
    g = signature_function(fresh)
    assert fresh == data and g is not f and _brackets(g.breakpoints) == built
    assert (g.to_json(), assemble_report(fresh).to_json()) == first
    assert _answers(fresh, reads) == answers


def test_the_function_dies_with_its_data():
    """A SeifertData keeps its signature function alive, and nothing else
    does: a weak reference to it dies with the data."""
    data = seifert_matrix_from_braid(torus_braid(3, 7))
    ref = weakref.ref(signature_function(data))
    assert ref() is signature_function(data)
    del data
    assert ref() is None


def test_copies_and_pickles_start_from_v():
    """copy, deepcopy and pickle give an equal SeifertData with an empty
    `_derived`, which its first use builds again from the elimination it
    keeps: the same report, from a function of its own."""
    data = seifert_matrix_from_braid(torus_braid(3, 7))
    report = assemble_report(data).to_json()
    for clone in (copy.copy(data), copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
        assert clone == data and not clone._derived
        assert assemble_report(clone).to_json() == report
        assert signature_function(clone) is not signature_function(data)


def _brackets(points) -> list:
    return [(x._a, x._b, x._d) if isinstance(x, RealAlgebraic) else x for x in points]


def _gcds_with_defining_polynomials(monkeypatch, data) -> tuple[list, int]:
    """(the (q, polynomial) pairs of every gcd that a cold report of data
    takes with a defining polynomial of its breakpoints, the number of
    breakpoints)."""
    f = signature_function(data)
    defining = {bp.poly for bp in f.breakpoints if isinstance(bp, RealAlgebraic)}
    data = cold(data)
    pairs = []
    gcd_poly = polys.gcd_poly

    def counted(p, q):
        if tuple(q) in defining:
            pairs.append((tuple(p), tuple(q)))
        return gcd_poly(p, q)

    monkeypatch.setattr(polys, "gcd_poly", counted)
    assemble_report(data)
    monkeypatch.undo()
    return pairs, len(f.breakpoints)


def test_one_gcd_per_jump_polynomial(monkeypatch):
    """The nine algebraic breakpoints of T(2,19) are simple roots of its
    jump polynomial, where the nullity is n - r + 1 without a test, so a
    cold report takes no gcd with their defining polynomial.  The two
    breakpoints of T(2,5) # T(2,5) are double roots with one defining
    polynomial, where B(z) has nullity 2 and the nullity is the kernel's:
    RealAlgebraic.vanishes takes each (q, polynomial) gcd once, not once
    per breakpoint."""
    data = seifert_matrix_from_braid(torus_braid(2, 19))
    assert [e for _, e in signature._jump_structure(data)[2]] == [1] * 9
    pairs, count = _gcds_with_defining_polynomials(monkeypatch, data)
    assert count == 9 and pairs == []
    t25 = seifert_matrix_from_braid(torus_braid(2, 5))
    data = connected_sum(t25, t25)
    assert [e for _, e in signature._jump_structure(data)[2]] == [2, 2]
    pairs, count = _gcds_with_defining_polynomials(monkeypatch, data)
    assert count == 2 and pairs and len(pairs) == len(set(pairs))
    assert [nu for _, nu in signature_function(data).averaged_values] == [2, 2]


def test_one_squarefree_pass_per_jump_polynomial(monkeypatch):
    """A cold T(2,19) report runs the remainder sequence of (p, p') for its
    jump polynomial p once: the Sturm chain of the isolation, the
    square-free decomposition and the square-free part of the breakpoints
    all read it.  A sequence of (p, p') starts with the pseudo-remainder
    of p by p', up to signs, whether a gcd or a Sturm chain runs it."""
    jump = signature._jump_structure(seifert_matrix_from_braid(torus_braid(2, 19)))[0]
    derivative = polys.primitive_positive(polys.derivative(jump))[1]
    data = cold(seifert_matrix_from_braid(torus_braid(2, 19)))
    starts = []
    pseudo_remainder = polys.pseudo_remainder

    def counted(a, b):
        if (tuple(polys.primitive_positive(a)[1]) == jump
                and polys.primitive_positive(b)[1] == derivative):
            starts.append(a)
        return pseudo_remainder(a, b)

    monkeypatch.setattr(polys, "pseudo_remainder", counted)
    assemble_report(data)
    assert len(starts) == 1


def _lowest_terms(a: int, d: int) -> tuple[int, int]:
    g = math.gcd(a, d)
    return a // g, d // g


def test_each_certificate_once_per_report(monkeypatch):
    """A cold T(2,19) report evaluates no Sturm chain twice at one point
    within one isolation and no leading minor twice at one interval
    sample, and takes at most 400 signs in all (1162 when every
    certificate was checked again by its reader).  Every sign at a point
    a/d, whoever takes it, is one polys.sign_at_ratio; the points are
    compared in lowest terms, since a bisection may carry them over a
    larger denominator."""
    data = seifert_matrix_from_braid(torus_braid(2, 19))
    minors = set(signature._principal_block(data)[1])
    samples = {(x.numerator, x.denominator) for x in signature_function(data).samples}
    data = cold(data)
    isolation = [None]
    chain_points, signs = collections.Counter(), collections.Counter()
    isolate, chain_signs, sign_at_ratio = signature.isolate_real_roots, \
        realroots._chain_signs, polys.sign_at_ratio

    def isolating(*args):
        isolation[0] = object()
        try:
            return isolate(*args)
        finally:
            isolation[0] = None

    def counted_chain(chain, a, d):
        if isolation[0] is not None:
            chain_points[isolation[0], chain, _lowest_terms(a, d)] += 1
        return chain_signs(chain, a, d)

    def counted_sign(p, a, d):
        signs[tuple(p), _lowest_terms(a, d)] += 1
        return sign_at_ratio(p, a, d)

    monkeypatch.setattr(signature, "isolate_real_roots", isolating)
    monkeypatch.setattr(realroots, "_chain_signs", counted_chain)
    monkeypatch.setattr(polys, "sign_at_ratio", counted_sign)
    assemble_report(data)
    assert chain_points and max(chain_points.values()) == 1
    at_samples = [c for (p, x), c in signs.items() if p in minors and x in samples]
    assert len(at_samples) == len(minors) * len(samples) and max(at_samples) == 1
    assert sum(signs.values()) <= 400


seeds = st.integers(0, 2**32 - 1).map(random.Random)
torus_knots = st.sampled_from([(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5)]).map(
    lambda pq: seifert_matrix_from_braid(torus_braid(*pq)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(degenerate_seifert(), seeds.map(random_seifert_data),
                 st.tuples(torus_knots, torus_knots | seeds.map(random_knot_data)).map(
                     lambda kj: connected_sum(connected_sum(kj[0], kj[0]), kj[1]))))
def test_trusted_breakpoints_and_samples(data):
    """Every breakpoint that _jump_structure builds from a certified
    interval passes the public RealAlgebraic check, as built and as
    returned, and every interval value read from its sample's signs is
    the pointwise value and the float oracle's there.  K # K # J has a
    jump polynomial with a square factor, so Yun's decomposition starts
    from a nonconstant gcd(p, p') and isolates more than one factor."""
    built = []
    certified = RealAlgebraic._certified

    def recording(poly, a, b, d):
        built.append((poly, Fraction(a, d), Fraction(b, d)))
        return certified(poly, a, b, d)

    data = cold(data)
    with mock.patch.object(RealAlgebraic, "_certified", recording):
        f = signature_function(data)
    algebraic = [bp for bp in f.breakpoints if isinstance(bp, RealAlgebraic)]
    assert len(built) >= len(algebraic)
    for poly, lo, hi in built + [(bp.poly, bp.lo, bp.hi) for bp in algebraic]:
        RealAlgebraic(poly, lo, hi)
    for x, value in zip(f.samples, f.interval_values):
        assert pointwise_signature_nullity(data, x) == value
        assert float_oracle(data, math.acos(float(x) / 2)) == value


torus_inputs = st.sampled_from([(2, 3), (2, 4), (2, 6), (3, 3), (3, 4), (3, 5), (3, 6), (4, 4)]).map(
    lambda pq: seifert_matrix_from_braid(torus_braid(*pq)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(degenerate_seifert(), seeds.map(random_seifert_data), torus_inputs,
                 torus_inputs.map(lambda data: zero_padded(data, 1))), seeds)
def test_reads_match_the_independent_route(data, rng):
    """At rationals off the roots of the jump polynomial (random ones, and
    the walls and midpoints of the algebraic brackets as built),
    signature_nullity_at and value_at equal pointwise_signature_nullity,
    and, away from the breakpoints, float_oracle: cold, warm, and after
    to_json and csv_rows have refined the brackets inside the walls that
    the function cached.  One stream read forward and in reverse on fresh
    equal Seifert data gives the same answers."""
    data = cold(data)
    f = signature_function(data)
    jump = signature._jump_structure(data)[0]
    points = []
    for _ in range(20):
        den = rng.randint(1, 300)
        points.append(Fraction(rng.randint(-2 * den + 1, 2 * den - 1), den))
    for bp in f.breakpoints:
        if isinstance(bp, RealAlgebraic):
            points += [bp.lo, bp.hi, (bp.lo + bp.hi) / 2]
    points = [x for x in points if sign_at(jump, x)]
    expected = [pointwise_signature_nullity(data, x) for x in points]

    def cold_reads(stream):
        fresh = cold(data)
        return [signature_nullity_at(fresh, x) for x in stream]

    assert cold_reads(points) == expected
    assert cold_reads(points[::-1]) == expected[::-1]
    f = signature_function(data)
    assert [signature_nullity_at(data, x) for x in points] == expected
    f.to_json()
    f.csv_rows()
    assert [signature_nullity_at(data, x) for x in points] == expected
    assert [f.value_at(x) for x in points] == expected
    near = [float(bp) if isinstance(bp, Fraction) else bp.to_float() for bp in f.breakpoints]
    for x, value in zip(points, expected):
        if all(abs(float(x) - b) > 1e-3 for b in near):
            assert float_oracle(data, math.acos(float(x) / 2)) == value


def test_signature_path_builds_no_laurent_poly(monkeypatch):
    """The signature layer builds a LaurentPoly only for Delta: the
    function and 100 reads build none, and in a cold report each one
    built under a signature.py frame is built by alexander_from_seifert."""
    callers = []
    init = LaurentPoly.__init__

    def counting(self, *args):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            if frame.f_code.co_filename == signature.__file__:
                names.add(frame.f_code.co_name)
            frame = frame.f_back
        callers.append(names)
        init(self, *args)

    monkeypatch.setattr(LaurentPoly, "__init__", counting)
    data = seifert_matrix_from_braid(torus_braid(3, 7))
    f = signature_function(data)
    _answers(data, _read_stream(random.Random(5), len(f.breakpoints), 100))
    assert callers == []
    assemble_report(cold(data))
    inside = [names for names in callers if names]
    assert inside and all(names == {"alexander_from_seifert"} for names in inside)


@pytest.mark.parametrize("knot", ["T(2,5)", "T(3,4)", "random"])
def test_degenerate_family_matches_knot(knot):
    """P (V_K + V_p + 0_k) P^T has det B = 0 and pivot rows that are not the
    leading ones; its signature function is K's with nullities up by
    k + 1, which also the float oracle sees at the samples."""
    rng = random.Random(sum(map(ord, knot)))
    if knot == "random":
        k_data = random_knot_data(rng, max_strands=3, max_len=8)
    else:
        p, q = int(knot[2]), int(knot[4])
        k_data = seifert_matrix_from_braid(torus_braid(p, q))
    fk = signature_function(k_data)
    for k in range(3):
        n = k_data.size + 3 + k
        data = degenerate_family(k_data, rng.randint(-2, 2), k, random_unimodular(rng, n))
        assert link_nullity(data) == k + 1
        f = signature_function(data)
        assert f.generic_nullity == k + 1
        assert len(f.breakpoints) == len(fk.breakpoints)
        assert all(breakpoints_equal(a, b) for a, b in zip(f.breakpoints, fk.breakpoints))
        assert [s for s, _ in f.interval_values] == [s for s, _ in fk.interval_values]
        assert [s for s, _ in f.averaged_values] == [s for s, _ in fk.averaged_values]
        assert [nu for _, nu in f.interval_values] == \
            [nu + k + 1 for _, nu in fk.interval_values]
        assert [nu for _, nu in f.averaged_values] == \
            [nu + k + 1 for _, nu in fk.averaged_values]
        for x, value in zip(f.samples, f.interval_values):
            assert float_oracle(data, math.acos(float(x) / 2)) == value


def test_jump_candidates_need_a_rank_drop():
    """For this V (two components, beta = 1), tV - V^T has the kernel
    vector (t, t^2, 0, 1 - t + t^2, 0), the pivot rows are I = (0, 2, 1, 4)
    in pivot order and det B_I is a multiple of |1 - z + z^2|^2, so the
    jump polynomial is (x - 1)^2.  B(z) keeps rank 4 at x = 1: no jump.
    Added to the trefoil's V, whose Delta vanishes at x = 1 too, the same
    candidate is a jump."""
    v = [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1], [1, -1, 0, 1, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]
    data = SeifertData.from_matrix(v, 2)
    assert signature._principal_block(data)[0] == (0, 2, 1, 4)
    jump, rank, bps, _ = signature._jump_structure(data)
    assert sign_at(list(jump), 1) == 0 and rank == 4 and bps == ()
    assert signature_function(data).interval_values == ((0, 1),)
    assert signature_nullity_at(data, 1) == pointwise_signature_nullity(data, 1) == (0, 1)
    assert float_oracle(data, math.pi / 3) == (0, 1)
    trefoil = [[-1, 1] + [0] * 5, [0, -1] + [0] * 5] + [[0, 0] + row for row in v]
    f = signature_function(SeifertData.from_matrix(trefoil, 2))
    assert f.breakpoints == (Fraction(1),)
    assert f.interval_values == ((-2, 1), (0, 1)) and f.averaged_values == ((-1, 2),)


def _candidates(jump) -> list:
    """(root, multiplicity) for every root of the jump polynomial in
    (-2, 2): rational roots counted among the split's linear factors,
    the others from the isolation."""
    rest, linear = _rational_root_split(list(jump))
    found = [(r, e) for r, e in collections.Counter(
        Fraction(-f[0], f[1]) for f in linear).items() if -2 < r < 2]
    if polys.degree(rest) >= 1:
        sqfree = realroots._yun(tuple(rest))[1]
        found += [(RealAlgebraic(sqfree, Fraction(a, d), Fraction(b, d)), e)
                  for a, b, d, e in realroots.isolate_real_roots(rest, -2, 2)]
    return found


def _padded_or_degenerate(rng) -> SeifertData:
    """A link with det B = 0: K # ... # K (one to three summands, so its
    jump polynomial may have a square or a cube factor) plus 0_k, or the
    degenerate family of a knot K under a random unimodular congruence.
    K is T(2,3), T(2,5) or a random braid knot."""
    knot = rng.choice([seifert_matrix_from_braid(torus_braid(2, 3)),
                       seifert_matrix_from_braid(torus_braid(2, 5)),
                       random_knot_data(rng, max_strands=3, max_len=8)])
    if rng.random() < 0.5:
        summed = knot
        for _ in range(rng.randint(0, 2)):
            summed = connected_sum(summed, knot)
        return zero_padded(summed, rng.randint(1, 3))
    k = rng.randint(0, 2)
    n = knot.size + 3 + k
    return degenerate_family(knot, rng.randint(-2, 2), k, random_unimodular(rng, n))


# beta = 1, and det B_I has the double root x = 1 where B(z) keeps rank r
NO_JUMP_AT_A_DOUBLE_ROOT = SeifertData.from_matrix(
    [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1], [1, -1, 0, 1, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 0]], 2)


@settings(max_examples=150, deadline=None)
@given(st.one_of(degenerate_seifert(), seeds.map(_padded_or_degenerate)))
@example(NO_JUMP_AT_A_DOUBLE_ROOT)
def test_root_multiplicity_decides_rank_drops(data):
    """At every root z0 of det B_I of odd multiplicity e, the full kernel
    of tests/bareiss_reference.py finds the rank of B(z0) below the
    generic rank r, and at e = 1 the nullity n - r + 1.  The signature
    function equals the one built by deciding every candidate with that
    kernel: the same breakpoints, the pointwise value at every sample, and
    at each breakpoint the mean of its neighbours with n minus the
    kernel's rank."""
    data = cold(data)
    n = data.size
    jump, rank, _, _ = signature._jump_structure(data)
    candidates = _candidates(jump)
    ranks = [bareiss_reference._rank_at(data, root) for root, _ in candidates]
    for (root, e), r_at in zip(candidates, ranks):
        if e % 2:
            assert r_at < rank
        if e == 1:
            assert r_at == rank - 1
    kept = [(root, r_at) for (root, _), r_at in zip(candidates, ranks) if r_at < rank]
    kept.sort(key=lambda bp: bp[0] if isinstance(bp[0], Fraction) else bp[0].to_float())
    f = signature_function(data)
    assert len(f.breakpoints) == len(kept)
    assert all(breakpoints_equal(a, b) for a, (b, _) in zip(f.breakpoints, kept))
    values = [pointwise_signature_nullity(data, x) for x in f.samples]
    assert list(f.interval_values) == values
    assert list(f.averaged_values) == [
        (signature._mean(left[0], right[0]), n - r_at)
        for left, right, (_, r_at) in zip(values, values[1:], kept)]


def _padded_torus_link(pq_k) -> SeifertData:
    (p, q), k = pq_k
    return zero_padded(seifert_matrix_from_braid(torus_braid(p, q)), k)


def _double(rng) -> SeifertData:
    """K # K for a torus or random braid knot K: every jump a double root."""
    knot = rng.choice([seifert_matrix_from_braid(torus_braid(2, 5)),
                       seifert_matrix_from_braid(torus_braid(3, 4)),
                       random_knot_data(rng, max_strands=3, max_len=8)])
    return connected_sum(knot, knot)


@settings(max_examples=80, deadline=None)
@given(st.one_of(degenerate_seifert(), seeds.map(_double),
                 st.tuples(st.sampled_from([(2, 4), (2, 6), (3, 3), (3, 6), (4, 4)]),
                           st.integers(0, 2)).map(_padded_torus_link)))
@example(mixed_double(4))
def test_resumed_rank_matches_the_full_kernel(data):
    """The ranks that _ranks_at reads off the trailing block, after each
    root's last pivot of the cached elimination that does not vanish
    there, equal the rank of the full kernel with the point test on every
    entry (tests/bareiss_reference.py), at every root in (-2, 2), rational
    and algebraic, of the jump polynomial and of each leading minor of
    B_I, so that earlier pivots vanish at some of the points: asked for
    all the roots at once, where the generic run stops at each root's own
    pivot and resumes from the stop before, and for each root alone."""
    data = cold(data)
    jump, _, _, _ = signature._jump_structure(data)
    polys_x = [list(jump)] + [list(m) for m in signature._principal_block(data)[1]]
    roots = [root for q in polys_x if polys.degree(q) >= 1
             for root, _ in _candidates(polys.primitive_positive(q)[1])]
    expected = [bareiss_reference._rank_at(data, root) for root in roots]
    assert signature._ranks_at(data, roots) == expected
    assert [signature._ranks_at(data, [root])[0] for root in roots] == expected
    assert signature._ranks_at(data, []) == []


def test_torus_link_nullity_is_the_root_multiplicity():
    """A torus link is fibered with monodromy of finite order, so the
    monodromy is diagonalizable and the nullity at each jump is the
    multiplicity of the jump as a root of the jump polynomial (det B is not
    0, so B_I = B): every T(p, q) with gcd(p, q) > 1 and n <= 60."""
    cases = [(p, q) for p in range(2, 9) for q in range(p, 62)
             if math.gcd(p, q) > 1 and (p - 1) * (q - 1) <= 60]
    assert len(cases) == 59 and (3, 30) in cases and (4, 20) in cases
    multiple = 0
    for p, q in cases:
        data = seifert_matrix_from_braid(torus_braid(p, q))
        _, rank, jumps, _ = signature._jump_structure(data)
        assert rank == data.size, (p, q)
        nullities = [nu for _, nu in signature_function(data).averaged_values]
        assert nullities == [e for _, e in jumps], (p, q)
        multiple += sum(e > 1 for _, e in jumps)
    assert multiple >= 50


# -- one elimination per Seifert matrix ------------------------------------------


def _family_route(data):
    """(I, Laurent minors of B) by a second route: t B(t) = -V^T +
    (V + V^T) t - V t^2, built from V and eliminated itself for the pivot
    rows I, and sympy's determinant of each leading block of t B_I(t), I
    in pivot order."""
    v, n = data.matrix, data.size
    dense = [[polys.trim([-v[j][i], v[i][j] + v[j][i], -v[i][j]]) for j in range(n)]
             for i in range(n)]
    block = tuple(_eliminate(_pack(dense)[1])[2])
    minors = [sympy_det([[dense[i][j] for j in block[:k]] for i in block[:k]])
              for k in range(1, len(block) + 1)]
    return block, [LaurentPoly.from_dense(p, -k) for k, p in enumerate(minors, 1)]


def _route_inputs():
    rng = random.Random(61)
    torus = [seifert_matrix_from_braid(torus_braid(p, q))
             for p, q in ((2, 5), (3, 4), (3, 7), (4, 5), (2, 6), (3, 6), (4, 4))]
    out = torus + [random_seifert_data(rng) for _ in range(40)]
    out += [zero_padded(torus[1], k) for k in (1, 3)]
    for k in range(3):
        knot = random_knot_data(rng, max_strands=3, max_len=8)
        n = knot.size + 3 + k
        out.append(degenerate_family(knot, rng.randint(-2, 2), k, random_unimodular(rng, n)))
    return out


def test_principal_block_from_the_shared_elimination(monkeypatch):
    """(I, minors) read off the one elimination of tV - V^T that a
    SeifertData keeps equal those of the elimination of t B(t), on torus
    knots and links, random Seifert matrices, zero-padded and degenerate
    families: each k x k minor is kept as q(x) with
    q(t + 1/t) (2 - t - 1/t)^(k // 2) = m(t), the Laurent minor of B.
    Delta and beta read the same elimination: tV - V^T is packed from V
    when the Seifert matrix is built, and never again by these reads."""
    x = LaurentPoly({1: 1, -1: 1})
    two_minus_x = LaurentPoly({0: 2, 1: -1, -1: -1})
    packed = mock.Mock(side_effect=linalg._packed)
    monkeypatch.setattr(linalg, "_packed", packed)
    for data in _route_inputs():
        packed.reset_mock()
        data = cold(data)
        assert packed.call_args_list[0] == mock.call(data.matrix)
        packed.reset_mock()
        block, minors = signature._principal_block(data)
        ref_block, ref_minors = _family_route(data)
        assert block == ref_block and len(minors) == len(ref_minors)
        for k, (q, m) in enumerate(zip(minors, ref_minors), 1):
            qx = sum((x ** i * c for i, c in enumerate(q)), LaurentPoly.zero())
            assert qx * two_minus_x ** (k // 2) == m
        alexander_from_seifert(data)
        link_nullity(data)
        packed.assert_not_called()


def test_form_of_seifert_data_is_the_form_of_b():
    """_packed packs tV - V^T straight from V, and (1 - t)/t times it is
    B(t), whose Laurent entries are built from V apart, on random Seifert
    matrices, zero-padded and degenerate families."""
    for data in _route_inputs():
        b = b_laurent(data)
        for form_row, b_row in zip(_form(data), b):
            assert [LaurentPoly.from_dense(p, -1) * ONE_MINUS_T for p in form_row] == b_row


@pytest.mark.parametrize("p, q", [(2, 5), (3, 7), (4, 5), (3, 10)])
def test_one_elimination_per_knot_report(monkeypatch, p, q):
    """From its construction to its report a knot runs the Z[t] kernel
    once: on tV - V^T, for the check of V - V^T, Delta, beta and the
    leading minors of B."""
    calls = count_eliminations(monkeypatch)
    data = seifert_matrix_from_braid(torus_braid(p, q))
    report = assemble_report(data)
    assert report.lower >= 1
    assert calls == [data.size]


def _forty_random_knots() -> list:
    rng = random.Random(5)
    return [random_knot_data(rng, max_strands=4, max_len=12) for _ in range(40)]


def test_one_elimination_per_report_with_a_zero_leading_minor(monkeypatch):
    """Random braid knots, most with an identically zero leading minor of
    B: from its construction to its report each runs the Z[t] kernel once,
    on tV - V^T, whose pivots give every leading minor of B in pivot order."""
    knots = _forty_random_knots()
    calls = count_eliminations(monkeypatch)
    zero_minor = 0
    for data in knots:
        calls.clear()
        data = cold(data)
        assemble_report(data)
        assert calls == [data.size]
        zero_minor += not all(signature._principal_block(data)[1])
    assert zero_minor >= 20


def test_signature_function_reads_every_sample_from_its_minors(monkeypatch):
    """Frobenius's rule reads every interval sample, also where a leading
    minor of B_I is identically 0: building a signature function never
    takes the trace form."""
    k0 = SeifertData.from_matrix([[0, 1], [0, 1]], 1)  # Delta = 1 and v_11 = 0
    inputs = [cold(data) for data in _forty_random_knots() + _route_inputs() + [
        connected_sum(k0, seifert_matrix_from_braid(torus_braid(3, 7)))]]
    spy = mock.Mock(side_effect=signature._trace_signature_nullity)
    monkeypatch.setattr(signature, "_trace_signature_nullity", spy)
    assert sum(not all(signature._principal_block(data)[1]) for data in inputs) >= 20
    for data in inputs:
        signature_function(data)
    spy.assert_not_called()


def _count_rank_work(monkeypatch) -> tuple[list, list]:
    """(point tests, generic runs) recorded from now on: each call of a
    test that _nonzero_at builds, and for every run of the kernel that
    stops after `stop` steps, (the steps it resumed from, stop).  Read
    fresh Seifert data (see cold), built before: its construction may
    stop and resume a run of its own, at t = 1."""
    tests, nonzero_at = [], signature._nonzero_at

    def counting(root):
        test = nonzero_at(root)

        def counted(q):
            tests.append(q)
            return test(q)
        return counted

    monkeypatch.setattr(signature, "_nonzero_at", counting)
    return tests, record_stops(monkeypatch.setattr)


# the stops of the one generic run of a report, one per class of roots
_STOPS = {"T(3,30)": [56], "T(3,6)": [8], "T(4,4)": [7], "T(4,8)": [18, 19],
          "T(4,20)": [54, 55], "T(5,10)": [32, 33], "T(6,9)": [37, 38],
          "T(2,3)#T(2,3)#T(3,7)#T(3,7)": [1, 15]}


@pytest.mark.parametrize("name, data, most", [
    *[(f"T({p},{q})", seifert_matrix_from_braid(torus_braid(p, q)), most)
      for p, q, most in [(3, 30, 100), (3, 6, 10), (4, 4, 10), (4, 8, 40),
                         (4, 20, 120), (5, 10, 80), (6, 9, 80)]],
    ("T(2,3)#T(2,3)#T(3,7)#T(3,7)", mixed_double(7), 350)])
def test_rank_at_tests_only_the_trailing_block(monkeypatch, name, data, most):
    """A report reads the nullity at its double roots from the trailing
    block after each root's own last pivot that does not vanish there:
    the point test runs a few times per root, where a whole elimination
    under it at every such root takes 953 tests for T(3,30).  The roots
    share one generic run besides the cached elimination, stopped at each
    class's own k in increasing order and resumed from the last stop, so
    its steps add up to the largest k.  From T(4,8) on the roots of a
    torus link fall into two classes, one step apart (54 and 55 for
    T(4,20)); in the mixed double 14 steps apart."""
    data = cold(data)
    tests, runs = _count_rank_work(monkeypatch)
    assemble_report(data)
    assert 0 < len(tests) <= most
    stops = [stop for _, stop in runs]
    assert stops == _STOPS[name]
    assert [start for start, _ in runs] == [0] + stops[:-1]


def test_jump_test_and_nullity_share_the_rank(monkeypatch):
    """T(2,5) # T(2,5) + 0_1 has det B = 0 and two double roots of det
    B_I: the jump test and the nullity at each root read one rank, so a
    cold build of its function computes two, in one call."""
    knot = seifert_matrix_from_braid(torus_braid(2, 5))
    data = zero_padded(connected_sum(knot, knot), 1)
    spy = mock.Mock(side_effect=signature._ranks_at)
    monkeypatch.setattr(signature, "_ranks_at", spy)
    assert len(signature_function(data).breakpoints) == 2
    spy.assert_called_once()
    assert len(spy.call_args.args[1]) == 2
    assert [e for _, e in signature._jump_structure(data)[2]] == [2, 2]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_one_elimination_per_padded_link_report(monkeypatch, k):
    """T(3,5) + 0_k has det B = 0 and simple roots of det B_I: the root
    multiplicity decides every jump and its nullity, so from the
    construction of the padded matrix to its report the Z[t] kernel runs
    once, on tV - V^T, and never at a root: V - V^T has the rank of its
    last pivot at t = 1."""
    knot = seifert_matrix_from_braid(torus_braid(3, 5))
    calls = count_eliminations(monkeypatch)
    data = zero_padded(knot, k)
    report = assemble_report(data)
    assert report.lower >= 1
    assert calls == [data.size]


@pytest.mark.parametrize("p, q, stop", [(3, 6, None), (4, 4, 6), (3, 3, None), (6, 9, None)])
def test_torus_link_construction_resumes_one_run_at_one(monkeypatch, p, q, stop):
    """The pivots of a torus link of three or more components vanish at
    t = 1 from the top.  The rank of the skew V - V^T is even and lies in
    [k, n - 1] for the last pivot p_k with p_k(1) != 0: for a link of three
    components (T(3,6), T(3,3), T(6,9)) k = n - 2, one even number fits,
    and the construction makes its one generic run.  For T(4,4) two fit,
    and the construction reads the rank by the resume rule, in one run
    stopped at k and resumed under the test at t = 1, besides the generic
    elimination it keeps."""
    runs = []
    eliminate = linalg._eliminate

    def spy(m, *args, stop=None, start=None, **kwargs):
        runs.append((len(start[1]) if start else 0, stop, bool(args or kwargs)))
        return eliminate(m, *args, stop=stop, start=start, **kwargs)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    data = seifert_matrix_from_braid(torus_braid(p, q))
    resumed = [(0, stop, False), (stop, None, True)] if stop else []
    assert runs == [(0, None, False)] + resumed
    assert data.size - data.components + 1 == 2 * data.genus


@pytest.mark.parametrize("data", [
    seifert_matrix_from_braid(torus_braid(3, 7)), seifert_matrix_from_braid(torus_braid(3, 6)),
    zero_padded(seifert_matrix_from_braid(torus_braid(3, 5)), 2)],
    ids=["T(3,7)", "T(3,6)", "T(3,5)+0_2"])
def test_copies_and_pickles_keep_the_run(monkeypatch, data):
    """copy, deepcopy and pickle keep the elimination that the constructor
    ran, so a clone runs the kernel only as the report on a fresh equal
    SeifertData does after its construction, and reports the same.  The
    clone's run has the fields of the original's, and its ranks at t = 1
    and at the roots of det B_I, asked twice, equal the original's."""
    calls = count_eliminations(monkeypatch)
    fresh = cold(data)
    built = len(calls)
    report = assemble_report(fresh).to_json()
    after = calls[built:]
    tests = [sum] + [signature._nonzero_at(root)
                     for root, _ in signature._jump_structure(fresh)[2]]
    ranks = data._run.ranks_at(tests)
    assert data._run.ranks_at(tests) == ranks
    fields = ("sign", "pivots", "rows", "cols", "v")
    for clone in (copy.copy(data), copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
        assert clone == data and not clone._derived
        assert [getattr(clone._run, f) for f in fields] == [getattr(data._run, f) for f in fields]
        calls.clear()
        assert assemble_report(clone).to_json() == report
        assert calls == after
        assert clone._run.ranks_at(tests) == clone._run.ranks_at(tests) == ranks

