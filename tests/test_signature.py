import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from linkbound import (BraidWord, CirclePoint, LaurentPoly, RealAlgebraic, SeifertData,
                       alexander_from_seifert, assemble_report, connected_sum,
                       float_oracle, functions_equal, involution, link_nullity,
                       mirror, pointwise_signature_nullity,
                       seifert_matrix_from_braid, signature_function,
                       signature_nullity_at, stabilize, torus_braid,
                       units_equal)
from linkbound import polys, signature
from linkbound.linalg import _bareiss, poly_det
from linkbound.signature import _diagonal_prefix, _minor_x, breakpoints_equal

from helpers import (b_laurent, cold_caches as _clear_caches, count_eliminations,
                     degenerate_family, random_knot_data, random_seifert_data,
                     random_unimodular, zero_padded)
from quadfield_reference import QuadFieldElem, quad_eval

TREFOIL_V = SeifertData.from_matrix([[-1, 1], [0, -1]], 1, "trefoil")
UNKNOT = seifert_matrix_from_braid(BraidWord(1, ()))


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
        assert abs(approx - p.evaluate_complex(zc)) < 1e-9


def test_quadfield_rejects_boundary():
    with pytest.raises(ValueError):
        QuadFieldElem(1, 1, 2)


# -- B(t) and its integer form ---------------------------------------------------

T_LAURENT = LaurentPoly.t()


def test_b_family_trefoil_entries():
    """The form of the trefoil is tV - V^T, and (1 - t)/t times it is B(t)."""
    form = signature._form(TREFOIL_V)
    assert form == (((1, -1), (0, 1)), ((-1,), (1, -1)))
    b = [[LaurentPoly.from_dense(p, -1) * (1 - T_LAURENT) for p in row] for row in form]
    assert b[0][0] == LaurentPoly({1: 1, -1: 1, 0: -2})
    assert b[0][1] == LaurentPoly({0: 1, 1: -1})
    assert b[1][0] == LaurentPoly({0: 1, -1: -1})
    assert b[1][1] == b[0][0]


def test_b_family_empty():
    assert signature._form(UNKNOT) == ()
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
        form = signature._form(random_seifert_data(rng, max_size=5))
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


def test_algebraic_point_outside_the_circle_rejected():
    """An algebraic x outside (-2, 2), sqrt(5) here, is no circle point:
    signature_nullity_at rejects it as CirclePoint does, instead of
    answering with an interval value."""
    root5 = RealAlgebraic([-5, 0, 1], 2, 3)
    for call in (lambda: CirclePoint(root5), lambda: signature_nullity_at(TREFOIL_V, root5)):
        with pytest.raises(ValueError, match="outside"):
            call()
    assert signature_nullity_at(TREFOIL_V, RealAlgebraic([-2, 0, 1], 1, 2)) == (0, 0)


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


def test_witt_matches_signature_engine():
    """At x = -2 the averaged value, the congruence of V + V^T and the
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
    and the Jacobi read agree with the float oracle."""
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
            m = np.array([[complex(p.evaluate_complex(z)) for p in row] for row in fam])
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
        assert quad_eval(involution(p), x) == quad_eval(p, x).conjugate()


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
    fresh equal one after every cache is cleared, give the same answers;
    to_json is the same before and after them."""
    data = make()
    f = signature_function(data)
    before = f.to_json()
    reads = _read_stream(random.Random(7), len(f.breakpoints), 200)
    answers = []
    for seed, fresh in ((1, False), (2, False), (3, True)):
        if fresh:
            _clear_caches()
            data = make()
        order = list(range(len(reads)))
        random.Random(seed).shuffle(order)
        got = _answers(data, [reads[i] for i in order])
        answers.append([a for _, a in sorted(zip(order, got))])
        assert signature_function(data).to_json() == before
    assert answers[0] == answers[1] == answers[2]


def test_one_gcd_per_jump_polynomial(monkeypatch):
    """The nine algebraic breakpoints of T(2,19) share one defining
    polynomial, so a cold report takes the gcd in RealAlgebraic.vanishes
    once per (q, polynomial) pair, not once per breakpoint."""
    data = seifert_matrix_from_braid(torus_braid(2, 19))
    f = signature_function(data)
    defining = {bp.poly for bp in f.breakpoints if isinstance(bp, RealAlgebraic)}
    assert len(f.breakpoints) == 9 and len(defining) == 1
    pairs = []
    gcd_poly = polys.gcd_poly

    def counted(p, q):
        if tuple(q) in defining:
            pairs.append((tuple(p), tuple(q)))
        return gcd_poly(p, q)

    monkeypatch.setattr(polys, "gcd_poly", counted)
    _clear_caches()
    assemble_report(seifert_matrix_from_braid(torus_braid(2, 19)))
    assert pairs and len(pairs) == len(set(pairs)) < len(f.breakpoints)


def test_one_squarefree_pass_per_jump_polynomial(monkeypatch):
    """A cold T(2,19) report takes gcd(p, p') of its jump polynomial once:
    the square-free part of the breakpoints and the root isolation read
    one decomposition."""
    jump = signature._jump_structure(seifert_matrix_from_braid(torus_braid(2, 19)))[0]
    passes = []
    gcd_poly = polys.gcd_poly

    def counted(p, q):
        if polys.trim(q) == polys.derivative(p):
            passes.append(tuple(polys.primitive(p)))
        return gcd_poly(p, q)

    monkeypatch.setattr(polys, "gcd_poly", counted)
    _clear_caches()
    assemble_report(seifert_matrix_from_braid(torus_braid(2, 19)))
    assert passes.count(jump) == 1


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
    _clear_caches()
    data = seifert_matrix_from_braid(torus_braid(3, 7))
    f = signature_function(data)
    _answers(data, _read_stream(random.Random(5), len(f.breakpoints), 100))
    assert callers == []
    _clear_caches()
    assemble_report(data)
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
    vector (t, t^2, 1 - t + t^2, 0, 0), the pivot rows are I = {0, 1, 3, 4}
    and det B_I is a multiple of |1 - z + z^2|^2, so the jump polynomial
    has the root x = 1.  B(z) keeps rank 4 there: no jump.  Added to the
    trefoil's V, whose Delta vanishes at x = 1 too, the same candidate is
    a jump."""
    v = [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0], [1, -1, 1, 0, 0], [1, 0, 0, 0, 0]]
    data = SeifertData.from_matrix(v, 2)
    assert signature._principal_block(data)[0] == (0, 1, 3, 4)
    jump, rank, bps = signature._jump_structure(data)
    assert polys.sign_at(list(jump), 1) == 0 and rank == 4 and bps == ()
    assert signature_function(data).interval_values == ((0, 1),)
    assert signature_nullity_at(data, 1) == pointwise_signature_nullity(data, 1) == (0, 1)
    assert float_oracle(data, math.pi / 3) == (0, 1)
    trefoil = [[-1, 1] + [0] * 5, [0, -1] + [0] * 5] + [[0, 0] + row for row in v]
    f = signature_function(SeifertData.from_matrix(trefoil, 2))
    assert f.breakpoints == (Fraction(1),)
    assert f.interval_values == ((-2, 1), (0, 1)) and f.averaged_values == ((-1, 2),)


# -- one elimination per Seifert matrix ------------------------------------------


def _family_route(data):
    """(I, Laurent minors of B) by a second route: t B(t) = -V^T +
    (V + V^T) t - V t^2, built from V and eliminated itself."""
    v, n = data.matrix, data.size
    dense = [[polys.trim([-v[j][i], v[i][j] + v[j][i], -v[i][j]]) for j in range(n)]
             for i in range(n)]
    _, pivots, rows, cols = _bareiss(dense)
    block = sorted(rows)
    if _diagonal_prefix(rows, cols) < len(block) < len(dense):
        dense = [[dense[i][j] for j in block] for i in block]
        _, pivots, rows, cols = _bareiss(dense)
    k0 = _diagonal_prefix(rows, cols)
    minors = pivots[:k0] + [poly_det([row[:k] for row in dense[:k]])
                            for k in range(k0 + 1, len(block) + 1)]
    return tuple(block), [LaurentPoly.from_dense(p, -k) for k, p in enumerate(minors, 1)]


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


def test_principal_block_from_the_shared_elimination():
    """(I, minors) read off the one cached elimination of tV - V^T equal
    those of the elimination of t B(t), on torus knots and links, random
    Seifert matrices, zero-padded and degenerate families: each k x k
    minor is kept as q(x) with q(t + 1/t) (2 - t - 1/t)^(k // 2) = m(t),
    the Laurent minor of B.  Delta and beta read the same cache entry."""
    x = LaurentPoly({1: 1, -1: 1})
    two_minus_x = LaurentPoly({0: 2, 1: -1, -1: -1})
    for data in _route_inputs():
        _clear_caches()
        block, minors = signature._principal_block(data)
        ref_block, ref_minors = _family_route(data)
        assert block == ref_block and len(minors) == len(ref_minors)
        for k, (q, m) in enumerate(zip(minors, ref_minors), 1):
            qx = sum((x ** i * c for i, c in enumerate(q)), LaurentPoly.zero())
            assert qx * two_minus_x ** (k // 2) == m
        alexander_from_seifert(data)
        link_nullity(data)
        info = signature._elimination.cache_info()
        assert (info.misses, info.hits) == (1, 2)


def test_form_of_seifert_data_is_the_form_of_b():
    """_form builds tV - V^T straight from V, and (1 - t)/t times it is
    B(t), whose Laurent entries are built from V apart, on random Seifert
    matrices, zero-padded and degenerate families."""
    for data in _route_inputs():
        b = b_laurent(data)
        for form_row, b_row in zip(signature._form(data), b):
            assert [LaurentPoly.from_dense(p, -1) * (1 - T_LAURENT) for p in form_row] == b_row


@pytest.mark.parametrize("p, q", [(2, 5), (3, 7), (4, 5), (3, 10)])
def test_one_elimination_per_knot_report(monkeypatch, p, q):
    """A knot report runs the Z[t] kernel once: on tV - V^T, for Delta,
    beta and the leading minors of B."""
    data = seifert_matrix_from_braid(torus_braid(p, q))
    calls = count_eliminations(monkeypatch)
    report = assemble_report(data)
    assert report.lower >= 1
    assert calls == [data.size]
