import math
import random
from fractions import Fraction

import numpy as np
import pytest

from linkbound import (BraidWord, CirclePoint, HermitianFamily, LaurentPoly,
                       RealAlgebraic, SeifertData, SingularFamilyError,
                       alexander_from_seifert, assemble_report, b_family, connected_sum,
                       float_oracle, functions_equal, involution, link_nullity,
                       mirror, pointwise_signature_nullity,
                       seifert_matrix_from_braid, signature_function,
                       signature_nullity_at, stabilize, torus_braid,
                       units_equal, witt_evaluate)
from linkbound import polys, signature
from linkbound.linalg import _bareiss, poly_det
from linkbound.signature import (_diagonal_prefix, breakpoints_equal,
                                 symmetric_laurent_to_xpoly)

from helpers import (cold_caches as _clear_caches, count_eliminations,
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


# -- b_family --------------------------------------------------------------------

def test_b_family_trefoil_entries():
    fam = b_family(TREFOIL_V)
    assert fam.entries[0][0] == LaurentPoly({1: 1, -1: 1, 0: -2})
    assert fam.entries[0][1] == LaurentPoly({0: 1, 1: -1})
    assert fam.entries[1][0] == LaurentPoly({0: 1, -1: -1})
    assert fam.entries[1][1] == fam.entries[0][0]


def test_b_family_empty():
    assert b_family(UNKNOT).size == 0


def test_b_family_vanishes_at_one():
    rng = random.Random(6)
    for _ in range(10):
        fam = b_family(random_seifert_data(rng, max_size=4))
        for row in fam.entries:
            for p in row:
                assert p.evaluate(1) == 0


def test_b_family_hermitian_validation():
    rng = random.Random(61)
    for _ in range(20):
        fam = b_family(random_seifert_data(rng, max_size=5))
        for i in range(fam.size):
            for j in range(fam.size):
                assert fam.entries[j][i] == involution(fam.entries[i][j])
    with pytest.raises(ValueError):
        HermitianFamily(((LaurentPoly.t(),),))


def test_symmetric_to_xpoly():
    assert symmetric_laurent_to_xpoly(LaurentPoly({1: 1, -1: 1})) == [0, 1]
    assert symmetric_laurent_to_xpoly(LaurentPoly({2: 1, -2: 1})) == [-2, 0, 1]
    with pytest.raises(ValueError):
        symmetric_laurent_to_xpoly(LaurentPoly.t())


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


# -- Witt evaluation ---------------------------------------------------------------

def test_witt_positive_entry():
    fam = HermitianFamily(((LaurentPoly({1: 1, -1: 1}),),))
    assert witt_evaluate(fam, Fraction(1)) == 1


def test_witt_hyperbolic_is_zero():
    hyp = HermitianFamily(((LaurentPoly.zero(), LaurentPoly.one()),
                           (LaurentPoly.one(), LaurentPoly.zero())))
    for x in (Fraction(-2), Fraction(-1), Fraction(0), Fraction(3, 2), Fraction(2)):
        assert witt_evaluate(hyp, x) == 0


def test_witt_matches_signature_engine():
    fam = b_family(TREFOIL_V)
    assert witt_evaluate(fam, Fraction(-2)) == -2


def test_witt_rejects_singular():
    fam = b_family(SeifertData.from_matrix([[0]], 2))
    with pytest.raises(SingularFamilyError):
        witt_evaluate(fam, Fraction(0))


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
    A = b_family(data)
    for x in signature_function(data).samples:
        oracle = float_oracle(data, math.acos(float(x) / 2))
        assert signature._trace_signature_nullity(A, x) == oracle
        assert pointwise_signature_nullity(data, x) == oracle


def test_conjugation_symmetry_of_family():
    # B(conj z) and B(z) have the same eigenvalues, so sigma(theta) = sigma(-theta)
    rng = random.Random(77)
    for _ in range(10):
        data = random_seifert_data(rng, max_size=4)
        fam = b_family(data)
        n = fam.size
        theta = rng.uniform(0.1, 3.0)
        for sign in (1, -1):
            z = complex(math.cos(sign * theta), math.sin(sign * theta))
            m = np.array([[complex(fam.entries[i][j].evaluate_complex(z))
                           for j in range(n)] for i in range(n)])
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


def test_b_family_built_once_per_seifert_matrix(monkeypatch):
    """B(t) is never built as a Laurent family for a SeifertData: not for
    the function, not for 100 reads, not for a cold report.  Every reader
    takes tV - V^T straight from V."""
    built = []
    post_init = HermitianFamily.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(HermitianFamily, "__post_init__", counting)
    _clear_caches()
    data = seifert_matrix_from_braid(torus_braid(3, 7))
    f = signature_function(data)
    _answers(data, _read_stream(random.Random(5), len(f.breakpoints), 100))
    _clear_caches()
    assemble_report(data)
    assert len(built) == 0


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
    """A = b (u, 1)^T (u, 1)^* with b = t + 1/t and u = t^2 - t + 1 has
    generic rank 1 and pivot row 0, so det A_I = b |u|^2.  u vanishes on
    the circle at x = 1, where A(z) still has rank 1: only the root x = 0
    of b is a jump."""
    b = LaurentPoly({-1: 1, 1: 1})
    u = LaurentPoly({0: 1, 1: -1, 2: 1})
    ub = involution(u)
    A = HermitianFamily(((b * u * ub, b * u), (b * ub, b)))
    f = signature_function(A)
    assert f.breakpoints == (Fraction(0),)
    assert f.interval_values == ((-1, 1), (1, 1))
    assert f.averaged_values == ((0, 2),)
    assert signature_nullity_at(A, 1) == pointwise_signature_nullity(A, 1) == (1, 1)
    assert signature_nullity_at(A, 0) == (0, 2)


# -- one elimination per Seifert matrix ------------------------------------------


def _family_route(A):
    """(I, Laurent minors) by the general route: the form of the hermitian
    family A, multiplied back to L t^s A = (1 - t)^c D and eliminated
    itself; L = 1 for B(t)."""
    mult, shift, c, dense = signature._form(A)
    assert mult == 1
    dense = [[polys.mul(p, [1, -1] if c else [1]) for p in row] for row in dense]
    _, pivots, rows, cols = _bareiss(dense)
    block = sorted(rows)
    if _diagonal_prefix(rows, cols) < len(block) < len(dense):
        dense = [[dense[i][j] for j in block] for i in block]
        _, pivots, rows, cols = _bareiss(dense)
    k0 = _diagonal_prefix(rows, cols)
    minors = pivots[:k0] + [poly_det([row[:k] for row in dense[:k]])
                            for k in range(k0 + 1, len(block) + 1)]
    return tuple(block), [LaurentPoly.from_dense(p, -shift * k) for k, p in enumerate(minors, 1)]


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
    the general route through _form(b_family(data)), on torus knots and links,
    random Seifert matrices, zero-padded and degenerate families: each
    k x k minor is kept as q(x) with q(t + 1/t) (2 - t - 1/t)^(k // 2) =
    m(t), the Laurent minor, since B(1) = 0 (c = 1 in _minor_x).  Delta
    and beta read the same cache entry."""
    x = LaurentPoly({1: 1, -1: 1})
    two_minus_x = LaurentPoly({0: 2, 1: -1, -1: -1})
    for data in _route_inputs():
        _clear_caches()
        block, minors = signature._principal_block(data)
        ref_block, ref_minors = _family_route(b_family(data))
        assert block == ref_block and len(minors) == len(ref_minors)
        for k, (q, m) in enumerate(zip(minors, ref_minors), 1):
            qx = sum((x ** i * c for i, c in enumerate(q)), LaurentPoly.zero())
            assert qx * two_minus_x ** (k // 2) == m
        alexander_from_seifert(data)
        link_nullity(data)
        info = signature._elimination.cache_info()
        assert (info.misses, info.hits) == (1, 2)


def test_form_of_seifert_data_is_the_form_of_b():
    """_form builds (1, 1, 1, tV - V^T) straight from V, and the general
    route through the Laurent entries of B(t) gives the same form, on
    random Seifert matrices, zero-padded and degenerate families.  For
    V = 0, B = 0 has no exponent to read a shift from, and every shift
    fits; only then do the shifts differ."""
    for data in _route_inputs():
        form, ref = signature._form(data), signature._form(b_family(data))
        if not any(map(any, data.matrix)):
            assert (form[1], ref[1]) == (1, 0)
            form, ref = form[:1] + form[2:], ref[:1] + ref[2:]
        assert form == ref


@pytest.mark.parametrize("p, q", [(2, 5), (3, 7), (4, 5), (3, 10)])
def test_one_elimination_per_knot_report(monkeypatch, p, q):
    """A knot report runs the Z[t] kernel once: on tV - V^T, for Delta,
    beta and the leading minors of B."""
    data = seifert_matrix_from_braid(torus_braid(p, q))
    calls = count_eliminations(monkeypatch)
    report = assemble_report(data)
    assert report.lower >= 1
    assert calls == [data.size]
