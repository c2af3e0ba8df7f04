"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime (run pytest with -s to see them on success)."""

import math
import random
import time
from fractions import Fraction

from linkbound import (BandCertificate, BoundReport, InfectionDecl,
                       LaurentPoly, SeifertData, alexander_from_seifert,
                       assemble_report, band_certificate_genus, builtin_catalog,
                       connected_sum, float_oracle, fox_milnor_test,
                       infection_transfer, link_nullity,
                       mirror, pointwise_signature_nullity,
                       seifert_matrix_from_braid, signature_function,
                       stabilize, torus_braid, units_equal,
                       width_upper_bound)

from helpers import random_knot_data, random_seifert_data
from read_reference import functions_equal

T35_DELTA = LaurentPoly({8: 1, 7: -1, 5: 1, 4: -1, 3: 1, 1: -1, 0: 1})
COMPANION_DELTA = LaurentPoly({2: 2, 1: -5, 0: 2})


class _Timer:
    def __init__(self, name, limit):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({dt:.2f}s, limit {self.limit}s)")
        if exc_type is None:
            assert dt < self.limit, f"{self.name}: {dt:.2f}s exceeds {self.limit}s"
        return False


def test_criterion_1_alexander_regression():
    with _Timer("criterion 1: T(3,5) Alexander polynomial", 1.0):
        data = seifert_matrix_from_braid(torus_braid(3, 5))
        assert alexander_from_seifert(data) == T35_DELTA


def test_criterion_2_signature_magnitude():
    with _Timer("criterion 2: T(3,5) max |sigma| = 8 near z = -1", 5.0):
        f = signature_function(seifert_matrix_from_braid(torus_braid(3, 5)))
        assert f.max_abs_sigma() == 8
        assert f.argmax_interval() == 0  # the interval containing x = -2
        # sign is reported (it is -8 in this convention) but only |sigma|
        # is pinned: orientation conventions differ between sources
        assert abs(f.interval_values[0][0]) == 8


def test_criterion_3_exact_bound():
    with _Timer("criterion 3: T(3,5) report lower 4 = upper 4", 5.0):
        report = assemble_report(seifert_matrix_from_braid(torus_braid(3, 5)))
        assert (report.lower, report.upper, report.exact) == (4, 4, True)


def test_criterion_4_width_bound():
    with _Timer("criterion 4: width 10 product, upper bound 5", 1.0):
        product = T35_DELTA * COMPANION_DELTA
        assert product.width() == 10
        assert width_upper_bound(product) == 5


def test_criterion_5_band_certificate():
    with _Timer("criterion 5: 11 bands to a 4-unlink gives genus 4", 1.0):
        assert band_certificate_genus(BandCertificate(11, 4)) == 4


def test_criterion_6_fox_milnor():
    with _Timer("criterion 6: Fox-Milnor at degree cap 12", 10.0):
        res = fox_milnor_test(T35_DELTA * COMPANION_DELTA)
        assert res.verdict == "fails"
        res2 = fox_milnor_test(COMPANION_DELTA)
        assert res2.verdict == "passes"
        assert res2.witness == LaurentPoly({1: 1, 0: -2})  # t - 2


def test_criterion_7_infection_transfer():
    with _Timer("criterion 7: infection transfer keeps {4, 4}", 1.0):
        base = BoundReport(
            lower=4, upper=4, slice_verdict="obstructed", components=1)
        decl = InfectionDecl(axes=2, linking_numbers=((0,), (0,)),
                             double_points=7, milnor_vanishing_length=14)
        out = infection_transfer(base, decl)
        assert (out.lower, out.upper, out.exact) == (4, 4, True)
        assert out.assumptions


def test_criterion_8_oracle_equivalence():
    with _Timer("criterion 8: exact vs float oracle, 100 x 20 samples", 60.0):
        rng = random.Random(20240817)
        disagreements = 0
        for _ in range(100):
            data = random_seifert_data(rng, max_size=6, max_entry=3)
            f = signature_function(data)
            walls = [float(bp) if isinstance(bp, Fraction) else bp.to_float()
                     for bp in f.breakpoints]
            taken = 0
            while taken < 20:
                x = Fraction(rng.randint(-1995, 1995), 1000)
                if any(abs(float(x) - w) <= 1e-3 for w in walls):
                    continue
                taken += 1
                theta = math.acos(float(x) / 2)
                if pointwise_signature_nullity(data, x) != float_oracle(data, theta):
                    disagreements += 1
        assert disagreements == 0


def test_criterion_9_invariance_suite():
    with _Timer("criterion 9: invariance suite (4 x >= 50 instances)", 120.0):
        rng = random.Random(5150)

        # connected-sum additivity of signature functions
        for _ in range(50):
            a = random_knot_data(rng, max_strands=3, max_len=6)
            b = random_knot_data(rng, max_strands=3, max_len=6)
            s = connected_sum(a, b)
            fs = signature_function(s)
            fa, fb = signature_function(a), signature_function(b)
            for x in fs.samples:
                assert fs.value_at(x)[0] == fa.value_at(x)[0] + fb.value_at(x)[0]
                assert fs.value_at(x)[1] == fa.value_at(x)[1] + fb.value_at(x)[1]
            for bp, (sig, _) in zip(fs.breakpoints, fs.averaged_values):
                assert sig == fa.value_at(bp)[0] + fb.value_at(bp)[0]

        # mirror antisymmetry
        for _ in range(50):
            data = random_seifert_data(rng, max_size=5)
            f = signature_function(data)
            g = signature_function(mirror(data))
            assert tuple(-s for s, _ in f.interval_values) == \
                tuple(s for s, _ in g.interval_values)
            assert tuple(-s for s, _ in f.averaged_values) == \
                tuple(s for s, _ in g.averaged_values)

        # stabilization invariance of (Delta up to units, full function)
        for _ in range(50):
            data = random_seifert_data(rng, max_size=6, max_entry=3)
            st = stabilize(data, rng.choice(["row-first", "column-first"]),
                           [rng.randint(-3, 3) for _ in range(data.size)])
            assert units_equal(alexander_from_seifert(data),
                               alexander_from_seifert(st))
            assert functions_equal(signature_function(data),
                                   signature_function(st))

        # averaged value = mean of neighbours at every breakpoint, with a
        # float-oracle cross-check where the samples are float-safe
        for _ in range(50):
            data = random_seifert_data(rng, max_size=5)
            f = signature_function(data)
            walls = [float(bp) if isinstance(bp, Fraction) else bp.to_float()
                     for bp in f.breakpoints]
            for i, (sig, _) in enumerate(f.averaged_values):
                left, right = f.interval_values[i][0], f.interval_values[i + 1][0]
                assert sig == Fraction(left + right, 2)
                for side, sample in ((left, f.samples[i]), (right, f.samples[i + 1])):
                    xf = float(sample)
                    if all(abs(xf - w) > 1e-3 for w in walls) and abs(xf) < 1.999:
                        oracle_sig, _ = float_oracle(data, math.acos(xf / 2))
                        assert oracle_sig == side


def test_criterion_10_nullity_range():
    with _Timer("criterion 10: nullity range and annulus cases", 5.0):
        assert link_nullity(SeifertData.from_matrix([[0]], 2)) == 1
        assert link_nullity(SeifertData.from_matrix([[1]], 2)) == 0
        for entry in builtin_catalog():
            data = entry.seifert_data()
            beta = link_nullity(data)
            assert 0 <= beta <= data.components - 1
        rng = random.Random(31415)
        for _ in range(40):
            data = random_seifert_data(rng, max_size=6)
            beta = link_nullity(data)
            assert 0 <= beta <= data.components - 1
            if data.components == 1:
                assert beta == 0
