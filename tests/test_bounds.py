import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import linkbound.bounds
import linkbound.linalg
from linkbound import (BandCertificate, BoundReport, BraidWord, CatalogEntry, CirclePoint,
                       FoxMilnorResult, InconsistentBounds, InfectionDecl,
                       InvalidSeifertData, LaurentPoly, ParseError, Provenance, SeifertData, ZeroPolynomialError,
                       alexander_from_seifert, assemble_report,
                       band_certificate_genus, connected_sum, float_oracle,
                       infection_transfer, link_nullity, lt_lower_bound, mirror,
                       seifert_matrix_from_braid,
                       seifert_genus_upper_bound, signature_function,
                       fox_milnor_test, slice_obstruction, torus_braid,
                       width_upper_bound)
from linkbound import polys
from linkbound.bounds import SliceObstruction, _slice_verdict
from linkbound.braids import _Value

from helpers import cold, count_eliminations, random_knot_data, zero_padded

UNKNOT = seifert_matrix_from_braid(BraidWord(1, ()))
TREFOIL = seifert_matrix_from_braid(BraidWord(2, (1, 1, 1)))
T35 = seifert_matrix_from_braid(torus_braid(3, 5))
COMPANION = SeifertData.from_matrix([[0, 2], [1, 0]], 1, "companion")
FIGURE_EIGHT = seifert_matrix_from_braid(BraidWord(3, (1, -2, 1, -2)))


def test_lt_lower_bound_examples():
    assert lt_lower_bound(UNKNOT)[0] == 0
    assert lt_lower_bound(TREFOIL)[0] == 1
    bound, witness = lt_lower_bound(T35)
    assert bound == 4
    assert witness.x < Fraction(-19, 10)  # attained near z = -1


def test_width_upper_bound_examples():
    assert width_upper_bound(LaurentPoly.one()) == 0
    product = LaurentPoly({8: 1, 7: -1, 5: 1, 4: -1, 3: 1, 1: -1, 0: 1}) * \
        LaurentPoly({2: 2, 1: -5, 0: 2})
    assert width_upper_bound(product) == 5
    assert width_upper_bound(LaurentPoly({2: 1, 1: -1, 0: 1})) == 1
    with pytest.raises(ZeroPolynomialError):
        width_upper_bound(LaurentPoly.zero())


def test_band_certificate_examples():
    assert band_certificate_genus(BandCertificate(11, 4)) == 4
    assert band_certificate_genus(BandCertificate(0, 1)) == 0
    assert band_certificate_genus(BandCertificate(2, 3)) == 0
    assert band_certificate_genus(BandCertificate(3, 2)) == 1


def test_band_certificate_parity_guard():
    for b in range(0, 7):
        for u in range(1, 7):
            if (u - b) % 2 == 0:
                with pytest.raises(ParseError, match="must be odd for one boundary circle"):
                    BandCertificate(b, u)


def test_band_certificate_negative_genus_rejected():
    """Refused where the certificate is built, so that
    assemble_report(data, [BandCertificate(0, 3)]) cannot be called: the
    parity and the genus were checked by band_certificate_genus inside the
    report, which raised a bare ValueError."""
    with pytest.raises(ParseError, match="^invalid certificate: negative genus -1$"):
        BandCertificate(0, 3)


@pytest.mark.parametrize("bands, components", [(-1, 2), (1, 0)])
def test_band_certificate_refuses_counts_out_of_range(bands, components):
    with pytest.raises(ParseError, match="^need bands >= 0 and at least one unlink component$"):
        BandCertificate(bands, components)


@pytest.mark.parametrize("bands, components", [
    (2.0, 1), (11, 4.0), (Fraction(11), 4), ("11", 4), (True, 2), (11, 4.5)], ids=repr)
def test_band_certificate_refuses_non_integers(bands, components):
    """BandCertificate(2.0, 1) used to give a float genus 1.0."""
    with pytest.raises(ParseError, match="must be integers"):
        BandCertificate(bands, components)


@pytest.mark.parametrize("axes, double_points, length", [
    (1, 0.5, 1), (1.0, 0, 0), (1, 0, 0.0), (1, Fraction(1), 2), (True, 0, 0), (1, "0", 0)],
    ids=repr)
def test_infection_declaration_refuses_non_integers(axes, double_points, length):
    """InfectionDecl(1, ((0,),), 0.5, 1) used to be accepted."""
    with pytest.raises(ParseError, match="must be integers"):
        InfectionDecl(axes, ((0,),), double_points, length)


@pytest.mark.parametrize("entry", [0.5, 0.0, True, "0", Fraction(0)], ids=repr)
def test_infection_declaration_refuses_non_integer_linking_numbers(entry):
    with pytest.raises(ParseError, match="must be integers"):
        InfectionDecl(1, ((0, entry),), 0, 0)


I64 = np.int64


@pytest.mark.parametrize("make, ints, dump", [
    (lambda: BandCertificate(I64(11), I64(4)),
     lambda c: (c.bands, c.resulting_unlink_components),
     lambda c: assemble_report(T35, certs=[c]).to_json()),
    (lambda: InfectionDecl(I64(1), ((I64(0), I64(2)),), I64(1), I64(2)),
     lambda d: (d.axes, *d.linking_numbers[0], d.double_points, d.milnor_vanishing_length),
     lambda d: d.to_json()),
    (lambda: BoundReport(I64(1), I64(2), "inconclusive", components=I64(3)),
     lambda r: (r.lower, r.upper, r.components),
     lambda r: r.to_json()),
    (lambda: BoundReport(I64(0), None, "inconclusive"),
     lambda r: (r.lower, r.components),
     lambda r: infection_transfer(r, InfectionDecl(1, ((I64(1),),), 0, 0)).to_json())],
    ids=["band certificate", "infection declaration", "bound report", "no upper bound"])
def test_index_counts_stored_as_ints(make, ints, dump):
    """A NumPy integer used to be kept, and json.dumps of the report or the
    declaration raised TypeError; an np.int64 linking number was refused."""
    made = make()
    assert {type(x) for x in ints(made)} == {int}
    json.dumps(dump(made))


@pytest.mark.parametrize("lower, upper, components", [
    (1.5, 2, 1), (True, 2, 1), (Fraction(1), None, 1), (1, 2.0, 1), (1, True, 1),
    (0, "2", 1), (1, 2, 1.0), (1, None, True)], ids=repr)
def test_bound_report_refuses_non_integers(lower, upper, components):
    """BoundReport(1.5, 2, "inconclusive") used to be accepted, and
    infection_transfer carried "lower": 1.5 into its output."""
    with pytest.raises(ParseError, match="must be integers"):
        BoundReport(lower, upper, "inconclusive", components=components)


@pytest.mark.parametrize("value", [1.5, 2.0, True, "3", Fraction(2)], ids=repr)
def test_provenance_refuses_non_integers(value):
    """Provenance("lower", 1.5, "y") used to be accepted, and
    infection_transfer copied the value into its output."""
    with pytest.raises(ParseError, match="must be integers"):
        Provenance("lower", value, "y")


@pytest.mark.parametrize("bound", ["upper", "lower"])
def test_provenance_value_stored_as_int(bound):
    """Provenance("upper", np.int64(2), "x") used to keep the int64, and
    json.dumps of an infection transfer that copied it raised TypeError."""
    p = Provenance(bound, I64(2), "x")
    assert type(p.value) is int
    base = BoundReport(1, 2, "inconclusive", (p,))
    json.dumps(infection_transfer(base, InfectionDecl(1, ((0,),), 0, 0)).to_json())


def test_bound_report_stores_tuples_of_provenance():
    """A BoundReport kept the lists it was given: it was unequal to the same
    report built from tuples, hash() raised TypeError, appending to the
    list changed the report, and a provenance entry "x" failed only later,
    in to_json, with AttributeError."""
    p = Provenance("lower", 0, "x")
    provenance, assumptions = [p], ["a"]
    report = BoundReport(0, None, "inconclusive", provenance, assumptions)
    same = BoundReport(0, None, "inconclusive", (p,), ("a",))
    assert report == same and hash(report) == hash(same)
    provenance.append(p)
    assumptions.append("b")
    assert report.provenance == (p,) and report.assumptions == ("a",)
    with pytest.raises(ParseError, match="provenance entries must be Provenance, got str"):
        BoundReport(0, None, "inconclusive", ["x"])


@pytest.mark.parametrize("make, error, message", [
    (lambda: BoundReport(1, 2, "obstructed", assumptions="declared"), ParseError,
     "assumptions must be a list, got 'declared'"),
    (lambda: BoundReport(1, 2, "obstructed", assumptions=("a", b"b")), ParseError,
     "assumption must be a string, got b'b'"),
    (lambda: BoundReport(1, 2, "obstructed", provenance=iter(())), ParseError,
     "provenance must be a list, got <tuple_iterat"),
    (lambda: BoundReport(1, 2.0, "obstructed"), ParseError, "upper must be integers, got float"),
    (lambda: Provenance("lower", 1, ["x"]), ParseError,
     "provenance source must be a string, got ['x']"),
    (lambda: InfectionDecl(1, [[0]], 0, 0, notes=5), ParseError, "notes must be a string, got 5"),
    (lambda: InfectionDecl(1, [[0]], 0, None), ParseError,
     "milnor_vanishing_length must be integers, got NoneType"),
    (lambda: InfectionDecl(1, [{}], 0, 0), ParseError,
     "linking_numbers row must be a list, got {}"),
    (lambda: CatalogEntry(7, BraidWord(1)), ParseError,
     "catalog entry name must be a string, got 7"),
    (lambda: SeifertData([[1, 1], [0, 1]], label=[1, 2]), InvalidSeifertData,
     "label must be a string, got [1, 2]")],
    ids=["bare assumptions", "assumption", "provenance iterator", "upper", "source", "notes",
         "milnor_vanishing_length", "linking_numbers row", "catalog name", "label"])
def test_records_refuse_wrong_types_by_field(make, error, message):
    """Each record checks its own fields and names the one it refuses: a
    bare string of assumptions used to become one assumption per letter,
    and hash() of a Provenance with a list source or of a SeifertData
    with a list label raised TypeError."""
    with pytest.raises(error) as refused:
        make()
    assert str(refused.value).startswith(message)


V_TREFOIL = ((-1, 1), (0, -1))


@pytest.mark.parametrize("make, shown", [
    (lambda: BraidWord(2, (1, 1, 1)), "BraidWord(strands=2, letters=(1, 1, 1))"),
    (lambda: SeifertData(V_TREFOIL, 1, label="trefoil"),
     "SeifertData(matrix=((-1, 1), (0, -1)), components=1, label='trefoil')"),
    (lambda: Provenance("lower", 1, "x"), "Provenance(bound='lower', value=1, source='x')"),
    (lambda: BoundReport(1, 1, "obstructed", (Provenance("lower", 1, "x"),), ("a",), 1),
     "BoundReport(lower=1, upper=1, slice_verdict='obstructed', provenance=(Provenance("
     "bound='lower', value=1, source='x'),), assumptions=('a',), components=1)"),
    (lambda: InfectionDecl(1, ((0,),), 0, 0, "n"),
     "InfectionDecl(axes=1, linking_numbers=((0,),), double_points=0, "
     "milnor_vanishing_length=0, notes='n')"),
    (lambda: BandCertificate(3, 2), "BandCertificate(bands=3, resulting_unlink_components=2)"),
    (lambda: SliceObstruction("obstructed", FoxMilnorResult("fails"), 1),
     "SliceObstruction(verdict='obstructed', fox_milnor=FoxMilnorResult(verdict='fails', "
     "witness=None, reason=''), signature_bound=1)"),
    (lambda: CatalogEntry("unknot", BraidWord(1), {"max_abs_sigma": 0}),
     "CatalogEntry(name='unknot', input=BraidWord(strands=1, letters=()), "
     "expected={'max_abs_sigma': 0})"),
    (lambda: FoxMilnorResult("passes", None, "r"),
     "FoxMilnorResult(verdict='passes', witness=None, reason='r')"),
    (lambda: CirclePoint(Fraction(1, 2)), "CirclePoint(x=Fraction(1, 2))"),
    (lambda: signature_function(SeifertData(V_TREFOIL, 1, label="trefoil")),
     "SignatureFunction(size=2, generic_nullity=0, breakpoints=(Fraction(1, 1),), "
     "interval_values=((-2, 0), (0, 0)), averaged_values=((-1, 1),), "
     "samples=(Fraction(-1, 2), Fraction(3, 2)))")],
    ids=["BraidWord", "SeifertData", "Provenance", "BoundReport", "InfectionDecl",
         "BandCertificate", "SliceObstruction", "CatalogEntry", "FoxMilnorResult",
         "CirclePoint", "SignatureFunction"])
def test_value_classes_compare_hash_show_and_freeze(make, shown):
    """The value classes were frozen dataclasses; as plain classes they keep
    ==, hash, the repr text the dataclasses printed, and refuse assignment
    and deletion.  SeifertData's label stays keyword-only.  _Value.__init__
    stores each field, in `_fields` order, and nothing else: only
    SeifertData and SignatureFunction add private attributes after it.
    Given one value too many or too few, it raises."""
    a, b = make(), make()
    assert a is not b and a == b and not a != b and repr(a) == shown
    assert a != object() and (a == shown) is False
    try:
        assert hash(a) == hash(b)
    except TypeError:  # a catalog entry's expected values are a dict
        assert isinstance(a, CatalogEntry)
    field = shown.split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b and repr(a) == shown
    if isinstance(a, SeifertData):
        with pytest.raises(TypeError):
            SeifertData(V_TREFOIL, 1, "x")
    private = {"SeifertData": ["_run", "_derived"],
               "SignatureFunction": ["_json_breakpoints", "_walls"]}
    assert list(vars(a)) == [*a._fields, *private.get(type(a).__name__, [])]
    bare = object.__new__(type(a))
    for values in (a._values()[:-1], (*a._values(), None)):
        with pytest.raises(ValueError):
            _Value.__init__(bare, *values)


def test_seifert_genus_upper():
    assert seifert_genus_upper_bound(UNKNOT) == 0
    assert seifert_genus_upper_bound(TREFOIL) == 1
    assert seifert_genus_upper_bound(T35) == 4
    with pytest.raises(InvalidSeifertData):
        seifert_genus_upper_bound(SeifertData.from_matrix([[1]], 2))


def test_slice_obstruction_examples():
    assert slice_obstruction(UNKNOT).verdict == "consistent-with-slice"
    res = slice_obstruction(TREFOIL)
    assert res.verdict == "obstructed"
    assert res.fox_milnor.verdict == "fails"
    assert res.signature_bound == 1
    sum_knot = connected_sum(T35, COMPANION)
    assert slice_obstruction(sum_knot).verdict == "obstructed"


def test_slice_obstruction_on_norm_sums():
    # V # (mirror with transpose) has Alexander f * involution(f) and a
    # vanishing signature function: consistent with sliceness.
    square = connected_sum(TREFOIL, mirror(TREFOIL))
    assert assemble_report(square).slice_verdict == "consistent-with-slice"
    rng = random.Random(40)
    checked = 0
    while checked < 20:
        data = random_knot_data(rng, max_strands=3, max_len=6)
        if data.size > 3:
            continue
        checked += 1
        doubled = connected_sum(data, mirror(data))
        res = slice_obstruction(doubled)
        assert res.verdict == "consistent-with-slice", (data.matrix, res)


def test_assemble_unknot():
    report = assemble_report(UNKNOT)
    assert (report.lower, report.upper, report.exact) == (0, 0, True)


def test_assemble_trefoil():
    report = assemble_report(TREFOIL)
    assert (report.lower, report.upper, report.exact) == (1, 1, True)
    assert report.slice_verdict == "obstructed"


def test_assemble_t35():
    report = assemble_report(T35)
    assert (report.lower, report.upper, report.exact) == (4, 4, True)
    sources = {p.source for p in report.provenance if p.bound == "upper"}
    assert "pushed-in Seifert surface" in sources
    assert "Alexander-width (topological category)" in sources


def _count_fox_milnor(monkeypatch) -> list:
    """Record every Fox-Milnor test a report runs from now on."""
    calls = []
    test = linkbound.bounds.fox_milnor_test

    def counted(*args):
        calls.append(args)
        return test(*args)

    monkeypatch.setattr(linkbound.bounds, "fox_milnor_test", counted)
    return calls


@pytest.mark.parametrize("name", ["T(2,9)", "T(3,5)", "T(3,7)", "T(3,5)#companion"])
def test_positive_bound_skips_fox_milnor(monkeypatch, name):
    """A positive signature bound obstructs sliceness by itself, so the
    report never runs Fox-Milnor."""
    if name == "T(3,5)#companion":
        data = connected_sum(T35, COMPANION)
    else:
        data = seifert_matrix_from_braid(torus_braid(int(name[2]), int(name[4])))
    calls = _count_fox_milnor(monkeypatch)
    report = assemble_report(data)
    assert report.lower > 0 and report.slice_verdict == "obstructed"
    assert calls == []


def test_zero_bound_double_runs_fox_milnor_once(monkeypatch):
    calls = _count_fox_milnor(monkeypatch)
    report = assemble_report(connected_sum(TREFOIL, mirror(TREFOIL)))
    assert (report.lower, report.slice_verdict) == (0, "consistent-with-slice")
    assert len(calls) == 1


def test_zero_bound_fox_milnor_failure_obstructs(monkeypatch):
    """The figure eight has signature 0 and |Delta(-1)| = 5, not a square:
    only Fox-Milnor obstructs it."""
    calls = _count_fox_milnor(monkeypatch)
    report = assemble_report(FIGURE_EIGHT)
    assert (report.lower, report.slice_verdict) == (0, "obstructed")
    assert len(calls) == 1 and calls[0][0] == alexander_from_seifert(FIGURE_EIGHT)


def test_verdict_matches_fox_milnor_on_every_knot():
    """On 120 random knots and doubles the verdict is the rule that ran
    Fox-Milnor on every knot; the draws reach both verdicts at bound 0."""
    rng = random.Random(93)
    seen = set()
    for i in range(120):
        data = random_knot_data(rng, max_strands=4, max_len=12)
        if i % 4 == 0:
            data = connected_sum(data, mirror(data))
        report = assemble_report(data)
        fm = fox_milnor_test(alexander_from_seifert(data))
        assert report.slice_verdict == _slice_verdict(fm, report.lower)
        seen.add((report.lower > 0, report.slice_verdict))
    assert seen == {(False, "consistent-with-slice"), (False, "obstructed"),
                    (True, "obstructed")}


def test_assemble_with_band_cert():
    sum_knot = connected_sum(T35, COMPANION)
    plain = assemble_report(sum_knot)
    assert (plain.lower, plain.upper) == (4, 5)
    with_cert = assemble_report(sum_knot, certs=[BandCertificate(11, 4)])
    assert (with_cert.lower, with_cert.upper, with_cert.exact) == (4, 4, True)
    assert any("band" in a for a in with_cert.assumptions)


def test_assemble_link_no_upper():
    hopf = SeifertData.from_matrix([[1]], 2)
    report = assemble_report(hopf)
    assert report.lower == 1 and report.upper is None and not report.exact
    assert report.slice_verdict == "obstructed"
    with pytest.raises(InvalidSeifertData):
        assemble_report(hopf, certs=[BandCertificate(1, 2)])


def test_report_ranks_nothing_when_delta_nonzero(monkeypatch):
    """beta = 0 whenever det(tV - V^T) is not identically zero, and the
    jumps of these inputs are simple roots, so from its construction to
    its report a Seifert matrix runs the one generic elimination of
    tV - V^T and none under a point test: V - V^T is checked at t = 1
    off the last pivot, or for T(2,8) off the one before it."""
    runs = []
    eliminate = linkbound.linalg._eliminate

    def spy(m, *args, **kwargs):
        runs.append((len(m), args, kwargs))
        return eliminate(m, *args, **kwargs)

    monkeypatch.setattr(linkbound.linalg, "_eliminate", spy)
    inputs = [seifert_matrix_from_braid(torus_braid(3, 7)),
              seifert_matrix_from_braid(torus_braid(2, 8)),
              random_knot_data(random.Random(93), max_strands=4, max_len=12)]
    for data in inputs:
        runs.clear()
        data = cold(data)
        assert not alexander_from_seifert(data).is_zero
        report = assemble_report(data)
        assert report.lower >= 0
        assert runs == [(data.size, (), {})]
    assert assemble_report(inputs[1]).components == 2


def test_link_nullity_ranks_when_delta_vanishes(monkeypatch):
    """T(3,5) with two zero rows and columns (a 3-component boundary
    link) has det(tV - V^T) = 0; Delta and beta come from one
    elimination of tV - V^T, which its construction runs."""
    n = T35.size
    padded = [list(row) + [0, 0] for row in T35.matrix] + [[0] * (n + 2)] * 2
    calls = count_eliminations(monkeypatch)
    data = SeifertData.from_matrix(padded, 3)
    assert alexander_from_seifert(data).is_zero
    assert link_nullity(data) == 2
    assert calls == [n + 2]


@pytest.mark.parametrize("k, limit", [(6, 1.0), (10, 5.0)])
def test_report_zero_padded_t35_is_fast(k, limit):
    """T(3,5) + 0_k has det B = 0; its report reduces B once to the
    principal block of T(3,5), with no enumeration of principal minors."""
    data = zero_padded(T35, k)
    start = time.perf_counter()
    report = assemble_report(data)
    assert time.perf_counter() - start < limit
    assert link_nullity(data) == k
    assert report.lower == assemble_report(T35).lower
    f, g = signature_function(data), signature_function(T35)
    assert f.interval_values == tuple((s, nu + k) for s, nu in g.interval_values)


def _torus_knot_alexander(p: int, q: int) -> LaurentPoly:
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), normalized."""
    def power_minus_one(k):
        return [-1] + [0] * (k - 1) + [1]

    num = polys.mul(power_minus_one(p * q), power_minus_one(1))
    den = polys.mul(power_minus_one(p), power_minus_one(q))
    return LaurentPoly.from_dense(polys.div_exact(num, den)).normalize()


def test_report_t3_10():
    """T(3,10), n = 18: the knot at which the report used to stall in the
    exponential rank and the Fraction-based Bareiss division."""
    data = seifert_matrix_from_braid(torus_braid(3, 10))
    assert data.size == 18
    assert alexander_from_seifert(data) == _torus_knot_alexander(3, 10)
    assert link_nullity(data) == 0
    report = assemble_report(data)
    assert report.upper == 9
    f = signature_function(data)
    sigmas = [float_oracle(data, math.acos(float(x) / 2))[0] for x in f.samples]
    assert report.lower == -((-max(abs(s) for s in sigmas)) // 2)


def test_report_t3_20():
    """T(3,20), n = 38: one packed elimination of tV - V^T serves Delta,
    beta and the principal block; the report took 3.6 s with two Z[t]
    eliminations on dense coefficient lists."""
    data = seifert_matrix_from_braid(torus_braid(3, 20))
    assert data.size == 38
    start = time.perf_counter()
    report = assemble_report(data)
    assert time.perf_counter() - start < 2.0
    assert alexander_from_seifert(data) == _torus_knot_alexander(3, 20)
    assert link_nullity(data) == 0
    f = signature_function(data)
    sigmas = [float_oracle(data, math.acos(float(x) / 2))[0] for x in f.samples]
    assert report.lower == -((-max(abs(s) for s in sigmas)) // 2)


def test_report_consistency_guard():
    with pytest.raises(InconsistentBounds):
        BoundReport(lower=3, upper=2, slice_verdict="inconclusive")


def test_no_false_certificates():
    from linkbound import builtin_catalog

    for entry in builtin_catalog():
        report = assemble_report(entry.seifert_data())
        if report.upper is not None:
            assert report.lower <= report.upper
    rng = random.Random(90)
    for _ in range(100):
        data = random_knot_data(rng)
        report = assemble_report(data)
        assert report.upper is not None
        assert report.lower <= report.upper


def test_lower_bound_mirror_invariant():
    rng = random.Random(91)
    for _ in range(20):
        data = random_knot_data(rng)
        assert lt_lower_bound(data)[0] == lt_lower_bound(mirror(data))[0]


def test_sum_bound_at_least_summed_witness():
    rng = random.Random(92)
    for _ in range(15):
        a = random_knot_data(rng, max_len=6)
        b = random_knot_data(rng, max_len=6)
        s = connected_sum(a, b)
        fs = signature_function(s)
        fa, fb = signature_function(a), signature_function(b)
        best = max(abs(fa.value_at(x)[0] + fb.value_at(x)[0]) for x in fs.samples)
        assert lt_lower_bound(s)[0] >= -((-best) // 2)


# -- infection transfer ------------------------------------------------------------


def _base_report():
    return assemble_report(T35, certs=[BandCertificate(11, 4)])


def test_infection_zero_linking_carries_bounds():
    decl = InfectionDecl(axes=2, linking_numbers=((0,), (0,)),
                         double_points=7, milnor_vanishing_length=14)
    out = infection_transfer(_base_report(), decl)
    assert (out.lower, out.upper, out.exact) == (4, 4, True)
    assert any("immersed discs" in a for a in out.assumptions)
    assert any("Milnor" in a for a in out.assumptions)


def test_infection_embedded_discs_need_no_milnor_assumption():
    decl = InfectionDecl(axes=1, linking_numbers=((0,),),
                         double_points=0, milnor_vanishing_length=0)
    out = infection_transfer(_base_report(), decl)
    assert (out.lower, out.upper) == (4, 4)
    assert not any("Milnor" in a for a in out.assumptions)


def test_infection_nonzero_linking_resets_lower():
    decl = InfectionDecl(axes=1, linking_numbers=((2,),),
                         double_points=0, milnor_vanishing_length=0)
    out = infection_transfer(_base_report(), decl)
    assert out.lower == 0 and out.upper == 4 and not out.exact


def test_infection_missing_hypotheses_rejected():
    with pytest.raises(InvalidSeifertData):
        InfectionDecl(axes=1, linking_numbers=((0,),),
                      double_points=3, milnor_vanishing_length=5)


def test_infection_shape_validation():
    decl = InfectionDecl(axes=1, linking_numbers=((0, 0),),
                         double_points=0, milnor_vanishing_length=0)
    with pytest.raises(InvalidSeifertData):
        infection_transfer(_base_report(), decl)


@pytest.mark.parametrize("linking_numbers", [((0,),), ((0, 0), (0,))], ids=repr)
def test_infection_rows_match_the_report_components(linking_numbers):
    """A row of linking numbers is checked against the base report's
    components: a 2-component report used to keep its lower bound under
    "all linking numbers zero" from one declared number per axis."""
    base = BoundReport(1, None, "obstructed", components=2)
    decl = InfectionDecl(len(linking_numbers), linking_numbers, 0, 0)
    with pytest.raises(InvalidSeifertData, match="one entry per link component"):
        infection_transfer(base, decl)
    assert infection_transfer(base, InfectionDecl(1, ((0, 0),), 0, 0)).lower == 1


@pytest.mark.parametrize("change, message", [
    ({"components": 0}, "components"), ({"components": -3}, "components"),
    ({"slice_verdict": "whatever"}, "slice_verdict"),
    ({"provenance": [{"bound": "sideways", "value": 1, "source": "x"}]}, "provenance bound")],
    ids=repr)
def test_bound_report_refuses_what_no_report_holds(change, message):
    """BoundReport.from_json used to accept these, and infection_transfer
    then dropped or copied them."""
    with pytest.raises(ParseError, match=message):
        BoundReport.from_json(dict({"lower": 1, "upper": 2, "slice_verdict": "obstructed"},
                                   **change))


def test_report_json_round_trip():
    report = _base_report()
    again = BoundReport.from_json(report.to_json())
    assert again == report


def test_records_write_their_fields_by_name():
    """to_json writes each field by name, a record inside as its object
    and a tuple as an array; a report adds its derived `exact`."""
    decl = InfectionDecl(2, ((0, 1), (0, 0)), 1, 2, "n")
    assert decl.to_json() == {"axes": 2, "linking_numbers": [[0, 1], [0, 0]],
                              "double_points": 1, "milnor_vanishing_length": 2, "notes": "n"}
    report = BoundReport(1, 2, "obstructed", (Provenance("lower", 1, "s"),), ("a",), 3)
    assert report.to_json() == {"lower": 1, "upper": 2, "exact": False,
                                "slice_verdict": "obstructed",
                                "provenance": [{"bound": "lower", "value": 1, "source": "s"}],
                                "assumptions": ["a"], "components": 3}
