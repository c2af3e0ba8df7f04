"""Warm reads of the signature function: they answer as the route before
reads ran on the integers of x (tests/read_reference.py), refine the
breakpoint brackets exactly as it did, and read the numerator and the
denominator of a Fraction x once each, without building or comparing a
Fraction or hashing the Seifert data."""

import collections
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkbound import (CirclePoint, RealAlgebraic, SeifertData, pointwise_signature_nullity,
                       seifert_matrix_from_braid, signature_function, signature_nullity_at,
                       torus_braid)

import read_reference
from helpers import cold, rebuilt_breakpoints, zero_padded

TORUS = [(p, q) for p in range(2, 6) for q in range(p, 22) if (p - 1) * (q - 1) <= 20]


def _torus(p: int, q: int, k: int = 0):
    data = seifert_matrix_from_braid(torus_braid(p, q))
    return zero_padded(data, k) if k else data


def _brackets(points) -> list:
    return [(x._a, x._b, x._d) if isinstance(x, RealAlgebraic) else x for x in points]


def _outcome(read, x):
    """read(x), or the type and message of what it raised."""
    try:
        return read(x)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


# algebraic points that are no breakpoint: sqrt(3) with a bracket on 2,
# one across 2, and one far inside; sqrt(5) and -sqrt(5), outside [-2, 2]
OTHER_ALGEBRAIC = [([-3, 0, 1], 1, 2), ([-3, 0, 1], Fraction(3, 2), Fraction(5, 2)),
                   ([-3, 0, 1], Fraction(17, 10), Fraction(9, 5)), ([-5, 0, 1], 2, 3),
                   ([-5, 0, 1], -3, -2)]


@st.composite
def read_streams(draw):
    """(p, q, k, reads): T(p, q) with n <= 20, a knot or a link, padded by
    0_k, and reads (kind, point).  A point is a random rational (a few
    outside [-2, 2]), +-2/q, +-2, ("bp", j), ("end", j, side): an end of
    the bracket of breakpoint j as it stands when read, ("json", j), or
    ("other", j)."""
    p, q = draw(st.sampled_from(TORUS))
    k = draw(st.integers(0, 2))
    den = st.integers(1, 1000)
    rational = st.one_of(
        den.flatmap(lambda d: st.integers(-2 * d - 2, 2 * d + 2).map(lambda a: Fraction(a, d))),
        den.map(lambda d: Fraction(2, 2 * d + 1)), den.map(lambda d: Fraction(-2, 2 * d + 1)),
        st.sampled_from([Fraction(2), Fraction(-2), 2, -2]))
    index = st.integers(0, 40)
    point = st.one_of(rational, index.map(lambda j: ("bp", j)),
                      st.tuples(st.just("end"), index, st.sampled_from(["lo", "hi"])),
                      index.map(lambda j: ("json", j)),
                      st.integers(0, len(OTHER_ALGEBRAIC) - 1).map(lambda j: ("other", j)))
    kind = st.sampled_from(["at", "value_at", "circle", "pointwise"])
    return p, q, k, draw(st.lists(st.tuples(kind, point), min_size=1, max_size=60))


def _point(f, spec, rebuilt):
    """The point of a read on function f; each route gets its own
    RealAlgebraic, which a read may refine."""
    if not isinstance(spec, tuple):
        return spec
    if spec[0] == "other":
        return RealAlgebraic(*OTHER_ALGEBRAIC[spec[1]])
    if not f.breakpoints:
        return Fraction(0)
    j = spec[1] % len(f.breakpoints)
    bp = f.breakpoints[j]
    if spec[0] == "json":
        return rebuilt[j].copy() if isinstance(rebuilt[j], RealAlgebraic) else rebuilt[j]
    if spec[0] == "end" and isinstance(bp, RealAlgebraic):
        return Fraction(bp._a if spec[2] == "lo" else bp._b, bp._d)
    return bp


@settings(max_examples=150, deadline=None)
@given(read_streams())
@example((3, 7, 0, [("at", ("end", 0, "hi")), ("value_at", ("end", 1, "hi")),
                    ("at", ("end", 2, "lo")), ("at", Fraction(2, 3)),
                    ("pointwise", Fraction(-2, 5)), ("at", ("other", 1)),
                    ("value_at", ("other", 3))]))
@example((2, 6, 1, [("at", ("bp", 0)), ("at", ("json", 1)), ("value_at", Fraction(-1)),
                    ("pointwise", 2), ("circle", ("other", 0))]))
def test_reads_equal_the_parent_route(stream):
    """signature_nullity_at, value_at (of x and of CirclePoint(x)) and
    pointwise_signature_nullity answer as the reference route, raise what
    it raises, and leave every breakpoint bracket and every algebraic
    point bracket as it leaves them; to_json is the reference's after the
    reads.  The new route reads the function of the Seifert data; the
    reference reads the function of a fresh equal one, with its own
    breakpoints."""
    p, q, k, reads = stream
    data = cold(_torus(p, q, k))
    f = signature_function(data)
    g = signature_function(cold(data))
    rebuilt = rebuilt_breakpoints(f)
    new_reads = {"at": lambda x: signature_nullity_at(data, x), "value_at": f.value_at,
                 "circle": lambda x: f.value_at(CirclePoint(x)),
                 "pointwise": lambda x: pointwise_signature_nullity(data, x)}
    old_reads = {"at": lambda x: read_reference.signature_nullity_at(data, g, x),
                 "value_at": lambda x: read_reference.value_at(g, x),
                 "circle": lambda x: read_reference.value_at(g, CirclePoint(x)),
                 "pointwise": lambda x: read_reference.pointwise_signature_nullity(data, x)}
    for kind, spec in reads:
        x, y = _point(f, spec, rebuilt), _point(g, spec, rebuilt)
        assert _outcome(new_reads[kind], x) == _outcome(old_reads[kind], y), (kind, spec)
        assert _brackets([x]) == _brackets([y]), (kind, spec)
        assert _brackets(f.breakpoints) == _brackets(g.breakpoints), (kind, spec)
    assert f.to_json() == read_reference.to_json(g)


def _counting(monkeypatch) -> collections.Counter:
    """Count the reads of Fraction.numerator and Fraction.denominator and
    the calls of Fraction.__new__, Fraction.__eq__ and SeifertData.__hash__
    from now on."""
    calls = collections.Counter()
    new, eq, hash_ = Fraction.__new__, Fraction.__eq__, SeifertData.__hash__

    def counted(name, method):
        def call(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return call

    for name in ("numerator", "denominator"):
        monkeypatch.setattr(Fraction, name, property(counted(name, getattr(Fraction, name).fget)))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted("__new__", new)))
    monkeypatch.setattr(Fraction, "__eq__", counted("__eq__", eq))
    monkeypatch.setattr(SeifertData, "__hash__", counted("__hash__", hash_))
    return calls


@pytest.mark.parametrize("p, q", [(3, 7), (2, 6)])
def test_a_warm_read_takes_p_and_q_once_and_builds_no_fraction(monkeypatch, p, q):
    """On a warm function a Fraction read by signature_nullity_at or
    value_at (at the samples, +-2, the rational breakpoints, a random
    rational and a point inside an algebraic bracket, which refines it)
    reads the numerator and the denominator of x once each, builds and
    compares no Fraction, and hashes no SeifertData; a read by
    pointwise_signature_nullity at +-2 and to_json build, compare and
    hash none either.  T(3,7) has algebraic
    breakpoints, the link T(2,6) rational ones with half-integer averaged
    values."""
    data = _torus(p, q)
    f = signature_function(data)
    points = list(f.samples) + [Fraction(2), Fraction(-2), Fraction(5, 7), Fraction(-2, 3)]
    points += [bp if isinstance(bp, Fraction) else Fraction(bp._a + bp._b, 2 * bp._d)
               for bp in f.breakpoints]
    expected = [signature_nullity_at(data, x) for x in points]
    expected_value = [f.value_at(x) for x in points]
    inside = [Fraction(bp._a + bp._b, 2 * bp._d) for bp in f.breakpoints
              if isinstance(bp, RealAlgebraic)]
    ends = [Fraction(2), Fraction(-2)]
    at_ends = [read_reference.pointwise_signature_nullity(data, x) for x in ends]
    f.to_json()
    calls = _counting(monkeypatch)
    reads = [(lambda x: signature_nullity_at(data, x), points, expected),
             (f.value_at, points, expected_value)]
    once = {"numerator": 1, "denominator": 1}
    for read, xs, answers in reads:
        for x, answer in zip(xs, answers):
            calls.clear()
            assert read(x) == answer, x
            assert calls == once, (x, calls)
    for x, answer in zip(ends, at_ends):
        calls.clear()
        assert pointwise_signature_nullity(data, x) == answer
        assert calls["__new__"] == calls["__eq__"] == calls["__hash__"] == 0
    # a point inside an algebraic bracket refines it; a later read there still builds nothing
    for x in inside:
        calls.clear()
        signature_nullity_at(data, x)
        assert calls == once
    calls.clear()
    f.to_json()
    assert calls["__new__"] == calls["__eq__"] == calls["__hash__"] == 0
    assert bool(inside) == (p == 3)


@pytest.mark.parametrize("p, q", [(2, 8), (2, 12), (3, 6), (4, 4), (2, 9), (2, 15)])
def test_an_algebraic_read_beside_a_rational_breakpoint(p, q):
    """value_at x = r +- sqrt(2)/10^k, k = 3, 5, 8, for each rational
    breakpoint r, given by a bracket that holds r, is the value of the
    interval beside r on x's side: the read compares x with r itself
    (SignatureFunction._locate), which no other read of these tests does."""
    f = signature_function(_torus(p, q))
    rational = [i for i, bp in enumerate(f.breakpoints) if type(bp) is Fraction]
    assert rational
    for i in rational:
        a, b = f.breakpoints[i].numerator, f.breakpoints[i].denominator
        for k in (3, 5, 8):
            # r +- sqrt(2)/10^k are the roots of (b 10^k x - a 10^k)^2 - 2 b^2
            big_a, big_b, eps = b * 10 ** k, a * 10 ** k, Fraction(1, 10 ** k)
            poly = [big_b * big_b - 2 * b * b, -2 * big_a * big_b, big_a * big_a]
            r = Fraction(a, b)
            above = RealAlgebraic(poly, r - eps, r + 2 * eps)
            below = RealAlgebraic(poly, r - 2 * eps, r + eps)
            assert f.value_at(above) == f.interval_values[i + 1]
            assert f.value_at(below) == f.interval_values[i]


def _warm_inputs():
    """T(3,7) and T(3,5) + 0_1: each has only algebraic breakpoints."""
    return (_torus(3, 7), _torus(3, 5, 1))


def test_twenty_thousand_warm_reads_within_5_s():
    """20 000 warm reads, alternating between the two inputs and, in
    pairs, between signature_nullity_at and value_at, at random rationals
    of (-2, 2) with denominators up to 1000, take under 5 s with the
    functions' construction; every
    hundredth that is no breakpoint equals pointwise_signature_nullity."""
    inputs = _warm_inputs()
    rng = random.Random(14)
    checked = 0
    start = time.perf_counter()
    for i in range(20000):
        data = inputs[i % 2]
        f = signature_function(data)
        den = rng.randint(1, 1000)
        x = Fraction(rng.randint(-2 * den + 1, 2 * den - 1), den)
        value = signature_nullity_at(data, x) if i % 4 < 2 else f.value_at(x)
        if i % 100 == 0 and x not in f.breakpoints:
            assert value == pointwise_signature_nullity(data, x), (i, x, value)
            checked += 1
    assert time.perf_counter() - start < 5
    assert checked == 200


def test_warm_reads_at_rebuilt_breakpoints_build_no_fraction(monkeypatch):
    """10 000 warm reads on each input, at a breakpoint rebuilt from
    to_json, at +-2 and at random rationals of [-2, 2], take under 5 s with
    the functions' construction, build and compare no Fraction and hash no
    SeifertData; every hundredth read at a random rational equals
    pointwise_signature_nullity, which builds, compares and hashes none
    either."""
    start = time.perf_counter()
    rng = random.Random(24)
    streams = []
    for data in _warm_inputs():
        f = signature_function(data)
        rebuilt = rebuilt_breakpoints(f)
        points = []
        for i in range(10000):
            if i % 10 == 0:
                points.append(rng.choice(rebuilt))
            elif i % 10 == 1:
                points.append(rng.choice([Fraction(2), Fraction(-2)]))
            else:
                den = rng.randint(1, 1000)
                points.append(Fraction(rng.randint(-2 * den, 2 * den), den))
        signature_nullity_at(data, points[-1])
        streams.append((data, f, points))
    calls = _counting(monkeypatch)
    checked = 0
    for data, f, points in streams:
        for i, x in enumerate(points):
            value = signature_nullity_at(data, x) if i % 2 else f.value_at(x)
            if i % 100 == 2:  # a random rational
                assert value == pointwise_signature_nullity(data, x), (i, x, value)
                checked += 1
    assert time.perf_counter() - start < 5
    assert calls["__new__"] == calls["__eq__"] == calls["__hash__"] == 0, calls
    assert checked == 200


def test_breakpoints_read_back_from_to_json():
    """At each breakpoint of T(3,20) rebuilt from to_json,
    signature_nullity_at reads the averaged value, within 5 s; csv_rows
    has a row per interval and per breakpoint."""
    start = time.perf_counter()
    data = _torus(3, 20)
    f = signature_function(data)
    points = rebuilt_breakpoints(f)
    for x, value in zip(points, f.averaged_values):
        assert signature_nullity_at(data, x) == value, (x, value)
    assert len(f.csv_rows()) == 2 * len(points) + 1
    assert time.perf_counter() - start < 5
