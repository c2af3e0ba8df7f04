"""Signature functions of torus knots, their mirrors and connected sums,
and of torus links padded with zero blocks, against Litherland's closed
form (tests/litherland_reference.py): interval values, the number and
place of the breakpoints, averaged values and nullities at the jumps."""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkbound import SeifertData, connected_sum, mirror, seifert_matrix_from_braid, \
    signature_function, signature_nullity_at, torus_braid

from helpers import rebuilt_breakpoints, zero_padded
from litherland_reference import assert_matches, litherland_signature

TORUS_KNOTS = [(p, q) for p in range(2, 9) for q in range(p + 1, 62)
               if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 60]
TORUS_LINKS = [(p, q) for p in range(2, 9) for q in range(p, 62)
               if gcd(p, q) > 1 and (p - 1) * (q - 1) <= 60]


@st.composite
def torus_sums(draw):
    """(p, q, sign) for one to three torus knots, n = sum (p - 1)(q - 1)
    at most 60; sign -1 takes the mirror."""
    knots, n = [], 0
    for _ in range(draw(st.integers(1, 3))):
        options = [pq for pq in TORUS_KNOTS if (pq[0] - 1) * (pq[1] - 1) <= 60 - n]
        if not options:
            break
        p, q = draw(st.sampled_from(options))
        knots.append((p, q, draw(st.sampled_from([1, -1]))))
        n += (p - 1) * (q - 1)
    return knots


def _seifert(knots):
    parts = []
    for p, q, sign in knots:
        data = seifert_matrix_from_braid(torus_braid(p, q))
        parts.append(data if sign > 0 else mirror(data))
    out = parts[0]
    for data in parts[1:]:
        out = connected_sum(out, data)
    return out


def test_formula_convention():
    """sigma(T(2,3)) = -2 at x = -2 (theta = 1/2), as linkbound reads it."""
    assert litherland_signature(2, 3, Fraction(49, 100)) == -2
    assert litherland_signature(2, 3, Fraction(1, 10)) == 0


@settings(max_examples=30, deadline=None)
@given(torus_sums())
@example([(3, 31, 1)])
@example([(2, 3, 1), (3, 4, -1)])  # a jump of both summands, at theta = 1/6
@example([(2, 5, 1), (2, 5, -1)])  # sigma = 0, with jumps of nullity 2
def test_torus_sums_match_litherland(knots):
    assert_matches(signature_function(_seifert(knots)), knots)


@st.composite
def padded_torus_links(draw):
    """(summands, k): a torus link T(p, q), gcd(p, q) > 1, and at times a
    torus knot, each (p, q, sign) with sign -1 for the mirror, n at most
    60 in all, in block sum with 0_k."""
    p, q = draw(st.sampled_from(TORUS_LINKS))
    summands = [(p, q, draw(st.sampled_from([1, -1])))]
    room = 60 - (p - 1) * (q - 1)
    options = [pq for pq in TORUS_KNOTS if (pq[0] - 1) * (pq[1] - 1) <= room]
    if options and draw(st.booleans()):
        summands.append((*draw(st.sampled_from(options)), draw(st.sampled_from([1, -1]))))
    return summands, draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(padded_torus_links())
@example(([(2, 6, 1)], 0))
@example(([(2, 8, 1)], 0))
@example(([(3, 3, 1)], 0))
@example(([(3, 6, 1)], 2))  # a jump with two pairs on its wall, nullity 2 + 2
@example(([(4, 4, -1), (2, 3, 1)], 1))
def test_torus_links_match_litherland(case):
    """A torus link, gcd(p, q) > 1, at times summed with a torus knot,
    mirrors included, in block sum with 0_k: the function matches
    Litherland's count, with k added to every nullity, and
    signature_nullity_at reads the interval value at every sample and the
    averaged value at every jump, at the breakpoint itself and at the one
    rebuilt from to_json.  T(2,6), T(2,8) and T(3,3) are the links that
    the benchmark queries."""
    summands, k = case
    data = _seifert(summands[:1])
    if summands[1:]:  # the connected sum of a link and a knot is the block sum
        knot = _seifert(summands[1:])
        data = SeifertData.from_matrix(
            [list(row) + [0] * knot.size for row in data.matrix]
            + [[0] * data.size + list(row) for row in knot.matrix], data.components)
    if k:
        data = zero_padded(data, k)
    f = signature_function(data)
    assert_matches(f, summands, k)
    for x, value in zip(f.samples, f.interval_values):
        assert signature_nullity_at(data, x) == value, x
    for bp, again, value in zip(f.breakpoints, rebuilt_breakpoints(f), f.averaged_values):
        assert signature_nullity_at(data, bp) == signature_nullity_at(data, again) == value, bp
