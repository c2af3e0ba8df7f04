"""Signature functions of torus knots, their mirrors and connected sums
against Litherland's closed form (tests/litherland_reference.py): interval
values, the number and place of the breakpoints, averaged values and
nullities at the jumps."""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkbound import connected_sum, mirror, seifert_matrix_from_braid, signature_function, \
    torus_braid

from litherland_reference import assert_matches, litherland_signature

TORUS_KNOTS = [(p, q) for p in range(2, 9) for q in range(p + 1, 62)
               if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 60]


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
