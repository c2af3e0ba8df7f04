"""The checks of test_frontier.py that read the library's state, one
function each.  Each runs in an interpreter of its own,

    python tests/frontier_checks.py NAME [INTEGER ...]

so that the caller's time limit counts a cold start: no earlier
computation has warmed a cache.  A failed check raises, and the process
exits 1 with the traceback on stderr.  The test modules that import sympy
and hypothesis (helpers, burau_reference) are imported only by the checks
that use them."""

import sys
import time
from fractions import Fraction

from linkbound import SeifertData, alexander_from_seifert, assemble_report, connected_sum, \
    seifert_matrix_from_braid, signature_function, torus_braid
from linkbound.signature import _jump_structure

from litherland_reference import assert_matches


def zero_first_minor():
    """K0 # T(3,26), K0 = [[0, 1], [0, 1]] summed first: v_11 = 0, so the
    first leading minor of B is identically zero; the report runs, and the
    function matches Litherland's formula for T(3,26) (K0 has Delta = 1
    and no jump)."""
    k0 = SeifertData.from_matrix([[0, 1], [0, 1]], 1)
    data = connected_sum(k0, seifert_matrix_from_braid(torus_braid(3, 26)))
    assemble_report(data)
    assert_matches(signature_function(data), [(3, 26, 1)])


def matches_litherland(p, q):
    """The signature function of T(p, q) matches Litherland's formula."""
    assert_matches(signature_function(seifert_matrix_from_braid(torus_braid(p, q))), [(p, q, 1)])


def builds_with_no_stopped_run(p, q):
    """The construction of T(p, q) runs no Bareiss run that stops early."""
    from helpers import record_stops
    runs = record_stops(setattr)
    seifert_matrix_from_braid(torus_braid(p, q))
    assert runs == [], runs


def nullity_is_multiplicity(*pq):
    """For each T(p, q) of the pairs pq, in one process: the report runs,
    and the nullity at each jump is the jump's multiplicity as a root of
    the jump polynomial."""
    for p, q in zip(pq[::2], pq[1::2]):
        data = seifert_matrix_from_braid(torus_braid(p, q))
        assemble_report(data)
        jumps = _jump_structure(data)[2]
        nullities = [nu for _, nu in signature_function(data).averaged_values]
        assert nullities == [e for _, e in jumps], (p, q, nullities)


def one_generic_run(p, q):
    """The report of the torus link T(p, q) makes one generic run, stopped
    at increasing steps, each resumed from the last; its function matches
    Litherland's formula and its Delta the Burau oracle."""
    import burau_reference
    from helpers import record_stops
    data = seifert_matrix_from_braid(torus_braid(p, q))
    runs = record_stops(setattr)
    assemble_report(data)
    stops = [stop for _, stop in runs]
    assert stops and [start for start, _ in runs] == [0] + stops[:-1], runs
    assert_matches(signature_function(data), [(p, q, 1)])
    burau_reference.assert_matches(torus_braid(p, q), alexander_from_seifert(data))


def mixed_double_stops():
    """T(2,3) # T(2,3) # T(3,26) # T(3,26), n = 104: the report's generic
    run stops at 1, then at 53 resumed from 1; the function matches
    Litherland's formula."""
    from helpers import mixed_double, record_stops
    data = mixed_double(26)
    runs = record_stops(setattr)
    assemble_report(data)
    assert runs == [(0, 1), (1, 53)], runs
    assert_matches(signature_function(data), [(2, 3, 1), (2, 3, 1), (3, 26, 1), (3, 26, 1)])


def triple_block_sum_within_a_tenth(*exponents):
    """The block sum of three [[a, 1], [0, a]] (n = 6) at a = 10^e for each
    e: a cold report, construction included, takes under 0.1 s.  Its jump
    polynomial is the cube of a linear one whose constant term grows as
    a^2, so the cube's grows as a^6; its one jump, at 2 - 1/a^2, has
    nullity 3 and the averaged value 3."""
    for e in exponents:
        a = 10 ** e
        v = [[a if i == j else int(j == i + 1 and i % 2 == 0) for j in range(6)]
             for i in range(6)]
        start = time.perf_counter()
        data = SeifertData.from_matrix(v, 1)
        report = assemble_report(data)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, (a, elapsed)
        f = signature_function(data)
        assert f.breakpoints == (Fraction(2 * a * a - 1, a * a),), (a, f.breakpoints)
        assert f.averaged_values == ((3, 3),) and report.lower == 3, (a, f, report)


if __name__ == "__main__":
    name, *args = sys.argv[1:]
    globals()[name](*map(int, args))
