import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linkbound.linalg
from linkbound import (BraidWord, InvalidSeifertData, LaurentPoly, ParseError,
                       SeifertData, alexander_from_seifert, assemble_report, braid_text,
                       closure_components, connected_sum, mirror, parse_braid,
                       pointwise_signature_nullity, seifert_data_from_json,
                       seifert_matrix_from_braid, torus_braid, units_equal)
from linkbound.braids import _check_integer, _check_integers

import burau_reference
from bareiss_reference import int_rank_det
from braid_reference import reference_seifert_matrix, stabilize
from helpers import random_braid, random_knot_data, random_seifert_data
from laurent_reference import laurent_value

TREFOIL_DELTA = LaurentPoly({2: 1, 1: -1, 0: 1})


# -- parsing -----------------------------------------------------------------

def test_parse_plain_integers():
    b = parse_braid("strands=3; 1 2 1 2 1 2 1 2 1 2")
    assert b == BraidWord(3, (1, 2) * 5)


def test_parse_trefoil():
    assert parse_braid("strands=2; 1 1 1") == BraidWord(2, (1, 1, 1))


def test_parse_token_form():
    assert parse_braid("strands=3; s1 s2^-1") == BraidWord(3, (1, -2))


def test_parse_out_of_range():
    with pytest.raises(ParseError):
        parse_braid("strands=3; 5")


def test_parse_malformed_token():
    with pytest.raises(ParseError):
        parse_braid("strands=3; x7")


@pytest.mark.parametrize("text", [
    "strands=1_0; 1 2", "strands=３; 1 2", "strands=+3; 1 2", "strands=3; １ 2",
    "strands=3; +1 2", "strands=12; 1_1", "strands=3; s１ s2", "strands=3; s1 s٢^-1",
    "strands=2; 1 strands=3 2 1",
])
def test_parse_reads_only_ascii_decimals(text):
    """Strand counts, letters and sN tokens are an optional '-' and ASCII
    digits: int() would read each of these as another braid.  A second
    strand count is refused too, where the last one used to win."""
    with pytest.raises(ParseError):
        parse_braid(text)


def test_parse_refuses_an_index_past_the_digit_limit():
    """An sN token whose index has more digits than int() reads (4300 by
    default) is a malformed token, not int()'s ValueError."""
    with pytest.raises(ParseError, match="malformed braid token"):
        parse_braid("strands=3; s" + "1" * 5000 + " s2")


def test_parse_bad_strands():
    with pytest.raises(ParseError):
        parse_braid("strands=0; ")
    with pytest.raises(ParseError):
        parse_braid("1 2 1")


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.data())
def test_parse_round_trip(strands, data):
    letters = data.draw(st.lists(
        st.integers(1, strands - 1).flatmap(
            lambda k: st.sampled_from([k, -k])), max_size=12))
    b = BraidWord(strands, tuple(letters))
    assert parse_braid(braid_text(b)) == b


# -- torus braids and closures -------------------------------------------------

def test_torus_braid_examples():
    assert torus_braid(2, 3) == BraidWord(2, (1, 1, 1))
    assert torus_braid(3, 5) == BraidWord(3, (1, 2) * 5)
    assert torus_braid(np.int64(3), np.int16(5)) == torus_braid(3, 5)


@pytest.mark.parametrize("p, q, message", [
    (1, 5, "torus braid requires p, q >= 2, got 1, 5"),
    (3, 1, "torus braid requires p, q >= 2, got 3, 1"),
    (-2, 3, "torus braid requires p, q >= 2, got -2, 3"),
    (2.5, 3, "torus braid p and q must be integers, got float"),
    (3, Fraction(5), "torus braid p and q must be integers, got Fraction"),
    (True, 3, "torus braid p and q must be integers, got bool"),
    (3, "5", "torus braid p and q must be integers, got str")], ids=repr)
def test_torus_braid_refuses_with_parse_error(p, q, message):
    """p and q are read as a braid's strand count is, and each must be at
    least 2: a float, a Fraction or a string raised TypeError from range(),
    a list product or a comparison, and p or q below 2 a bare ValueError.
    ParseError is a ValueError, so a caller that catches ValueError still
    catches each."""
    with pytest.raises(ParseError) as caught:
        torus_braid(p, q)
    assert str(caught.value) == message and isinstance(caught.value, ValueError)


def test_closure_components():
    assert closure_components(BraidWord(3, ())) == 3
    assert closure_components(BraidWord(2, (1, 1, 1))) == 1
    assert closure_components(torus_braid(3, 5)) == 1
    assert closure_components(torus_braid(2, 2)) == 2  # Hopf link
    assert closure_components(torus_braid(4, 2)) == 2


def test_closure_components_markov_conjugation_invariant():
    rng = random.Random(31)
    for _ in range(50):
        b = random_braid(rng)
        j = rng.choice([1, -1]) * rng.randint(1, b.strands - 1)
        conj = BraidWord(b.strands, (j,) + b.letters + (-j,))
        assert closure_components(conj) == closure_components(b)


# -- Seifert matrices -----------------------------------------------------------

def test_trefoil_seifert_matrix():
    data = seifert_matrix_from_braid(BraidWord(2, (1, 1, 1)))
    assert data.size == 2 and data.components == 1 and data.genus == 1
    skew = [[data.matrix[i][j] - data.matrix[j][i] for j in range(2)] for i in range(2)]
    assert abs(int_rank_det(skew)[1]) == 1
    assert alexander_from_seifert(data) == TREFOIL_DELTA


def test_torus_3_5_seifert_matrix():
    data = seifert_matrix_from_braid(torus_braid(3, 5))
    assert data.size == 8
    assert data.components == 1
    assert data.genus == 4


def test_unknot_empty_matrix():
    data = seifert_matrix_from_braid(BraidWord(1, ()))
    assert data.size == 0 and data.components == 1 and data.genus == 0
    assert alexander_from_seifert(data) == LaurentPoly.one()


def test_split_closure_rejected():
    with pytest.raises(InvalidSeifertData):
        seifert_matrix_from_braid(BraidWord(3, (1, 1)))


def test_huge_split_braid_fails_fast():
    """10^9 strands and one letter: rejected before anything of that size
    is allocated, with a short message that counts the unused generators."""
    start = time.perf_counter()
    with pytest.raises(InvalidSeifertData) as err:
        seifert_matrix_from_braid(BraidWord(10 ** 9, (1,)))
    assert time.perf_counter() - start < 0.5
    message = str(err.value)
    assert len(message) < 300
    assert str(10 ** 9 - 2) in message and "2, 3, 4" in message


def test_construction_invariants_on_random_braids():
    rng = random.Random(12)
    for _ in range(60):
        data = seifert_matrix_from_braid(random_braid(rng))
        assert data.size == 2 * data.genus + data.components - 1


@st.composite
def braids_using_every_generator(draw, max_strands=7, max_size=60):
    strands = draw(st.integers(2, max_strands))
    generator = st.integers(1, strands - 1).flatmap(lambda k: st.sampled_from([k, -k]))
    letters = draw(st.lists(generator, min_size=strands - 1, max_size=max_size))
    # Put every generator in, at drawn places, so that none is unused.
    for k in range(1, strands):
        letters.insert(draw(st.integers(0, len(letters))), draw(st.sampled_from([k, -k])))
    return BraidWord(strands, tuple(letters))


@settings(max_examples=300, deadline=None)
@given(braids_using_every_generator())
def test_walk_matches_the_all_pairs_reference(b):
    """One walk of the word gives the matrix, the component count and the
    label of the all-pairs construction, entry for entry."""
    data = seifert_matrix_from_braid(b)
    assert (data.matrix, data.components, data.label) == reference_seifert_matrix(b)


@settings(max_examples=200, deadline=None)
@given(braids_using_every_generator(max_strands=6, max_size=16))
@example(BraidWord(2, (1, 1)))  # the Hopf link, Delta = 1 - t
@example(BraidWord(3, (1, -1, 2, -2)))  # a link with Delta = 0
def test_alexander_matches_the_burau_oracle(b):
    """Delta read off the elimination of tV - V^T equals, up to units, the
    Burau Delta of the braid, which builds no Seifert matrix: on random
    braids of 2-6 strands, links and Delta = 0 included."""
    burau_reference.assert_matches(b, alexander_from_seifert(seifert_matrix_from_braid(b)))


@pytest.mark.parametrize("p, q", [(4, 40), (3, 61)])
def test_alexander_matches_the_burau_oracle_at_the_frontier(p, q):
    """T(4,40), a link of n = 117, and the knot T(3,61), n = 120."""
    b = torus_braid(p, q)
    burau_reference.assert_matches(b, alexander_from_seifert(seifert_matrix_from_braid(b)))


@pytest.mark.parametrize("p, max_q", [(2, 121), (3, 61), (4, 41)])
def test_walk_matches_the_reference_on_torus_ladders(p, max_q):
    """T(p, q) for every q up to n = (p - 1)(q - 1) of about 120."""
    for q in range(2, max_q + 1):
        b = torus_braid(p, q)
        data = seifert_matrix_from_braid(b)
        assert (data.matrix, data.components, data.label) == reference_seifert_matrix(b), q
        assert data.size == (p - 1) * (q - 1)


def test_genus_is_derived_from_size_and_components():
    """genus == (n - m + 1) // 2 however the data was made."""
    rng = random.Random(22)
    trefoil = SeifertData.from_matrix([[-1, 1], [0, -1]])
    known = [(SeifertData.from_matrix([[1]], 2), 0),
             (seifert_matrix_from_braid(torus_braid(4, 6)), 7),
             (connected_sum(trefoil, seifert_matrix_from_braid(torus_braid(3, 5))), 5),
             (stabilize(seifert_matrix_from_braid(torus_braid(2, 4)), "row-first", [1, 0, -1]), 2)]
    assert [data.genus for data, _ in known] == [genus for _, genus in known]
    for data in [d for d, _ in known] + [random_seifert_data(rng) for _ in range(20)] + \
            [seifert_matrix_from_braid(random_braid(rng, 6, 20)) for _ in range(20)]:
        assert data.genus == (data.size - data.components + 1) // 2


def test_genus_is_not_a_constructor_argument():
    """A call that still passes a genus fails instead of taking it for a
    label."""
    with pytest.raises(TypeError):
        SeifertData(((-1, 1), (0, -1)), 1, 1)
    assert SeifertData(((-1, 1), (0, -1)), 1, label="3_1").label == "3_1"


@pytest.mark.parametrize("components", [1.0, True, Fraction(1), "1"], ids=repr)
def test_non_integer_components_refused(components):
    with pytest.raises(InvalidSeifertData, match="must be integers"):
        SeifertData.from_matrix([[-1, 1], [0, -1]], components)


def test_index_components_stored_as_int():
    """An np.int64 component count used to be kept, and json.dumps of the
    report raised TypeError."""
    data = SeifertData.from_matrix([[-1, 1], [0, -1]], np.int64(1))
    assert type(data.components) is int and data == SeifertData.from_matrix([[-1, 1], [0, -1]])
    assert '"components": 1' in json.dumps(assemble_report(data).to_json())


def _validation_case(rng: random.Random) -> tuple[list, int]:
    """(V, m): V an integer matrix, n <= 8, entries in [-3, 3], and m in
    1..n + 1.  Each of a few indices may become a copy of another in the
    congruence P V P^T that repeats it (see helpers.degenerate_seifert), or
    a zero row and column, so V - V^T loses rank: rank-deficient knots,
    and links whose pivots at t = 1 vanish from the top.  Half the time m
    is n - rank(V - V^T) + 1, the one count that can pass."""
    n = rng.randint(0, 8)
    v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    for _ in range(rng.randint(0, 3) if n >= 2 else 0):
        a, b = rng.sample(range(n), 2)
        if rng.random() < 0.5:
            v[b] = list(v[a])
            for row in v:
                row[b] = row[a]
        else:
            v[b] = [0] * n
            for row in v:
                row[b] = 0
    rank, _ = int_rank_det([[v[i][j] - v[j][i] for j in range(n)] for i in range(n)])
    return v, n - rank + 1 if rng.random() < 0.5 else rng.randint(1, n + 1)


def _refusal(v, m) -> str | None:
    """The message SeifertData(V, m) must refuse with, in the order of its
    checks, from the reference elimination of V - V^T; None to accept."""
    n = len(v)
    rank, det = int_rank_det([[v[i][j] - v[j][i] for j in range(n)] for i in range(n)])
    if (n - m + 1) % 2 or n - m + 1 < 0:
        return f"no genus fits size {n} with {m} components"
    if rank != n - m + 1:
        return "rank of V - V^T does not equal twice the genus"
    if m == 1 and abs(det) != 1:
        return "V - V^T must be unimodular for a knot"
    return None


# V of T(3,6): n = 10, V - V^T of rank 8, which parity settles with no resume
T36 = [list(row) for row in seifert_matrix_from_braid(torus_braid(3, 6)).matrix]


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False).map(_validation_case))
@example((T36, 1))
@example((T36, 5))
def test_validation_from_the_run_matches_the_integer_reference(case):
    """SeifertData reads rank(V - V^T) and det(V - V^T) at t = 1 off its
    elimination of tV - V^T: it accepts exactly when the reference rank
    over Q is n - m + 1, with |det| = 1 for a knot, and otherwise refuses
    with the message of the first check that fails.  T(3,6)'s V declared
    a knot or a link of 5 components asks for rank 10 or 6 where parity
    pins it at 8."""
    v, m = case
    expected = _refusal(v, m)
    if expected is None:
        data = SeifertData.from_matrix(v, m)
        assert data.size - m + 1 == 2 * data.genus
    else:
        with pytest.raises(InvalidSeifertData) as refused:
            SeifertData.from_matrix(v, m)
        assert str(refused.value) == expected


def test_validation_cases_reach_every_branch(monkeypatch):
    """The cases of the property above reach the resume: in 300 seeds at
    least 10 constructions stop a generic run at k and resume it under the
    test at t = 1; at least 10 are rank-deficient knots, and at least 50
    are accepted."""
    runs = []
    eliminate = linkbound.linalg._eliminate

    def spy(m, *args, stop=None, start=None, **kwargs):
        runs.append(stop)
        return eliminate(m, *args, stop=stop, start=start, **kwargs)

    monkeypatch.setattr(linkbound.linalg, "_eliminate", spy)
    resumed = deficient_knots = accepted = 0
    for seed in range(300):
        v, m = _validation_case(random.Random(seed))
        runs.clear()
        refusal = _refusal(v, m)
        try:
            SeifertData.from_matrix(v, m)
        except InvalidSeifertData as e:
            assert str(e) == refusal
        else:
            assert refusal is None
            accepted += 1
        resumed += any(stop is not None for stop in runs)
        deficient_knots += m == 1 and refusal is not None and "rank" in refusal
    assert resumed >= 10 and deficient_knots >= 10 and accepted >= 50


def test_invalid_matrix_rejected():
    with pytest.raises(InvalidSeifertData):
        SeifertData.from_matrix([[0, 2], [0, 0]], 1)  # skew part not unimodular
    with pytest.raises(InvalidSeifertData):
        SeifertData.from_matrix([[1, 2], [3, 4], [5, 6]], 1)  # not square
    with pytest.raises(InvalidSeifertData):
        SeifertData.from_matrix([[1]], 3)  # no genus fits


class Index:
    """An integer-like object that is not an int: it has __index__ only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("entry", [-1.7, -1.0, Fraction(-1, 2), Fraction(-1), "-1", True, None],
                         ids=repr)
def test_non_integer_entry_refused(entry):
    """A float, a Fraction, a string or a bool entry is refused by both
    constructors: int() used to read [[-1.7, 1], [0, -1.2]] as the
    trefoil, Fraction(-1, 2) as 0 and "-1" as -1."""
    with pytest.raises(InvalidSeifertData, match="must be integers"):
        SeifertData.from_matrix([[entry, 1], [0, -1]])
    with pytest.raises(InvalidSeifertData, match="must be integers"):
        SeifertData(((-1, 1), (0, entry)), 1)


@pytest.mark.parametrize("value", [
    1.5, 2.0, -1.7, True, False, "3", "-1", Fraction(2), Fraction(-1, 2), None, np.float64(2)],
    ids=repr)
def test_one_value_check_refuses_as_the_tuple_check(value):
    """_check_integer, the one-value path that Provenance and BoundReport
    take, refuses every value of the refusal tests with the message and
    the error class of _check_integers."""
    for error in (ParseError, InvalidSeifertData):
        with pytest.raises(error) as many:
            _check_integers([value], "values", error)
        with pytest.raises(error) as one:
            _check_integer(value, "values", error)
        assert str(one.value) == str(many.value) == \
            f"values must be integers, got {type(value).__name__}"


@pytest.mark.parametrize("value", [0, -7, 2 ** 70, np.int64(5), Index(3)], ids=repr)
def test_one_value_check_accepts_as_the_tuple_check(value):
    got = _check_integer(value, "values")
    assert type(got) is int and (got,) == _check_integers([value], "values")


def test_index_entries_accepted_as_ints():
    """An entry with __index__ is accepted and stored as an int."""
    trefoil = SeifertData.from_matrix([[-1, 1], [0, -1]])
    data = SeifertData.from_matrix([[Index(-1), 1], [0, Index(-1)]])
    assert data == trefoil and hash(data) == hash(trefoil)
    assert {type(x) for row in data.matrix for x in row} == {int}


# -- connected sum, mirror, stabilization ---------------------------------------

@pytest.mark.parametrize("strands, letters", [
    (2.9, (1, 1, 1)), (2, (1, 1.9, 1)), (2, (1, "1")), (2, (Fraction(1), 1)), (True, ()),
    (2, (1, True)), (Fraction(3), (1, 2)), ("2", (1,))], ids=repr)
def test_braid_word_refuses_non_integers(strands, letters):
    """BraidWord used to pass its letters through int() and never check
    strands: BraidWord(2.9, (1, 1.9, "1")) became strands=2.9 with letters
    (1, 1, 1), and BraidWord(True, ()) was a braid on one strand."""
    with pytest.raises(ParseError, match="must be integers"):
        BraidWord(strands, letters)


def test_braid_word_stores_index_values_as_ints():
    b = BraidWord(Index(3), (Index(1), -2))
    assert b == BraidWord(3, (1, -2))
    assert {type(x) for x in (b.strands, *b.letters)} == {int}


def test_connected_sum_unknot_identity():
    tre = seifert_matrix_from_braid(BraidWord(2, (1, 1, 1)))
    unknot = seifert_matrix_from_braid(BraidWord(1, ()))
    assert connected_sum(unknot, tre).matrix == tre.matrix


def test_connected_sum_sizes_and_alexander():
    t35 = seifert_matrix_from_braid(torus_braid(3, 5))
    companion = SeifertData.from_matrix([[0, 2], [1, 0]], 1)
    s = connected_sum(t35, companion)
    assert s.size == 10 and s.genus == 5
    want = LaurentPoly({8: 1, 7: -1, 5: 1, 4: -1, 3: 1, 1: -1, 0: 1}) * \
        LaurentPoly({2: 2, 1: -5, 0: 2})
    assert units_equal(alexander_from_seifert(s), want)


def test_connected_sum_rejects_links():
    hopf = SeifertData.from_matrix([[1]], 2)
    tre = seifert_matrix_from_braid(BraidWord(2, (1, 1, 1)))
    with pytest.raises(InvalidSeifertData):
        connected_sum(hopf, tre)


def test_mirror_is_involution():
    rng = random.Random(3)
    for _ in range(20):
        data = random_seifert_data(rng)
        assert mirror(mirror(data)).matrix == data.matrix


def test_mirror_empty():
    unknot = seifert_matrix_from_braid(BraidWord(1, ()))
    assert mirror(unknot).matrix == ()


def test_mirror_flips_signature_at_minus_one():
    tre = seifert_matrix_from_braid(BraidWord(2, (1, 1, 1)))
    assert pointwise_signature_nullity(tre, -2)[0] == -2
    assert pointwise_signature_nullity(mirror(tre), -2)[0] == 2


def test_stabilize_empty():
    unknot = seifert_matrix_from_braid(BraidWord(1, ()))
    st_data = stabilize(unknot, "row-first", [])
    assert st_data.size == 2 and st_data.genus == 1
    skew = [[st_data.matrix[i][j] - st_data.matrix[j][i] for j in range(2)]
            for i in range(2)]
    assert abs(int_rank_det(skew)[1]) == 1


def test_stabilize_preserves_alexander():
    rng = random.Random(17)
    tre = seifert_matrix_from_braid(BraidWord(2, (1, 1, 1)))
    data = tre
    for _ in range(3):
        data = stabilize(data, rng.choice(["row-first", "column-first"]),
                         [rng.randint(-3, 3) for _ in range(data.size)])
    assert units_equal(alexander_from_seifert(data), TREFOIL_DELTA)
    assert data.genus == tre.genus + 3


def test_stabilize_dimension_mismatch():
    tre = seifert_matrix_from_braid(BraidWord(2, (1, 1, 1)))
    with pytest.raises(InvalidSeifertData):
        stabilize(tre, "row-first", [1])
    with pytest.raises(ValueError):
        stabilize(tre, "diagonal", [0, 0])


# -- JSON input -------------------------------------------------------------------

def test_seifert_data_from_json_braid():
    data = seifert_data_from_json({"braid": {"strands": 2, "word": [1, 1, 1]}})
    assert alexander_from_seifert(data) == TREFOIL_DELTA
    data2 = seifert_data_from_json({"braid": "strands=2; 1 1 1"})
    assert data2.matrix == data.matrix


def test_seifert_data_from_json_matrix():
    data = seifert_data_from_json(
        {"seifert_matrix": [[0, 2], [1, 0]], "components": 1, "label": "companion"})
    assert data.label == "companion" and data.genus == 1


def test_seifert_data_from_json_errors():
    with pytest.raises(ParseError):
        seifert_data_from_json({"nope": 1})
    with pytest.raises(ParseError):
        seifert_data_from_json({"braid": {}})
    with pytest.raises(ParseError):
        seifert_data_from_json({"seifert_matrix": "nope"})
    # each read as the braid alone; a braid input is labelled by its braid text
    for obj in ({"braid": "strands=2; 1 1 1", "seifert_matrix": [[-1, 1], [0, -1]]},
                {"braid": "strands=2; 1 1", "components": 5},
                {"braid": "strands=2; 1 1 1", "label": "T"},
                {"braid": {"strands": 2, "word": [1, 1, 1]}, "label": ""}):
        with pytest.raises(ParseError, match="not both"):
            seifert_data_from_json(obj)


@pytest.mark.parametrize("obj, message", [
    ({"seifert_matrix": [[-1, 1], [0, -1]], "componets": 3}, "input: unknown key 'componets'"),
    ({"seifert_matrix": [[-1, 1], [0, -1]], "lable": "T"}, "input: unknown key 'lable'"),
    ({"braid": "strands=2; 1 1 1", "Braid": "strands=2; 1"}, "input: unknown key 'Braid'"),
    ({"braid": {"strands": 2, "word": [1, 1, 1], "words": [1]}}, "braid: unknown key 'words'"),
    ({"braid": {"strands": 2, "wrod": [1, 1, 1]}}, "braid: unknown key 'wrod'"),
    ({"seifert_matrix": [[-1, 1], [0, -1]], "x" * 100000: 1}, "input: unknown key 'xxxxx"),
], ids=["components", "label", "case", "words", "word", "long"])
def test_seifert_data_from_json_refuses_unknown_keys(obj, message):
    """A key an input or a braid object does not know is a parse error
    naming it, shortened by reprlib: {"componets": 3} used to read as a
    knot, and {"wrod": [...]} as the braid on two strands with no letters."""
    with pytest.raises(ParseError) as info:
        seifert_data_from_json(obj)
    assert str(info.value).startswith(message) and len(str(info.value)) < 100


def test_random_knot_data_is_knotlike():
    rng = random.Random(8)
    for _ in range(10):
        data = random_knot_data(rng, stabilizations=1)
        assert data.components == 1
        assert abs(laurent_value(alexander_from_seifert(data), 1)) == 1
