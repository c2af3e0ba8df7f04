import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkbound import (BraidWord, InvalidSeifertData, LaurentPoly, ParseError,
                       SeifertData, alexander_from_seifert, braid_text,
                       closure_components, connected_sum, mirror, parse_braid,
                       pointwise_signature_nullity, seifert_data_from_json,
                       seifert_matrix_from_braid, stabilize, torus_braid,
                       units_equal)
from linkbound.linalg import int_rank_det

from helpers import random_braid, random_knot_data, random_seifert_data

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
    with pytest.raises(ValueError):
        torus_braid(1, 5)
    with pytest.raises(ValueError):
        torus_braid(3, 1)


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


def test_invalid_matrix_rejected():
    with pytest.raises(InvalidSeifertData):
        SeifertData.from_matrix([[0, 2], [0, 0]], 1)  # skew part not unimodular
    with pytest.raises(InvalidSeifertData):
        SeifertData.from_matrix([[1, 2], [3, 4], [5, 6]], 1)  # not square
    with pytest.raises(InvalidSeifertData):
        SeifertData.from_matrix([[1]], 3)  # no genus fits


# -- connected sum, mirror, stabilization ---------------------------------------

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


def test_random_knot_data_is_knotlike():
    rng = random.Random(8)
    for _ in range(10):
        data = random_knot_data(rng, stabilizations=1)
        assert data.components == 1
        assert abs(alexander_from_seifert(data).evaluate(1)) == 1
