"""Fuzz of the JSON readers: a bound report, an infection declaration, a
catalog and an input each read to a record or raise a LinkboundError whose
message is one line under 300 bytes, and a record stores only the strings
that the JSON held as strings."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkbound import BoundReport, InfectionDecl, LinkboundError
from linkbound.braids import seifert_data_from_json
from linkbound.catalog import load_catalog

STRANGER = "stranger"
HUGE = 10 ** 3999  # 4000 digits, within what json and str() read and write
scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
           | st.integers(-HUGE, HUGE) | st.floats() | st.text(max_size=4))
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=3), inner, max_size=3), max_leaves=6)
small_ints = st.integers(-3, 3)
counts = st.integers(1, 3)


@st.composite
def objects(draw, fields: dict):
    """A JSON object over a record's keys and, one time in eight, a
    stranger key.  Each key is left out one time in ten, holds any JSON
    value one time in ten, and else a value from the field's strategy."""
    obj = {}
    for key, own in fields.items():
        kind = draw(st.sampled_from(["own"] * 8 + ["any", "absent"]))
        if kind != "absent":
            obj[key] = draw(own if kind == "own" else json_values)
    if draw(st.sampled_from([False] * 7 + [True])):
        obj[STRANGER] = draw(json_values)
    return obj


provenance_entries = objects({"bound": st.sampled_from(["lower", "upper"]), "value": small_ints,
                              "source": st.text(max_size=4)})
reports = objects({"lower": st.integers(0, 1), "upper": counts | st.none(),
                   "slice_verdict": st.sampled_from(["obstructed", "inconclusive"]),
                   "provenance": st.lists(provenance_entries, max_size=2),
                   "assumptions": st.lists(st.text(max_size=4), max_size=2),
                   "components": counts, "exact": st.booleans()})
declarations = objects({"axes": counts,
                        "linking_numbers": st.lists(st.lists(small_ints, max_size=2), max_size=2),
                        "double_points": st.integers(0, 2), "milnor_vanishing_length": small_ints,
                        "notes": st.text(max_size=4)})
matrices = st.sampled_from([[], [[0]], [[-1, 1], [0, -1]], [[0, 2], [1, 0]]]) | st.integers(
    0, 3).flatmap(
    lambda n: st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n))
braids = (st.text(max_size=12)
          | st.sampled_from(["strands=2; 1 1 1", "strands=3; s1 s2^-1 s1 s2^-1"])
          | objects({"strands": st.integers(1, 3), "word": st.lists(small_ints, max_size=4)}))
inputs = objects({"braid": braids}) | objects({"seifert_matrix": matrices, "components": counts,
                                              "label": st.text(max_size=4)})
entries = objects({"name": st.text(max_size=4), "input": inputs,
                   "expected": objects({"alexander": st.dictionaries(
                       st.sampled_from(["0", "1", "-1"]), small_ints, max_size=2),
                       "max_abs_sigma": small_ints,
                       "g4": st.lists(small_ints | st.none(), min_size=2, max_size=2)})})

REPORT = {"lower": 1, "upper": 1, "slice_verdict": "obstructed"}
DECLARATION = {"axes": 1, "linking_numbers": [[0]], "double_points": 0,
               "milnor_vanishing_length": 0}
TREFOIL = {"braid": "strands=2; 1 1 1"}


def _read(reader, obj):
    """reader(obj), or None when it raises a LinkboundError, whose message
    must be one line under 300 bytes; any other exception fails the test."""
    try:
        return reader(obj)
    except LinkboundError as e:
        message = str(e).encode()
        assert b"\n" not in message and len(message) < 300, message[:300]
        return None


def _text(value) -> str:
    """A string field's JSON value, which must have been a string."""
    assert type(value) is str, value
    return value


@settings(max_examples=75, deadline=None)
@given(reports)
@example(dict(REPORT, assumptions="declared"))
@example(dict(REPORT, provenance=[{"bound": "lower", "value": 1, "source": ["x"]}]))
@example(dict(REPORT, provenance=7))
@example(dict(REPORT, lower=HUGE))
@example(dict(REPORT, components=-HUGE))
def test_bound_report_reader(obj):
    report = _read(BoundReport.from_json, obj)
    if report is not None:
        assert report.assumptions == tuple(map(_text, obj.get("assumptions", [])))
        assert [p.source for p in report.provenance] == \
            [_text(p["source"]) for p in obj.get("provenance", [])]
        assert BoundReport.from_json(report.to_json()) == report
        hash(report)


@settings(max_examples=75, deadline=None)
@given(declarations)
@example(dict(DECLARATION, notes=5))
@example(dict(DECLARATION, linking_numbers=[{}]))
@example(dict(DECLARATION, double_points=HUGE))
def test_infection_declaration_reader(obj):
    decl = _read(InfectionDecl.from_json, obj)
    if decl is not None:
        assert decl.notes == _text(obj.get("notes", ""))
        assert all(type(row) is list for row in obj["linking_numbers"])
        assert InfectionDecl.from_json(decl.to_json()) == decl
        hash(decl)


@settings(max_examples=75, deadline=None)
@given(st.lists(entries, max_size=2))
@example([{"name": 7, "input": TREFOIL}])
@example({"name": "trefoil", "input": TREFOIL})
def test_catalog_reader(obj):
    catalog = _read(load_catalog, obj)
    if catalog is not None:
        assert [e.name for e in catalog] == [_text(e["name"]) for e in obj]


@settings(max_examples=75, deadline=None)
@given(inputs)
@example({"seifert_matrix": [[-1, 1], [0, -1]], "label": [1, 2]})
@example({"seifert_matrix": [[-1, 1], [0, -1]], "components": HUGE})
@example({"braid": {"strands": HUGE, "word": []}})
@example([TREFOIL])
def test_input_reader(obj):
    data = _read(seifert_data_from_json, obj)
    if data is not None and "braid" not in obj:
        assert data.label == _text(obj.get("label", ""))
        hash(data)
