"""Built-in catalog of links with expected invariants, plus the
regression checks behind the `verify` subcommand.

The catalog's connected-sum entry uses a genus-1 companion knot with
Seifert matrix [[0, 2], [1, 0]], whose Alexander polynomial is
2t^2 - 5t + 2 and whose signature function vanishes identically; summed
with T(3,5) it reproduces the width-10 Alexander polynomial and the
|sigma| = 8 signature profile of the standard satellite example.
"""

from __future__ import annotations

import reprlib

from .bounds import assemble_report
from .braids import (BraidWord, SeifertData, _json_int, _Value, braid_from_json, connected_sum,
                     seifert_data_from_json, seifert_matrix_from_braid, torus_braid)
from .errors import ParseError
from .factor import DEFAULT_DEGREE_CAP
from .laurent import laurent_from_json, units_equal
from .signature import alexander_from_seifert, signature_function


class CatalogEntry(_Value):
    _fields = ("name", "input", "expected")

    def __init__(self, name: str, input: BraidWord | SeifertData, expected: dict | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "expected", expected)

    def seifert_data(self) -> SeifertData:
        if isinstance(self.input, BraidWord):
            return seifert_matrix_from_braid(self.input)
        return self.input

    @classmethod
    def from_json(cls, obj: dict) -> "CatalogEntry":
        """An entry {name, input, expected}; ParseError unless the entry, its
        input and its expected values are objects, max_abs_sigma is an
        integer, g4 a pair of integers or nulls and alexander a Laurent
        polynomial."""
        if not isinstance(obj, dict) or "name" not in obj or "input" not in obj:
            raise ParseError("catalog entry must be an object with name and input")
        inp, expected = obj["input"], obj.get("expected")
        if not isinstance(inp, dict) or not isinstance(expected, (dict, type(None))):
            raise ParseError("catalog entry input and expected must be objects")
        expected = expected or {}
        if "max_abs_sigma" in expected:
            _json_int(expected["max_abs_sigma"], "max_abs_sigma")
        g4 = expected.get("g4", [None, None])
        if not isinstance(g4, list) or len(g4) != 2:
            raise ParseError(f"g4 must be a pair of bounds, got {reprlib.repr(g4)}")
        for bound in g4:
            if bound is not None:
                _json_int(bound, "g4 bound")
        if "alexander" in expected:
            try:
                laurent_from_json(expected["alexander"])
            except ValueError as e:
                raise ParseError(f"bad expected alexander: {e}") from None
        if "braid" in inp:
            parsed: object = braid_from_json(inp["braid"])
        else:
            parsed = seifert_data_from_json(inp)
        return cls(str(obj["name"]), parsed, obj.get("expected"))


def builtin_catalog() -> list[CatalogEntry]:
    t35 = torus_braid(3, 5)
    companion = SeifertData.from_matrix([[0, 2], [1, 0]], 1, "w2-companion")
    t35_sum = connected_sum(seifert_matrix_from_braid(t35), companion)
    return [
        CatalogEntry("unknot", BraidWord(1, ()), {
            "alexander": {"0": 1}, "max_abs_sigma": 0, "g4": [0, 0]}),
        CatalogEntry("trefoil", BraidWord(2, (1, 1, 1)), {
            "alexander": {"0": 1, "1": -1, "2": 1},
            "max_abs_sigma": 2, "g4": [1, 1]}),
        CatalogEntry("figure_eight", BraidWord(3, (1, -2, 1, -2)), {
            "alexander": {"0": 1, "1": -3, "2": 1},
            "max_abs_sigma": 0, "g4": [0, 1]}),
        CatalogEntry("torus_3_5", t35, {
            "alexander": {"0": 1, "1": -1, "3": 1, "4": -1, "5": 1, "7": -1, "8": 1},
            "max_abs_sigma": 8, "g4": [4, 4]}),
        CatalogEntry("w2_companion", companion, {
            "alexander": {"0": 2, "1": -5, "2": 2},
            "max_abs_sigma": 0, "g4": [0, 1]}),
        CatalogEntry("t35_sum_w2companion", t35_sum, {
            "alexander": {"0": 2, "1": -7, "2": 7, "4": -7, "5": 9, "6": -7, "8": 7, "9": -7,
                          "10": 2}, "max_abs_sigma": 8, "g4": [4, 5]}),
        CatalogEntry("hopf_positive", BraidWord(2, (1, 1)), {
            "alexander": {"0": -1, "1": 1}, "max_abs_sigma": 1, "g4": [1, None]}),
        CatalogEntry("unlink2_annulus",
                     SeifertData.from_matrix([[0]], 2, "unlink-annulus"), {
                         "alexander": {}, "max_abs_sigma": 0, "g4": [0, None]}),
    ]


def load_catalog(obj) -> list[CatalogEntry]:
    if not isinstance(obj, list):
        raise ParseError("catalog file must hold a JSON array of entries")
    return [CatalogEntry.from_json(e) for e in obj]


def verify_entry(entry: CatalogEntry, degree_cap: int = DEFAULT_DEGREE_CAP) -> tuple[bool, str]:
    """Regression-check one entry's expected values; returns (ok, message)."""
    data = entry.seifert_data()
    expected = entry.expected or {}
    problems = []
    if "alexander" in expected:
        want = laurent_from_json(expected["alexander"])
        got = alexander_from_seifert(data)
        if not units_equal(want, got):
            problems.append(f"alexander: expected {want} got {got}")
    if "max_abs_sigma" in expected:
        got_sigma = signature_function(data).max_abs_sigma()
        if got_sigma != expected["max_abs_sigma"]:
            problems.append(
                f"max|sigma|: expected {expected['max_abs_sigma']} got {got_sigma}")
    if "g4" in expected:
        lo, hi = expected["g4"]
        report = assemble_report(data, degree_cap=degree_cap)
        if report.lower != lo:
            problems.append(f"g4 lower: expected {lo} got {report.lower}")
        if report.upper != hi:
            problems.append(f"g4 upper: expected {hi} got {report.upper}")
    if problems:
        return False, "; ".join(problems)
    return True, "ok"


def verify_catalog(entries, degree_cap: int = DEFAULT_DEGREE_CAP) -> list[tuple[str, bool, str]]:
    return [(e.name, *verify_entry(e, degree_cap)) for e in entries]
