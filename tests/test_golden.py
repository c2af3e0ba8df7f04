"""Answers against tests/golden_answers.json, written by
scripts/golden_answers.py: every report and signature function of the
fixed inputs there must come out byte-identical."""

import importlib.util
import json
from pathlib import Path

import pytest

from helpers import cold_caches

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_answers.py"
_spec = importlib.util.spec_from_file_location("golden_answers", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

EXPECTED = json.loads(golden.GOLDEN.read_text())


def test_golden_inputs_are_fixed():
    names = [name for name, _ in golden.golden_inputs()]
    assert len(names) == len(set(names)) == len(EXPECTED) >= 100
    assert set(names) == set(EXPECTED)


@pytest.mark.parametrize("cold", [True, False])
def test_answers_are_byte_identical(cold):
    """Cold caches, then again with every cache warm from the first pass."""
    if cold:
        cold_caches()
    got = golden.answers()
    assert got.keys() == EXPECTED.keys()
    # compared as JSON text, where 1 and 1.0 differ though they compare equal
    mismatched = [name for name in EXPECTED if _dump(got[name]) != _dump(EXPECTED[name])]
    assert not mismatched


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)
