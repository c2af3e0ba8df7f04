"""The CI workflows read as their authors meant: a YAML plain scalar ends
at " #", so an unquoted step name with " #" in it loses the rest of the
name to a comment.  Read as text, since CI installs no YAML parser."""

import re
from pathlib import Path

import pytest

WORKFLOWS = sorted((Path(__file__).resolve().parents[1] / ".github" / "workflows").glob("*.yml"))

# a name key, as a mapping key or the first key of a list item, and its value
NAME = re.compile(r"\s*(?:-\s+)?name:\s*(.*)")


def cut_names(text: str) -> list[str]:
    """The unquoted name values of text that hold " #"."""
    return [value for line in text.splitlines() if (m := NAME.fullmatch(line))
            and not (value := m[1]).startswith(("'", '"')) and " #" in value]


def test_cut_names_finds_an_unquoted_hash():
    text = ("jobs:\n  - name: Square knot (trefoil # mirror) (smoke)\n"
            "    name: \"K0 # T(3,26) (smoke)\"\n  - name: 'a # b'\n    name: a#b\n")
    assert cut_names(text) == ["Square knot (trefoil # mirror) (smoke)"]


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_no_step_name_is_cut_by_a_comment(path):
    assert cut_names(path.read_text()) == []


def test_the_workflows_are_found():
    assert WORKFLOWS
