"""The CI workflows read as their authors meant, and hold no checks of
their own.  A YAML plain scalar ends at " #", so an unquoted step name
with " #" in it loses the rest of the name to a comment.  A step that
runs Python written in the workflow (python -, python -c or a heredoc)
is a check that the tier-1 command never runs: it belongs in a test.
Read as text, since CI installs no YAML parser."""

import re
from pathlib import Path

import pytest

WORKFLOWS = sorted((Path(__file__).resolve().parents[1] / ".github" / "workflows").glob("*.yml"))

# a name key, as a mapping key or the first key of a list item, and its value
NAME = re.compile(r"\s*(?:-\s+)?name:\s*(.*)")
# python reading its program from stdin (python -) or from -c, after any
# other options, or a heredoc
INLINE = re.compile(r"\bpython[\d.]*(?:\s+-\w+)*\s+-(?:c\b|\s|$)|<<")


def cut_names(text: str) -> list[str]:
    """The unquoted name values of text that hold " #"."""
    return [value for line in text.splitlines() if (m := NAME.fullmatch(line))
            and not (value := m[1]).startswith(("'", '"')) and " #" in value]


def inline_python(text: str) -> list[str]:
    """The lines of text that run Python written in the text itself."""
    return [line.strip() for line in text.splitlines() if INLINE.search(line)]


def test_cut_names_finds_an_unquoted_hash():
    text = ("jobs:\n  - name: Square knot (trefoil # mirror) (smoke)\n"
            "    name: \"K0 # T(3,26) (smoke)\"\n  - name: 'a # b'\n    name: a#b\n")
    assert cut_names(text) == ["Square knot (trefoil # mirror) (smoke)"]


def test_inline_python_finds_stdin_c_and_heredocs():
    text = ("run: PYTHONPATH=src python - <<'EOF'\n"
            "run: timeout 5 python3 -c 'import linkbound'\n"
            "run: python -u -c 'print(1)'\n"
            "run: python -\n"
            "run: cat <<EOF\n"
            "run: python -m pytest -q perfbench/tests\n"
            "run: python -m pip install . && linkbound verify\n"
            "run: python scripts/catalog_survey.py --count\n")
    assert inline_python(text) == ["run: PYTHONPATH=src python - <<'EOF'",
                                   "run: timeout 5 python3 -c 'import linkbound'",
                                   "run: python -u -c 'print(1)'", "run: python -",
                                   "run: cat <<EOF"]


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_no_step_name_is_cut_by_a_comment(path):
    assert cut_names(path.read_text()) == []


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_no_step_runs_inline_python(path):
    assert inline_python(path.read_text()) == []


def test_the_workflows_are_found():
    assert WORKFLOWS
