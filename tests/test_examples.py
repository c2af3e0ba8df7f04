"""README's library quick start and the scripts under scripts/ run as a
reader runs them, with the values the README states."""

import json
import re

import pytest

from helpers import TESTS, run_python

ROOT = TESTS.parent


def test_readme_quick_start():
    """The first python block under "## Library quick start" runs, and
    gives what its comments state: max |sigma| = 8 and an exact bound 4."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    scope = {}
    exec(re.search(r"```python\n(.*?)```", section, re.S)[1], scope)
    f, report = scope["f"], scope["report"]
    assert f.max_abs_sigma() == 8
    assert report.lower == report.upper == 4
    json.dumps(report.to_json())


@pytest.mark.parametrize("script, first", [
    ("catalog_survey.py", "name"), ("satellite_genus_demo.py", "Alexander polynomial of K:")])
def test_script_runs(script, first):
    out, err, code = run_python([str(ROOT / "scripts" / script)], 60)
    assert code == 0, err
    assert out.startswith(first) and not err
