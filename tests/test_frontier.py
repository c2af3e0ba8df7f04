"""Cold reports at the frontier of input size, each in a fresh interpreter
under its time limit, which counts the interpreter's start and imports: no
earlier test warms a cache for them.  The reports run through
`python -m linkbound bound`; the checks that read the library's state
(Litherland's formula, the Burau oracle, the stops of the Bareiss kernel)
are the functions of frontier_checks.py, run as a script."""

import json

import pytest

from linkbound import seifert_matrix_from_braid, torus_braid

from helpers import TESTS, run_python, zero_padded


def _torus(p: int, q: int) -> dict:
    return {"braid": {"strands": p, "word": list(range(1, p)) * q}}


def _padded(p: int, q: int, k: int) -> dict:
    """T(p, q) + 0_k, a link of k more components."""
    data = zero_padded(seifert_matrix_from_braid(torus_braid(p, q)), k)
    return {"seifert_matrix": data.matrix, "components": data.components}


def _blocks(a: int, count: int) -> dict:
    """The block sum of `count` copies of [[a, 1], [0, a]]: its jump
    polynomial is linear in x for one copy and quadratic for two, with
    the root 2 - 1/a^2, which no divisor search finds fast."""
    n = 2 * count
    v = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        v[i][i] = v[i + 1][i + 1] = a
        v[i][i + 1] = 1
    return {"seifert_matrix": v, "components": 1}


@pytest.mark.parametrize("obj, limit", [  # limit in seconds
    pytest.param(_torus(3, 20), 10, id="T(3,20)"),
    pytest.param(_torus(3, 26), 5, id="T(3,26)"),
    pytest.param(_padded(3, 26, 6), 5, id="T(3,26) + 0_6"),
    pytest.param(_torus(3, 30), 5, id="T(3,30)"),
    pytest.param(_torus(3, 61), 5, id="T(3,61)"),
    pytest.param(_blocks(10 ** 12, 1), 1, id="[[a, 1], [0, a]], a = 10^12"),
    *(pytest.param(_blocks(10 ** e, 2), 2, id=f"[[a, 1], [0, a]] twice, a = 10^{e}")
      for e in (4, 6, 9))])
def test_cold_report_within_its_limit(tmp_path, obj, limit):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    out, err, code = run_python(["-m", "linkbound", "bound", str(path)], limit)
    assert code == 0, err
    assert json.loads(out)["lower"] >= 0


@pytest.mark.parametrize("check, args, limit", [  # a function of frontier_checks, limit in seconds
    pytest.param("zero_first_minor", (), 2, id="K0 # T(3,26)"),
    pytest.param("matches_litherland", (3, 61), 10, id="T(3,61) matches Litherland"),
    pytest.param("builds_with_no_stopped_run", (3, 30), 5, id="T(3,30) builds with no stop"),
    pytest.param("nullity_is_multiplicity", (3, 45, 4, 28), 2,
                 id="T(3,45) and T(4,28) nullities"),
    *(pytest.param("one_generic_run", (p, q), 30, id=f"T({p},{q}) one generic run")
      for p, q in ((4, 40), (6, 18), (7, 14), (6, 30))),
    pytest.param("mixed_double_stops", (), 30, id="T(2,3)#T(2,3)#T(3,26)#T(3,26) stops"),
    pytest.param("triple_block_sum_within_a_tenth", (3, 6), 10,
                 id="[[a, 1], [0, a]] three times, a = 10^3 and 10^6, 0.1 s each")])
def test_cold_check_within_its_limit(check, args, limit):
    _, err, code = run_python([str(TESTS / "frontier_checks.py"), check, *map(str, args)], limit)
    assert code == 0, err
