import json
import os
import reprlib
import shutil
import subprocess
import sys
import time

import pytest

import linkbound.linalg
from linkbound import cli
from linkbound.cli import MAX_JSON_INDENT, main
from linkbound.laurent import laurent_from_json


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps({"braid": {"strands": 2, "word": [1, 1, 1]}}))
    return str(path)


@pytest.fixture
def t35_file(tmp_path):
    path = tmp_path / "t35.json"
    path.write_text(json.dumps({"braid": "strands=3; 1 2 1 2 1 2 1 2 1 2"}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_trefoil(capsys, trefoil_file):
    code, out, _ = run(capsys, "invariants", trefoil_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["alexander_str"] == "t^2-t+1"
    assert obj["beta"] == 0
    assert obj["components"] == 1
    assert obj["genus"] == 1
    assert laurent_from_json(obj["alexander"]) == \
        laurent_from_json({"0": 1, "1": -1, "2": 1})
    assert obj["signature_function"]["interval_values"] == [[-2, 0], [0, 0]]


@pytest.fixture
def unknot_file(tmp_path):
    path = tmp_path / "unknot.json"
    path.write_text(json.dumps({"braid": {"strands": 1, "word": []}}))
    return str(path)


def test_unknot_through_all_commands(capsys, unknot_file):
    code, out, _ = run(capsys, "invariants", unknot_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["alexander_str"] == "1"
    assert obj["signature_function"]["breakpoints"] == []
    code, out, _ = run(capsys, "bound", unknot_file)
    obj = json.loads(out)
    assert (obj["lower"], obj["upper"], obj["exact"]) == (0, 0, True)
    code, out, _ = run(capsys, "signature-csv", unknot_file)
    lines = out.strip().splitlines()
    assert lines[1:] == ["-2.0,2.0,0.0,0,exact"]


def test_invariants_deterministic(capsys, t35_file):
    code1, out1, _ = run(capsys, "invariants", t35_file)
    code2, out2, _ = run(capsys, "invariants", t35_file)
    assert code1 == code2 == 0
    assert out1 == out2


def test_invariants_zero_alexander(capsys, tmp_path):
    path = tmp_path / "unlink.json"
    path.write_text(json.dumps({"seifert_matrix": [[0]], "components": 2}))
    code, out, _ = run(capsys, "invariants", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["alexander"] == {}
    assert obj["alexander_str"] == "0"
    assert obj["width"] is None
    assert obj["beta"] == 1


def test_bound_t35(capsys, t35_file):
    code, out, _ = run(capsys, "bound", t35_file)
    assert code == 0
    obj = json.loads(out)
    assert (obj["lower"], obj["upper"], obj["exact"]) == (4, 4, True)


def test_bound_with_band_cert(capsys, trefoil_file):
    code, out, _ = run(capsys, "bound", trefoil_file, "--band-cert", "3,2")
    assert code == 0
    obj = json.loads(out)
    assert obj["upper"] == 1


def test_cached_parser_keeps_no_state(capsys, trefoil_file):
    """No option of one call reaches the next."""
    code, out, _ = run(capsys, "bound", trefoil_file, "--band-cert", "3,2")
    assert code == 0 and json.loads(out)["assumptions"]
    code, out, _ = run(capsys, "bound", trefoil_file)
    obj = json.loads(out)
    assert code == 0 and obj["assumptions"] == []
    assert not any("band" in p["source"] for p in obj["provenance"])
    code, out, _ = run(capsys, "bound", trefoil_file, "--json-indent", "65")
    assert code == 2 and not out
    code, out, _ = run(capsys, "bound", trefoil_file)
    assert code == 0 and json.loads(out) == obj


def test_bound_bad_cert_syntax(capsys, trefoil_file):
    code, _, err = run(capsys, "bound", trefoil_file, "--band-cert", "x,y")
    assert code == 2 and "band-cert" in err


@pytest.mark.parametrize("option", [["--band-cert", "1,1"], ["--band-cert", "0,3"],
                                    ["--band-cert=-1,1"]])
def test_bound_invalid_cert(capsys, option, trefoil_file):
    """An even euler characteristic, a negative genus or a negative band
    count is a parse error (exit 2), not a traceback."""
    code, out, err = run(capsys, "bound", trefoil_file, *option)
    assert code == 2 and "band-cert" in err and not out
    assert "Traceback" not in err


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "invariants", str(path))
    assert code == 2
    assert ":1:" in err  # line/column diagnostics


@pytest.mark.parametrize("content", [
    b'{"seifert_matrix": [[' + b"9" * 5000 + b']], "components": 1}',
    b'{"braid": "strands=2; 1 1 1", "name": "caf\xe9"}',
    b"[" * 100000,
], ids=["5000-digit integer", "not UTF-8", "100000 nested ["])
def test_hostile_json_exit_code(capsys, tmp_path, content):
    """An integer too long for int(), a file that is not UTF-8 and nesting
    too deep for the decoder are parse errors, not tracebacks."""
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "bound", str(path))
    assert code == 2 and not out
    assert err.startswith("parse error:") and "Traceback" not in err


@pytest.mark.parametrize("obj", [
    {"seifert_matrix": [[-1.5, 1], [0, -1]], "components": 1},
    {"seifert_matrix": [[-1, 1], [0, "a"]], "components": 1},
    {"seifert_matrix": [[-1, 1], [None, -1]], "components": 1},
    {"seifert_matrix": [[-1, True], [0, -1]], "components": 1},
    {"seifert_matrix": [[-1, 1], [0, -1]], "components": "x"},
    {"seifert_matrix": [[-1, 1], [0, -1]], "components": 1.0},
    {"braid": {"strands": 2, "word": [1, 1, 1.9]}},
    {"braid": {"strands": 2.7, "word": [1, 1, 1]}},
    {"braid": {"strands": 2, "word": [1, None, 1]}},
    {"braid": {"strands": "2", "word": [1, 1, 1]}},
    {"braid": {"strands": 2, "word": "111"}},
    {"braid": "strands=２; 1 1 1"}, {"braid": "strands=1_0; 1 1 1"},
    {"braid": "strands=+2; 1 1 1"}, {"braid": "strands=2; 1 1 １"},
    {"braid": "strands=2; s1 s1 s١"},
    {"braid": "strands=2; 1 1 1", "seifert_matrix": [[0]], "components": 2},
    {"braid": "strands=2; 1 1", "components": 5}, {"braid": "strands=2; 1 strands=3 2 1"},
])
def test_non_integer_json_exit_code(capsys, tmp_path, obj):
    """A number that is not a JSON integer, or not an ASCII decimal in a
    braid text, is a parse error: nothing is truncated or read into a
    report on another matrix or braid.  So is a braid beside a
    seifert_matrix or components, or a braid text with two strand counts,
    where the report used to be on one of the two."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "bound", str(path))
    assert code == 2 and not out
    assert err.startswith("parse error:") and err.count("\n") == 1 and "Traceback" not in err


def test_invalid_matrix_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seifert_matrix": [[0, 2], [0, 0]], "components": 1}))
    code, _, err = run(capsys, "invariants", str(path))
    assert code == 3
    assert "unimodular" in err


@pytest.mark.parametrize("obj, message", [
    ({"seifert_matrix": [[0, 2], [0, 0]], "components": 1},
     "V - V^T must be unimodular for a knot"),
    ({"seifert_matrix": [[0, 1], [0, 0]], "components": 3},
     "rank of V - V^T does not equal twice the genus"),
    ({"seifert_matrix": [[0, 1, 0], [1, 0, 1], [0, 1, 0]], "components": 1},
     "no genus fits size 3 with 1 components"),
    ({"seifert_matrix": [[0, 0], [0, 0]], "components": 1},
     "rank of V - V^T does not equal twice the genus"),
], ids=["not unimodular", "rank too high", "no genus", "rank-deficient knot"])
def test_refused_matrix_messages(capsys, tmp_path, obj, message):
    """A matrix refused by the checks of V - V^T exits 3 with the message
    of the first check that fails, and no traceback."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "bound", str(path))
    assert code == 3 and not out
    assert err == f"invalid input data: {message}\n"


def test_knot_report_runs_the_kernel_once(capsys, monkeypatch, t35_file):
    """From the JSON file to the printed report, a knot runs the Bareiss
    kernel once: the construction's elimination of tV - V^T, which checks
    V - V^T and gives Delta, beta and every leading minor of B."""
    runs = []
    eliminate = linkbound.linalg._eliminate

    def counted(m, *args, **kwargs):
        runs.append(len(m))
        return eliminate(m, *args, **kwargs)

    monkeypatch.setattr(linkbound.linalg, "_eliminate", counted)
    code, out, _ = run(capsys, "bound", t35_file)
    assert code == 0 and json.loads(out)["lower"] == 4
    assert runs == [8]


def test_braid_index_past_the_digit_limit_exit_code(capsys, tmp_path):
    """A braid token s<5000 digits> is a parse error: int() refused it with
    a ValueError that escaped as a traceback and exit 1."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"braid": "strands=3; s" + "1" * 5000 + " s2"}))
    code, out, err = run(capsys, "bound", str(path))
    assert code == 2 and not out
    assert err.startswith("parse error: malformed braid token") and len(err) < 200


def test_json_indent_above_the_maximum_exit_code(capsys, trefoil_file):
    """--json-indent above MAX_JSON_INDENT is refused before any work: 3000000
    printed 141 MB for the trefoil.  The maximum itself, 0 and -1 run."""
    for value in (MAX_JSON_INDENT + 1, 3000000, 10 ** 9):
        code, out, err = run(capsys, "bound", trefoil_file, "--json-indent", str(value))
        assert code == 2 and not out
        assert err == (f"parse error: --json-indent {value} exceeds the maximum "
                       f"{MAX_JSON_INDENT}\n")
    for value in (MAX_JSON_INDENT, 0, -1):
        code, out, _ = run(capsys, "bound", trefoil_file, f"--json-indent={value}")
        assert code == 0 and json.loads(out)["lower"] == 1
        assert (f'\n{" " * MAX_JSON_INDENT}"' in out) == (value == MAX_JSON_INDENT)


def test_split_braid_exit_code(capsys, tmp_path):
    path = tmp_path / "split.json"
    path.write_text(json.dumps({"braid": {"strands": 3, "word": [1, 1]}}))
    code, _, err = run(capsys, "invariants", str(path))
    assert code == 3


def test_huge_split_braid_exit_code(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"braid": {"strands": 10 ** 9, "word": [1]}}))
    start = time.perf_counter()
    code, _, err = run(capsys, "bound", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert len(err) < 300


def test_python_m_linkbound(trefoil_file):
    """python -m linkbound runs the CLI, exit codes included."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-m", "linkbound", "bound", trefoil_file],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["lower"] == 1
    done = subprocess.run([sys.executable, "-m", "linkbound", "signature-csv", trefoil_file,
                           "--samples", "10001"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and "exceeds the maximum 10000" in done.stderr


@pytest.mark.parametrize("imports, modules", [
    ("from linkbound.cli import main", ("argparse", "gettext", "locale")),
    ("import linkbound; from linkbound.cli import main",
     ("dataclasses", "inspect", "ast", "dis", "tokenize"))], ids=["argparse", "dataclasses"])
def test_report_path_imports_no_argparse(trefoil_file, imports, modules):
    """A report parses its command line without argparse, so a process
    never imports argparse, gettext or locale on the way to it; and its
    value classes are plain classes, so neither `import linkbound` nor the
    report imports dataclasses and the inspect, ast, dis and tokenize
    modules that it pulls in."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (f"import sys; {imports}; rc = main(['bound', sys.argv[1]]); "
            f"print([m for m in {modules!r} if m in sys.modules], rc)")
    done = subprocess.run([sys.executable, "-c", code, trefoil_file],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[] 0"


COMMANDS = ("invariants", "bound", "infect", "signature-csv", "verify")


@pytest.fixture
def cli_files(tmp_path, trefoil_file, monkeypatch):
    """Placeholder -> path: K a knot, R a bound report, D an infection
    declaration, C a one-entry catalog.  The working directory also holds
    -K.json and -R.json, files whose names start with '-'."""
    files = {"K": trefoil_file}
    for name, obj in (("R", REPORT), ("D", DECLARATION), ("C", [{
            "name": "unknot", "input": {"braid": {"strands": 1, "word": []}},
            "expected": {"max_abs_sigma": 0}}])):
        files[name] = str(tmp_path / f"{name}.json")
        with open(files[name], "w") as fh:
            json.dump(obj, fh)
    for name in ("K", "R"):
        shutil.copy(files[name], tmp_path / f"-{name}.json")
    monkeypatch.chdir(tmp_path)
    return files


@pytest.mark.parametrize("argv, expected", [
    ("invariants K", 0), ("invariants --input K", 0), ("invariants --input=K", 0),
    ("invariants K --json-indent 0", 0),
    ("bound K", 0), ("bound --input K", 0), ("bound K --json-indent=4", 0),
    ("bound K --band-cert 3,2", 0), ("bound K --band-cert=3,2 --band-cert 5,2", 0),
    ("bound --json-indent 10 K", 0), ("bound K --json-indent=10 --band-cert 3,2", 0),
    ("signature-csv K", 0), ("signature-csv K --samples 3", 0),
    ("signature-csv K --samples 10000", 0), ("signature-csv K --samples 0", 0),
    ("invariants K --json-indent -1", 0),
    ("signature-csv --samples=2 --input K", 0),
    ("verify --catalog C", 0), ("verify --catalog=C", 0),
    ("infect R D", 0), ("infect R D --json-indent 0", 0),
    ("-h", 0), ("--help", 0), ("bound -h", 0), ("verify --catalog C --help", 0),
    ("infect ./-R.json D", 0), ("bound ./-K.json", 0), ("bound --input=-K.json", 0),
    ("invariants --input -K.json", 0),
    ("", 2), ("nosuch K", 2), ("--json-indent 2 bound K", 2), ("-x", 2),
    ("bound", 2), ("invariants --json-indent 0", 2), ("infect R", 2), ("infect", 2),
    ("bound K K", 2), ("infect R D D", 2), ("verify K", 2),
    ("bound K --no-such-flag", 2), ("bound K -x", 2), ("bound K --json 5", 2),
    ("invariants K --band-cert 3,2", 2), ("infect R D --input K", 2),
    ("signature-csv K --samples", 2), ("verify --catalog", 2), ("bound K --json-indent", 2),
    ("bound K --json-indent x", 2), ("bound K --json-indent=1.5", 2),
    ("signature-csv K --samples many", 2), ("bound K --json-indent=", 2),
    ("signature-csv K --samples 10001", 2), ("signature-csv K --samples=1000000000", 2),
    ("signature-csv K --samples -5", 2), ("signature-csv K --samples=-1", 2),
    ("verify --catalog -h", 2), ("bound K --band-cert --help", 2), ("bound -- K", 2),
    ("infect -R.json D", 2), ("bound -K.json", 2),
    ("bound K --json-indent 1_2", 2), ("signature-csv K --samples=+12", 2),
    ("bound K --json-indent ２", 2), ("signature-csv K --samples 1_0", 2),
    ("bound K --band-cert 1_0,1", 2), ("bound K --band-cert 3,+2", 2),
    ("bound K --band-cert=3,２", 2),
    ("signature-csv --samples=2 --input K --json-indent 0", 2),
    ("verify --catalog=C --json-indent 0", 2), ("verify --json-indent 0", 2),
    ("bound K --degree-cap 12", 2), ("verify --degree-cap=12", 2),
    ("bound K --input K", 2), ("bound --input K --input=K", 2), ("invariants --input K K", 2),
    ("signature-csv K --input=-K.json", 2),
])
def test_command_line_forms(capsys, cli_files, argv, expected):
    """Every documented form of the command line runs, and a wrong one
    exits 2 with a parse error and no output.  -h/--help where an option
    may stand prints the command list and exits 0; as an option's value
    it is that value.  A path that starts with '-' is given as ./PATH or
    --input=PATH: there is no '--' end-of-options marker.  INPUT is named
    once, as a word or through --input: a second one used to replace the
    first.  signature-csv and verify print no JSON and take no
    --json-indent, which they used to accept and ignore.  An integer
    option and each number of --band-cert are an optional '-' and ASCII
    digits, where int() would also read '1_2', '+12' and other scripts'
    digits.  The Fox-Milnor cap is a constant: --degree-cap is an unknown
    option."""
    def fill(token):
        head, eq, tail = token.rpartition("=")
        return head + eq + cli_files.get(tail, tail)
    code, out, err = run(capsys, *map(fill, argv.split()))
    assert code == expected, err
    assert "Traceback" not in err
    if expected == 0 and {"-h", "--help"} & set(argv.split()):
        assert all(f"  {command} " in out for command in COMMANDS) and not err
    elif expected == 2:
        assert err.startswith("parse error:") and err.count("\n") == 1 and not out


# a valid value of every option that is not a list option
ONCE = {"--json-indent": "2", "--samples": "1", "--catalog": "C"}
POSITIONALS = {"input": "K", "base_report": "R", "declaration": "D"}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, _, options, _) in cli.COMMANDS.items()
    for flag, (kind, _) in options.items() if kind is not list])
def test_an_option_given_twice_exits_2(capsys, cli_files, command, flag):
    """Every option but the list options --band-cert and --input, given
    twice, exits 2 with one 'given twice' line and no output, as a space or
    '=' form and whether the values agree or not: it used to keep the last
    value, so a refused value followed by a valid one ran with the valid
    one, where the refused value alone exits 2.  Given once, each value
    runs."""
    positionals = [cli_files[POSITIONALS[name]] for name in cli.COMMANDS[command][1]]
    value = cli_files.get(ONCE[flag], ONCE[flag])
    assert run(capsys, command, *positionals, flag, value)[0] == 0
    for twice in ([flag, value, flag, value], [f"{flag}={value}", flag, "99"]):
        code, out, err = run(capsys, command, *positionals, *twice)
        assert code == 2 and not out
        assert err == f"parse error: {command}: {flag} given twice\n"


def test_band_cert_forms_agree(capsys, trefoil_file):
    """--band-cert b,u and --band-cert=b,u are one option, repeatable."""
    outs = {run(capsys, "bound", trefoil_file, *option)[1] for option in (
        ["--band-cert", "3,2", "--band-cert", "5,2"], ["--band-cert=3,2", "--band-cert=5,2"],
        ["--band-cert=3,2", "--band-cert", "5,2"])}
    assert len(outs) == 1
    assert len(json.loads(outs.pop())["assumptions"]) == 2


def test_infect_flow(capsys, tmp_path, t35_file):
    code, out, _ = run(capsys, "bound", t35_file)
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    decl_path = tmp_path / "decl.json"
    decl_path.write_text(json.dumps({
        "axes": 2, "linking_numbers": [[0], [0]],
        "double_points": 7, "milnor_vanishing_length": 14}))
    code, out, _ = run(capsys, "infect", str(report_path), str(decl_path))
    assert code == 0
    obj = json.loads(out)
    assert (obj["lower"], obj["upper"], obj["exact"]) == (4, 4, True)
    assert obj["assumptions"]


def test_infect_missing_milnor(capsys, tmp_path, t35_file):
    code, out, _ = run(capsys, "bound", t35_file)
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    decl_path = tmp_path / "decl.json"
    decl_path.write_text(json.dumps({
        "axes": 1, "linking_numbers": [[0]],
        "double_points": 3, "milnor_vanishing_length": 0}))
    code, _, err = run(capsys, "infect", str(report_path), str(decl_path))
    assert code == 3
    assert "not declared" in err


REPORT = {"lower": 1, "upper": 1, "slice_verdict": "obstructed"}
DECLARATION = {"axes": 1, "linking_numbers": [[0]], "double_points": 0,
               "milnor_vanishing_length": 0}


@pytest.mark.parametrize("report, declaration", [
    ({}, DECLARATION), (REPORT, {}), (REPORT, {"axes": "x"}), ([], DECLARATION),
    (REPORT, [])])
def test_infect_malformed_input_exit_code(capsys, tmp_path, report, declaration):
    """A base report or a declaration with a missing or mistyped field, or
    that is not a JSON object, is a parse error (exit 2), not a traceback;
    the well-formed pair transfers."""
    paths = {}
    for name, obj in (("report", report), ("declaration", declaration),
                      ("good_report", REPORT), ("good_declaration", DECLARATION)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    code, out, _ = run(capsys, "infect", str(paths["good_report"]),
                       str(paths["good_declaration"]))
    assert code == 0 and json.loads(out)["lower"] == 1
    code, out, err = run(capsys, "infect", str(paths["report"]), str(paths["declaration"]))
    assert code == 2 and not out
    assert err.startswith("parse error:") and "Traceback" not in err


@pytest.mark.parametrize("report, declaration, code", [
    (dict(REPORT, components=2), DECLARATION, 3),
    (dict(REPORT, components=2), dict(DECLARATION, axes=2, linking_numbers=[[0, 0], [0]]), 3),
    (dict(REPORT, components=0), DECLARATION, 2),
    (dict(REPORT, slice_verdict="whatever"), DECLARATION, 2),
    (dict(REPORT, provenance=[{"bound": "sideways", "value": 1, "source": "x"}]), DECLARATION, 2)],
    ids=["short row", "ragged rows", "no component", "verdict", "provenance bound"])
def test_infect_refuses_what_the_report_cannot_hold(capsys, tmp_path, report, declaration, code):
    """Linking-number rows that do not match the base report's components
    are invalid data (exit 3), and a report with no component, an unknown
    verdict or an unknown provenance bound is a parse error (exit 2);
    each used to exit 0."""
    report_path, decl_path = tmp_path / "report.json", tmp_path / "decl.json"
    report_path.write_text(json.dumps(report))
    decl_path.write_text(json.dumps(declaration))
    got, out, err = run(capsys, "infect", str(report_path), str(decl_path))
    assert got == code and not out and "Traceback" not in err


NON_INTEGER_REPORT = {"lower": 1.9, "upper": 1.2, "slice_verdict": "obstructed"}
NON_INTEGER_DECLARATION = dict(DECLARATION, linking_numbers=[[0.7]])


@pytest.mark.parametrize("report, declaration", [
    (NON_INTEGER_REPORT, NON_INTEGER_DECLARATION), (NON_INTEGER_REPORT, DECLARATION),
    (REPORT, NON_INTEGER_DECLARATION)])
def test_infect_non_integer_exit_code(capsys, tmp_path, report, declaration):
    """A bound or a linking number that is not a JSON integer is a parse
    error (exit 2), not truncated: int() would read lower 1.9 and upper
    1.2 as an exact bound 1, and the linking number 0.7 as 0."""
    report_path, decl_path = tmp_path / "report.json", tmp_path / "decl.json"
    report_path.write_text(json.dumps(report))
    decl_path.write_text(json.dumps(declaration))
    code, out, err = run(capsys, "infect", str(report_path), str(decl_path))
    assert code == 2 and not out
    assert err.startswith("parse error:") and "Traceback" not in err


@pytest.mark.parametrize("report, declaration, message", [
    (NON_INTEGER_REPORT, DECLARATION, "lower must be integers, got float"),
    (REPORT, dict(DECLARATION, axes=1.5), "axes must be integers, got float")],
    ids=["report", "declaration"])
def test_infect_parse_error_keeps_its_message(capsys, tmp_path, report, declaration, message):
    """The parse error of a non-integer field reaches stderr with its own
    message, not wrapped in its repr."""
    report_path, decl_path = tmp_path / "report.json", tmp_path / "decl.json"
    report_path.write_text(json.dumps(report))
    decl_path.write_text(json.dumps(declaration))
    code, _, err = run(capsys, "infect", str(report_path), str(decl_path))
    assert code == 2 and "ParseError(" not in err
    assert err == f"parse error: {message}\n"


def test_signature_csv(capsys, trefoil_file):
    code, out, _ = run(capsys, "signature-csv", trefoil_file, "--samples", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x_lo,x_hi,sigma,nullity,source"
    exact = [l for l in lines[1:] if l.endswith("exact")]
    oracle = [l for l in lines[1:] if l.endswith("oracle")]
    assert len(exact) == 3  # two intervals + one breakpoint row
    assert len(oracle) == 100
    # oracle rows agree with the exact piecewise values away from the jump
    for line in oracle:
        x, _, sigma, nullity, _ = line.split(",")
        x, sigma = float(x), float(sigma)
        if abs(x - 1.0) > 1e-3:
            assert sigma == (-2.0 if x < 1 else 0.0)
            assert int(nullity) == 0


def test_verify_builtin(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "PASS torus_3_5" in out
    assert out.strip().endswith("catalog entries passed")


def test_verify_corrupted_catalog(capsys, tmp_path):
    """Each entry whose expected values differ from the computed ones
    fails with one line naming every difference, and verify exits 5."""
    catalog = [{
        "name": "bad_trefoil",
        "input": {"braid": {"strands": 2, "word": [1, 1, 1]}},
        "expected": {"alexander": {"0": 7}},
    }, {
        "name": "wrong_trefoil",
        "input": {"braid": {"strands": 2, "word": [1, 1, 1]}},
        "expected": {"max_abs_sigma": 3, "g4": [0, 2]},
    }]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    code, out, _ = run(capsys, "verify", "--catalog", str(path))
    assert code == 5
    assert "FAIL bad_trefoil" in out
    assert ("FAIL wrong_trefoil: max|sigma|: expected 3 got 2; g4 lower: expected 0 got 1; "
            "g4 upper: expected 2 got 1\n") in out
    assert out.endswith("0/2 catalog entries passed\n")


def test_verify_empty_catalog(capsys, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text("[]")
    code, out, err = run(capsys, "verify", "--catalog", str(path))
    assert code == 0
    assert "empty catalog" in err


TREFOIL_ENTRY = {"name": "trefoil", "input": {"braid": {"strands": 2, "word": [1, 1, 1]}}}


@pytest.mark.parametrize("catalog", [
    [5], [{"name": "x", "input": 7}], ["trefoil"], [{"input": TREFOIL_ENTRY["input"]}],
    *([dict(TREFOIL_ENTRY, expected=expected)] for expected in (
        {"g4": 5}, {"g4": [1]}, {"g4": [1, 1.5]}, {"g4": [True, 1]}, {"alexander": 3},
        {"alexander": {"0": "1/0"}}, {"alexander": {"x": 1}}, {"alexander": {"1_0": 1}},
        {"alexander": {"0": "1e3"}}, {"alexander": {"0": "1/2"}},
        {"alexander": {"coefficients": "121"}}, {"alexander": {"coefficients": {"3": 7, "5": 1}}},
        {"alexander": {"coefficients": [1, -1, 1], "min_exponent": 1.5}},
        {"alexander": {"coefficients": [1, -1, 1], "min_exponent": 0, "0": 5}},
        {"max_abs_sigma": 2.0}, {"max_abs_sigma": "2"}, [1], 1)),
    [dict(TREFOIL_ENTRY, input={"braid": "strands=2; 1 1", "components": 2})]], ids=repr)
def test_verify_malformed_catalog_exit_code(capsys, tmp_path, catalog):
    """A catalog entry, its input or its expected values that are not
    objects, an input with a braid beside components, a g4 that is not a
    pair of integers or nulls, a bad Alexander polynomial and a
    non-integer max_abs_sigma are parse errors:
    exit 2 with one message, where they used to raise, or, for expected
    [1], check nothing and pass.  A "p/q" Alexander coefficient, which used
    to fail its check (exit 5), is one: Delta has integer coefficients.  So
    is a key beside "coefficients" and "min_exponent", which was dropped."""
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    code, out, err = run(capsys, "verify", "--catalog", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1


FULL_REPORT = {"lower": 1, "upper": 1, "exact": True, "slice_verdict": "obstructed",
               "provenance": [{"bound": "lower", "value": 1, "source": "s"}],
               "assumptions": [], "components": 1}


def json_argv(tmp_path, command, obj):
    """The command line that reads obj as a JSON file: "verify" as its
    catalog, "infect" as its report and "infect-declaration" as its
    declaration, beside FULL_REPORT or DECLARATION, and "bound" as its
    input; with the paths of those two good files."""
    path = tmp_path / "obj.json"
    path.write_text(json.dumps(obj))
    good = {"report": tmp_path / "report.json", "declaration": tmp_path / "declaration.json"}
    good["report"].write_text(json.dumps(FULL_REPORT))
    good["declaration"].write_text(json.dumps(DECLARATION))
    return {"verify": ["verify", "--catalog", str(path)],
            "infect": ["infect", str(path), str(good["declaration"])],
            "infect-declaration": ["infect", str(good["report"]), str(path)],
            "bound": ["bound", str(path)]}[command], good


@pytest.mark.parametrize("command, obj, key", [
    ("verify", [dict(TREFOIL_ENTRY, expected={"max_abs_sigmaa": 7, "alexandre": {"0": 5}})],
     "max_abs_sigmaa"),
    ("verify", [dict(TREFOIL_ENTRY, expect={"max_abs_sigma": 7})], "expect"),
    ("verify", [dict(TREFOIL_ENTRY, input={"braid": "strands=2; 1 1 1", "lable": "T"})], "lable"),
    ("infect", dict(REPORT, uper=1), "uper"),
    ("infect", dict(FULL_REPORT, provenance=[{"bound": "lower", "value": 1, "source": "s",
                                              "sorce": "t"}]), "sorce"),
    ("infect-declaration", dict(DECLARATION, double_point=3), "double_point"),
    ("bound", {"seifert_matrix": [[-1, 1], [0, -1]], "componets": 3}, "componets"),
    ("bound", {"braid": {"strands": 2, "word": [1, 1, 1], "wrod": [1]}}, "wrod"),
], ids=["expected", "entry", "entry input", "report", "provenance", "declaration", "input",
        "braid"])
def test_unknown_json_keys_exit_2(capsys, tmp_path, command, obj, key):
    """Each JSON object the CLI reads refuses a key it does not know with
    one parse error naming the key, exit 2: a misspelt key was ignored, so
    a catalog entry checked nothing and passed, a report lost its upper
    bound and a misspelt "components" read as a knot.  A report with
    every key that to_json writes transfers."""
    argv, good = json_argv(tmp_path, command, obj)
    assert run(capsys, "infect", str(good["report"]), str(good["declaration"]))[0] == 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"unknown key {key!r}\n") and err.count("\n") == 1


@pytest.mark.parametrize("command, obj, message", [
    ("infect", dict(REPORT, assumptions="declared"), "assumptions must be a list, got 'declared'"),
    ("infect", dict(REPORT, assumptions=["a", 1]), "assumption must be a string, got 1"),
    ("infect", dict(REPORT, assumptions={"a": 1}), "assumptions must be a list, got {'a': 1}"),
    ("infect", dict(REPORT, provenance=[{"bound": "lower", "value": 1, "source": ["x"]}]),
     "provenance source must be a string, got ['x']"),
    ("infect", dict(REPORT, provenance=5), "provenance must be a list, got 5"),
    ("infect", dict(REPORT, provenance=[{"bound": "lower", "value": 1}]),
     "malformed bound report: Provenance.__init__() missing 1 required positional argument: "
     "'source'"),
    ("infect", {"upper": 1}, "malformed bound report: BoundReport.__init__() missing 1 "
     "required positional argument: 'lower'"),
    ("infect", dict(REPORT, components=True), "components must be integers, got bool"),
    ("infect-declaration", dict(DECLARATION, notes=5), "notes must be a string, got 5"),
    ("infect-declaration", dict(DECLARATION, double_points="0"),
     "double_points must be integers, got str"),
    ("infect-declaration", dict(DECLARATION, linking_numbers=[{}]),
     "linking_numbers row must be a list, got {}"),
    ("infect-declaration", dict(DECLARATION, linking_numbers=3),
     "linking_numbers must be a list, got 3"),
    ("verify", [dict(TREFOIL_ENTRY, name=7)], "catalog entry name must be a string, got 7"),
    ("bound", {"seifert_matrix": [[-1, 1], [0, -1]], "label": [1, 2]},
     "label must be a string, got [1, 2]"),
    ("bound", {"braid": {"strands": 2, "word": [1, 1.0, 1]}},
     "strands and braid letters must be integers, got float"),
], ids=["bare assumptions", "assumption", "assumptions object", "source", "provenance number",
        "provenance field", "report field", "components", "notes", "double_points",
        "object row", "number rows", "name", "label", "braid letter"])
def test_wrong_json_types_exit_2(capsys, tmp_path, command, obj, message):
    """A JSON value of the wrong type is one parse error naming its field,
    exit 2: the readers used to call str() and tuple() on what they read,
    so "assumptions": "declared" became eight one-letter assumptions, a
    source ["x"] the text "['x']", and a catalog name 7 printed PASS 7."""
    argv, _ = json_argv(tmp_path, command, obj)
    assert run(capsys, *argv) == (2, "", f"parse error: {message}\n")


BIG = "x" * 100000
NINES = "9" * 4000  # an integer option of 4000 digits, within int()'s 4300
BIG_REPORT = {"lower": 1, "upper": 1, "slice_verdict": "obstructed"}
TREFOIL_MATRIX = [[-1, 1], [0, -1]]
HUGE = int(NINES)
DEEP = ("d" * 240,) * 12  # the directories of a 2900-character path
PREFIXES = {2: "parse error: ", 3: "invalid input data: ", 4: "inconsistent bounds: "}


@pytest.mark.parametrize("args, code", [
    (["bound", {"seifert_matrix": TREFOIL_MATRIX, "components": BIG}], 2),
    (["bound", {"seifert_matrix": [[BIG, 1], [0, -1]]}], 2),
    (["bound", {"braid": f"strands={BIG}; 1 1 1"}], 2),
    (["bound", {"seifert_matrix": TREFOIL_MATRIX}, "--json-indent", BIG], 2),
    (["bound", {"seifert_matrix": TREFOIL_MATRIX}, "--band-cert", BIG + ",1"], 2),
    (["infect", dict(BIG_REPORT, provenance=[{"bound": BIG, "value": 1, "source": "s"}]),
      DECLARATION], 2),
    (["infect", dict(BIG_REPORT, slice_verdict=BIG), DECLARATION], 2),
    *((["verify", "--catalog", [dict(TREFOIL_ENTRY, expected=expected)]], 2) for expected in (
        {"g4": [0] * 50000}, {"alexander": {"0": BIG}}, {"alexander": {"0" * 4000 + "1": 1}},
        {"alexander": {"coefficients": [1], "min_exponent": BIG}})),
    (["bound", {"seifert_matrix": TREFOIL_MATRIX}, "--json-indent", NINES], 2),
    (["signature-csv", {"seifert_matrix": TREFOIL_MATRIX}, "--samples", NINES], 2),
    (["bound", {"seifert_matrix": TREFOIL_MATRIX}, "--band-cert", "1," + NINES], 2),
    (["bound", {"braid": {"strands": HUGE, "word": []}}], 3),
    (["bound", {"braid": {"strands": -HUGE, "word": []}}], 2),
    (["bound", {"braid": {"strands": 2, "word": [HUGE]}}], 2),
    (["bound", {"seifert_matrix": TREFOIL_MATRIX, "components": HUGE}], 3),
    (["infect", dict(BIG_REPORT, components=-HUGE), DECLARATION], 2),
    (["infect", dict(BIG_REPORT, lower=HUGE), DECLARATION], 4),
    (["infect", BIG_REPORT, dict(DECLARATION, double_points=HUGE)], 3),
    (["bound", {"seifert_matrix": TREFOIL_MATRIX}, "--" + BIG], 2),
    (["bound", {"seifert_matrix": TREFOIL_MATRIX}, BIG], 2),
    (["bound", "missing/" * 500], 2),
    (["bound", b'{"seifert_matrix": [['], 2),
    (["bound", b"\xff\xfe"], 2)],
    ids=["components", "matrix entry", "strands", "json-indent", "band-cert",
         "provenance bound", "slice_verdict", "g4", "coefficient", "exponent", "min_exponent",
         "json-indent nines", "samples nines", "band-cert nines", "unused generators nines",
         "strands nines", "letter nines", "seifert components nines", "report components nines",
         "lower nines", "double_points nines", "unknown option", "extra word", "missing path",
         "truncated file, long path", "non-UTF-8 file, long path"])
def test_oversized_value_gives_a_short_error_line(capsys, tmp_path, args, code):
    """A refusal that echoes a 100 000-character value, a g4 of 50 000
    entries, a 4000-digit integer or a path of 2900 to 4000 characters
    shows it shortened: one line of under 300 bytes with the prefix of its
    exit code, where the whole value made lines of 2 900 to 200 000 bytes.
    Each JSON object of `args` is passed as a file, and each bytes value
    as the content of a file under the directories DEEP."""
    argv = []
    for i, arg in enumerate(args):
        if isinstance(arg, bytes):
            path = tmp_path.joinpath(*DEEP, f"{i}.json")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(arg)
            arg = str(path)
        elif not isinstance(arg, str):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        argv.append(arg)
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith(PREFIXES[code]) and err.count("\n") == 1
    assert len(err.encode()) < 300


def test_catalog_exponent_key_that_int_cannot_read(capsys, tmp_path):
    """An expected Alexander key that int() cannot read is a bad exponent
    key, shortened by reprlib, where int()'s own message came through with
    200 characters of the key."""
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([dict(TREFOIL_ENTRY, expected={"alexander": {"x" * 100000: 1}})]))
    code, out, err = run(capsys, "verify", "--catalog", str(path))
    assert (code, out) == (2, "")
    assert err == f"parse error: bad expected alexander: bad exponent key {reprlib.repr('x' * 100000)}\n"


def test_verify_catalog_with_null_bounds(capsys, tmp_path):
    """A g4 bound may be null, and expected may be absent or null."""
    hopf = {"name": "hopf", "input": {"braid": {"strands": 2, "word": [1, 1]}},
            "expected": {"g4": [1, None], "max_abs_sigma": 1}}
    catalog = [hopf, TREFOIL_ENTRY, dict(TREFOIL_ENTRY, name="unchecked", expected=None)]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    code, out, _ = run(capsys, "verify", "--catalog", str(path))
    assert code == 0
    assert out.split() == ["PASS", "hopf", "PASS", "trefoil", "PASS", "unchecked",
                           "3/3", "catalog", "entries", "passed"]


def test_verify_env_var(capsys, tmp_path, monkeypatch):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{
        "name": "unknot",
        "input": {"braid": {"strands": 1, "word": []}},
        "expected": {"max_abs_sigma": 0},
    }]))
    monkeypatch.setenv("LINKBOUND_CATALOG", str(path))
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "PASS unknot" in out


def test_missing_input(capsys):
    code, _, err = run(capsys, "invariants")
    assert code == 2


def test_input_flag_alias(capsys, trefoil_file):
    code, out, _ = run(capsys, "invariants", "--input", trefoil_file)
    assert code == 0
    assert json.loads(out)["alexander_str"] == "t^2-t+1"
