"""The package depends on nothing outside the standard library: no command
reaches numpy, no module under src/ imports it outside float_oracle (a
verification oracle that no command calls), and pyproject.toml lists no
runtime dependency.  numpy is a dependency of the tests, through the
`test` extra."""

import ast
import json

import pytest

from helpers import SRC, TESTS, run_python

# Runs every command on each catalog input, in an interpreter where
# `import numpy` raises ImportError, and prints the exit codes as JSON.
WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from linkbound import builtin_catalog
from linkbound.cli import main

def run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in args])
    return code, out.getvalue()

codes = {}
for entry in builtin_catalog():
    data = entry.seifert_data()
    path = f"{sys.argv[1]}/{entry.name}.json"
    with open(path, "w") as fh:
        json.dump({"seifert_matrix": data.matrix, "components": data.components}, fh)
    codes[entry.name, "bound"], report = run("bound", path)
    codes[entry.name, "invariants"] = run("invariants", path)[0]
    codes[entry.name, "signature-csv"] = run("signature-csv", path, "--samples", 3)[0]
    declaration = {"axes": 1, "linking_numbers": [[0] * data.components],
                   "double_points": 0, "milnor_vanishing_length": 0}
    with open(path + ".report", "w") as fh:
        fh.write(report)
    with open(path + ".declaration", "w") as fh:
        json.dump(declaration, fh)
    codes[entry.name, "infect"] = run("infect", path + ".report", path + ".declaration")[0]
codes["catalog", "verify"] = run("verify")[0]
assert "numpy" not in [name.split(".")[0] for name, module in sys.modules.items() if module]
print(json.dumps(sorted([*key, code] for key, code in codes.items())))
"""


def test_every_command_runs_without_numpy(tmp_path):
    """bound, invariants, signature-csv --samples 3 and infect on each
    built-in catalog input, and verify, each exit 0 in a fresh interpreter
    in which numpy cannot be imported."""
    script = tmp_path / "without_numpy.py"
    script.write_text(WITHOUT_NUMPY)
    out, err, code = run_python([str(script), str(tmp_path)], 60)
    assert code == 0, err
    codes = json.loads(out.splitlines()[-1])
    assert len(codes) == 4 * 8 + 1
    assert [c for c in codes if c[-1] != 0] == []


def _numpy_imports(tree: ast.AST, scope: str = ""):
    """(enclosing function, line) of every import of numpy, or string
    "numpy" that importlib or __import__ could read, in the tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _numpy_imports(node, node.name)
            continue
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom)
                 else [node.value] if isinstance(node, ast.Constant)
                 and isinstance(node.value, str) else [])
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            yield scope, node.lineno
        yield from _numpy_imports(node, scope)


def test_src_imports_numpy_only_in_float_oracle():
    """numpy is imported under src/ only inside signature.float_oracle."""
    found = {(path.relative_to(SRC).as_posix(), scope, line)
             for path in sorted(SRC.rglob("*.py"))
             for scope, line in _numpy_imports(ast.parse(path.read_text(), str(path)))}
    assert {(path, scope) for path, scope, _ in found} <= {("linkbound/signature.py",
                                                           "float_oracle")}, found
    assert found


def test_pyproject_lists_no_runtime_dependency():
    """The package installs with no dependency; numpy, which the tests
    and the benchmark's oracle need, is in the `test` extra."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
    assert any(req.startswith("numpy") for req in project["optional-dependencies"]["test"])
