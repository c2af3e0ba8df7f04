"""End-to-end checks of the benchmark itself.

    python3 -m pytest -q perfbench/tests

Each workload runs once at seed 0 with the shortest run (one pass; two,
one of them traced, with --trace 1), from the root of the checkout.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

from spans import LAYERS  # noqa: E402


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smallest_run_is_correct(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_reports_every_layer():
    proc = run_bench("signature_queries", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    assert metrics["signature.json_drift"]["value"] > 0
    assert metrics["signature.signature_nullity_at.s"]["value"] > 0
    assert metrics["signature.link_nullity.calls"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("knot_reports", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_imports_no_private_linkbound_name():
    for name in sorted(os.listdir(BENCH)):
        if not name.endswith(".py"):
            continue
        tree = ast.parse(open(os.path.join(BENCH, name)).read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("linkbound"):
                assert not any(_private(a.name) for a in node.names), name
                assert not any(_private(part) for part in node.module.split(".")), name
            if isinstance(node, ast.Attribute) and _dotted(node).startswith("linkbound."):
                assert not _private(node.attr), f"{name}: {_dotted(node)}"
    for _, module, attr in LAYERS:
        assert not any(part.startswith("_") for part in (module + "." + attr).split("."))
