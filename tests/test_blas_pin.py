"""The CLI keeps numpy's OpenBLAS to one thread; the library does not.

colorlex makes no BLAS call, so the worker pool that OpenBLAS starts
when numpy is imported only burns CPU in every stage process.
`colorlex/cli.py` therefore sets OPENBLAS_NUM_THREADS=1 before numpy
is imported, unless the caller set it to a value that is not empty.
Each check runs in a fresh interpreter, because this one imported
colorlex.cli long ago.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Names whose call or import would put BLAS work in the package.
BLAS_NAMES = {"dot", "vdot", "matmul", "einsum", "inner", "tensordot",
              "linalg"}


def fresh(code: str, **env: str) -> dict:
    """Run code in a new interpreter whose environment has no
    OPENBLAS_NUM_THREADS but the given one; return the JSON it prints."""
    environ = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
    environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    environ.update(env)
    done = subprocess.run([sys.executable, "-c", code], env=environ,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


REPORT = """
import json, os, sys
import {module}
task = "/proc/self/task"
print(json.dumps({{
    "numpy": "numpy" in sys.modules,
    "value": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
}}))
"""


def test_cli_import_pins_one_thread():
    seen = fresh(REPORT.format(module="colorlex.cli"))
    assert seen["numpy"]
    assert seen["value"] == "1"
    if seen["threads"] is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert seen["threads"] == 1


def test_empty_setting_counts_as_unset():
    seen = fresh(REPORT.format(module="colorlex.cli"),
                 OPENBLAS_NUM_THREADS="")
    assert seen["value"] == "1"
    if seen["threads"] is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert seen["threads"] == 1


def test_caller_setting_wins():
    seen = fresh(REPORT.format(module="colorlex.cli"),
                 OPENBLAS_NUM_THREADS="2")
    assert seen["value"] == "2"


def test_library_import_leaves_blas_alone():
    seen = fresh(REPORT.format(module="colorlex.corpus"))
    assert seen["numpy"]
    assert seen["value"] is None


def _blas_uses(tree: ast.AST):
    """(line, what) for each use of BLAS-backed numpy in a module."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            yield node.lineno, "the @ operator"
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name in BLAS_NAMES:
                yield node.lineno, f"a call of {name}"
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            yield node.lineno, "linalg"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            names += [alias.name for alias in node.names]
            if BLAS_NAMES & {part for n in names for part in n.split(".")}:
                yield node.lineno, "an import of a BLAS routine"


def test_package_makes_no_blas_call():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted((SRC / "colorlex").glob("*.py"))
        for line, what in _blas_uses(ast.parse(path.read_text("utf-8")))
    ]
    assert not found, (
        "cli.py pins OpenBLAS to one thread on the premise that colorlex "
        "makes no BLAS call; revisit that pin together with this change: "
        + "; ".join(found))
