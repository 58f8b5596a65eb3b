"""The benchmark's trace targets and the demos keep working, and no new
runtime ``assert`` enters the library.

The traced benchmark run patches every ``(module, attribute)`` in
``perfbench/tracing.py``'s TARGETS, so each must still name something in
``composite_dna``; each demo must still run to completion.  ``python -O``
strips assert statements, so no module of the package may hold one.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    targets = load_tracing().TARGETS
    assert targets
    for module_name, attribute, _bucket, _key in targets:
        obj = importlib.import_module(f"composite_dna.{module_name}")
        for part in attribute.split("."):
            assert hasattr(obj, part), f"composite_dna.{module_name}.{attribute}"
            obj = getattr(obj, part)
        assert callable(obj), f"composite_dna.{module_name}.{attribute}"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


# modules still allowed a runtime assert: none, so the test covers every module
ASSERT_ALLOWED: set[str] = set()


def test_no_asserts_outside_the_allow_list():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "composite_dna").glob("*.py"))
        if path.stem not in ASSERT_ALLOWED
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
