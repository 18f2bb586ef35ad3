"""The package surface other code relies on.

* The benchmark harness under ``perfbench/`` calls ``dynkin`` names and
  patches functions by module; those files are read here with ``ast``,
  neither imported nor changed, and every name they use must exist, also
  those read by their string name through ``getattr``.
* ``import dynkin.cli`` stays integer-only: it loads neither ``fractions``
  nor ``decimal``.  It also stays cheap to start: the records are named
  tuples and slot classes, so neither ``dataclasses`` nor ``inspect`` loads.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import dynkin

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_worker_names_exist():
    tree = _tree("worker.py")
    attrs = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "dynkin"
    }
    assert {"matrix_to_diagram", "orbit_partition", "principal_minors"} <= attrs
    assert [a for a in sorted(attrs) if not hasattr(dynkin, a)] == []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dynkin":
            for alias in node.names:
                importlib.import_module(f"dynkin.{alias.name}")


def test_worker_getattr_targets_exist():
    # ``getattr(sys.modules.get("dynkin.classify"), "_KIND_CACHE", None)``
    # reads a module attribute by its string name; a rename would turn the
    # metric into null instead of failing.
    targets = []
    for node in ast.walk(_tree("worker.py")):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and isinstance(node.args[1], ast.Constant)
        ):
            continue
        modules = [
            sub.value
            for sub in ast.walk(node.args[0])
            if isinstance(sub, ast.Constant) and str(sub.value).startswith("dynkin")
        ]
        assert len(modules) == 1, ast.unparse(node)
        targets.append((modules[0], node.args[1].value))
    assert ("dynkin.classify", "_KIND_CACHE") in targets
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_tracer_targets_exist():
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in _tree("tracer.py").body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANS", "LEAVES")
    }
    assert set(tables) == {"SPANS", "LEAVES"}
    missing = [
        f"{module}.{name}"
        for module, name, *_ in tables["SPANS"] + tables["LEAVES"]
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_cli_import_loads_no_rational_arithmetic():
    src = str(Path(dynkin.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    heavy = {"fractions", "decimal", "dataclasses", "inspect"}
    probe = f"import sys, dynkin.cli; print(sorted({heavy!r} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
