"""The package surface other code relies on.

* The benchmark harness under ``perfbench/`` calls ``dynkin`` names and
  patches functions by module; those files are read here with ``ast``,
  neither imported nor changed, and every name they use must exist, also
  those read by their string name through ``getattr``.
* ``dynkin`` exports exactly the names pinned in ``PUBLIC_NAMES``, so a new
  export or a removal is a deliberate diff here, and every module's
  ``__all__`` names only what the module defines or imports.
* ``import dynkin.cli`` stays integer-only: it loads neither ``fractions``
  nor ``decimal``.  It also stays cheap to start: the records are named
  tuples and slot classes, so neither ``dataclasses`` nor ``inspect`` loads.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import dynkin

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC_NAMES = (
    "AFFINE", "BudgetExceededError", "CanonicalForm", "CartanType", "CatalogEntry",
    "CatalogFormatError", "CatalogReport", "ComponentType", "DecomposableError",
    "DynkinDiagram", "DynkinError", "EdgeLabel", "FINITE", "GeneralizedCartanMatrix",
    "INDEFINITE", "MatrixParseError", "MatrixValidationError", "NotSymmetrizableError",
    "OrbitPartition", "PropertyCheck", "RankBoundError", "RootVector", "Symmetrization",
    "UnbalancedCycleWitness", "WrongTypeError", "bilinear_form", "canonical_form",
    "catalog_from_lines", "catalog_to_latex", "catalog_to_lines", "catalog_to_tsv",
    "classify", "classify_indecomposable", "cycle_criterion_agreement",
    "enumerate_hyperbolic", "extend_finite_to_affine", "finite_affine_classes",
    "format_matrix_text", "highest_root", "is_indecomposable", "is_symmetrizable",
    "kac_cycle_oracle", "matrix_to_diagram", "orbit_partition", "orbit_partition_bruteforce",
    "orbit_partitions_agree", "overextend_affine", "parse_matrix_input", "parse_matrix_json",
    "parse_matrix_text", "principal_minors", "random_gcm", "read_catalog",
    "real_roots_up_to_height", "search_rank", "search_rank_bruteforce", "search_rank_oracle",
    "symmetrizer", "validate_gcm", "verify_catalog", "write_catalog",
)

#: Names kept off the surface: no code calls them.  ``reflect`` stays in
#: ``dynkin.oracles`` as the reference route for the root closure.
REMOVED_NAMES = (
    "HyperbolicityWitness", "components", "dual", "hyperbolicity_witness",
    "induced_subdiagram", "is_compact_hyperbolic", "is_hyperbolic", "is_symmetric",
    "reflect", "root_length_count", "root_norm",
)


def _modules() -> list[types.ModuleType]:
    names = [m.name for m in pkgutil.iter_modules(dynkin.__path__)]
    return [importlib.import_module(f"dynkin.{name}") for name in names]


def test_public_names_are_pinned():
    public = sorted(
        name
        for name in dir(dynkin)
        if not name.startswith("_") and not isinstance(getattr(dynkin, name), types.ModuleType)
    )
    assert tuple(public) == PUBLIC_NAMES


def test_removed_names_stay_removed():
    assert [n for n in REMOVED_NAMES if hasattr(dynkin, n)] == []
    left = [f"{m.__name__}.{n}" for m in _modules() for n in REMOVED_NAMES if hasattr(m, n)]
    assert left == ["dynkin.oracles.reflect"]
    assert "reflect" in dynkin.oracles.__all__


def test_every_all_entry_exists():
    missing = [
        f"{m.__name__}.{n}"
        for m in _modules()
        for n in getattr(m, "__all__", ())
        if not hasattr(m, n)
    ]
    assert missing == []


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
