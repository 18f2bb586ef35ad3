"""The package surface other code relies on.

* The benchmark harness under ``perfbench/`` calls ``dynkin`` names and
  patches functions by module; those files are read here with ``ast``,
  neither imported nor changed, and every name they use must exist, also
  those read by their string name through ``getattr``.
* ``dynkin`` exports exactly the names pinned in ``PUBLIC_NAMES``: the API
  the README documents, the real-root data, every exception class, and the
  names the benchmark calls as ``dynkin.X``.  A new export or a removal is a
  deliberate diff here.  Every other public name has one import path, its
  module, as ``MOVED_NAMES`` pins, and every module's ``__all__`` names only
  what the module defines or imports.
* ``import dynkin`` leaves the oracle routes of ``dynkin.oracles`` unloaded.
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
    "BudgetExceededError", "CartanType", "CatalogEntry", "CatalogFormatError",
    "DecomposableError", "DynkinError", "GeneralizedCartanMatrix",
    "MatrixParseError", "MatrixValidationError", "NotSymmetrizableError", "OrbitPartition",
    "RankBoundError", "RootVector", "Symmetrization", "WrongTypeError", "bilinear_form",
    "canonical_form", "classify", "classify_indecomposable", "enumerate_hyperbolic",
    "extend_finite_to_affine", "highest_root", "is_symmetrizable", "matrix_to_diagram",
    "orbit_partition", "overextend_affine", "parse_matrix_input", "principal_minors",
    "read_catalog", "real_roots_up_to_height", "search_rank", "symmetrizer", "validate_gcm",
    "write_catalog",
)

#: Public names with one import path, the module that defines them; ``dynkin``
#: does not re-export them.
MOVED_NAMES = {
    "CatalogReport": "dynkin.catalog",
    "PropertyCheck": "dynkin.catalog",
    "catalog_from_lines": "dynkin.catalog",
    "catalog_to_latex": "dynkin.catalog",
    "catalog_to_lines": "dynkin.catalog",
    "catalog_to_tsv": "dynkin.catalog",
    "verify_catalog": "dynkin.catalog",
    "AFFINE": "dynkin.classify",
    "FINITE": "dynkin.classify",
    "INDEFINITE": "dynkin.classify",
    "ComponentType": "dynkin.classify",
    "CanonicalForm": "dynkin.canonical",
    "finite_affine_classes": "dynkin.enumeration",
    "is_indecomposable": "dynkin.gcm",
    "format_matrix_text": "dynkin.parsing",
    "parse_matrix_json": "dynkin.parsing",
    "parse_matrix_text": "dynkin.parsing",
    "UnbalancedCycleWitness": "dynkin.symmetrize",
    "cycle_criterion_agreement": "dynkin.symmetrize",
    "kac_cycle_oracle": "dynkin.symmetrize",
    "random_gcm": "dynkin.symmetrize",
    "orbit_partition_bruteforce": "dynkin.weyl",
    "orbit_partitions_agree": "dynkin.weyl",
    "search_rank_bruteforce": "dynkin.oracles",
    "search_rank_oracle": "dynkin.oracles",
}

#: Names kept off the surface: no code calls them.  ``reflect`` stays in
#: ``dynkin.oracles`` as the reference route for the root closure.  A GCM is
#: its diagram, so ``DynkinDiagram`` and ``EdgeLabel`` are gone too.
REMOVED_NAMES = (
    "DynkinDiagram", "EdgeLabel", "HyperbolicityWitness", "components", "dual",
    "hyperbolicity_witness", "induced_subdiagram", "is_compact_hyperbolic", "is_hyperbolic",
    "is_symmetric", "reflect", "root_length_count", "root_norm",
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


def _fresh_modules(statement: str, names: set[str]) -> list[str]:
    """The ``names`` loaded after ``statement`` runs in a fresh interpreter."""
    src = str(Path(dynkin.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = f"import sys; {statement}; print(sorted({names!r} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    return ast.literal_eval(out)


def test_cli_import_loads_no_rational_arithmetic():
    heavy = {"fractions", "decimal", "dataclasses", "inspect"}
    assert _fresh_modules("import dynkin.cli", heavy) == []


def test_package_import_loads_no_oracle_routes():
    assert _fresh_modules("import dynkin", {"dynkin.oracles"}) == []
    assert _fresh_modules("import dynkin.oracles", {"dynkin.oracles"}) == ["dynkin.oracles"]


def test_moved_names_live_in_their_module():
    assert [n for n in MOVED_NAMES if n in dir(dynkin)] == []
    missing = [
        f"{module}.{n}"
        for n, module in MOVED_NAMES.items()
        if not hasattr(importlib.import_module(module), n)
    ]
    assert missing == []
