"""Each matrix is checked once, where it enters the package.

* ``_check_axioms`` runs a one-pass check and, only when it finds a fault,
  the ordered passes.  On a seeded corpus of malformed matrices,
  ``validate_gcm`` raises exactly what the ordered passes raise alone: the
  same type, axiom, position and message.
* The matrices the package builds from checked rows are wrapped unchecked.
  Every such construction is run here through the ordered passes, and its
  rows must also be the exact tuples of ``int`` the one-pass check accepts.
* The unchecked constructors are called only from an allow-list of
  functions, each of whose docstrings says why its rows are valid.
* A rank, vertex, height or budget with more digits than the interpreter
  prints still gives the documented :class:`DynkinError` subclass.
* The constructor takes any sequence of rows and stores tuples; anything
  that is not a sequence of rows is a ``shape`` fault.
* One place decides what an integer argument is: no module builds a
  :class:`RankBoundError` itself, only ``gcm._is_int`` asks whether an
  integer is a ``bool``, and no function carries a ``functools`` cache that
  would see an argument before its check.
* One walk per graph question: only ``gcm`` and ``oracles`` call
  ``mask_connected``, only ``gcm.mask_indices`` reads the set bits of a mask
  (no ``mask >> i & 1`` anywhere else), and the forest path of
  :mod:`dynkin.symmetrize` has no second walker.
* One runner builds the verifier's report: :mod:`dynkin.catalog` builds a
  ``PropertyCheck`` in one place, inside ``verify_catalog``, and defines no
  ``add`` or ``check`` helper that would build the checks another way.
* One runner serves the matrix commands: in :mod:`dynkin.cli` only it
  parses matrix input, dumps JSON and guards the digit limit of the output,
  and it prints for all four of them.
"""

from __future__ import annotations

import ast
import json
import random
from pathlib import Path

import pytest

import dynkin
from dynkin import (
    GeneralizedCartanMatrix,
    MatrixParseError,
    MatrixValidationError,
    RootVector,
    classify,
    enumerate_hyperbolic,
    extend_finite_to_affine,
    overextend_affine,
    real_roots_up_to_height,
    validate_gcm,
)
from dynkin.catalog import catalog_from_lines, catalog_to_lines
from dynkin.enumeration import finite_affine_classes, search_rank
from dynkin.errors import CatalogFormatError, DynkinError, RankBoundError
from dynkin.gcm import _axioms_hold, _check_axioms_in_order
from dynkin.oracles import (
    finite_affine_oracle,
    reflect,
    search_rank_bruteforce,
    search_rank_oracle,
)
from dynkin.parsing import parse_matrix_json, parse_matrix_text
from dynkin.symmetrize import random_gcm
from lie_fixtures import cartan_a, cartan_b, cartan_c, cartan_d, cartan_e, cartan_f4, cartan_g2

SEED = 2703


# == the one-pass check changes no error ==


class Small(int):
    """An ``int`` subclass: the ordered passes accept it, as they always have."""


#: Entries that are not plain ``int``: the integrality axiom decides them.
ODD_ENTRIES = [True, False, 2.0, -1.0, 0.0, "2", "-1", None, Small(2), Small(-1), Small(0)]


def _valid(rng: random.Random, n: int) -> list[list[int]]:
    return random_gcm(rng, n, rng.randint(1, 4), rng.choice((0.2, 0.5, 0.9))).to_lists()


def _malformed(rng: random.Random):
    """``(label, rows)``: one defect each, at a seeded position, plus the edge cases."""
    yield "empty", []
    yield "empty row", [[]]
    yield "empty rows", [[], []]
    for _ in range(60):
        n = rng.randint(1, 9)
        rows = _valid(rng, n)
        yield "valid", rows
        i = rng.randrange(n)
        bad = _valid(rng, n)
        bad[i][i] = rng.choice((0, 1, 3, -2, 10**50))
        yield "diagonal", bad
        bad = _valid(rng, n)
        j = rng.randrange(n)
        bad[i][j] = rng.choice(ODD_ENTRIES)
        yield "entry", bad
        bad = _valid(rng, n)
        if rng.random() < 0.5:
            bad[i].append(0)
        else:
            del bad[i][-1]
        yield "ragged", bad
        bad = _valid(rng, n)
        if rng.random() < 0.5:
            bad.append([0] * n)
        else:
            del bad[-1]
        yield "row count", bad
        if n == 1:
            continue
        i, j = rng.sample(range(n), 2)
        bad = _valid(rng, n)
        bad[i][j] = rng.randint(1, 5)
        yield "sign", bad
        bad = _valid(rng, n)
        bad[i][j], bad[j][i] = 0, -rng.randint(1, 4)
        yield "zero-symmetry", bad
        bad = _valid(rng, n)
        bad[i][j] = bad[j][i] = rng.choice((False, 0.0, Small(0)))
        yield "zero pair", bad
        bad = _valid(rng, n)
        bad[i][j], bad[j][i] = rng.choice(((-1.0, -1), (-2, -1.0), (Small(-1), -3)))
        yield "edge pair", bad
        bad = _valid(rng, n)
        bad[i][i] = rng.choice((2.0, Small(2)))
        yield "diagonal type", bad


def _outcome(check, rows):
    try:
        check(rows)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), getattr(exc, "axiom", None), getattr(exc, "position", None), str(exc)
    return None


def test_one_pass_check_raises_what_the_ordered_passes_raise():
    seen = set()
    for label, rows in _malformed(random.Random(SEED)):
        ordered = _outcome(lambda r: _check_axioms_in_order(tuple(map(tuple, r))), rows)
        assert _outcome(validate_gcm, rows) == ordered, (label, rows)
        seen.add((label, ordered[1] if ordered else None))
    axioms = {axiom for _, axiom in seen}
    assert axioms == {None, "shape", "integrality", "diagonal", "sign", "zero-symmetry"}
    # int subclasses pass the integrality axiom, as before; bools and floats do not
    assert ("zero pair", None) in seen and ("zero pair", "integrality") in seen


def test_one_pass_check_accepts_only_plain_tuples_of_ints():
    assert _axioms_hold(((2, -1), (-3, 2)))
    for rows in ([(2, -1), (-3, 2)], ((2, -1), [-3, 2]), ((2, Small(0)), (0, 2))):
        assert not _axioms_hold(rows)
        assert _check_axioms_in_order(rows) is None  # valid all the same
    for rows in (((2, False), (False, 2)), ((2.0,),), ((2, -1.0), (-1, 2))):
        assert not _axioms_hold(rows)
        with pytest.raises(MatrixValidationError, match="is not an integer"):
            _check_axioms_in_order(rows)


@pytest.mark.parametrize(
    "text,message",
    [
        ("[[2, 1.5], [-1, 2]]", "entry 1.5 at (1, 2) is not an integer"),
        ("[[2, 0], [false, 2]]", "entry False at (2, 1) is not an integer"),
        ('{"matrix": [[2, -1], [-1, "2"]]}', "entry '2' at (2, 2) is not an integer"),
        ("[[2, null], [-1]]", "entry None at (1, 2) is not an integer"),
        ("[[2.0]]", "entry 2.0 at (1, 1) is not an integer"),
    ],
)
def test_json_non_integer_message(text, message):
    with pytest.raises(MatrixParseError) as info:
        parse_matrix_json(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build",
    [
        validate_gcm,
        lambda rows: GeneralizedCartanMatrix(tuple(map(tuple, rows))),
        lambda rows: parse_matrix_text("\n".join(" ".join(map(str, r)) for r in rows)),
        lambda rows: parse_matrix_json(json.dumps(rows)),
        lambda rows: parse_matrix_json(json.dumps({"matrix": rows})),
    ],
    ids=["validate_gcm", "constructor", "text", "json", "json-object"],
)
def test_every_boundary_checks(build):
    assert build([[2, -1], [-3, 2]]).rows == ((2, -1), (-3, 2))
    for rows, axiom in (([[2, -1], [0, 2]], "zero-symmetry"), ([[2, 1], [-1, 2]], "sign")):
        with pytest.raises(MatrixValidationError) as info:
            build(rows)
        assert info.value.axiom == axiom


def test_constructor_stores_tuples():
    A = GeneralizedCartanMatrix([[2, -1], [-1, 2]])
    assert A.rows == ((2, -1), (-1, 2))
    assert A == validate_gcm(((2, -1), (-1, 2))) and hash(A) == hash(validate_gcm(A.rows))
    assert classify(A)[0].type.kind == "finite"


@pytest.mark.parametrize("entries", [None, [1], 3, [[2], 5]], ids=repr)
def test_non_sequence_is_a_shape_fault(entries):
    for build in (validate_gcm, GeneralizedCartanMatrix):
        with pytest.raises(MatrixValidationError, match="object is not iterable") as info:
            build(entries)
        assert (info.value.axiom, info.value.position) == ("shape", None)


def test_catalog_matrix_that_is_not_rows():
    header, line = catalog_to_lines(enumerate_hyperbolic(3, 3)[:1]).splitlines()
    obj = json.loads(line)
    obj["matrix"] = None
    with pytest.raises(CatalogFormatError, match="line 2: bad matrix: 'NoneType' object is not"):
        catalog_from_lines(f"{header}\n{json.dumps(obj)}\n")


# == what is wrapped unchecked holds the axioms ==


def _finite_classical():
    for first, family in ((1, cartan_a), (2, cartan_b), (2, cartan_c), (4, cartan_d)):
        for n in range(first, 25):
            yield family(n)
    for rows in (cartan_e(6), cartan_e(7), cartan_e(8), cartan_f4(), cartan_g2()):
        yield rows
        yield [list(c) for c in zip(*rows)]


def _assert_valid(rows):
    assert _check_axioms_in_order(rows) is None
    assert _axioms_hold(rows), "unchecked rows must be tuples of plain ints"


def test_extensions_are_valid():
    for rows in _finite_classical():
        affine = extend_finite_to_affine(validate_gcm(rows))
        _assert_valid(affine.rows)
        for vertex in {1, affine.rank}:
            _assert_valid(overextend_affine(affine, vertex).rows)


def test_random_samples_are_valid():
    for seed in (0, 1, 2, SEED):
        rng = random.Random(seed)
        for rank in range(1, 13):
            for max_label in range(1, 5):
                _assert_valid(random_gcm(rng, rank, max_label, rng.random()).rows)


@pytest.mark.parametrize(
    "rank,max_label,error,match",
    [
        (0, 4, MatrixValidationError, "at least one row"),
        (-2, 4, MatrixValidationError, "at least one row"),
        (3, 0, ValueError, "empty range"),
        (3, -1, ValueError, "empty range"),
    ],
)
def test_random_sampler_rejects_what_it_always_rejected(rank, max_label, error, match):
    with pytest.raises(error, match=match):
        random_gcm(random.Random(SEED), rank, max_label, 1.0)


def test_catalog_entries_are_valid(catalog):
    assert len(catalog) == 238
    for e in catalog:
        _assert_valid(e.matrix.rows)


# == the unchecked constructors are called only where the reason is written down ==

#: (module, function) allowed to wrap rows unchecked, and the reason its docstring gives.
UNCHECKED_CALLERS = {
    ("catalog", "extend_finite_to_affine"): "``theta`` is dominant",
    ("catalog", "overextend_affine"): "one ``(-1, -1)`` pair",
    ("catalog", "_rank_entries"): "builds each one as a valid GCM",
    ("symmetrize", "random_gcm"): "is valid by construction",
}


def _unchecked_uses(module: str, node: ast.AST, func: ast.FunctionDef | None):
    """``(module, innermost enclosing function, line)`` of each ``._trusted`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _unchecked_uses(module, child, child)
            continue
        if isinstance(child, ast.Attribute) and child.attr == "_trusted":
            yield module, func, child.lineno
        yield from _unchecked_uses(module, child, func)


def _unchecked_calls():
    for path in sorted(Path(dynkin.__file__).parent.glob("*.py")):
        yield from _unchecked_uses(path.stem, ast.parse(path.read_text(encoding="utf-8")), None)


def test_unchecked_constructors_have_a_written_reason():
    callers = set()
    for module, func, line in _unchecked_calls():
        name = func.name if func is not None else "<module>"
        assert (module, name) in UNCHECKED_CALLERS, f"{module}.py:{line}: {name} wraps unchecked"
        doc = " ".join((ast.get_docstring(func) or "").split())
        assert UNCHECKED_CALLERS[module, name] in doc, f"{module}.{name}: no reason given"
        callers.add((module, name))
    assert callers == set(UNCHECKED_CALLERS)


# == huge integers in messages ==

HUGE = 10**5000

HUGE_CALLS = {
    "search_rank": (search_rank, RankBoundError),
    "finite_affine_classes": (finite_affine_classes, RankBoundError),
    "enumerate_hyperbolic": (lambda v: enumerate_hyperbolic(v, v), RankBoundError),
    "a": (lambda v: validate_gcm([[2]]).a(v, 1), DynkinError),
    "overextend_affine": (
        lambda v: overextend_affine(validate_gcm([[2, -2], [-2, 2]]), v),
        DynkinError,
    ),
    "finite_affine_oracle": (finite_affine_oracle, RankBoundError),
    "search_rank_oracle": (search_rank_oracle, RankBoundError),
    "search_rank_bruteforce": (search_rank_bruteforce, RankBoundError),
    "reflect": (lambda v: reflect(validate_gcm([[2]]), v, RootVector((1,))), DynkinError),
    "height": (lambda v: real_roots_up_to_height(validate_gcm([[2]]), v), DynkinError),
    "budget": (lambda v: real_roots_up_to_height(validate_gcm([[2]]), 1, v), DynkinError),
}


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("name", sorted(HUGE_CALLS))
def test_huge_integer_is_described(name, sign):
    call, error = HUGE_CALLS[name]
    with pytest.raises(error, match=f"<integer of {HUGE.bit_length()} bits>") as info:
        call(sign * HUGE)
    assert len(str(info.value)) < 200


# == one place decides what an integer argument is ==

#: (module, function) that may ask ``isinstance(x, bool)``, and why.
BOOL_CHECKS = {
    ("gcm", "_is_int"): "the integer rule itself",
    ("catalog", "_entry_from_obj"): "the catalog flags must be booleans",
    ("catalog", "_tsv_cell"): "booleans print as true and false",
}

CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def _functions():
    """``(module, innermost function or None, node)`` for every node of ``src/dynkin``."""

    def walk(module, node, func):
        for child in ast.iter_child_nodes(node):
            inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            yield module, inner, child
            yield from walk(module, child, inner)

    for path in sorted(Path(dynkin.__file__).parent.glob("*.py")):
        yield from walk(path.stem, ast.parse(path.read_text(encoding="utf-8")), None)


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_rank_bound_errors_come_from_the_range_check():
    built = [
        (module, child.lineno)
        for module, _, child in _functions()
        if isinstance(child, ast.Call) and _name(child) == "RankBoundError"
    ]
    assert built == []


def test_only_the_integer_rule_asks_for_bool():
    askers = set()
    for module, func, child in _functions():
        if (
            isinstance(child, ast.Call)
            and _name(child) == "isinstance"
            and len(child.args) == 2
            and _name(child.args[1]) in ("bool", "int")
        ):
            where = (module, func.name if func is not None else "<module>")
            if _name(child.args[1]) == "int":
                assert where == ("gcm", "_is_int"), f"{module}.py:{child.lineno}"
            askers.add(where)
    assert askers == set(BOOL_CHECKS)


def test_no_function_is_cached():
    cached = [
        f"{module}.{child.name}"
        for module, _, child in _functions()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_name(d) in CACHE_DECORATORS for d in child.decorator_list)
    ]
    assert cached == []


# == one walk per graph question ==

#: Modules that may call ``mask_connected``: the helpers themselves, and the
#: oracle routes, which share nothing structural with the pruned search.
CONNECTIVITY_CALLERS = {"gcm", "oracles"}


def _is_bit_test(node: ast.AST) -> bool:
    """Whether ``node`` is ``x >> i & 1`` or ``1 & x >> i``."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
        return False
    for shifted, other in ((node.left, node.right), (node.right, node.left)):
        if (
            isinstance(shifted, ast.BinOp)
            and isinstance(shifted.op, ast.RShift)
            and isinstance(other, ast.Constant)
            and other.value == 1
        ):
            return True
    return False


def test_connectivity_is_asked_in_one_place():
    callers = [
        f"{module}.py:{child.lineno}"
        for module, _, child in _functions()
        if isinstance(child, ast.Call)
        and _name(child) == "mask_connected"
        and module not in CONNECTIVITY_CALLERS
    ]
    assert callers == []


def test_set_bits_are_read_in_one_place():
    scans = [
        f"{module}.py:{child.lineno}"
        for module, func, child in _functions()
        if _is_bit_test(child) and (module, getattr(func, "name", None)) != ("gcm", "mask_indices")
    ]
    assert scans == []


def test_forest_paths_have_one_walker():
    defined = {
        f"{module}.{child.name}"
        for module, _, child in _functions()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert "symmetrize._fundamental_cycle" in defined
    assert "symmetrize._tree_path_to_root" not in defined


# == one runner builds the verifier's report ==


def test_the_verifier_builds_every_check_in_one_place():
    built = [
        (func.name if func is not None else "<module>", child.lineno)
        for module, func, child in _functions()
        if module == "catalog" and isinstance(child, ast.Call) and _name(child) == "PropertyCheck"
    ]
    helpers = [
        f"catalog.{child.name}"
        for module, _, child in _functions()
        if module == "catalog"
        and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        and child.name in ("add", "check")
    ]
    assert [where for where, _ in built] == ["verify_catalog"], built
    assert helpers == []


# == one runner reads, renders and prints every matrix command ==

#: The :mod:`dynkin.cli` functions that may call ``print``: the matrix-command
#: runner, the two commands that take no matrix, and ``main``'s error line.
CLI_PRINTERS = {"_run_matrix_command", "_cmd_enumerate", "_cmd_verify_catalog", "main"}


def test_matrix_commands_have_one_runner():
    callers: dict[str | None, set[str]] = {}
    for module, func, child in _functions():
        if module == "cli" and isinstance(child, (ast.Call, ast.Constant)):
            key = _name(child) if isinstance(child, ast.Call) else child.value
            callers.setdefault(key, set()).add(func.name if func is not None else "<module>")
    assert callers["parse_matrix_input"] == {"_run_matrix_command"}
    assert callers["dumps"] == {"_run_matrix_command"}
    assert callers["an output integer has too many digits to print"] == {"_run_matrix_command"}
    assert callers["print"] == CLI_PRINTERS


# == a GCM is its diagram ==


def test_no_module_builds_a_diagram():
    # ``matrix_to_diagram`` returns its argument and stays only for the
    # benchmark harness; the package reads every diagram question off the rows
    calls = [
        f"{module}.py:{child.lineno}"
        for module, _, child in _functions()
        if isinstance(child, ast.Call) and _name(child) == "matrix_to_diagram"
    ]
    assert calls == []
