"""Every public call ends in an answer or a :class:`DynkinError`, in bounded work.

Three sweeps, all in process:

* Integer arguments.  Every rank, vertex, height and budget argument gets
  values that are not integers in its range: floats, a ``bool``, a string,
  ``None``, a list, ``0``, ``-1`` and integers past the interpreter's digit
  limit.  Each must raise the argument's documented :class:`DynkinError`
  subclass with a message under 200 characters, also right after a valid
  call, so that no memo can answer before the check.  A height of ``0`` or
  ``-1`` is an empty window, not an error.
* Matrix arguments.  Every matrix-taking callable of the ``dynkin``
  namespace gets paths, cycles, complete graphs with entries ``-1`` and
  ``-10**30``, disjoint unions of 5-cycles and a matrix with one 5,000-digit
  entry.  Each call must return or raise a :class:`DynkinError` within
  ``CALL_BOUND_S`` of CPU time, or the larger bound ``DOCUMENTED_BOUND_S``
  gives where a docstring states the cost.  The ranks run from 1 to 30: all
  of 1..13, which hold the rank caps of :func:`principal_minors` (12) and the
  cycle oracle (8), then 20 and 30.
* Orbit blocks.  ``OrbitPartition`` gets blocks that are not non-empty sets
  of plain integers, blocks that share an integer, and blocks that are not
  iterable; each must raise :class:`DynkinError` naming the block.  And
  :func:`orbit_partition` reads an edgeless matrix, a path and a matrix with
  ``-1`` above the diagonal and ``-2`` below it at rank 2,000 within
  ``CALL_BOUND_S`` each.
"""

from __future__ import annotations

import time
import types

import pytest

import dynkin
from dynkin import (
    DynkinError,
    GeneralizedCartanMatrix,
    OrbitPartition,
    RankBoundError,
    RootVector,
    bilinear_form,
    canonical_form,
    classify,
    classify_indecomposable,
    enumerate_hyperbolic,
    extend_finite_to_affine,
    highest_root,
    is_symmetrizable,
    matrix_to_diagram,
    orbit_partition,
    overextend_affine,
    principal_minors,
    real_roots_up_to_height,
    search_rank,
    symmetrizer,
    validate_gcm,
)
from dynkin.enumeration import finite_affine_classes
from dynkin.oracles import (
    finite_affine_oracle,
    reflect,
    search_rank_bruteforce,
    search_rank_oracle,
    search_ranks_oracle,
)
from dynkin.weyl import orbit_partition_bruteforce

# == integer arguments ==

HUGE = 10**5000

HOSTILE_INTEGERS = [2.0, 2.5, True, "3", None, [3], 0, -1, HUGE, -HUGE]

G2 = validate_gcm([[2, -1], [-3, 2]])
AFFINE_A1 = validate_gcm([[2, -2], [-2, 2]])

#: name -> (call of one integer argument, a valid value, the error for a bad
#: one, the values of ``HOSTILE_INTEGERS`` that are in range and answer).
INTEGER_ARGUMENTS = {
    "search_rank": (search_rank, 3, RankBoundError, ()),
    "finite_affine_classes": (finite_affine_classes, 2, RankBoundError, ()),
    "enumerate_hyperbolic min": (lambda v: enumerate_hyperbolic(v, 3), 3, RankBoundError, ()),
    "enumerate_hyperbolic max": (lambda v: enumerate_hyperbolic(3, v), 3, RankBoundError, ()),
    "finite_affine_oracle": (finite_affine_oracle, 2, RankBoundError, ()),
    "search_rank_oracle": (search_rank_oracle, 3, RankBoundError, ()),
    "search_ranks_oracle lo": (lambda v: next(search_ranks_oracle(v, 3)), 3, RankBoundError, ()),
    "search_ranks_oracle hi": (lambda v: next(search_ranks_oracle(3, v)), 3, RankBoundError, ()),
    "search_rank_bruteforce": (search_rank_bruteforce, 3, RankBoundError, ()),
    "GeneralizedCartanMatrix.a i": (lambda v: G2.a(v, 1), 1, DynkinError, ()),
    "GeneralizedCartanMatrix.a j": (lambda v: G2.a(1, v), 2, DynkinError, ()),
    "overextend_affine": (lambda v: overextend_affine(AFFINE_A1, v), 2, DynkinError, ()),
    "reflect": (lambda v: reflect(G2, v, RootVector((1, 0))), 2, DynkinError, ()),
    "real_roots_up_to_height height": (
        lambda v: real_roots_up_to_height(G2, v),
        5,
        DynkinError,
        (0, -1),
    ),
    # a budget of 0 or -1 is an integer the closure outgrows: BudgetExceededError
    "real_roots_up_to_height budget": (
        lambda v: real_roots_up_to_height(G2, 5, v),
        6,
        DynkinError,
        (),
    ),
    "orbit_partition_bruteforce": (
        lambda v: orbit_partition_bruteforce(G2, v),
        4,
        DynkinError,
        (0, -1),
    ),
    "OrbitPartition.block_of": (
        lambda v: orbit_partition(G2).block_of(v),
        2,
        DynkinError,
        (),
    ),
}


def _in_range(v: object, values: tuple[int, ...]) -> bool:
    return type(v) is int and v in values


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_integer_argument(name):
    call, valid, error, answers = INTEGER_ARGUMENTS[name]
    call(valid)  # first a valid call, so that a memo cannot answer for what follows
    for v in HOSTILE_INTEGERS:
        if _in_range(v, answers):
            call(v)
            continue
        with pytest.raises(error) as info:
            call(v)
        assert len(str(info.value)) < 200, (name, type(v))


# == matrix arguments ==

#: CPU seconds each matrix call may take.
CALL_BOUND_S = 1.0

#: (callable, family) -> its own bound, for costs that docstrings state.
#: ``canonical_form`` on disjoint 5-cycles runs into its state cap (about
#: 1 s at six cycles); ``principal_minors`` multiplies long entries at every
#: step (about 2 s at rank 12 with one 5,000-digit entry).
DOCUMENTED_BOUND_S = {
    ("canonical_form", "5-cycles"): 3.0,
    ("principal_minors", "5,000-digit entry"): 5.0,
}

SWEEP_RANKS = (*range(1, 14), 20, 30)

#: Ranks of the path with one 5,000-digit entry: the smallest with an edge,
#: the largest that ``principal_minors`` takes, and the largest swept.
HUGE_ENTRY_RANKS = (2, 12, 30)


def _path(n: int) -> list[list[int]]:
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def _cycle(n: int) -> list[list[int]]:
    rows = _path(n)
    rows[0][n - 1] = rows[n - 1][0] = -1
    return rows


def _complete(n: int, entry: int) -> list[list[int]]:
    return [[2 if i == j else entry for j in range(n)] for i in range(n)]


def _five_cycles(k: int) -> list[list[int]]:
    n = 5 * k
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        j = i - i % 5 + (i + 1) % 5
        rows[i][j] = rows[j][i] = -1
    return rows


def _matrices():
    """``(family, rank, rows)`` of every matrix in the sweep."""
    for n in SWEEP_RANKS:
        yield "path", n, _path(n)
        if n >= 3:
            yield "cycle", n, _cycle(n)
        yield "K_n", n, _complete(n, -1)
        yield "K_n(-10**30)", n, _complete(n, -(10**30))
        if n % 5 == 0:
            yield "5-cycles", n, _five_cycles(n // 5)
    for n in HUGE_ENTRY_RANKS:
        rows = _path(n)
        rows[0][1] = -(10**4999)
        yield "5,000-digit entry", n, rows


#: Each matrix-taking callable of the ``dynkin`` namespace, applied to
#: ``(rows, A)`` with ``A = validate_gcm(rows)``.
MATRIX_CALLS = {
    "GeneralizedCartanMatrix": lambda rows, A: GeneralizedCartanMatrix(rows),
    "validate_gcm": lambda rows, A: validate_gcm(rows),
    "bilinear_form": lambda rows, A: bilinear_form(A),
    "canonical_form": lambda rows, A: canonical_form(A),
    "classify": lambda rows, A: classify(A),
    "classify_indecomposable": lambda rows, A: classify_indecomposable(A),
    "extend_finite_to_affine": lambda rows, A: extend_finite_to_affine(A),
    "highest_root": lambda rows, A: highest_root(A),
    "is_symmetrizable": lambda rows, A: is_symmetrizable(A),
    "matrix_to_diagram": lambda rows, A: matrix_to_diagram(A),
    "orbit_partition": lambda rows, A: orbit_partition(A),
    "overextend_affine": lambda rows, A: overextend_affine(A),
    "principal_minors": lambda rows, A: principal_minors(A),
    "real_roots_up_to_height": lambda rows, A: real_roots_up_to_height(A, 6),
    "symmetrizer": lambda rows, A: symmetrizer(A),
}

#: The other public callables: records, the search (swept above by its
#: integer arguments) and the file and text readers (swept by
#: ``tests/test_fuzz.py`` through the command line).
OTHER_CALLABLES = {
    "CartanType",
    "CatalogEntry",
    "RootVector",
    "Symmetrization",
    "enumerate_hyperbolic",
    "search_rank",
    "parse_matrix_input",
    "read_catalog",
    "write_catalog",
}


def test_every_public_callable_is_swept():
    public = {
        name
        for name in dir(dynkin)
        if not name.startswith("_")
        and callable(obj := getattr(dynkin, name))
        and not isinstance(obj, types.ModuleType)
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    assert public == set(MATRIX_CALLS) | {"OrbitPartition"} | OTHER_CALLABLES


@pytest.mark.parametrize("name", sorted(MATRIX_CALLS))
def test_matrix_argument(name):
    call = MATRIX_CALLS[name]
    slow = []
    for family, n, rows in _matrices():
        A = validate_gcm(rows)
        t0 = time.process_time()
        try:
            call(rows, A)
        except DynkinError as exc:
            assert len(str(exc)) < 200, (family, n)
        elapsed = time.process_time() - t0
        if elapsed > DOCUMENTED_BOUND_S.get((name, family), CALL_BOUND_S):
            slow.append((family, n, round(elapsed, 2)))
    assert slow == []


# == orbit blocks ==

#: name -> (blocks that are not each a non-empty set of plain integers, that
#: share an integer, or are not iterable at all; what the error quotes).
HOSTILE_BLOCKS = {
    "empty block": ((frozenset(),), "block frozenset() "),
    "string vertex": ((frozenset({1}), frozenset({"x"})), "block frozenset({'x'}) "),
    "string block": (("ab",), "block 'ab' "),
    "list block": ((frozenset({1}), [2]), "block [2] "),
    "bool vertex": ((frozenset({True}),), "block frozenset({True}) "),
    "float vertex": ((frozenset({2.0}),), "block frozenset({2.0}) "),
    "None block": ((None,), "block None "),
    "long block": ((frozenset({"x" * 1000}),), "... (1015 characters) "),
    "overlapping blocks": ((frozenset({1, 2}), frozenset({2, 3})), "block frozenset({2, 3}) "),
    "repeated block": ((frozenset({1}), frozenset({1})), "block frozenset({1}) meets"),
    "int blocks": (5, "'int' object is not iterable"),
    "None blocks": (None, "'NoneType' object is not iterable"),
}


@pytest.mark.parametrize("name", HOSTILE_BLOCKS)
def test_orbit_partition_blocks(name):
    blocks, quoted = HOSTILE_BLOCKS[name]
    assert OrbitPartition((frozenset({3}), {1, 2})).blocks == (frozenset({1, 2}), frozenset({3}))
    assert OrbitPartition(()).blocks == ()
    with pytest.raises(DynkinError) as info:
        OrbitPartition(blocks)
    assert len(str(info.value)) < 200
    assert quoted in str(info.value)


# == large rank ==

#: Rank of the matrices :func:`orbit_partition` reads within ``CALL_BOUND_S``.
LARGE_RANK = 2000


#: family -> entry ``(i, j)`` off the diagonal.  ``one-sided`` puts ``-1``
#: at every entry above the diagonal and ``-2`` below it: the scan meets
#: n(n-1)/2 entries ``-1``, and none of them is a single edge.
LARGE_FAMILIES = {
    "edgeless": lambda i, j: 0,
    "path": lambda i, j: -1 if abs(i - j) == 1 else 0,
    "one-sided": lambda i, j: -1 if i < j else -2,
}


@pytest.mark.parametrize("family", LARGE_FAMILIES)
def test_orbit_partition_at_large_rank(family):
    n, entry = LARGE_RANK, LARGE_FAMILIES[family]
    A = validate_gcm([[2 if i == j else entry(i, j) for j in range(n)] for i in range(n)])
    t0 = time.process_time()
    blocks = orbit_partition(A).blocks
    elapsed = time.process_time() - t0
    if family == "path":
        assert blocks == (frozenset(range(1, n + 1)),)
    else:
        assert blocks == tuple(frozenset((v,)) for v in range(1, n + 1))
    assert elapsed <= CALL_BOUND_S
