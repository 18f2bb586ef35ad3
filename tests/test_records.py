"""Record types: immutable, compared and hashed by value, shown as ``Name(field=value)``.

Nine plain records are named tuples.  ``GeneralizedCartanMatrix`` and
``OrbitPartition`` check and normalise their input, so they are slot classes
that compare equal only to their own type.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from dynkin import (
    CartanType,
    CatalogEntry,
    GeneralizedCartanMatrix,
    MatrixValidationError,
    OrbitPartition,
    RootVector,
    Symmetrization,
)
from dynkin.canonical import CanonicalForm
from dynkin.catalog import CatalogReport, PropertyCheck, verify_catalog
from dynkin.classify import ComponentType
from dynkin.symmetrize import UnbalancedCycleWitness

A2 = GeneralizedCartanMatrix(((2, -1), (-1, 2)))
FINITE_TYPE = CartanType("finite", False, False)
CHECK = PropertyCheck("rank-bound", True, "all ranks within 3..10")
BLOCKS = OrbitPartition((frozenset({1, 2}),))

NAMED_TUPLES = [
    RootVector((1, 0, 1)),
    FINITE_TYPE,
    ComponentType(frozenset({1, 2}), FINITE_TYPE),
    Symmetrization((1, 2)),
    UnbalancedCycleWitness((1, 2, 3, 1), -4, -2),
    CanonicalForm(A2.rows, (0, 1)),
    CatalogEntry("2-001", 2, A2, False, True, (1, 1), 1, BLOCKS, "verified", "2-001"),
    CHECK,
    CatalogReport((CHECK,)),
]
SLOT_RECORDS = [A2, BLOCKS]
RECORDS = NAMED_TUPLES + SLOT_RECORDS


def field_names(r) -> tuple[str, ...]:
    return getattr(r, "_fields", None) or type(r).__slots__


def rebuilt(r):
    return type(r)(*(getattr(r, f) for f in field_names(r)))


@pytest.mark.parametrize("r", RECORDS, ids=lambda r: type(r).__name__)
class TestEveryRecord:
    def test_assignment_raises(self, r):
        for name in field_names(r):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
        with pytest.raises(AttributeError):
            r.extra = 1

    def test_equal_values_give_equal_objects_and_hashes(self, r):
        twin = rebuilt(r)
        assert twin is not r
        assert twin == r and not twin != r
        assert hash(twin) == hash(r)

    def test_repr_lists_fields_by_name(self, r):
        shown = ", ".join(f"{f}={getattr(r, f)!r}" for f in field_names(r))
        assert repr(r) == f"{type(r).__name__}({shown})"

    def test_copy_and_pickle_round_trip(self, r):
        assert copy.copy(r) == r
        assert pickle.loads(pickle.dumps(r)) == r


def test_repr_pinned():
    assert repr(A2) == "GeneralizedCartanMatrix(rows=((2, -1), (-1, 2)))"
    assert repr(BLOCKS) == "OrbitPartition(blocks=(frozenset({1, 2}),))"
    assert repr(CHECK) == (
        "PropertyCheck(name='rank-bound', passed=True, detail='all ranks within 3..10')"
    )


def test_roots_order_field_by_field():
    roots = [RootVector((1, 1)), RootVector((0, 2)), RootVector((1, 0))]
    assert sorted(roots) == [RootVector((0, 2)), RootVector((1, 0)), RootVector((1, 1))]
    assert RootVector((1, 0)) < RootVector((1, 0, 0))


@pytest.mark.parametrize("r", SLOT_RECORDS, ids=lambda r: type(r).__name__)
def test_validating_records_are_not_tuples(r):
    values = [getattr(r, f) for f in field_names(r)]
    assert r != tuple(values) and r != values[0]
    with pytest.raises(TypeError):
        len(r)
    with pytest.raises(TypeError):
        iter(r)


def test_matrix_still_validates():
    with pytest.raises(MatrixValidationError):
        GeneralizedCartanMatrix(((2, 1), (-1, 2)))
    with pytest.raises(MatrixValidationError):
        GeneralizedCartanMatrix(())


def test_partition_normalises_order():
    part = OrbitPartition((frozenset({3}), frozenset({1, 2})))
    assert part.blocks == (frozenset({1, 2}), frozenset({3}))
    assert part == OrbitPartition((frozenset({1, 2}), frozenset({3})))


def test_catalog_entry_replace(catalog):
    e = next(x for x in catalog if x.rank == 4 and x.symmetrizable)
    finite = GeneralizedCartanMatrix(
        ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    )
    bogus = e._replace(matrix=finite)
    assert e.matrix != finite and bogus.matrix == finite
    assert bogus._replace(matrix=e.matrix) == e
    report = verify_catalog(tuple(bogus if x is e else x for x in catalog))
    by_name = {c.name: c for c in report.checks}
    assert not by_name["lorentzian"].passed and e.canonical_id in by_name["lorentzian"].detail
