"""Type trichotomy via exact principal minors.

The determinant oracle here is cofactor expansion over Fractions, kept
deliberately independent from the Bareiss elimination used by the package.
"""

from __future__ import annotations

import importlib
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from dynkin import (
    DecomposableError,
    RankBoundError,
    classify,
    classify_indecomposable,
    extend_finite_to_affine,
    overextend_affine,
    principal_minors,
    validate_gcm,
)
from dynkin.classify import (
    AFFINE,
    FINITE,
    INDEFINITE,
    ComponentType,
    _leading_minor_kind,
    det_int,
    hyperbolic_compact_scan,
    kind_of_rows,
    sub_rows,
)
from dynkin.enumeration import finite_affine_classes
from dynkin.gcm import adjacency_bitmasks, graph_components, is_indecomposable
from dynkin.oracles import definitional_kind
from dynkin.symmetrize import is_symmetrizable, random_gcm

from lie_fixtures import (
    FINITE_FIXTURES,
    affine_a,
    affine_b,
    affine_c,
    affine_d,
    affine_e,
    affine_f4,
    affine_g2,
    cartan_a,
    cartan_b,
    cartan_c,
    cartan_d,
    cartan_e,
    cartan_f4,
    cartan_g2,
    path_with_heavy_end,
)


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det_cofactor(minor)
    return total


def random_int_matrix(rng, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


class TestDeterminant:
    def test_matches_cofactor_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 6)
            rows = random_int_matrix(rng, n)
            expected = det_cofactor(rows)
            assert expected.denominator == 1
            assert det_int(tuple(tuple(r) for r in rows)) == expected.numerator

    def test_known_values(self):
        assert det_int(((2,),)) == 2
        assert det_int(((2, -1), (-1, 2))) == 3
        assert det_int(((2, -1), (-4, 2))) == 0
        assert det_int(((2, -1), (-3, 2))) == 1

    def test_singular_with_pivot_swap(self):
        # leading entry zero forces a row swap inside the elimination
        assert det_int(((0, 1), (1, 0))) == -1
        assert det_int(((0, 2, 1), (1, 0, 0), (0, 1, 0))) == 1


class TestPrincipalMinors:
    def test_against_oracle(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        rows[i][j] = -rng.randint(1, 3)
                        rows[j][i] = -rng.randint(1, 3)
            A = validate_gcm(rows)
            minors = principal_minors(A)
            assert len(minors) == 2**n - 1
            for subset, value in minors.items():
                idx = sorted(subset)
                sub = [[rows[i - 1][j - 1] for j in idx] for i in idx]
                assert value == det_cofactor(sub)

    @pytest.mark.parametrize("n", (7, 9, 11, 12))
    def test_zero_minors_up_to_rank_12(self, n):
        """Affine cycles and product-4 edges put zero minors in the walk's way."""
        cycle_tail = cartan_a(n)
        cycle_tail[0][3] = cycle_tail[3][0] = -1  # affine 4-cycle 1-2-3-4, path tail 5..n
        heavy = cartan_a(n)
        heavy[0][1] = heavy[1][0] = -2  # product-4 edge: the minor on {1, 2} is 0
        dense = random_gcm(random.Random(n), n, 4, 0.5).to_lists()
        for rows in (affine_a(n - 1), cycle_tail, heavy, dense):
            minors = principal_minors(validate_gcm(rows))
            assert len(minors) == 2**n - 1
            for subset, value in minors.items():
                idx = sorted(subset)
                assert value == det_int(tuple(tuple(rows[i - 1][j - 1] for j in idx) for i in idx))
        assert principal_minors(validate_gcm(cycle_tail))[frozenset({1, 2, 3, 4})] == 0
        assert principal_minors(validate_gcm(heavy))[frozenset({1, 2})] == 0

    def test_rank_bound(self):
        n = 13
        A = validate_gcm([[2 if i == j else 0 for j in range(n)] for i in range(n)])
        with pytest.raises(RankBoundError):
            principal_minors(A)


class TestSubRows:
    """``sub_rows`` against its definition; the oracle routes use it too."""

    def test_every_mask_matches_the_definition(self):
        rng = random.Random(83)
        for n in range(1, 11):
            for density in (0.2, 0.6):
                rows = random_gcm(rng, n, 4, density).rows
                for mask in range(1 << n):
                    idx = [i for i in range(n) if mask >> i & 1]
                    expected = tuple(tuple(rows[i][j] for j in idx) for i in idx)
                    assert sub_rows(rows, mask) == expected
                assert sub_rows(rows, (1 << n) - 1) == rows
                for v in range(n):
                    assert sub_rows(rows, 1 << v) == ((2,),)

    def test_empty_mask(self):
        assert sub_rows(((2,),), 0) == ()
        assert sub_rows(((2, -1), (-1, 2)), 0) == ()


def prefix_minor_kind(rows):
    """Kind read off the leading minors that ``det_int`` gives on each prefix."""
    n = len(rows)
    for k in range(1, n):
        if det_int(tuple(r[:k] for r in rows[:k])) <= 0:
            return INDEFINITE
    det = det_int(rows)
    return FINITE if det > 0 else AFFINE if det == 0 else INDEFINITE


def hub_last(rows):
    """Relabel a tree so that a vertex of highest degree is last and leaves come first.

    The order is breadth-first from that vertex, reversed: each vertex is
    adjacent only to later vertices but its parent, so most rows have a 0 in
    the pivot column for many elimination steps in a row.
    """
    n = len(rows)
    hub = max(range(n), key=lambda v: sum(1 for x in rows[v] if x))
    order, seen = [hub], {hub}
    for v in order:
        for w in range(n):
            if rows[v][w] and w not in seen:
                seen.add(w)
                order.append(w)
    order.reverse()
    return tuple(tuple(rows[a][b] for b in order) for a in order)


def random_tree(rng, n, cap):
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        rows[u][v] = -rng.randint(1, cap)
        rows[v][u] = -rng.randint(1, cap)
    return rows


class TestEliminationAgainstDetInt:
    """``_leading_minor_kind`` against the pivoting elimination of ``det_int``."""

    def test_seeded_sparse_and_dense(self):
        rng = random.Random(89)
        seen = Counter()
        for n in range(1, 15):
            for density in (0.1, 0.25, 0.5, 0.9):
                for _ in range(12):
                    rows = random_gcm(rng, n, rng.choice((1, 2, 3, 4)), density).rows
                    kind = _leading_minor_kind(rows)
                    assert kind == prefix_minor_kind(rows), rows
                    seen[kind] += 1
        assert min(seen[k] for k in (FINITE, AFFINE, INDEFINITE)) >= 15, seen

    def test_trees_with_the_hub_last(self):
        rng = random.Random(97)
        trees = [random_tree(rng, n, cap) for n in range(2, 31) for cap in (1, 1, 2, 3)]
        for n in range(4, 13):
            trees += [cartan_d(n), affine_d(n), affine_b(n)]
        trees += [cartan_e(n) for n in (6, 7, 8)] + [affine_e(n) for n in (6, 7, 8)]
        for n in (4, 5, 9, 17):  # stars: every leaf row waits until its own step
            trees.append([[2 if i == j else -1 if 0 in (i, j) else 0 for j in range(n)] for i in range(n)])
        seen = Counter()
        for tree in trees:
            rows = hub_last(tree)
            assert rows[-1].count(0) == min(rows[v].count(0) for v in range(len(rows)))
            kind = _leading_minor_kind(rows)
            assert kind == prefix_minor_kind(rows), rows
            seen[kind] += 1
        assert min(seen[k] for k in (FINITE, AFFINE, INDEFINITE)) >= 10, seen

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 8, 13, 21, 34, 55, 60))
    def test_paths_and_cycles(self, n):
        heavy_cycle = affine_a(n - 1)
        heavy_cycle[0][1] = -2  # a (2, 1) edge on an affine cycle
        shapes = [cartan_a(n), path_with_heavy_end(n), heavy_cycle]
        if n >= 3:
            shapes.append(affine_a(n - 1))
        for rows in shapes:
            rows = tuple(map(tuple, rows))
            assert _leading_minor_kind(rows) == prefix_minor_kind(rows), rows
        assert _leading_minor_kind(tuple(map(tuple, cartan_a(n)))) == FINITE

    def test_entries_near_ten_to_the_thirty(self):
        # The minor-sign rule reads any integer matrix, so besides GCMs with a
        # huge edge this also runs diagonally dominant blocks (all leading
        # minors positive) and their singular bordering (determinant 0).
        rng = random.Random(101)
        big = 10**30
        seen = Counter()
        for n in range(2, 12):
            late = [list(r) for r in cartan_a(n)]  # a huge edge at the end of a path
            late[n - 1][n - 2] = -big
            tree = [list(r) for r in hub_last(random_tree(rng, n, 2))]
            tree[n - 2][n - 1] = -big - rng.randint(0, 9)  # in a row deferred until its own step
            tree[n - 1][n - 2] = -rng.randint(1, 3)
            m = [[rng.randint(-9, 9) * big // 10 for _ in range(n - 1)] for _ in range(n - 1)]
            for i in range(n - 1):
                m[i][i] = n * big + rng.randint(0, big)  # diagonally dominant: minors positive
            v = [rng.randint(-big, big) for _ in range(n - 1)]
            mv = [sum(a * b for a, b in zip(r, v)) for r in m]
            vm = [sum(v[i] * m[i][j] for i in range(n - 1)) for j in range(n - 1)]
            singular = [r + [x] for r, x in zip(m, mv)] + [vm + [sum(a * b for a, b in zip(vm, v))]]
            for rows in (late, tree, m, singular):
                rows = tuple(map(tuple, rows))
                kind = _leading_minor_kind(rows)
                assert kind == prefix_minor_kind(rows), rows
                seen[kind] += 1
        assert min(seen[k] for k in (FINITE, AFFINE, INDEFINITE)) >= 5, seen


class TestRankTwoLaw:
    @pytest.mark.parametrize(
        "a,b,kind",
        [
            (1, 1, FINITE),
            (1, 2, FINITE),
            (1, 3, FINITE),
            (2, 2, AFFINE),
            (1, 4, AFFINE),
            (4, 1, AFFINE),
            (1, 5, INDEFINITE),
            (2, 3, INDEFINITE),
            (5, 5, INDEFINITE),
        ],
    )
    def test_product_threshold(self, a, b, kind):
        assert kind_of_rows(((2, -a), (-b, 2))) == kind


def relabel(rng, rows):
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(tuple(rows[perm[i]][perm[j]] for j in range(n)) for i in range(n))


def family_pairs(ranks):
    """(finite, affine extension) for each classical family member of a rank in ``ranks``."""
    builders = [
        (1, cartan_a, affine_a),
        (3, cartan_b, affine_b),
        (2, cartan_c, affine_c),
        (4, cartan_d, affine_d),
    ]
    for low, finite, affine in builders:
        for n in ranks:
            if n >= low:
                yield finite(n), affine(n)
    for n in (6, 7, 8):
        if n in ranks:
            yield cartan_e(n), affine_e(n)
    if 4 in ranks:
        yield cartan_f4(), affine_f4()
    if 2 in ranks:
        yield cartan_g2(), affine_g2()


class TestSylvesterKind:
    """``kind_of_rows`` (leading minors) against the definitional recursion."""

    def test_random_connected_agree(self):
        rng = random.Random(61)
        seen = {FINITE: 0, AFFINE: 0, INDEFINITE: 0, "unbalanced": 0}
        checked = 0
        while checked < 5000:
            cap = rng.choice((1, 2, 3, 4))
            density = rng.choice((0.2, 0.35, 0.5, 0.8))
            A = random_gcm(rng, rng.randint(3, 9), cap, density)
            if not is_indecomposable(A):
                continue
            kind = kind_of_rows(A.rows)
            assert kind == definitional_kind(A.rows), A.rows
            seen[kind] += 1
            seen["unbalanced"] += not is_symmetrizable(A)[0]
            checked += 1
        assert all(count >= 50 for count in seen.values()), seen

    def test_classical_families_agree(self):
        rng = random.Random(67)
        for finite, affine in family_pairs(range(1, 13)):
            for rows, expected in ((finite, FINITE), (affine, AFFINE)):
                rows = relabel(rng, rows)
                assert kind_of_rows(rows) == definitional_kind(rows) == expected, rows

    def test_high_rank_families(self):
        rng = random.Random(71)
        for finite, affine in family_pairs(range(13, 25)):
            assert kind_of_rows(relabel(rng, finite)) == FINITE
            assert kind_of_rows(relabel(rng, affine)) == AFFINE

    def test_finite_and_affine_classes_are_symmetrizable(self):
        # The premise that lets a non-symmetrizable matrix be called indefinite.
        for k in range(1, 11):
            fins, affs = finite_affine_classes(k)
            for rows in fins + affs:
                assert is_symmetrizable(validate_gcm(rows))[0], rows


class TestKnownTypes:
    def test_finite_fixtures(self):
        for name, rows in FINITE_FIXTURES.items():
            info = classify_indecomposable(validate_gcm(rows))
            assert info.kind == FINITE, name
            assert not info.hyperbolic

    def test_affine_examples(self):
        for rows in (
            [[2, -1], [-4, 2]],
            [[2, -2], [-2, 2]],
            [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # cycle
        ):
            assert classify_indecomposable(validate_gcm(rows)).kind == AFFINE

    def test_affine_from_finite_plus_vertex(self):
        # affine type from the 5-vertex fork: D4 with a doubled tail
        rows = [
            [2, -1, 0, 0, 0],
            [-1, 2, -1, -1, -1],
            [0, -1, 2, 0, 0],
            [0, -1, 0, 2, 0],
            [0, -1, 0, 0, 2],
        ]
        assert classify_indecomposable(validate_gcm(rows)).kind == AFFINE

    def test_indefinite_examples(self, unbalanced_triangle):
        assert classify_indecomposable(unbalanced_triangle).kind == INDEFINITE
        assert (
            classify_indecomposable(validate_gcm([[2, -5], [-1, 2]])).kind == INDEFINITE
        )


class TestHyperbolicity:
    def test_triangle_is_compact_hyperbolic(self, unbalanced_triangle):
        info = classify_indecomposable(unbalanced_triangle)
        assert info.kind == INDEFINITE
        assert info.hyperbolic
        assert info.compact_hyperbolic

    def test_hyperbolic_not_compact(self):
        A = validate_gcm([[2, -1, 0], [-1, 2, -2], [0, -2, 2]])
        info = classify_indecomposable(A)
        assert info.kind == INDEFINITE
        assert info.hyperbolic
        assert not info.compact_hyperbolic  # the {2, 3} edge subdiagram is affine

    def test_non_hyperbolic_indefinite(self):
        # chain whose first edge alone is already indefinite
        A = validate_gcm(
            [
                [2, -3, 0, 0],
                [-2, 2, -1, 0],
                [0, -1, 2, -1],
                [0, 0, -1, 2],
            ]
        )
        info = classify_indecomposable(A)
        assert info.kind == INDEFINITE
        assert not info.hyperbolic

    def test_finite_and_affine_are_not_hyperbolic(self):
        assert not classify_indecomposable(validate_gcm(cartan_a(4))).hyperbolic
        assert not classify_indecomposable(validate_gcm([[2, -2], [-2, 2]])).hyperbolic


class TestClassifyDispatch:
    def test_decomposable_rejected(self):
        A = validate_gcm([[2, 0], [0, 2]])
        with pytest.raises(DecomposableError):
            classify_indecomposable(A)

    def test_componentwise(self):
        rows = [
            [2, -1, 0, 0],
            [-1, 2, 0, 0],
            [0, 0, 2, -4],
            [0, 0, -1, 2],
        ]
        result = classify(validate_gcm(rows))
        kinds = {c.vertices: c.type.kind for c in result}
        assert kinds == {frozenset({1, 2}): FINITE, frozenset({3, 4}): AFFINE}

    def test_subdiagram_monotonicity(self):
        # every one-vertex-deleted subdiagram of a finite matrix is fully finite
        for rows in (cartan_b(5), cartan_d(6), FINITE_FIXTURES["E8"]):
            A = validate_gcm(rows)
            for drop in range(1, A.rank + 1):
                keep = [v for v in range(1, A.rank + 1) if v != drop]
                for comp in classify(submatrix(A, keep)):
                    assert comp.type.kind == FINITE


def submatrix(A, vertices):
    """Validated principal submatrix of ``A`` on the 1-based ``vertices``, ascending."""
    keep = sorted(vertices)
    return validate_gcm([[A.rows[i - 1][j - 1] for j in keep] for i in keep])


def direct_sum(*blocks):
    """Block-diagonal matrix of the row lists ``blocks``."""
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, r in enumerate(b):
            rows[at + i][at : at + len(b)] = r
        at += len(b)
    return rows


class TestClassifyAgainstComponentRoute:
    """``classify`` against the route it replaced: a validated matrix per component.

    The reference validates each component's submatrix again and classifies
    it with ``classify_indecomposable``, in ``graph_components`` order.
    """

    @staticmethod
    def reference(A):
        return tuple(
            ComponentType(c, classify_indecomposable(submatrix(A, c)))
            for c in graph_components(adjacency_bitmasks(A.rows))
        )

    def test_relabelled_catalog_entries(self, catalog):
        rng = random.Random(1806)
        for e in catalog:
            A = validate_gcm(relabel(rng, e.matrix.rows))
            got = classify(A)
            assert got == self.reference(A)
            assert got[0].type.hyperbolic

    def test_decomposable_random_with_isolated_vertices(self):
        rng = random.Random(1807)
        split = isolated = 0
        for _ in range(400):
            n = rng.randint(1, 20)
            A = random_gcm(rng, n, rng.choice((1, 2, 4)), rng.choice((0.05, 0.15, 0.3)))
            rows = [list(r) for r in A.rows]
            for v in rng.sample(range(n), rng.randint(0, n // 3)):
                for j in range(n):
                    if j != v:
                        rows[v][j] = rows[j][v] = 0
            A = validate_gcm(rows)
            got = classify(A)
            assert got == self.reference(A)
            split += len(got) > 1
            isolated += any(len(c.vertices) == 1 for c in got)
        assert min(split, isolated) >= 200

    def test_classical_families_up_to_rank_25(self):
        rng = random.Random(1808)
        lows = (
            (1, cartan_a, affine_a),
            (3, cartan_b, affine_b),
            (2, cartan_c, affine_c),
            (4, cartan_d, affine_d),
        )
        members = [finite(n) for low, finite, _ in lows for n in range(low, 26)]
        members += [affine(n) for low, _, affine in lows for n in range(low, 25)]  # n + 1 vertices
        members += [cartan_e(n) for n in (6, 7, 8)] + [affine_e(n) for n in (6, 7, 8)]
        members += [cartan_f4(), cartan_g2(), affine_f4(), affine_g2()]
        for rows in members:
            A = validate_gcm(relabel(rng, rows))
            assert classify(A) == self.reference(A)
        for _ in range(60):
            parts = rng.sample(members, rng.randint(2, 3))
            rows = direct_sum(*parts)
            if len(rows) <= 25:
                A = validate_gcm(relabel(rng, rows))
                assert classify(A) == self.reference(A)


def test_validated_rows_are_not_validated_again(monkeypatch):
    """Neither ``classify`` nor the extensions check the axioms of rows valid by construction."""
    gcm = importlib.import_module("dynkin.gcm")
    checked = []
    real = gcm._check_axioms

    def counting(rows):
        checked.append(rows)
        real(rows)

    split = validate_gcm(direct_sum(cartan_e(8), affine_a(5), [[2]], [[2, -5], [-1, 2]]))
    hyperbolic = [[2, -1, -1], [-2, 2, -2], [-2, -1, 2]]
    connected = [validate_gcm(rows) for rows in (cartan_e(8), affine_d(7), hyperbolic)]
    finite = [validate_gcm(rows) for rows in (cartan_a(1), cartan_b(6), cartan_e(8), cartan_g2())]
    monkeypatch.setattr(gcm, "_check_axioms", counting)
    for A in [split, *connected]:
        classify(A)
    assert checked == []
    for A in finite:
        overextend_affine(extend_finite_to_affine(A))
    assert checked == []


class TestPublicHyperbolicityRoute:
    def test_agrees_with_full_scan_on_random_connected(self):
        rng = random.Random(2024)
        seen = Counter()
        for _ in range(4000):
            rank = rng.randint(2, 9)
            A = random_gcm(rng, rank, rng.choice((1, 2, 4)), rng.choice((0.3, 0.5)))
            if not is_indecomposable(A):
                continue
            expected = hyperbolic_compact_scan(A.rows)
            (comp,) = classify(A)
            assert (comp.type.hyperbolic, comp.type.compact_hyperbolic) == expected
            info = classify_indecomposable(A)
            assert (info.hyperbolic, info.compact_hyperbolic) == expected
            seen[expected] += 1
        assert min(seen[(True, True)], seen[(True, False)], seen[(False, False)]) >= 20

    def test_public_api_never_runs_the_full_scan(self, monkeypatch, unbalanced_triangle):
        def refuse(rows):
            raise AssertionError(f"full subset scan on a rank-{len(rows)} matrix")

        module = importlib.import_module("dynkin.classify")
        monkeypatch.setattr(module, "hyperbolic_compact_scan", refuse)
        hostile = validate_gcm(path_with_heavy_end(22))
        for A in (unbalanced_triangle, validate_gcm(cartan_e(8)), hostile):
            classify(A)
            classify_indecomposable(A)
        assert classify(hostile)[0].type.kind == INDEFINITE
        assert not classify_indecomposable(hostile).hyperbolic

    def test_finite_and_affine_skip_the_corank1_scan(self, monkeypatch):
        def refuse(rows):
            raise AssertionError(f"corank-1 scan on a rank-{len(rows)} matrix of known kind")

        module = importlib.import_module("dynkin.classify")
        monkeypatch.setattr(module, "hyperbolic_fast_flags", refuse)
        cycle = validate_gcm(affine_a(39))  # 40 vertices, every neighbour -1
        for A, kind in ((validate_gcm(cartan_e(8)), FINITE), (cycle, AFFINE)):
            assert classify_indecomposable(A) == classify(A)[0].type
            assert classify_indecomposable(A) == (kind, False, False)


def test_kind_cache_is_bounded(monkeypatch):
    # Rank-60 paths with one heavy edge: few keys, but 3,600 cells each.  The
    # bound is lowered so that the cache starts over within a few dozen keys.
    module = importlib.import_module("dynkin.classify")
    bound = 20 * 60 * 60 + 1
    monkeypatch.setattr(module, "KIND_CACHE_CELLS", bound)
    monkeypatch.setattr(module, "_KIND_CACHE", {})
    monkeypatch.setattr(module, "_kind_cache_cells", 0)
    monkeypatch.setattr(module, "_KIND_ROWS", {})
    most = 0
    for label in range(5, 55):
        rows = path_with_heavy_end(60)
        rows[59][58] = -label
        rows = tuple(map(tuple, rows))
        assert kind_of_rows(rows) == INDEFINITE
        cells = sum(len(key) ** 2 for key in module._KIND_CACHE)
        assert cells == module._kind_cache_cells <= bound
        assert rows in module._KIND_CACHE
        assert not module._KIND_ROWS  # keys above SHARED_ROWS_RANK keep their own rows
        most = max(most, len(module._KIND_CACHE))
    assert most == 20


def test_kind_cache_shares_rows_up_to_rank_11(monkeypatch):
    # Paths on 9..12 vertices with a heavy end; the bound holds the first two keys.
    module = importlib.import_module("dynkin.classify")
    assert module.SHARED_ROWS_RANK == 11
    monkeypatch.setattr(module, "KIND_CACHE_CELLS", 11 * 11 + 12 * 12)
    monkeypatch.setattr(module, "_KIND_CACHE", {})
    monkeypatch.setattr(module, "_kind_cache_cells", 0)
    monkeypatch.setattr(module, "_KIND_ROWS", {})
    paths = {n: tuple(map(tuple, path_with_heavy_end(n))) for n in (9, 10, 11, 12)}
    for n in (11, 12):
        kind_of_rows(paths[n])
    stored = {len(key): key for key in module._KIND_CACHE}
    assert sorted(stored) == [11, 12]
    assert all(module._KIND_ROWS[row] is row for row in stored[11])
    assert not any(row in module._KIND_ROWS for row in stored[12])
    # The row table holds exactly the rows the live keys hold: it empties
    # when the cache starts over, and every key holds the table's copy.
    for n in (10, 9):
        kind_of_rows(paths[n])
        held = {id(row) for key in module._KIND_CACHE for row in key}
        assert set(map(id, module._KIND_ROWS.values())) == held
    assert sorted(map(len, module._KIND_CACHE)) == [9, 10]


def test_kind_cache_keys_share_rows():
    # The search is memoized per process, so the catalog run needs a fresh one.
    src = str(Path(importlib.import_module("dynkin").__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, dynkin\n"
        "dynkin.enumerate_hyperbolic(3, 10)\n"
        "dynkin.search_rank(11)\n"
        "rows = [r for key in sys.modules['dynkin.classify']._KIND_CACHE for r in key]\n"
        "print(len(rows), len({id(r) for r in rows}), len(set(rows)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    held, objects, values = map(int, out.split())
    assert objects == values < held
