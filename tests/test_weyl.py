"""Real roots, reflections, highest roots, and reflection orbits."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from dynkin import (
    BudgetExceededError,
    DynkinError,
    RootVector,
    WrongTypeError,
    bilinear_form,
    highest_root,
    orbit_partition,
    real_roots_up_to_height,
    symmetrizer,
    validate_gcm,
)
from dynkin.enumeration import finite_affine_classes
from dynkin.oracles import reflect
from dynkin.symmetrize import random_gcm
from dynkin.weyl import (
    DEFAULT_BUDGET,
    _positive_closure,
    orbit_partition_bruteforce,
    orbit_partitions_agree,
)

from lie_fixtures import (
    FINITE_FIXTURES,
    HIGHEST_ROOT_HEIGHTS,
    POSITIVE_ROOT_COUNTS,
)


def fixture(name):
    return validate_gcm(FINITE_FIXTURES[name])


class TestReflect:
    def test_simple_root_negated(self, g2):
        assert reflect(g2, 1, RootVector((1, 0))) == RootVector((-1, 0))

    def test_involution(self):
        rng = random.Random(13)
        A = fixture("F4")
        for _ in range(100):
            beta = RootVector(tuple(rng.randint(-3, 3) for _ in range(4)))
            i = rng.randint(1, 4)
            assert reflect(A, i, reflect(A, i, beta)) == beta

    def test_keeps_the_norm_of_the_bilinear_form(self):
        rng = random.Random(31)
        A = fixture("B4")
        B = bilinear_form(A)

        def norm(beta):
            c = beta.coords
            return sum(c[i] * B[i][j] * c[j] for i in range(4) for j in range(4))

        for _ in range(100):
            beta = RootVector(tuple(rng.randint(-2, 2) for _ in range(4)))
            i = rng.randint(1, 4)
            assert norm(reflect(A, i, beta)) == norm(beta)

    def test_only_one_coordinate_moves(self, g2):
        # r_1(alpha_2) adds -a(1,2) = 1 to coordinate 1 and fixes coordinate 2
        assert reflect(g2, 1, RootVector((0, 1))) == RootVector((1, 1))
        assert reflect(g2, 2, RootVector((1, 0))) == RootVector((1, 3))

    def test_dimension_mismatch(self, g2):
        with pytest.raises(DynkinError):
            reflect(g2, 1, RootVector((1, 0, 0)))


class TestPositiveRoots:
    def test_g2_complete_set(self, g2):
        roots = real_roots_up_to_height(g2, height=5)
        assert {r.coords for r in roots} == {
            (1, 0),
            (0, 1),
            (1, 1),
            (1, 2),
            (1, 3),
            (2, 3),
        }

    def test_sorted_by_height_then_coords(self, g2):
        roots = real_roots_up_to_height(g2, height=5)
        keys = [(r.height, r.coords) for r in roots]
        assert keys == sorted(keys)

    def test_affine_rank2_low_heights(self):
        A = validate_gcm([[2, -2], [-2, 2]])
        roots = real_roots_up_to_height(A, height=3)
        assert {r.coords for r in roots} == {(1, 0), (0, 1), (2, 1), (1, 2)}

    def test_counts_for_all_finite_fixtures(self):
        for name, rows in FINITE_FIXTURES.items():
            h = HIGHEST_ROOT_HEIGHTS[name]
            roots = real_roots_up_to_height(validate_gcm(rows), height=h + 3)
            assert len(roots) == POSITIVE_ROOT_COUNTS[name], name

    def test_zero_height_window(self, g2):
        assert real_roots_up_to_height(g2, height=0) == ()

    def test_budget_enforced(self):
        A = validate_gcm([[2, -2], [-2, 2]])
        with pytest.raises(BudgetExceededError):
            real_roots_up_to_height(A, height=10**6, budget=50)

    def test_default_budget_covers_k10_at_height_14(self):
        # K_10 with single edges has 21,835 roots in the window: the default
        # budget must admit them, and one element less must raise.
        k10 = validate_gcm([[2 if i == j else -1 for j in range(10)] for i in range(10)])
        assert len(real_roots_up_to_height(k10, 14)) == 21_835
        with pytest.raises(BudgetExceededError):
            real_roots_up_to_height(k10, 14, budget=21_834)

    def test_matches_a_walk_by_reflect(self):
        # The closure against a walk that applies the reference ``reflect`` to
        # every root it holds and recomputes each pairing from the rows.
        rng = random.Random(1804)
        for _ in range(60):
            n = rng.randint(1, 6)
            A = random_gcm(rng, n, rng.choice((1, 2, 3)), rng.choice((0.3, 0.6, 1.0)))
            height = rng.randint(1, 8)
            found = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
            todo = list(found)
            while todo:
                beta = RootVector(todo.pop())
                for i in range(1, n + 1):
                    gamma = reflect(A, i, beta).coords
                    if min(gamma) >= 0 and sum(gamma) <= height and gamma not in found:
                        found.add(gamma)
                        todo.append(gamma)
            assert {r.coords for r in real_roots_up_to_height(A, height)} == found

    def test_frontier_holds_no_pairing_vector_per_waiting_root(self):
        # K_8 at height 16: 12,048 roots.  The closure's transient memory
        # (its peak past the forest it returns) stays under half the forest:
        # a frontier root waits with a reference to its parent's ``A beta``.
        # It is about 0.32 times the forest; with a copy of ``A beta`` per
        # waiting root it was about 1.09 times.
        k8 = validate_gcm([[2 if i == j else -1 for j in range(8)] for i in range(8)])
        tracemalloc.start()
        try:
            forest = _positive_closure(k8, 16, DEFAULT_BUDGET)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(forest) == 12_048
        assert peak - held < held / 2


class TestHighestRoot:
    @pytest.mark.parametrize("name", sorted(FINITE_FIXTURES))
    def test_height_table(self, name):
        theta = highest_root(fixture(name))
        assert theta.height == HIGHEST_ROOT_HEIGHTS[name], name

    def test_known_coordinates(self):
        assert highest_root(fixture("A3")).coords == (1, 1, 1)
        assert highest_root(fixture("G2")).coords == (2, 3)
        # mirror image of the usual F4 numbering (fixture points the arrow
        # toward vertex 3), so the coefficient string reads back to front
        assert highest_root(fixture("F4")).coords == (2, 4, 3, 2)

    def test_dominates_all_roots(self):
        # every finite class on 1..10 vertices, relabelled: the climb must land
        # on the closure's unique root of maximal height, which dominates all
        rng = random.Random(7)
        for k in range(1, 11):
            for rows in finite_affine_classes(k)[0]:
                perm = list(range(k))
                rng.shuffle(perm)
                A = validate_gcm([[rows[p][q] for q in perm] for p in perm])
                theta = highest_root(A)
                roots = real_roots_up_to_height(A, height=64)  # E8 tops out at 29
                top = max(r.height for r in roots)
                assert [r for r in roots if r.height == top] == [theta], rows
                for r in roots:
                    assert all(t >= c for t, c in zip(theta.coords, r.coords)), rows

    def test_rejects_non_finite(self):
        with pytest.raises(WrongTypeError):
            highest_root(validate_gcm([[2, -2], [-2, 2]]))
        with pytest.raises(WrongTypeError):
            highest_root(validate_gcm([[2, -3], [-3, 2]]))

    def test_rejects_decomposable(self):
        with pytest.raises(WrongTypeError):
            highest_root(validate_gcm([[2, 0], [0, 2]]))


class TestOrbitPartition:
    def test_skeleton_keeps_single_edges_only(self, arrow_chain):
        part = orbit_partition(arrow_chain)
        assert part.blocks == (frozenset({1, 2}), frozenset({3}))

    def test_simply_laced_single_orbit(self):
        for name in ("A5", "D6", "E7"):
            part = orbit_partition(fixture(name))
            assert part.block_count == 1

    def test_b4_two_orbits(self):
        part = orbit_partition(fixture("B4"))
        assert part.blocks == (frozenset({1, 2, 3}), frozenset({4}))
        assert part.block_of(3) == frozenset({1, 2, 3})

    def test_block_of_unknown_vertex(self):
        part = orbit_partition(fixture("A2"))
        with pytest.raises(DynkinError):
            part.block_of(7)

    def test_triangle_without_single_edges(self, unbalanced_triangle):
        part = orbit_partition(unbalanced_triangle)
        assert part.block_count == 3

    def test_bruteforce_affine_rank2(self):
        A = validate_gcm([[2, -1], [-4, 2]])
        part = orbit_partition_bruteforce(A, height=4)
        assert part.block_count == 2

    def test_bruteforce_matches_skeleton_on_fixtures(self):
        for name in ("A4", "B3", "C4", "D4", "G2", "F4"):
            A = fixture(name)
            h = HIGHEST_ROOT_HEIGHTS[name]
            expected = orbit_partition(A)
            assert orbit_partition_bruteforce(A, height=h) == expected, name

    def test_window_two_matches_skeleton(self, catalog):
        # the lemma behind the single window of orbit_partitions_agree: at
        # height 2 the walk links alpha_i and alpha_j exactly on single edges
        rng = random.Random(2)
        mats = [e.matrix for e in catalog]
        for _ in range(400):
            rank, label = rng.randint(2, 6), rng.choice((1, 2, 4))
            mats.append(random_gcm(rng, rank, max_label=label, edge_prob=rng.random()))
        for A in mats:
            assert orbit_partition_bruteforce(A, 2) == orbit_partition(A), A.rows

    @pytest.mark.parametrize("name", sorted(FINITE_FIXTURES))
    def test_finite_blocks_are_the_root_lengths(self, name):
        # in a finite irreducible root system W is transitive on the roots of
        # each length, and the simple root alpha_i has (alpha_i, alpha_i) = 2 d_i;
        # the walk to the highest root's height closes every positive root
        A = fixture(name)
        d = symmetrizer(A).d
        lengths = {frozenset(i + 1 for i in range(A.rank) if d[i] == x) for x in set(d)}
        part = orbit_partition(A)
        assert set(part.blocks) == lengths
        assert part.block_count == (1 if name[0] in "ADE" else 2)
        assert orbit_partition_bruteforce(A, HIGHEST_ROOT_HEIGHTS[name]) == part

    def test_agreement_helper(self):
        for name in ("A3", "B3", "G2"):
            assert orbit_partitions_agree(fixture(name))


class TestRootVector:
    def test_height(self):
        assert RootVector((2, 3)).height == 5

    def test_distinct_coordinates_distinct_roots(self):
        assert RootVector((1, 0)) != RootVector((0, 1))
