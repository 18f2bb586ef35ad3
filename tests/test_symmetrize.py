"""Symmetrizability: forest propagation vs the cycle-products criterion."""

from __future__ import annotations

import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from dynkin import (
    DecomposableError,
    NotSymmetrizableError,
    bilinear_form,
    classify_indecomposable,
    is_symmetrizable,
    overextend_affine,
    symmetrizer,
    validate_gcm,
)
from dynkin.gcm import is_indecomposable
from dynkin.symmetrize import (
    _forest,
    _fundamental_cycle,
    cycle_criterion_agreement,
    inertia,
    kac_cycle_oracle,
    random_gcm,
)

from lie_fixtures import FINITE_FIXTURES, affine_a, affine_c, affine_d, affine_e, affine_g2


class TestIsSymmetrizable:
    def test_trees_always_symmetrizable(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(2, 8)
            rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for v in range(1, n):
                u = rng.randrange(v)
                rows[u][v] = -rng.randint(1, 4)
                rows[v][u] = -rng.randint(1, 4)
            ok, witness = is_symmetrizable(validate_gcm(rows))
            assert ok and witness is None

    def test_balanced_triangle(self):
        # products around the cycle agree: (-1)(-1)(-4) == (-2)(-2)(-1)
        rows = [[2, -1, -1], [-2, 2, -1], [-4, -2, 2]]
        ok, witness = is_symmetrizable(validate_gcm(rows))
        assert ok and witness is None
        assert symmetrizer(validate_gcm(rows)).d == (4, 2, 1)

    def test_unbalanced_triangle_witness(self, unbalanced_triangle):
        ok, witness = is_symmetrizable(unbalanced_triangle)
        assert not ok
        assert witness.cycle == (1, 2, 3, 1)
        assert witness.forward_product == -4
        assert witness.reverse_product == -2

    def test_witness_products_recompute(self, unbalanced_triangle):
        _, w = is_symmetrizable(unbalanced_triangle)
        rows = unbalanced_triangle.rows
        fwd = math.prod(
            rows[w.cycle[t] - 1][w.cycle[t + 1] - 1] for t in range(len(w.cycle) - 1)
        )
        rev = math.prod(
            rows[w.cycle[t + 1] - 1][w.cycle[t] - 1] for t in range(len(w.cycle) - 1)
        )
        assert (fwd, rev) == (w.forward_product, w.reverse_product)


class TestFundamentalCycle:
    def test_closes_a_non_tree_edge_with_tree_edges(self):
        rng = random.Random(2031)
        drawn = checked = 0
        while drawn < 200:
            A = random_gcm(rng, rng.randint(3, 14), edge_prob=rng.choice((0.2, 0.5, 0.9)))
            if is_symmetrizable(A)[0]:
                continue
            drawn += 1
            _, parent, nontree = _forest(A.rows)
            tree = {frozenset((v, p)) for v, p in enumerate(parent) if p >= 0}
            for u, v in nontree:
                cycle = _fundamental_cycle(u, v, parent)
                assert (cycle[0], cycle[-1]) == (u, v)
                assert len(cycle) == len(set(cycle)) >= 3
                assert all(frozenset(e) in tree for e in zip(cycle, cycle[1:]))
                checked += 1
        assert checked > 1000

    def test_witness_is_a_fundamental_cycle(self):
        rng = random.Random(2032)
        for _ in range(300):
            A = random_gcm(rng, rng.randint(3, 10), edge_prob=rng.random())
            ok, witness = is_symmetrizable(A)
            if ok:
                continue
            _, parent, _ = _forest(A.rows)
            tree = {frozenset((v, p)) for v, p in enumerate(parent) if p >= 0}
            steps = [frozenset((a - 1, b - 1)) for a, b in zip(witness.cycle, witness.cycle[1:])]
            assert sum(step not in tree for step in steps) == 1
            assert all(A.rows[min(s)][max(s)] != 0 for s in steps)


class TestCycleOracle:
    def test_matches_forest_criterion_exhaustive_rank3(self):
        # every connected rank-3 pattern with labels up to 2
        labels = [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]
        for e12, e13, e23 in itertools.product(labels, repeat=3):
            rows = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
            for (i, j), (p, q) in zip([(0, 1), (0, 2), (1, 2)], [e12, e13, e23]):
                rows[i][j] = -p
                rows[j][i] = -q
            edges = sum(1 for pq in (e12, e13, e23) if pq != (0, 0))
            if edges < 2:
                continue  # disconnected
            A = validate_gcm(rows)
            assert is_symmetrizable(A)[0] == kac_cycle_oracle(A)

    def test_random_agreement(self):
        assert cycle_criterion_agreement(samples=300, seed=9) == []

    def test_disagreements_are_returned_in_draw_order(self, monkeypatch):
        # a cycle oracle that is always wrong: every draw disagrees, and the
        # draws are reproducible from the seed alone
        module = importlib.import_module("dynkin.symmetrize")
        monkeypatch.setattr(module, "kac_cycle_oracle", lambda A: not kac_cycle_oracle(A))
        rng = random.Random(1)
        drawn = [random_gcm(rng, rng.randint(4, 6)) for _ in range(5)]
        assert cycle_criterion_agreement(5, seed=1) == drawn


class TestSymmetrizer:
    def test_arrow_chain(self, arrow_chain):
        assert symmetrizer(arrow_chain).d == (1, 1, 2)

    def test_dual_chain(self):
        rows = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
        assert symmetrizer(validate_gcm(rows)).d == (2, 2, 1)

    def test_symmetric_input_gives_ones(self):
        A = validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        assert symmetrizer(A).d == (1, 1, 1)

    def test_entries_positive_coprime(self):
        rng = random.Random(17)
        seen_nontrivial = 0
        for _ in range(200):
            A = random_gcm(rng, rng.randint(2, 6))
            if not is_indecomposable(A) or not is_symmetrizable(A)[0]:
                continue
            d = symmetrizer(A).d
            assert all(x >= 1 for x in d)
            assert math.gcd(*d) == 1
            if len(set(d)) > 1:
                seen_nontrivial += 1
        assert seen_nontrivial > 0

    def test_da_symmetric(self):
        rng = random.Random(29)
        for _ in range(200):
            A = random_gcm(rng, rng.randint(2, 6))
            if not is_indecomposable(A) or not is_symmetrizable(A)[0]:
                continue
            d = symmetrizer(A).d
            n = A.rank
            B = [[d[i] * A.rows[i][j] for j in range(n)] for i in range(n)]
            assert all(B[i][j] == B[j][i] for i in range(n) for j in range(n))

    def test_rejects_unsymmetrizable(self, unbalanced_triangle):
        with pytest.raises(NotSymmetrizableError):
            symmetrizer(unbalanced_triangle)

    def test_rejects_decomposable(self):
        with pytest.raises(DecomposableError):
            symmetrizer(validate_gcm([[2, 0], [0, 2]]))


class TestBilinearForm:
    def test_affine_rank2(self):
        A = validate_gcm([[2, -1], [-4, 2]])
        B = bilinear_form(A)
        assert B == ((8, -4), (-4, 2))
        assert A.rows != tuple(zip(*A.rows))
        assert bilinear_form(validate_gcm([[2, -1], [-1, 2]])) == ((2, -1), (-1, 2))

    def test_finite_fixtures_positive_diagonal(self):
        for name, rows in FINITE_FIXTURES.items():
            A = validate_gcm(rows)
            B = bilinear_form(A)
            n = A.rank
            assert all(B[i][j] == B[j][i] for i in range(n) for j in range(n)), name
            assert all(B[i][i] > 0 and B[i][i] % 2 == 0 for i in range(n)), name

    def test_decomposable_normalized_per_component(self):
        rows = [
            [2, -1, 0, 0],
            [-2, 2, 0, 0],
            [0, 0, 2, -1],
            [0, 0, -1, 2],
        ]
        B = bilinear_form(validate_gcm(rows))
        # each block is normalized independently, so the symmetric block keeps d=1
        assert B[2][2] == 2 and B[3][3] == 2
        assert B[0][1] == B[1][0]


class TestInertia:
    """Exact signature of the symmetrized form on each Cartan type."""

    def test_finite_is_positive_definite(self):
        for name, rows in FINITE_FIXTURES.items():
            assert inertia(bilinear_form(validate_gcm(rows))) == (len(rows), 0, 0), name

    @pytest.mark.parametrize(
        "rows", [affine_a(1), affine_a(5), affine_c(4), affine_d(6), affine_e(8), affine_g2()]
    )
    def test_affine_has_one_null_direction(self, rows):
        assert inertia(bilinear_form(validate_gcm(rows))) == (len(rows) - 1, 0, 1)

    def test_hyperbolic_is_lorentzian(self):
        e10 = overextend_affine(validate_gcm(affine_e(8)), 9)  # joined at the affine node
        rank3 = validate_gcm([[2, -1, 0], [-1, 2, -2], [0, -2, 2]])  # A2 joined to an affine edge
        for A in (e10, rank3):
            assert classify_indecomposable(A).hyperbolic
            assert inertia(bilinear_form(A)) == (A.rank - 1, 1, 0)

    def test_plain_symmetric_matrices(self):
        assert inertia(((1, 2), (2, 1))) == (1, 1, 0)
        assert inertia(((0, 0), (0, 0))) == (0, 0, 2)
        assert inertia(((-3, 0, 0), (0, 0, 0), (0, 0, -1))) == (0, 2, 1)


def fraction_weights(rows):
    """Coprime integer weights per component by rational depth-first propagation.

    Returns ``(d, components)``, or ``None`` when some edge is unbalanced.
    """
    n = len(rows)
    w = [None] * n
    comps = []
    for root in range(n):
        if w[root] is not None:
            continue
        w[root] = Fraction(1)
        comp, stack = [root], [root]
        while stack:
            u = stack.pop()
            for v in range(n):
                if v == u or rows[u][v] == 0:
                    continue
                forced = w[u] * Fraction(rows[u][v], rows[v][u])
                if w[v] is None:
                    w[v] = forced
                    comp.append(v)
                    stack.append(v)
                elif w[v] != forced:
                    return None
        comps.append(sorted(comp))
    d = [0] * n
    for comp in comps:
        scale = math.lcm(*(w[i].denominator for i in comp))
        ints = [int(w[i] * scale) for i in comp]
        g = math.gcd(*ints)
        for i, x in zip(comp, ints):
            d[i] = x // g
    return d, comps


class TestIntegerRescaling:
    def test_matches_rational_propagation(self):
        rng = random.Random(4711)
        seen = {"unbalanced": 0, "decomposable": 0, "several lengths": 0}
        for _ in range(1500):
            A = random_gcm(
                rng, rng.randint(1, 9), rng.randint(1, 6), rng.choice((0.15, 0.3, 0.5))
            )
            expected = fraction_weights(A.rows)
            assert is_symmetrizable(A)[0] == (expected is not None)
            if expected is None:
                seen["unbalanced"] += 1
                with pytest.raises(NotSymmetrizableError):
                    bilinear_form(A)
                continue
            d, comps = expected
            n = A.rank
            B = bilinear_form(A)
            assert B == tuple(tuple(d[i] * A.rows[i][j] for j in range(n)) for i in range(n))
            assert all(B[i][j] == B[j][i] for i in range(n) for j in range(n))
            for comp in comps:
                weights = [B[i][i] // 2 for i in comp]
                assert min(weights) >= 1 and math.gcd(*weights) == 1
            if len(comps) > 1:
                seen["decomposable"] += 1
                with pytest.raises(DecomposableError):
                    symmetrizer(A)
            else:
                assert symmetrizer(A).d == tuple(d)
                seen["several lengths"] += len(set(d)) > 1
        assert min(seen.values()) >= 50, seen


class TestRootLengthCount:
    @pytest.mark.parametrize(
        "name,count",
        [("A5", 1), ("D6", 1), ("E8", 1), ("B4", 2), ("C5", 2), ("F4", 2), ("G2", 2)],
    )
    def test_finite_types(self, name, count):
        assert len(set(symmetrizer(validate_gcm(FINITE_FIXTURES[name])).d)) == count

    def test_three_lengths(self):
        # chain with two independent arrows stacks three distinct values of d
        rows = [
            [2, -2, 0],
            [-1, 2, -2],
            [0, -1, 2],
        ]
        assert len(set(symmetrizer(validate_gcm(rows)).d)) == 3


class TestRandomGcm:
    def test_produces_valid_matrices(self):
        rng = random.Random(1)
        for _ in range(100):
            A = random_gcm(rng, rng.randint(1, 7), max_label=4)
            assert A.rank >= 1  # validate_gcm already ran in constructor

    def test_deterministic_for_seed(self):
        a = random_gcm(random.Random(42), 5)
        b = random_gcm(random.Random(42), 5)
        assert a == b
