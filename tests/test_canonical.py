"""Canonical labelling: minimality, invariance, and the realizing permutation."""

from __future__ import annotations

import itertools
import random

import pytest

from dynkin import DynkinError, canonical_form, validate_gcm
from dynkin import canonical
from dynkin.canonical import canonical_rows
from dynkin.symmetrize import random_gcm


def permute(rows, perm):
    n = len(rows)
    return tuple(tuple(rows[perm[i]][perm[j]] for j in range(n)) for i in range(n))


def brute_minimum(rows):
    n = len(rows)
    return min(permute(rows, p) for p in itertools.permutations(range(n)))


class TestMinimality:
    def test_matches_bruteforce(self):
        rng = random.Random(41)
        for _ in range(150):
            A = random_gcm(rng, rng.randint(1, 5))
            canon, _ = canonical_rows(A.rows)
            assert canon == brute_minimum(A.rows)

    def test_known_small_case(self):
        canon, _ = canonical_rows(((2, -1), (-4, 2)))
        assert canon == ((2, -4), (-1, 2))


def plant_twins(rng, rows, count, skew=False):
    """``rows`` with ``count`` new vertices, each a twin of a random existing vertex.

    With ``skew``, one entry in the new vertex's column is then changed where
    it is nonzero, which leaves a vertex that is a twin by its row alone.
    """
    out = [list(r) for r in rows]
    for _ in range(count):
        v = rng.randrange(len(out))
        new = len(out)
        for row in out:
            row.append(row[v])
        out.append(list(out[v]))
        out[new][new] = 2
        out[new][v] = out[v][new] = -rng.randint(0, 2)
        if skew:
            nonzero = [w for w in range(new) if w != v and out[w][new] != 0]
            if nonzero:
                out[rng.choice(nonzero)][new] -= 1
    return tuple(tuple(r) for r in out)


class TestTwins:
    @pytest.mark.parametrize("n", range(8, 13))
    def test_complete_and_edgeless_are_their_own_form(self, n):
        complete = tuple(tuple(2 if i == j else -1 for j in range(n)) for i in range(n))
        edgeless = tuple(tuple(2 if i == j else 0 for j in range(n)) for i in range(n))
        for rows in (complete, edgeless):
            assert canonical_rows(rows) == (rows, tuple(range(n)))

    def test_planted_twins_match_bruteforce(self):
        rng = random.Random(59)
        for _ in range(150):
            base = random_gcm(rng, rng.randint(1, 4), rng.choice((1, 2, 3)), rng.choice((0.3, 0.6)))
            rows = plant_twins(rng, base.rows, rng.randint(1, 3), skew=rng.random() < 0.5)
            canon, perm = canonical_rows(rows)
            assert canon == brute_minimum(rows)
            assert permute(rows, perm) == canon

    def test_state_cap_error_names_cap_and_count(self, monkeypatch):
        # The 5-cycle has no twins and ten automorphisms.
        cycle = tuple(
            tuple(2 if i == j else -1 if (i - j) % 5 in (1, 4) else 0 for j in range(5))
            for i in range(5)
        )
        monkeypatch.setattr(canonical, "_STATE_CAP", 3)
        with pytest.raises(DynkinError, match=r"5 live states exceed the cap of 3"):
            canonical_rows(cycle)

    def test_cap_admits_three_disjoint_six_cycles(self):
        # Twin-free and highly symmetric: 10,368 live states at the widest
        # step, so a cap cut to half of _STATE_CAP raises here.
        n = 18
        rows = tuple(
            tuple(
                2 if i == j else -1 if i // 6 == j // 6 and (i - j) % 6 in (1, 5) else 0
                for j in range(n)
            )
            for i in range(n)
        )
        canon, perm = canonical_rows(rows)
        assert permute(rows, perm) == canon


class TestInvariance:
    def test_all_relabelings_collapse(self):
        rng = random.Random(43)
        for _ in range(60):
            A = random_gcm(rng, rng.randint(2, 6))
            canon, _ = canonical_rows(A.rows)
            for _ in range(5):
                perm = list(range(A.rank))
                rng.shuffle(perm)
                shuffled = permute(A.rows, perm)
                validate_gcm(shuffled)  # permuting preserves the axioms
                assert canonical_rows(shuffled)[0] == canon

    def test_idempotent(self):
        rng = random.Random(47)
        for _ in range(60):
            A = random_gcm(rng, rng.randint(1, 6))
            canon, _ = canonical_rows(A.rows)
            assert canonical_rows(canon)[0] == canon


class TestRealizingPermutation:
    def test_permutation_produces_canonical_rows(self):
        rng = random.Random(53)
        for _ in range(100):
            A = random_gcm(rng, rng.randint(1, 6))
            canon, perm = canonical_rows(A.rows)
            assert permute(A.rows, perm) == canon
            assert sorted(perm) == list(range(A.rank))

    def test_wrapper_returns_matrix(self, unbalanced_triangle):
        cf = canonical_form(unbalanced_triangle)
        assert cf.matrix.rows == cf.rows
        assert canonical_form(cf.matrix).rows == cf.rows
