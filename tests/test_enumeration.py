"""Enumeration: levelled finite/affine growth and the hyperbolic search.

Heavier cross-checks (the oracle at every rank 3..11, brute force rank 4,
the full rank sweep) live in the acceptance tests; this file keeps the fast
cases.
"""

from __future__ import annotations

import ast
import importlib
from itertools import islice
from pathlib import Path

import pytest

from dynkin import RankBoundError
from dynkin.canonical import canonical_rows
from dynkin.classify import AFFINE, FINITE, kind_of_rows
from dynkin.enumeration import (
    LABELS,
    _attach_extensions,
    finite_affine_classes,
    hyperbolic_fast_flags,
    search_rank,
)
from dynkin.classify import hyperbolic_compact_scan
from dynkin.gcm import validate_gcm
from dynkin.oracles import (
    ORACLE_RANK_LIMIT,
    _levels,
    finite_affine_oracle,
    rows_fully_finite,
    search_rank_bruteforce,
    search_rank_oracle,
    search_ranks_oracle,
)

from lie_fixtures import AFFINE_CLASS_COUNTS, FINITE_CLASS_COUNTS, TWISTED_MARKS, textbook_levels


def classes_with_transposes(matrices) -> tuple:
    """Sorted canonical rows of each matrix and of its transpose."""
    rows = [tuple(map(tuple, m)) for m in matrices]
    rows += [tuple(zip(*r)) for r in rows]
    return tuple(sorted({canonical_rows(r)[0] for r in rows}))


class TestFiniteAffineLevels:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_counts(self, k):
        fin, aff = finite_affine_classes(k)
        assert len(fin) == FINITE_CLASS_COUNTS[k]
        assert len(aff) == AFFINE_CLASS_COUNTS.get(k, 0)

    def test_members_have_claimed_type(self):
        for k in range(1, 11):
            fin, aff = finite_affine_classes(k)
            for rows in fin:
                assert kind_of_rows(rows) == FINITE
            for rows in aff:
                assert kind_of_rows(rows) == AFFINE

    def test_members_are_canonical_and_distinct(self):
        for k in range(1, 11):
            fin, aff = finite_affine_classes(k)
            pool = list(fin) + list(aff)
            assert len(set(pool)) == len(pool)
            for rows in pool:
                assert canonical_rows(rows)[0] == rows

    def test_matches_oracle(self):
        # Three routes to each level: the search, the oracle, and a third
        # written by hand from Kac's tables, each fixture with its transpose.
        # The oracle's ten levels come from one walk, the one finite_affine_oracle reads.
        walk = islice(_levels(ORACLE_RANK_LIMIT + 1), ORACLE_RANK_LIMIT - 1)
        for k, (oracle_fin, oracle_aff, _) in enumerate(walk, start=1):
            fin, aff = (classes_with_transposes(m) for m in textbook_levels(k))
            assert (len(fin), len(aff)) == (FINITE_CLASS_COUNTS[k], AFFINE_CLASS_COUNTS.get(k, 0))
            assert finite_affine_classes(k) == (fin, aff), k
            assert (tuple(sorted(oracle_fin)), tuple(sorted(oracle_aff))) == (fin, aff), k
        assert k == 10
        assert finite_affine_oracle(5) == finite_affine_classes(5)

    @pytest.mark.parametrize("name", sorted(TWISTED_MARKS))
    def test_twisted_fixtures_annihilate_kac_marks(self, name):
        rows, marks = TWISTED_MARKS[name]
        assert len(marks) == len(rows)
        assert [sum(x * a for x, a in zip(row, marks)) for row in rows] == [0] * len(rows)

    def test_oracle_bounds(self):
        for k in (0, 11):
            with pytest.raises(RankBoundError):
                finite_affine_oracle(k)


class TestSearchRank:
    def test_rank3_matches_oracle(self):
        assert search_rank(3) == search_rank_oracle(3)

    def test_rank4_matches_oracle(self):
        assert search_rank(4) == search_rank_oracle(4)

    def test_one_walk_gives_each_rank_of_a_range(self):
        # (5, 6) attaches the affine classes from level 4 on only
        for lo, hi in ((3, 5), (5, 6)):
            walked = list(search_ranks_oracle(lo, hi))
            assert walked == [(n, search_rank(n)) for n in range(lo, hi + 1)]

    def test_range_walk_bounds(self):
        for lo, hi in ((2, 4), (3, 12)):
            with pytest.raises(RankBoundError, match=f"got {lo if lo < 3 else hi}"):
                next(search_ranks_oracle(lo, hi))

    def test_rank3_matches_bruteforce(self):
        assert set(search_rank(3)) == set(search_rank_bruteforce(3))

    def test_rank_bounds(self):
        for n in (2, 12, 1200, 4.0, "4", None):
            with pytest.raises(RankBoundError, match=f"ranks 3..11, got {n}"):
                search_rank(n)
        for k in (0, 11, 4.0):
            with pytest.raises(RankBoundError, match=f"1..10 vertices, got {k}"):
                finite_affine_classes(k)
        with pytest.raises(RankBoundError):
            search_rank_oracle(12)
        with pytest.raises(RankBoundError):
            search_rank_bruteforce(5)

    def test_results_sorted_and_canonical(self):
        found = search_rank(4)
        assert list(found) == sorted(found)
        for rows in found:
            assert canonical_rows(rows)[0] == rows


#: Candidates ``search_rank(n)`` hands to the hyperbolicity filter.
CANDIDATES_PER_RANK = {3: 363, 4: 150, 5: 109, 6: 120, 7: 123, 8: 148, 9: 167, 10: 177, 11: 185}
CANDIDATES_PER_LEVEL = {2: 8, 3: 91, 4: 25, 5: 41, 6: 36, 7: 46, 8: 51, 9: 56, 10: 52}


def _short_cycle_through_last(rows, limit):
    """Whether a cycle on at most ``limit`` vertices runs through the last vertex.

    Plain search over simple paths that start at the last vertex; it shares
    nothing with the base distances the pruning uses.
    """
    n = len(rows)
    new = n - 1

    def extend(path):
        u = path[-1]
        for v in range(n):
            if v == u or not rows[u][v]:
                continue
            if v == new and len(path) >= 3:
                return True
            if v not in path and len(path) < limit and extend(path + [v]):
                return True
        return False

    return extend([new])


class TestGirthRule:
    @pytest.mark.parametrize("n", sorted(CANDIDATES_PER_RANK))
    def test_candidate_counts(self, n):
        fins, affs = finite_affine_classes(n - 1)
        count = sum(1 for base in fins + affs for _ in _attach_extensions(base, n - 2))
        assert count == CANDIDATES_PER_RANK[n]

    @pytest.mark.parametrize("k", sorted(CANDIDATES_PER_LEVEL))
    def test_level_candidate_counts(self, k):
        bases = finite_affine_classes(k - 1)[0]
        count = sum(1 for base in bases for _ in _attach_extensions(base, k - 1))
        assert count == CANDIDATES_PER_LEVEL[k]

    def test_no_candidate_closes_a_short_cycle(self):
        # (bases, finite_max, rank step?) of every level 2..10 and rank 3..11
        steps = [(finite_affine_classes(k - 1)[0], k - 1, False) for k in range(2, 11)]
        steps += [(sum(finite_affine_classes(n - 1), ()), n - 2, True) for n in range(3, 12)]
        edges = {(-p, -q) for p, q in LABELS}
        for bases, finite_max, rank_step in steps:
            tight = whole = 0
            for base in bases:
                seen = set()
                for cand in _attach_extensions(base, finite_max):
                    # the base bordered by one new row and column, each new
                    # pair no edge or a negated label, at least one an edge
                    assert tuple(row[:-1] for row in cand[:-1]) == base, cand
                    assert cand[-1][-1] == 2, cand
                    pairs = [(row[-1], c) for row, c in zip(cand, cand[-1][:-1])]
                    assert all(pair == (0, 0) or pair in edges for pair in pairs), cand
                    assert any(pair != (0, 0) for pair in pairs), cand
                    validate_gcm(cand)
                    assert cand not in seen, cand
                    seen.add(cand)
                    assert not _short_cycle_through_last(cand, finite_max), cand
                    tight += _short_cycle_through_last(cand, finite_max + 1)
                    whole += _short_cycle_through_last(cand, len(cand))
            # a cycle through every vertex (the affine cycle at level k, the
            # n-cycle at rank n) is still offered
            assert whole or finite_max < 2, finite_max
            # and so is a cycle on finite_max + 1 vertices: at every level, and
            # the (n - 1)-cycle at ranks 4 and 5.  From rank 6 on the parent
            # rule leaves that cycle to the affine cycle base: the vertex off
            # the cycle has the larger key.
            assert tight or finite_max < 2 or (rank_step and finite_max >= 4), finite_max


def _connected_without(rows, u):
    """Whether deleting vertex ``u`` leaves ``rows`` connected (plain search)."""
    rest = [v for v in range(len(rows)) if v != u]
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        a = stack.pop()
        for b in rest:
            if rows[a][b] and b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen) == len(rest)


def _largest_key_non_cut(rows):
    """The non-cut vertices of ``rows`` whose (row sum, column sum) is largest."""
    keys = {
        u: (sum(rows[u]), sum(row[u] for row in rows))
        for u in range(len(rows))
        if _connected_without(rows, u)
    }
    best = max(keys.values())
    return [u for u, key in keys.items() if key == best]


def _parent_step(step, n):
    """(classes, bases, finite_max) of level or rank ``n``."""
    if step == "level":
        return sum(finite_affine_classes(n), ()), finite_affine_classes(n - 1)[0], n - 1
    return search_rank(n), sum(finite_affine_classes(n - 1), ()), n - 2


class TestParentRule:
    """Every class keeps a branch: the parent rule's proof, class by class."""

    @pytest.mark.parametrize(
        "step, n", [("level", k) for k in range(2, 11)] + [("rank", n) for n in range(3, 11)]
    )
    def test_every_class_is_reached_from_each_largest_key_parent(self, step, n):
        classes, bases, finite_max = _parent_step(step, n)
        bases = set(bases)
        offered = {}
        for target in classes:
            for u in _largest_key_non_cut(target):
                keep = [v for v in range(len(target)) if v != u]
                parent = canonical_rows(tuple(tuple(target[a][b] for b in keep) for a in keep))[0]
                assert parent in bases, (target, u)
                if parent not in offered:
                    found = _attach_extensions(parent, finite_max)
                    offered[parent] = {canonical_rows(cand)[0] for cand in found}
                assert target in offered[parent], (target, u)


class TestFastFlags:
    def test_agrees_with_definition_on_search_output(self):
        for n in (3, 4):
            for rows in search_rank(n):
                assert hyperbolic_fast_flags(rows) == hyperbolic_compact_scan(rows)

    def test_agrees_on_non_hyperbolic_cases(self):
        cases = [
            ((2, -3, 0, 0), (-2, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
            ((2, -2, -2), (-2, 2, -2), (-2, -2, 2)),
        ]
        for rows in cases:
            assert hyperbolic_fast_flags(rows) == hyperbolic_compact_scan(rows)

    def test_full_finite_helper(self):
        assert rows_fully_finite(((2, -1, 0), (-1, 2, 0), (0, 0, 2)))
        assert not rows_fully_finite(((2, -2), (-2, 2)))


def _module_tree(name):
    path = Path(importlib.import_module(name).__file__)
    return ast.parse(path.read_text(encoding="utf-8"))


def _imported_modules(tree):
    """Last dotted component of every module an import names (and every imported name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.rsplit(".", 1)[-1] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.rsplit(".", 1)[-1]
            yield from (a.name for a in node.names)


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname


class TestOracleBoundary:
    """The oracle routes and the pruned search share nothing."""

    def test_oracles_do_not_reach_into_the_pruned_search(self):
        tree = _module_tree("dynkin.oracles")
        assert "enumeration" not in set(_imported_modules(tree))
        pruned = {
            "kind_of_rows",
            "_leading_minor_kind",
            "hyperbolic_fast_flags",
            "_attach_extensions",
            "_triples_ok",
            "LABELS",
            "finite_affine_classes",
            "search_rank",
        }
        assert not pruned & set(_identifiers(tree))

    def test_pruned_search_does_not_import_the_oracles(self):
        assert "oracles" not in set(_imported_modules(_module_tree("dynkin.enumeration")))
