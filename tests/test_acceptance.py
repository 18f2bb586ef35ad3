"""Acceptance gate: the headline results, each printed as one pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Every expected value here is either a classical table fact transcribed in
``lie_fixtures`` or re-derived by an independent in-package oracle; nothing is
copied from the implementation under test.
"""

from __future__ import annotations

import itertools
import time

import pytest

import dynkin.oracles
from dynkin import (
    classify_indecomposable,
    enumerate_hyperbolic,
    extend_finite_to_affine,
    highest_root,
    is_symmetrizable,
    overextend_affine,
    real_roots_up_to_height,
    search_rank,
    validate_gcm,
)
from dynkin.canonical import canonical_rows
from dynkin.catalog import verify_catalog
from dynkin.classify import kind_of_rows
from dynkin.gcm import adjacency_bitmasks
from dynkin.oracles import search_rank_oracle, search_ranks_oracle
from dynkin.symmetrize import cycle_criterion_agreement, kac_cycle_oracle
from dynkin.weyl import orbit_partitions_agree

from lie_fixtures import FINITE_FIXTURES

EXPECTED_TOTAL = 238
EXPECTED_SYMMETRIZABLE = 142
EXPECTED_PER_RANK = {3: 123, 4: 53, 5: 22, 6: 22, 7: 4, 8: 5, 9: 5, 10: 4}

ENUMERATE_BUDGET_S = 300.0
ORACLE_BUDGET_S = 900.0
RANK11_BUDGET_S = 600.0
ORBIT_ORACLE_BUDGET_S = 120.0

RANDOM_EQUIVALENCE_SAMPLES = 10_000


def report(num: int, slug: str, problems: list[str], detail: str = "") -> None:
    """Print the one-line verdict for a criterion, then fail on any problem."""
    status = "FAIL" if problems else "PASS"
    suffix = f" ({detail})" if detail and not problems else ""
    print(f"criterion {num:02d} {slug}: {status}{suffix}")
    assert not problems, f"criterion {num} {slug}: " + "; ".join(problems)


def degrees_and_products(rows) -> tuple[list[int], list[int]]:
    """Sorted vertex degrees and sorted edge products ``a_ij * a_ji`` of a matrix."""
    degrees = sorted(a.bit_count() for a in adjacency_bitmasks(rows))
    products = sorted(
        rows[i][j] * rows[j][i]
        for i, j in itertools.combinations(range(len(rows)), 2)
        if rows[i][j]
    )
    return degrees, products


class OracleOverBudget(Exception):
    """The oracle walk passed its budget; the message names where it stopped."""


def clock_the_oracle(monkeypatch, budget_s: float) -> list:
    """Read the clock once per base of the oracle's attachment walk.

    ``dynkin.oracles._levels`` looks ``_attachments`` up on every base, so a
    walk stuck inside one rank still stops: the wrapper raises
    :class:`OracleOverBudget`, naming the level being grown and the base
    reached, as soon as ``budget_s`` has passed.  Returns the bases seen.
    """
    inner = dynkin.oracles._attachments
    t0 = time.perf_counter()
    bases = []

    def attachments(base, memo):
        bases.append(base)
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            raise OracleOverBudget(
                f"oracle took {elapsed:.1f}s and stopped at level {len(base) + 1}, base {base}"
            )
        return inner(base, memo)

    monkeypatch.setattr(dynkin.oracles, "_attachments", attachments)
    return bases


def test_oracle_clock_stops_at_the_first_base(monkeypatch):
    bases = clock_the_oracle(monkeypatch, 0.0)
    with pytest.raises(OracleOverBudget, match=r"at level 2, base \(\(2,\),\)$"):
        next(search_ranks_oracle(3, 3))
    assert bases == [((2,),)]


@pytest.fixture(scope="module")
def timed_catalog():
    t0 = time.perf_counter()
    entries = enumerate_hyperbolic(3, 10)
    return entries, time.perf_counter() - t0


class TestAcceptance:
    def test_01_catalog_counts(self, timed_catalog):
        entries, elapsed = timed_catalog
        sym = sum(1 for e in entries if e.symmetrizable)
        problems = []
        if len(entries) != EXPECTED_TOTAL:
            problems.append(f"{len(entries)} classes, expected {EXPECTED_TOTAL}")
        if sym != EXPECTED_SYMMETRIZABLE:
            problems.append(f"{sym} symmetrizable, expected {EXPECTED_SYMMETRIZABLE}")
        if elapsed >= ENUMERATE_BUDGET_S:
            problems.append(f"took {elapsed:.1f}s, budget {ENUMERATE_BUDGET_S:.0f}s")
        report(
            1,
            "catalog-counts",
            problems,
            f"{len(entries)} classes, {sym} symmetrizable, {elapsed:.1f}s",
        )

    def test_02_per_rank_split_and_oracle(self, timed_catalog, monkeypatch):
        entries, _ = timed_catalog
        problems = []
        counts = {r: sum(1 for e in entries if e.rank == r) for r in range(3, 11)}
        if counts != EXPECTED_PER_RANK:
            problems.append(f"per-rank counts {counts} != {EXPECTED_PER_RANK}")
        if sum(counts.values()) != EXPECTED_TOTAL:
            problems.append(f"counts sum to {sum(counts.values())}")
        t0 = time.perf_counter()
        clock_the_oracle(monkeypatch, ORACLE_BUDGET_S)
        try:
            for rank, slow in search_ranks_oracle(3, 10):
                fast = search_rank(rank)
                if fast != slow:
                    problems.append(f"oracle disagreement at rank {rank}")
                if len(fast) != EXPECTED_PER_RANK[rank]:
                    problems.append(f"rank {rank}: {len(fast)} classes")
        except OracleOverBudget as exc:
            problems.append(str(exc))
        oracle_elapsed = time.perf_counter() - t0
        if oracle_elapsed >= ORACLE_BUDGET_S:  # the time after the last base counts too
            problems.append(f"oracle took {oracle_elapsed:.1f}s, budget {ORACLE_BUDGET_S:.0f}s")
        report(
            2,
            "per-rank-split",
            problems,
            f"{tuple(counts[r] for r in range(3, 11))}, oracle ranks 3-10 agree "
            f"in {oracle_elapsed:.1f}s",
        )

    def test_03_rank_11_empty(self, monkeypatch):
        t0 = time.perf_counter()
        found = search_rank(11)
        elapsed = time.perf_counter() - t0
        problems = []
        if found != ():
            problems.append(f"rank 11 produced {len(found)} classes")
        if elapsed >= RANK11_BUDGET_S:
            problems.append(f"took {elapsed:.1f}s, budget {RANK11_BUDGET_S:.0f}s")
        t0 = time.perf_counter()
        clock_the_oracle(monkeypatch, ORACLE_BUDGET_S)
        try:
            slow = search_rank_oracle(11)
            if slow != ():
                problems.append(f"the oracle found {len(slow)} rank-11 classes")
        except OracleOverBudget as exc:
            problems.append(str(exc))
        oracle_elapsed = time.perf_counter() - t0
        if oracle_elapsed >= ORACLE_BUDGET_S:  # the time after the last base counts too
            problems.append(f"oracle took {oracle_elapsed:.1f}s, budget {ORACLE_BUDGET_S:.0f}s")
        report(
            3,
            "rank-11-empty",
            problems,
            f"0 classes in {elapsed:.1f}s, oracle agrees in {oracle_elapsed:.1f}s",
        )

    def test_04_compact_profile(self, timed_catalog):
        entries, _ = timed_catalog
        problems = []
        compact = [e for e in entries if e.compact]
        if max(e.rank for e in compact) != 5:
            problems.append(f"max compact rank {max(e.rank for e in compact)}")
        rank5 = [e for e in compact if e.rank == 5]
        if len(rank5) != 1:
            problems.append(f"{len(rank5)} compact rank-5 entries")
        else:
            e = rank5[0]
            degrees, products = degrees_and_products(e.matrix.rows)
            if degrees != [2] * 5:
                problems.append(f"rank-5 compact entry is not a cycle: degrees {degrees}")
            if products != [1, 1, 1, 1, 2]:
                problems.append(f"rank-5 compact entry edge products {products}")
            if e.symmetrizable:
                problems.append("rank-5 compact entry is symmetrizable")
        sym_compact = [e for e in compact if e.symmetrizable]
        if max(e.rank for e in sym_compact) != 4:
            problems.append(
                f"max symmetrizable compact rank {max(e.rank for e in sym_compact)}"
            )
        report(
            4,
            "compact-profile",
            problems,
            f"{len(compact)} compact entries, unique rank-5 case checked",
        )

    def test_05_high_ranks_symmetrizable(self, timed_catalog):
        entries, _ = timed_catalog
        bad = [e.canonical_id for e in entries if e.rank >= 7 and not e.symmetrizable]
        problems = [f"non-symmetrizable high-rank entries: {bad}"] if bad else []
        count = sum(1 for e in entries if e.rank >= 7)
        report(5, "ranks-7-10-symmetrizable", problems, f"{count} entries checked")

    def test_06_criterion_equivalence(self):
        problems = []
        # exhaustive: every rank-3 GCM with entries >= -4
        pair_choices = [(0, 0)] + [
            (p, q) for p in range(1, 5) for q in range(1, 5)
        ]
        checked = 0
        for e12, e13, e23 in itertools.product(pair_choices, repeat=3):
            rows = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
            for (i, j), (p, q) in zip([(0, 1), (0, 2), (1, 2)], [e12, e13, e23]):
                rows[i][j] = -p
                rows[j][i] = -q
            A = validate_gcm(rows)
            if is_symmetrizable(A)[0] != kac_cycle_oracle(A):
                problems.append(f"disagreement on {rows}")
                break
            checked += 1
        # randomized: seeded GCMs of ranks 4..6
        mismatches = cycle_criterion_agreement(RANDOM_EQUIVALENCE_SAMPLES, seed=0)
        if mismatches:
            problems.append(
                f"{len(mismatches)} random disagreements, first {mismatches[0].rows}"
            )
        report(
            6,
            "symmetrizability-equivalence",
            problems,
            f"{checked} exhaustive rank-3 cases, "
            f"{RANDOM_EQUIVALENCE_SAMPLES} random rank 4-6 samples",
        )

    def test_07_symmetrizer_soundness(self, timed_catalog):
        from math import gcd

        entries, _ = timed_catalog
        problems = []
        checked = 0
        for e in entries:
            if not e.symmetrizable:
                continue
            d = e.symmetrizer
            rows = e.matrix.rows
            n = e.rank
            symmetric = all(
                d[i] * rows[i][j] == d[j] * rows[j][i]
                for i in range(n)
                for j in range(i + 1, n)
            )
            if not symmetric:
                problems.append(f"{e.canonical_id}: D*A not symmetric")
            if not all(x > 0 for x in d) or gcd(*d) != 1:
                problems.append(f"{e.canonical_id}: weights {d} not normalized")
            checked += 1
        if checked != EXPECTED_SYMMETRIZABLE:
            problems.append(f"only {checked} symmetrizable entries seen")
        report(7, "symmetrizer-soundness", problems, f"{checked} entries, exact integers")

    def test_08_root_length_bound(self, timed_catalog):
        entries, _ = timed_catalog
        problems = []
        rhos = [e.root_lengths for e in entries if e.symmetrizable]
        if max(rhos) > 4:
            problems.append(f"root-length count {max(rhos)} exceeds 4")
        four = [e.canonical_id for e in entries if e.root_lengths == 4]
        if len(four) != 1:
            problems.append(f"entries attaining 4 lengths: {four}")
        report(
            8,
            "root-length-bound",
            problems,
            f"max {max(rhos)}, attained once by {four[0] if four else '-'}",
        )

    def test_09_orbit_block_bound(self, timed_catalog):
        entries, _ = timed_catalog
        top = max(e.orbit_blocks.block_count for e in entries)
        problems = [] if top == 4 else [f"max orbit-block count is {top}, expected 4"]
        report(9, "orbit-block-bound", problems, f"max {top} over {len(entries)} entries")

    def test_10_orbit_oracle(self, timed_catalog):
        entries, _ = timed_catalog
        problems = []
        t0 = time.perf_counter()
        checked = 0
        for e in entries:
            if not orbit_partitions_agree(e.matrix):
                problems.append(f"{e.canonical_id}: partitions disagree")
            checked += 1
        for name, rows in FINITE_FIXTURES.items():
            if not orbit_partitions_agree(validate_gcm(rows)):
                problems.append(f"{name}: partitions disagree")
            checked += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= ORBIT_ORACLE_BUDGET_S:
            problems.append(f"took {elapsed:.1f}s, budget {ORBIT_ORACLE_BUDGET_S:.0f}s")
        report(
            10,
            "orbit-oracle",
            problems,
            f"{checked} matrices agree in {elapsed:.1f}s",
        )

    def test_11_extension_pipeline(self, timed_catalog):
        entries, _ = timed_catalog
        problems = []

        def in_catalog(rows) -> bool:
            canon = canonical_rows(rows)[0]
            return any(e.matrix.rows == canon for e in entries)

        # rank 1 -> affine double edge -> rank-3 hyperbolic
        small = overextend_affine(extend_finite_to_affine(validate_gcm([[2]])))
        if small.rows != ((2, -1, 0), (-1, 2, -2), (0, -2, 2)):
            problems.append(f"small chain produced {small.rows}")
        if not classify_indecomposable(small).hyperbolic:
            problems.append("small chain result is not hyperbolic")
        if not in_catalog(small.rows):
            problems.append("small chain result missing from the catalog")

        # E8 -> affine E8 -> rank-10 hyperbolic overextension
        e8 = validate_gcm(FINITE_FIXTURES["E8"])
        affine = extend_finite_to_affine(e8)
        if kind_of_rows(affine.rows) != "affine" or affine.rank != 9:
            problems.append("E8 affinization is not a rank-9 affine matrix")
        big = overextend_affine(affine)
        if not classify_indecomposable(big).hyperbolic:
            problems.append("overextended E8 is not hyperbolic")
        degrees, products = degrees_and_products(big.rows)
        if set(products) != {1}:
            problems.append("overextended E8 has a non-single edge")
        if degrees != [1, 1, 1] + [2] * 6 + [3]:
            problems.append(f"overextended E8 degree profile {degrees}")
        if not in_catalog(big.rows):
            problems.append("overextended E8 missing from the catalog")
        report(11, "extension-pipeline", problems, "rank-1 and E8 chains land in catalog")

    def test_12_finite_root_sanity(self):
        problems = []
        cases = [
            # name, positive roots, total roots, highest-root height
            ("A2", 3, 6, 2),
            ("G2", 6, 12, 5),
            ("E8", 120, 240, 29),
        ]
        for name, pos, total, height in cases:
            A = validate_gcm(FINITE_FIXTURES[name])
            roots = real_roots_up_to_height(A, height=height + 5)
            if len(roots) != pos or 2 * len(roots) != total:
                problems.append(f"{name}: {len(roots)} positive roots, expected {pos}")
            h = highest_root(A).height
            if h != height:
                problems.append(f"{name}: highest-root height {h}, expected {height}")
        report(12, "finite-root-sanity", problems, "A2, G2, E8 closures match tables")

    def test_13_property_harness(self, timed_catalog):
        entries, _ = timed_catalog
        rep = verify_catalog(entries)
        failed = [c.name for c in rep.checks if not c.passed]
        problems = [f"failed checks: {failed}"] if failed else []
        report(
            13,
            "property-harness",
            problems,
            f"all {len(rep.checks)} catalog checks pass",
        )
