"""Catalog of hyperbolic diagrams: entries, extensions, verification, files.

A catalog entry packages one canonical hyperbolic matrix with everything the
rest of the package can derive about it: compactness, symmetrizability with
the normalized symmetrizer, the number of distinct simple-root lengths, the
orbit partition of the simple roots, and the id of its dual (transpose) class.
Entry ids are ``"<rank>-<ordinal>"`` with the ordinal assigned in canonical
matrix order within each rank, starting at 1.

The file format is line-delimited JSON: a header line carrying the format
string, then one entry per line with sorted keys, so equal catalogs serialize
to identical bytes.  Loading enforces schema-level invariants only (valid
GCM, consistent flags, unique ids); the mathematical content is rechecked by
:func:`verify_catalog`, which is what lets a structurally well-formed but
mathematically bogus entry be loaded and then flagged.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations
from pathlib import Path
from typing import Iterator, NamedTuple

from .canonical import canonical_rows
from .classify import (
    AFFINE,
    FINITE,
    det_int,
    hyperbolic_compact_scan,
    hyperbolic_fast_flags,
    kind_of_rows,
    subdiagram_kinds,
)
from .enumeration import search_rank
from .errors import CatalogFormatError, DynkinError, RankBoundError, WrongTypeError, clip
from .gcm import (
    GeneralizedCartanMatrix,
    _check_range,
    _is_int,
    _shown,
    adjacency_bitmasks,
    connected_deletions,
    is_indecomposable,
    validate_gcm,
)
from .parsing import load_json
from .symmetrize import (
    _symmetrizing_weights,
    _weights_or_witness,
    bilinear_form,
    inertia,
    is_symmetrizable,
)
from .weyl import OrbitPartition, _climb, orbit_partition, orbit_partitions_agree

__all__ = [
    "CATALOG_FORMAT",
    "MIN_RANK",
    "MAX_RANK",
    "CatalogEntry",
    "enumerate_hyperbolic",
    "extend_finite_to_affine",
    "overextend_affine",
    "PropertyCheck",
    "CatalogReport",
    "verify_catalog",
    "catalog_to_lines",
    "catalog_from_lines",
    "write_catalog",
    "read_catalog",
    "catalog_to_tsv",
    "catalog_to_latex",
]

CATALOG_FORMAT = "dynkin-catalog/1"
MIN_RANK = 3
MAX_RANK = 10

#: The paper's class count for each rank 3..10, and how many are symmetrizable.
HEADLINE_CLASSES = (123, 53, 22, 22, 4, 5, 5, 4)
HEADLINE_SYMMETRIZABLE = (44, 40, 20, 20, 4, 5, 5, 4)

VERIFIED = "verified"
UNVERIFIED = "unverified"


def semantics_for(symmetrizable: bool) -> str:
    """The ``orbit_semantics`` value an entry carries: it follows symmetrizability."""
    return VERIFIED if symmetrizable else UNVERIFIED


class CatalogEntry(NamedTuple):
    """One hyperbolic class in canonical form with its derived attributes.

    ``orbit_semantics`` is ``"verified"`` when the matrix is symmetrizable and
    ``"unverified"`` otherwise.  It no longer marks which blocks are checked:
    the skeleton rule holds for every GCM, and the reflection-walk check in
    :func:`verify_catalog` covers every entry.  The field stays because the
    ``dynkin-catalog/1`` format carries it; retiring it needs a format bump.

    Entries are immutable named tuples: ``e._replace(field=value)`` gives a
    changed copy.
    """

    canonical_id: str
    rank: int
    matrix: GeneralizedCartanMatrix
    compact: bool
    symmetrizable: bool
    symmetrizer: tuple[int, ...] | None
    root_lengths: int | None
    orbit_blocks: OrbitPartition
    orbit_semantics: str
    dual_id: str


# == building the catalog ==


def _entry_id(rank: int, ordinal: int) -> str:
    return f"{rank}-{ordinal:03d}"


def _rank_entries(rank: int, mats: tuple[tuple[tuple[int, ...], ...], ...]) -> list[CatalogEntry]:
    """Catalog entries of one rank from the search's canonical rows ``mats``.

    The rows are not checked again: :func:`search_rank` builds each one as a
    valid GCM, a single vertex joined to a finite or affine class by edges
    whose two entries are negative together, and the test suite validates
    every one.
    """
    ids = {rows: _entry_id(rank, k) for k, rows in enumerate(mats, start=1)}
    entries = []
    for k, rows in enumerate(mats, start=1):
        A = GeneralizedCartanMatrix._trusted(rows)
        hyper, compact = hyperbolic_fast_flags(rows)
        assert hyper, "enumeration produced a non-hyperbolic matrix"
        weights, witness = _weights_or_witness(rows)  # rows are connected
        sym = witness is None
        d = tuple(weights) if sym else None
        transpose = tuple(zip(*rows))
        dual_rows = canonical_rows(transpose)[0]
        dual_id = ids.get(dual_rows)
        assert dual_id is not None, "catalog must be closed under transposition"
        entries.append(
            CatalogEntry(
                canonical_id=_entry_id(rank, k),
                rank=rank,
                matrix=A,
                compact=compact,
                symmetrizable=sym,
                symmetrizer=d,
                root_lengths=len(set(d)) if d else None,
                orbit_blocks=orbit_partition(A),
                orbit_semantics=semantics_for(sym),
                dual_id=dual_id,
            )
        )
    return entries


def enumerate_hyperbolic(
    rank_min: int = MIN_RANK, rank_max: int = MAX_RANK
) -> tuple[CatalogEntry, ...]:
    """Full catalog of hyperbolic classes for ranks ``rank_min..rank_max``.

    Deterministic: entries are sorted by rank, then by canonical matrix.
    """
    got = f"{_shown(rank_min)}..{_shown(rank_max)}".replace("{", "{{").replace("}", "}}")
    message = f"rank range must satisfy {MIN_RANK} <= min <= max <= {MAX_RANK}, got {got}"
    _check_range(rank_min, MIN_RANK, MAX_RANK, RankBoundError, message)
    _check_range(rank_max, rank_min, MAX_RANK, RankBoundError, message)
    out: list[CatalogEntry] = []
    for rank in range(rank_min, rank_max + 1):
        out.extend(_rank_entries(rank, search_rank(rank)))
    return tuple(out)


# == extensions ==


def extend_finite_to_affine(A: GeneralizedCartanMatrix) -> GeneralizedCartanMatrix:
    """Affine extension of an indecomposable finite-type GCM.

    A new vertex is prepended at index 1 (existing vertices shift up by one)
    whose simple root is the negative of the highest root ``theta``.  Its
    pairings are read off ``A theta``: the new column is ``-(A theta)_j`` and
    the new row is ``-2 d_j (A theta)_j / (theta, theta)``, where ``d`` is the
    symmetrizer and ``(theta, theta) = sum_j theta_j d_j (A theta)_j``.  The
    row is integral by construction, which is asserted, and the result is
    checked to be of affine type.

    Everything is derived from the rows ``A`` already holds: one
    indecomposability check, one symmetrizer, and one highest-root climb that
    yields ``A theta`` as it goes.  The output is valid by construction and
    is not checked again: ``theta`` is dominant, so every ``(A theta)_j >= 0``.
    The new column and the new row are therefore ``<= 0``, and zero together,
    since ``d_j > 0`` and ``(theta, theta) > 0``; the new diagonal entry is 2.
    """
    if not is_indecomposable(A):
        raise WrongTypeError("affine extension requires an indecomposable matrix")
    if kind_of_rows(A.rows) != FINITE:
        raise WrongTypeError("affine extension requires a finite-type matrix")
    n = A.rank
    d = _symmetrizing_weights(A)
    theta, a_theta = _climb(A.rows, d)
    norm = sum(theta[j] * d[j] * a_theta[j] for j in range(n))
    new_row = []  # entries A[0][j]: highest-root coroot against old roots
    for j in range(n):
        r, rem = divmod(-2 * d[j] * a_theta[j], norm)
        assert rem == 0, "pairings must be integers"
        new_row.append(r)
    rows = ((2, *new_row),) + tuple((-a_theta[j], *A.rows[j]) for j in range(n))
    out = GeneralizedCartanMatrix._trusted(rows)
    assert is_indecomposable(out), "affine extension must stay connected"
    assert kind_of_rows(out.rows) == AFFINE, "affine extension must be affine"
    return out


def overextend_affine(
    A: GeneralizedCartanMatrix, zero_vertex: int = 1
) -> GeneralizedCartanMatrix:
    """Attach a new vertex by a single edge to ``zero_vertex`` of an affine GCM.

    The new vertex is prepended at index 1, shifting existing vertices up, so
    chaining with :func:`extend_finite_to_affine` (whose added vertex lands at
    index 1, the default ``zero_vertex``) hangs the chain off the affine
    vertex.  The caller decides what to make of the result's type; nothing
    about it is assumed here.

    The output is valid by construction and is not checked again: it borders
    the validated ``A`` with one ``(-1, -1)`` pair and zeros, and a 2 on the
    new diagonal.
    """
    if not is_indecomposable(A):
        raise WrongTypeError("overextension requires an indecomposable matrix")
    if kind_of_rows(A.rows) != AFFINE:
        raise WrongTypeError("overextension requires an affine matrix")
    A._check_vertex(zero_vertex)
    edge = [0] * A.rank  # the new vertex's row and column against the old vertices
    edge[zero_vertex - 1] = -1
    rows = ((2, *edge),) + tuple((e, *r) for e, r in zip(edge, A.rows))
    return GeneralizedCartanMatrix._trusted(rows)


# == verification harness ==


class PropertyCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


class CatalogReport(NamedTuple):
    checks: tuple[PropertyCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format_lines(self) -> list[str]:
        return [
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in self.checks
        ]


def _edge_products(rows: tuple[tuple[int, ...], ...]) -> list[int]:
    return [rows[i][j] * rows[j][i] for i, j in combinations(range(len(rows)), 2) if rows[i][j]]


def _offending(ids: list[str]) -> list[str]:
    """The one report line naming offending entries, or none."""
    if not ids:
        return []
    shown = ", ".join(map(clip, ids[:8])) + (", ..." if len(ids) > 8 else "")
    return [f"offending entries: {shown}"]


def _loadable(e: CatalogEntry) -> bool:
    """Whether ``e`` passes the loader's schema checks, as every entry read from a file does."""
    try:
        _entry_from_obj(_entry_to_obj(e), 0)
    except CatalogFormatError:
        return False
    return True


def verify_catalog(entries: tuple[CatalogEntry, ...]) -> CatalogReport:
    """Recheck the structural claims the catalog makes about itself.

    Expects the full output of :func:`enumerate_hyperbolic` over ranks 3..10;
    the checks that quantify over the whole catalog (compactness profile,
    root-length bound, orbit bounds) are meaningless on partial input and may
    then fail.  The last check, ``headline-counts``, compares the per-rank
    class and symmetrizable counts with the paper's and requires the ids of
    each rank to run ``<rank>-001`` upwards without gaps, so a catalog with
    classes missing or renumbered fails it.

    Each check is one row of a table: its name, its scope, its test and its
    pass detail, and one runner turns every row into a :class:`PropertyCheck`.
    The scope is one of three:

    * every loadable entry, each tested on its own;
    * the walkable entries, those of rank ``MIN_RANK..MAX_RANK``, each tested
      on its own, with the out-of-range ids listed as offending first.  An
      entry outside the range is never walked (``2^rank`` work, a root walk,
      or the ``O(rank^4)`` characteristic polynomial) nor canonically
      labelled;
    * the whole catalog, whose test returns the failure lines.

    An entry the file loader would reject (say one built with
    ``CatalogEntry._replace``) is listed under ``well-formed``, ahead of the
    out-of-range ids, and is in no check's scope.  ``well-formed`` also lists
    every entry whose matrix repeats another entry's, so a class stored twice
    under two ids fails, and every later entry that repeats an id.

    The ``lorentzian`` check rests on Kac, *Infinite-dimensional Lie
    algebras*, 3rd ed., Ch. 5, on the hyperbolic type (Sec. 5.10): for a
    symmetrizable GCM of hyperbolic type the invariant form on the root
    lattice is nondegenerate of Lorentzian signature ``(n - 1, 1)``.  So on a
    symmetrizable entry :func:`bilinear_form` has inertia ``(n - 1, 1, 0)`` and
    ``det A < 0``.

    ``det A < 0`` holds for every hyperbolic GCM of rank ``n >= 3``,
    symmetrizable or not.  Every connected subdiagram on at most ``n - 2``
    vertices is finite (the corank lemma in :mod:`dynkin.enumeration`), so a
    disconnected deletion ``A - v`` is componentwise finite, and a connected
    one is finite or affine.

    * Some deletion ``A - v`` is componentwise finite.  List ``v`` last.  Each
      leading block of ``A - v`` is componentwise finite, so every leading
      minor of ``A`` below order ``n`` is positive, and by the M-matrix
      argument in :mod:`dynkin.classify` ``det A > 0`` would make ``A`` finite
      and ``det A = 0`` affine.  ``A`` is indefinite, so ``det A < 0``.
    * Every deletion is affine.  Take ``u != v`` and ``F = A - {u, v}``, a
      proper subdiagram of the affine ``A - v`` and so componentwise finite:
      ``det F > 0``, and ``F^-1 >= 0`` is positive on each component's block.
      The Schur complement ``S`` of ``F`` in ``A`` is 2 by 2 with
      ``det A = det F * det S``.  Its diagonal is 0, since
      ``S_uu = det(A - v) / det F = 0`` and likewise ``S_vv``.  Off the
      diagonal ``S_uv = a_uv - a_u F^-1 a_v <= a_uv <= 0``, where ``a_u`` is
      row ``u`` and ``a_v`` column ``v`` restricted to ``F``, both ``<= 0``;
      likewise ``S_vu <= 0``.  So ``det A = -det F * S_uv * S_vu <= 0``.
      ``S_uv = 0`` would need ``a_uv = 0`` and no component of ``F`` adjacent
      to both ``u`` and ``v``, and then no path joins ``u`` to ``v``: ``A``
      would be disconnected.  The same holds for ``S_vu``, so ``det A < 0``.

    The check still computes ``det A`` on every entry.
    """
    by_id = {e.canonical_id: e for e in entries}
    loadable = [_loadable(e) for e in entries]
    unloadable = [e.canonical_id for e, ok in zip(entries, loadable) if not ok]
    entries = tuple(e for e, ok in zip(entries, loadable) if ok)  # what the other checks test
    out_of_range = [e.canonical_id for e in entries if not MIN_RANK <= e.rank <= MAX_RANK]
    walkable = [e for e in entries if MIN_RANK <= e.rank <= MAX_RANK]
    first_with_id = {e.canonical_id: e for e in reversed(walkable)}
    row_counts = Counter(e.matrix.rows for e in walkable)
    compact = [e for e in entries if e.compact]
    sym_entries = [e for e in entries if e.symmetrizable]
    by_rank = {r: [e for e in entries if e.rank == r] for r in range(MIN_RANK, MAX_RANK + 1)}
    split = [  # entries with two equal weights in two orbits
        e.canonical_id
        for e in sym_entries
        if len({(d, min(e.orbit_blocks.block_of(v + 1))) for v, d in enumerate(e.symmetrizer)})
        > len(set(e.symmetrizer))
    ]

    def ill_formed(e: CatalogEntry) -> bool:
        rows = e.matrix.rows
        return (
            first_with_id[e.canonical_id] is not e
            or row_counts[rows] != 1
            or not e.canonical_id.startswith(f"{e.rank}-")
            or canonical_rows(rows)[0] != rows
            or e.orbit_semantics != semantics_for(e.symmetrizable)
        )

    def symmetrizer_wrong(e: CatalogEntry) -> bool:
        sym, _ = is_symmetrizable(e.matrix)
        d, rows = e.symmetrizer, e.matrix.rows
        return sym != e.symmetrizable or sym and (
            any(d[i] * rows[i][j] != d[j] * rows[j][i] for i, j in combinations(range(e.rank), 2))
            or e.root_lengths != len(set(d))
        )

    def not_lorentzian(e: CatalogEntry) -> bool:
        A = e.matrix
        lorentzian = not is_symmetrizable(A)[0] or inertia(bilinear_form(A)) == (e.rank - 1, 1, 0)
        return not lorentzian or det_int(A.rows) >= 0

    def dual_wrong(e: CatalogEntry) -> bool:
        mate = by_id.get(e.dual_id)
        transpose_canon = canonical_rows(tuple(zip(*e.matrix.rows)))[0]
        return mate is None or mate.matrix.rows != transpose_canon or mate.dual_id != e.canonical_id

    def affine_sizes(e: CatalogEntry) -> Iterator[int]:
        """The vertex count of each proper connected affine subdiagram of ``e``, lazily."""
        kinds = subdiagram_kinds(e.matrix.rows)
        return (mask.bit_count() for mask, kind in kinds if kind == AFFINE)

    def all_cut(e: CatalogEntry) -> bool:
        return next(connected_deletions(adjacency_bitmasks(e.matrix.rows)), None) is None

    def orbits_wrong(e: CatalogEntry) -> bool:
        stored = e.orbit_blocks == orbit_partition(e.matrix)
        return not stored or not orbit_partitions_agree(e.matrix)

    def compact_profile() -> list[str]:
        if not compact:
            return ["no compact entries present"]
        failures = [] if max(e.rank for e in compact) == 5 else ["max compact rank is not 5"]
        rank5 = [e for e in compact if e.rank == 5]
        if len(rank5) != 1:
            failures.append(f"{len(rank5)} compact entries of rank 5")
        else:
            rows, ident = rank5[0].matrix.rows, clip(rank5[0].canonical_id)
            degrees = [a.bit_count() for a in adjacency_bitmasks(rows)]
            if degrees != [2] * 5 or sorted(_edge_products(rows)) != [1, 1, 1, 1, 2]:
                failures.append(f"{ident} is not a cycle with a unique double arrow")
            if rank5[0].symmetrizable:
                failures.append(f"{ident} unexpectedly symmetrizable")
        sym_ranks = [e.rank for e in compact if e.symmetrizable]
        if sym_ranks and max(sym_ranks) != 4:
            failures.append("max symmetrizable compact rank is not 4")
        return failures

    def root_length_bound() -> list[str]:
        bad = [e.canonical_id for e in sym_entries if e.root_lengths > 4]
        four = [e.canonical_id for e in sym_entries if e.root_lengths == 4]
        return _offending(bad or ([] if len(four) == 1 else four or ["<none reaches 4>"]))

    def orbit_block_bound() -> list[str]:
        most = max((e.orbit_blocks.block_count for e in entries), default=0)
        failures = ["an entry exceeds 4 orbit blocks"] if most > 4 else []
        return failures + ([] if most == 4 else ["no entry reaches 4 orbit blocks"])

    def equal_norm_split() -> list[str]:
        if split:
            return []
        return ["no symmetrizable entry separates equal-norm simple roots into distinct orbits"]

    def headline_counts() -> list[str]:
        totals = tuple(map(len, by_rank.values()))
        sym = tuple(sum(e.symmetrizable for e in es) for es in by_rank.values())
        failures = []
        if totals != HEADLINE_CLASSES:
            failures.append(f"classes {_slashed(totals)}, paper {_slashed(HEADLINE_CLASSES)}")
        if sym != HEADLINE_SYMMETRIZABLE:
            failures.append(
                f"symmetrizable {_slashed(sym)}, paper {_slashed(HEADLINE_SYMMETRIZABLE)}"
            )
        misnumbered = [
            str(r)
            for r, es in by_rank.items()
            if sorted(e.canonical_id for e in es) != [_entry_id(r, k + 1) for k in range(len(es))]
        ]
        if misnumbered:
            failures.append(f"ids are not <rank>-001..N in rank {', '.join(misnumbered)}")
        return failures

    each, walk = ([], entries), (out_of_range, walkable)  # (ids listed first, entries tested)
    table = (  # name, scope (None: the whole catalog), test, pass detail
        ("rank-bound", each, lambda e: not MIN_RANK <= e.rank <= MAX_RANK,
         f"all ranks within {MIN_RANK}..{MAX_RANK}"),
        ("well-formed", (unloadable + out_of_range, walkable), ill_formed,
         "ids unique, matrices canonical, flags consistent"),
        ("hyperbolic", walk, lambda e: hyperbolic_compact_scan(e.matrix.rows) != (True, e.compact),
         "every entry hyperbolic, compact flags agree with the subset scan"),
        ("symmetrizer", each, symmetrizer_wrong,
         "flags match recomputation; stored weights symmetrize exactly"),
        ("lorentzian", walk, not_lorentzian,
         "symmetrized forms have signature (n-1, 1); det A < 0 on every entry"),
        ("duality", walk, dual_wrong,
         "transpose classes present, dual pairing is an involution"),
        ("affine-subdiagram-corank", walk, lambda e: any(n != e.rank - 1 for n in affine_sizes(e)),
         "every proper connected affine subdiagram has exactly rank-1 vertices"),
        ("corank1-connected", each, all_cut,
         "every entry keeps a connected subdiagram on rank-1 vertices"),
        ("product4-edges", each,
         lambda e: e.symmetrizable
         and (4 in _edge_products(e.matrix.rows)) != (e.rank == 3 and not e.compact),
         "symmetrizable entries carry a product-4 edge exactly in rank 3 non-compact"),
        ("rank3-affine-edge", each,
         lambda e: e.rank == 3 and e.symmetrizable and e.compact == (2 in affine_sizes(e)),
         "rank-3 symmetrizable entries: non-compact iff an edge subdiagram is affine"),
        ("max-edge-product", each,
         lambda e: e.symmetrizable
         and e.rank >= 4
         and any(p > 3 for p in _edge_products(e.matrix.rows)),
         "symmetrizable entries of rank >= 4 keep edge products <= 3"),
        ("compact-profile", None, compact_profile,
         "compactness stops at rank 5, symmetrizable compactness at rank 4"),
        ("ranks-7-10-symmetrizable", each, lambda e: e.rank >= 7 and not e.symmetrizable,
         "every entry of rank 7..10 is symmetrizable"),
        ("root-length-bound", None, root_length_bound,
         "root-length counts stay at <= 4 with exactly one entry reaching 4"),
        ("orbit-block-bound", None, orbit_block_bound,
         "orbit block counts stay at <= 4 and attain 4"),
        ("equal-norm-orbit-split", None, equal_norm_split,
         f"witness: {clip(split[0])}" if split else ""),
        ("orbit-oracle", walk, orbits_wrong,
         "stored orbit blocks rechecked; reflection-walk orbits agree with the skeleton "
         "partition"),
        ("headline-counts", None, headline_counts,
         f"ranks {MIN_RANK}..{MAX_RANK}: {_slashed(HEADLINE_CLASSES)} classes, "
         f"{_slashed(HEADLINE_SYMMETRIZABLE)} symmetrizable, ids <rank>-001..N"),
    )
    checks = []
    for name, scope, test, detail in table:
        if scope is None:
            failures = test()
        else:
            listed, tested = scope
            failures = _offending(listed + [e.canonical_id for e in tested if test(e)])
        checks.append(PropertyCheck(name, not failures, "; ".join(failures) or detail))
    return CatalogReport(tuple(checks))


def _slashed(counts: tuple[int, ...]) -> str:
    return "/".join(map(str, counts))


# == file format ==


#: Entry fields, in the order of the TSV columns; the JSON lines sort them.
_ENTRY_KEYS = (
    "id",
    "rank",
    "matrix",
    "compact",
    "symmetrizable",
    "symmetrizer",
    "root_lengths",
    "orbit_blocks",
    "orbit_semantics",
    "dual_id",
)


def _entry_to_obj(e: CatalogEntry) -> dict:
    values = (
        e.canonical_id,
        e.rank,
        [list(r) for r in e.matrix.rows],
        e.compact,
        e.symmetrizable,
        list(e.symmetrizer) if e.symmetrizer is not None else None,
        e.root_lengths,
        [sorted(b) for b in e.orbit_blocks.blocks],
        e.orbit_semantics,
        e.dual_id,
    )
    return dict(zip(_ENTRY_KEYS, values))


def _entry_from_obj(obj: dict, lineno: int) -> CatalogEntry:
    if not isinstance(obj, dict) or set(obj) != set(_ENTRY_KEYS):
        raise CatalogFormatError(f"line {lineno}: unexpected entry fields")
    ident, rank, rows, compact, sym, d, rho, blocks, semantics, dual = map(obj.get, _ENTRY_KEYS)
    try:
        matrix = validate_gcm(rows)
    except DynkinError as exc:
        raise CatalogFormatError(f"line {lineno}: bad matrix: {exc}") from None
    if not _is_int(rank) or rank != matrix.rank:
        raise CatalogFormatError(f"line {lineno}: rank field does not match the matrix")
    if not isinstance(sym, bool):
        raise CatalogFormatError(f"line {lineno}: symmetrizable must be a boolean")
    if not isinstance(compact, bool):
        raise CatalogFormatError(f"line {lineno}: compact must be a boolean")
    if sym:
        if (
            not isinstance(d, list)
            or len(d) != rank
            or not all(_is_int(v) and v > 0 for v in d)
            or not _is_int(rho)
        ):
            raise CatalogFormatError(f"line {lineno}: bad symmetrizer for a symmetrizable entry")
    elif d is not None or rho is not None:
        raise CatalogFormatError(
            f"line {lineno}: non-symmetrizable entry must have null symmetrizer fields"
        )
    if (
        not isinstance(blocks, list)
        or not all(isinstance(b, list) and b and all(map(_is_int, b)) for b in blocks)
        or sorted(v for b in blocks for v in b) != list(range(1, rank + 1))
    ):
        raise CatalogFormatError(f"line {lineno}: orbit blocks must partition 1..rank")
    if semantics not in (VERIFIED, UNVERIFIED):
        raise CatalogFormatError(f"line {lineno}: bad orbit_semantics {clip(repr(semantics))}")
    if not isinstance(ident, str) or not isinstance(dual, str):
        raise CatalogFormatError(f"line {lineno}: ids must be strings")
    return CatalogEntry(
        canonical_id=ident,
        rank=rank,
        matrix=matrix,
        compact=compact,
        symmetrizable=sym,
        symmetrizer=tuple(d) if d is not None else None,
        root_lengths=rho,
        orbit_blocks=OrbitPartition(tuple(frozenset(b) for b in blocks)),
        orbit_semantics=semantics,
        dual_id=dual,
    )


def catalog_to_lines(entries: tuple[CatalogEntry, ...]) -> str:
    """Serialize to the line-delimited JSON format (byte-deterministic)."""
    header = {"format": CATALOG_FORMAT, "indexing": "vertices and orbit blocks are 1-based"}
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines.extend(
        json.dumps(_entry_to_obj(e), sort_keys=True, separators=(",", ":")) for e in entries
    )
    return "\n".join(lines) + "\n"


def catalog_from_lines(text: str) -> tuple[CatalogEntry, ...]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CatalogFormatError("empty catalog file")
    header = load_json(lines[0], CatalogFormatError, "line 1: ")
    if not isinstance(header, dict) or header.get("format") != CATALOG_FORMAT:
        raise CatalogFormatError(f"unsupported catalog format; expected {CATALOG_FORMAT!r}")
    entries = []
    ids: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        entry = _entry_from_obj(load_json(line, CatalogFormatError, f"line {lineno}: "), lineno)
        if entry.canonical_id in ids:
            raise CatalogFormatError(f"line {lineno}: duplicate id {clip(entry.canonical_id)}")
        ids.add(entry.canonical_id)
        entries.append(entry)
    return tuple(entries)


def write_catalog(entries: tuple[CatalogEntry, ...], path: str | Path) -> None:
    Path(path).write_text(catalog_to_lines(entries), encoding="utf-8")


def read_catalog(path: str | Path) -> tuple[CatalogEntry, ...]:
    return catalog_from_lines(Path(path).read_text(encoding="utf-8"))


# == table emitters ==


def _tsv_cell(value: object) -> str:
    """One field of :func:`_entry_to_obj` as a TSV cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        if not isinstance(value[0], list):  # the symmetrizer, the only flat list
            return ",".join(map(str, value))
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def catalog_to_tsv(entries: tuple[CatalogEntry, ...]) -> str:
    """Tab-separated table, one entry per row; empty cells where not applicable."""
    out = ["\t".join(_ENTRY_KEYS)]
    for e in entries:
        out.append("\t".join(map(_tsv_cell, _entry_to_obj(e).values())))
    return "\n".join(out) + "\n"


def catalog_to_latex(entries: tuple[CatalogEntry, ...]) -> str:
    """LaTeX table: index, matrix, symmetrizer (or N.S.), orbit blocks.

    The orbit column is left blank for non-symmetrizable entries, whose
    symmetrizer column reads N.S.
    """
    out = [
        r"\begin{tabular}{llll}",
        r"index & matrix & symmetrizer & orbits \\",
        r"\hline",
    ]
    for e in entries:
        body = r" \\ ".join(" & ".join(str(v) for v in row) for row in e.matrix.rows)
        matrix = r"$\left(\begin{smallmatrix} " + body + r" \end{smallmatrix}\right)$"
        if e.symmetrizable:
            assert e.symmetrizer is not None
            sym = r"$\mathrm{diag}(" + ",".join(map(str, e.symmetrizer)) + r")$"
            orbits = "$" + "".join(
                r"\{" + ",".join(map(str, sorted(b))) + r"\}" for b in e.orbit_blocks.blocks
            ) + "$"
        else:
            sym = "N.S."
            orbits = ""
        out.append(f"{e.canonical_id} & {matrix} & {sym} & {orbits} \\\\")
    out.append(r"\end{tabular}")
    return "\n".join(out) + "\n"
