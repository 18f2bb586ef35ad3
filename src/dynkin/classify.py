"""Cartan type classification: finite, affine, indefinite, hyperbolic.

An indecomposable GCM ``A`` is of exactly one type (Kac, *Infinite-dimensional
Lie algebras*, Thm. 4.3): finite if ``A u > 0`` for some ``u > 0``, affine if
``A u = 0`` for some ``u > 0``, and indefinite otherwise.

:func:`kind_of_rows` decides the type of a connected GCM directly, exactly
over the integers, by the M-matrix argument, the same at every rank:

* a GCM is a Z-matrix: its off-diagonal entries are at most 0;
* a Z-matrix whose leading principal minors are all positive is a
  nonsingular M-matrix (Fiedler and Ptak, 1962), so ``A u > 0`` for some
  ``u > 0`` and ``A`` is finite (Thm. 4.3 (Fin));
* if the leading minors of orders ``1 .. n-1`` are positive and the
  determinant is 0, ``A`` is a singular irreducible M-matrix: the leading
  block ``M`` has ``M^-1 >= 0``, so with ``b <= 0`` the last column above
  the diagonal, ``(-M^-1 b, 1)`` is a non-negative null vector, positive
  because ``A`` is connected, and ``A`` is affine (Thm. 4.3 (Aff));
* any other sign pattern is indefinite: every proper subdiagram of a
  connected finite or affine diagram is finite (Kac, Lemma 4.4), so all its
  proper leading minors are positive, and its determinant is positive
  (finite) or 0 (affine).

Rank 1 and rank 2 are cases of the same argument: the only leading minor of
rank 1 is 2, and rank 2 with edge product ``p * q`` has minors 2 and
``4 - p * q``, so it is finite below 4, affine at 4 and indefinite above.

The leading minors are the pivots of fraction-free Bareiss elimination without
pivoting (Bareiss 1968), so one elimination decides the type, with no floating
point and no rational arithmetic.  Write ``D_k`` for the leading minor of order
``k`` (``D_0 = 1``).  After ``s`` steps row ``r`` holds the bordered minors
``det A[{0..s-1, r}, {0..s-1, c}]``, and step ``t`` maps an entry ``x`` of it
to ``(x * D_{t+1} - y * P[c]) / D_t``, with ``y`` the row's entry in the pivot
column and ``P`` the pivot row.  When ``y = 0`` that is a rescaling by
``D_{t+1} / D_t``, so the elimination leaves the row as it is: a row last
updated after step ``s`` holds, at step ``t``, its stored value times
``D_t / D_s``.  The product divides exactly: it is a bordered minor, an
integer, and ``D_s > 0``.  The row is brought up to date only when a step
needs it: when it becomes the pivot row, or when its entry in the pivot column
is nonzero, and then the update divides by ``D_s`` instead of ``D_t``.  A
step thus costs ``O(n)`` per row with a nonzero in the pivot column rather
than per remaining row.  On a tree ordered so that every vertex has at most
one later neighbour (a path in order, or leaves first and the hub last) each
step touches one row and the elimination costs ``O(n^2)`` instead of
``O(n^3)``; other orders pay only for the fill-in they create.  The
independent definitional recursion
(determinant sign plus every one-vertex deletion componentwise finite) lives
with the oracle routes in :mod:`dynkin.oracles`, and the test suite compares
the two.

Hyperbolicity is a second layer on top: an indecomposable ``A`` of indefinite
type is hyperbolic when every proper connected induced subdiagram is of finite
or affine type, and compact hyperbolic when every proper connected induced
subdiagram is of finite type.  A connected subdiagram on at most ``n - 2``
vertices lies inside a connected one on ``n - 1`` vertices, and proper
subdiagrams of finite or affine diagrams are finite (Kac, Lemma 4.4), so the
connected subdiagrams on ``n - 1`` vertices decide both flags.  The public API
checks only those (:func:`hyperbolic_fast_flags`).  :func:`subdiagram_kinds`
is the one ``2^n`` walk that classifies every proper connected subdiagram;
:func:`hyperbolic_compact_scan` (the definition, kept as the reference) and
the catalog verifier read it.

:func:`kind_of_rows` memoizes kinds for the life of the process.  The memo is
bounded in matrix cells, ``KIND_CACHE_CELLS``, and starts over when a new key
would pass the bound.  Keys of rank at most ``SHARED_ROWS_RANK`` (11, the
largest rank the search stores) share rows: each holds the first stored copy
of every row value, through a table that empties together with the memo.  The
search's submatrices repeat rows heavily, so after the catalog run (ranks
3..11) the memo's 2,000 keys hold 1,001 row tuples instead of 12,481 and take
0.39 MB instead of 1.47 MB.  Larger keys keep their own rows, since there the
table would be pure cost: sharing the rows of every key, classifying 1,500
seeded random GCMs of rank 20 in one process peaks at 29.9 MB instead of
26.5 MB.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import Iterator, NamedTuple

from .errors import DecomposableError, RankBoundError
from .gcm import (
    GeneralizedCartanMatrix,
    _check_range,
    adjacency_bitmasks,
    connected_deletions,
    is_indecomposable,
    mask_components,
    mask_indices,
    mask_vertices,
    proper_connected_masks,
)

__all__ = [
    "FINITE",
    "AFFINE",
    "INDEFINITE",
    "CartanType",
    "ComponentType",
    "principal_minors",
    "classify_indecomposable",
    "classify",
]

FINITE = "finite"
AFFINE = "affine"
INDEFINITE = "indefinite"

MINOR_RANK_LIMIT = 12
KIND_CACHE_CELLS = 1 << 22  # ranks 3..11 memoize 2,000 kinds in 90,157 cells
SHARED_ROWS_RANK = 11  # keys up to this rank share rows; the search stores none larger


# == exact integer determinants ==


def det_int(rows: tuple[tuple[int, ...], ...]) -> int:
    """Exact determinant of an integer matrix, at every size.

    One fraction-free Bareiss elimination, swapping in a later row when a
    pivot is 0; its interior divisions are exact by construction.

    It shares no code with :func:`_leading_minor_kind`, the search's kernel.
    The oracle routes in :mod:`dynkin.oracles` decide kinds through this
    function and the tests check the kernel against it, so a fault in the
    kernel cannot also sit in its checks.  The two need different things
    anyway: this one pivots to reach every determinant, the kernel never
    swaps rows and stops at the first non-positive pivot.
    """
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        mk = m[k]
        for r in range(k + 1, n):
            mr = m[r]
            mrk = mr[k]
            for c in range(k + 1, n):
                mr[c] = (mr[c] * pivot - mrk * mk[c]) // prev
            mr[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def sub_rows(rows: tuple[tuple[int, ...], ...], mask: int) -> tuple[tuple[int, ...], ...]:
    """Submatrix on the 0-based index bitmask ``mask``."""
    idx = mask_indices(mask)
    if len(idx) < 2:  # itemgetter needs an index, and returns a bare item for one
        return tuple((rows[i][i],) for i in idx)
    pick = itemgetter(*idx)
    return tuple(map(pick, pick(rows)))


# == kind of raw row tuples (internal engine, shared with enumeration) ==

_KIND_CACHE: dict[tuple[tuple[int, ...], ...], str] = {}
_kind_cache_cells = 0  # matrix cells held by the keys of _KIND_CACHE
_KIND_ROWS: dict[tuple[int, ...], tuple[int, ...]] = {}  # row value -> the one copy keys hold


def kind_of_rows(rows: tuple[tuple[int, ...], ...]) -> str:
    """Cartan kind of a *connected* GCM given as raw row tuples.

    The signs of the leading principal minors decide, at every rank (the
    M-matrix argument in the module docstring).  The premise is that ``rows``
    is connected; symmetrizability is not needed.

    Memoized across calls, since the enumeration classifies the same small
    submatrices over and over.  The memo is bounded by the cells of its keys,
    not their count: it starts over when a new key would take it past
    ``KIND_CACHE_CELLS``.  A stored key of rank at most ``SHARED_ROWS_RANK``
    holds the first stored copy of each of its rows, found through a table
    from row value to row that empties together with the memo; lookups use
    the caller's ``rows`` as they are.  After the catalog run the 2,000 keys
    hold 12,481 rows but only 1,001 distinct ones, and the memo takes 0.39 MB
    instead of 1.47 MB (``tracemalloc``).  Larger keys are stored as they
    come: their rows rarely repeat across keys, so the table would cost one
    dict slot per distinct stored row and hash every row of a miss once more.
    """
    global _kind_cache_cells
    cached = _KIND_CACHE.get(rows)
    if cached is not None:
        return cached
    kind = _leading_minor_kind(rows)
    cells = len(rows) ** 2
    if _kind_cache_cells + cells > KIND_CACHE_CELLS:
        _KIND_CACHE.clear()
        _KIND_ROWS.clear()
        _kind_cache_cells = 0
    if len(rows) <= SHARED_ROWS_RANK:
        rows = tuple(map(_KIND_ROWS.setdefault, rows, rows))
    _KIND_CACHE[rows] = kind
    _kind_cache_cells += cells
    return kind


def _leading_minor_kind(rows: tuple[tuple[int, ...], ...]) -> str:
    """Kind of a connected GCM from the signs of its leading principal minors.

    Bareiss elimination without pivoting: the k-th pivot is the k-th leading
    principal minor, and the last one is the determinant.  A row whose entry
    in the pivot column is 0 is left as it stands, tagged with the step it was
    last brought up to date, and rescaled by ``D_t / D_s`` only when a later
    step needs it (module docstring).

    It shares no code with :func:`det_int`: the oracle routes and the tests
    check this kernel against :func:`det_int`, and a fault the two shared
    would pass both checks.
    """
    n = len(rows)
    m: list[tuple[int, ...] | list[int]] = list(rows)  # row r holds columns step[r] .. n-1
    step = [0] * n  # row r holds its values after step[r] elimination steps
    dets = [1]  # dets[k] is the leading principal minor of order k
    for t in range(n):
        top, s = m[t], step[t]
        pivot = top[t - s] * dets[t] // dets[s]
        if pivot <= 0 or t == n - 1:
            break
        dets.append(pivot)
        tail = None
        for r in range(t + 1, n):
            row, sr = m[r], step[r]
            y = row[t - sr]
            if y:
                if tail is None:
                    tail = top[t + 1 - s :]
                    if s < t:
                        tail = [z * dets[t] // dets[s] for z in tail]
                ds = dets[sr]
                m[r] = [(x * pivot - y * p) // ds for x, p in zip(row[t + 1 - sr :], tail)]
                step[r] = t + 1
    return FINITE if pivot > 0 else AFFINE if pivot == 0 and t == n - 1 else INDEFINITE


def hyperbolic_fast_flags(rows: tuple[tuple[int, ...], ...]) -> tuple[bool, bool]:
    """(hyperbolic, compact) flags of connected ``rows`` via corank-1 subdiagrams.

    Equivalent to :func:`hyperbolic_compact_scan` (see the module docstring).
    Reads the subdiagrams that :func:`dynkin.gcm.connected_deletions` yields,
    in vertex order, and stops at the first indefinite one.
    """
    full = (1 << len(rows)) - 1
    compact = True
    for v in connected_deletions(adjacency_bitmasks(rows)):
        kind = kind_of_rows(sub_rows(rows, full ^ (1 << v)))
        if kind == INDEFINITE:
            return False, False
        if kind == AFFINE:
            compact = False
    if kind_of_rows(rows) != INDEFINITE:
        return False, False
    return True, compact


def subdiagram_kinds(rows: tuple[tuple[int, ...], ...]) -> Iterator[tuple[int, str]]:
    """(mask, kind) of each proper connected subdiagram of ``rows`` (``2^n`` work).

    In the walker's order, ascending by mask.
    """
    for mask in proper_connected_masks(adjacency_bitmasks(rows)):
        yield mask, kind_of_rows(sub_rows(rows, mask))


def hyperbolic_compact_scan(rows: tuple[tuple[int, ...], ...]) -> tuple[bool, bool]:
    """(hyperbolic, compact) flags of connected ``rows`` by full subset scan.

    Checks the kind of every proper connected induced subdiagram, which is the
    definition itself with no shortcuts; exponential in the rank.
    """
    if kind_of_rows(rows) != INDEFINITE:
        return False, False
    compact = True
    for _, kind in subdiagram_kinds(rows):
        if kind == INDEFINITE:
            return False, False
        if kind == AFFINE:
            compact = False
    return True, compact


# == public classification API ==


class CartanType(NamedTuple):
    """Type record of an indecomposable GCM."""

    kind: str
    hyperbolic: bool
    compact_hyperbolic: bool


class ComponentType(NamedTuple):
    """Type record of one connected component, with its 1-based vertex set."""

    vertices: frozenset[int]
    type: CartanType


def principal_minors(A: GeneralizedCartanMatrix) -> dict[frozenset[int], int]:
    """All principal minors of ``A``, keyed by 1-based index set.

    Restricted to rank <= 12 to keep the subset walk explicit and bounded.
    Every minor is exact, so long entries make every step a long product:
    a path with one 5,000-digit entry takes about 0.5 s at rank 10 and 2 s
    at rank 12 (CPython 3.11, one core of an Intel Xeon host).

    A walk over ascending index prefixes ``P`` carries the
    bordered minors ``M[a][b] = det A[P+a, P+b]`` over the indices after
    ``P``, so ``det A[P+a] = M[a][a]``.  Sylvester's identity gives the
    child's table exactly,
    ``det A[P+a+b, P+a+c] = (M[a][a]*M[b][c] - M[b][a]*M[a][c]) / det A[P]``.
    Below a zero minor ``det A[P+a]`` that division is unavailable; each set
    ``P+T`` with ``a`` in ``T`` then comes from its own elimination of a block
    of ``M``, by the general form
    ``det A[P+T] * det A[P]^(|T|-1) = det M[T, T]``.
    """
    n = A.rank
    message = f"principal minors supported up to rank {MINOR_RANK_LIMIT}, got {{}}"
    _check_range(n, 1, MINOR_RANK_LIMIT, RankBoundError, message)
    out: dict[frozenset[int], int] = {}
    stack = [((), 1, range(n), [list(r) for r in A.rows])]  # (P, det A[P], indices after P, M)
    while stack:
        prefix, det, rest, M = stack.pop()
        for k, a in enumerate(rest):
            pivot, row_a = M[k][k], M[k]
            child = prefix + (a + 1,)
            out[frozenset(child)] = pivot
            below = range(k + 1, len(rest))
            if not below:
                continue
            if pivot != 0:
                table = [[(pivot * M[b][c] - M[b][k] * row_a[c]) // det for c in below] for b in below]
                stack.append((child, pivot, rest[k + 1 :], table))
                continue
            for size in range(1, len(below) + 1):
                for extra in combinations(below, size):
                    t = (k,) + extra
                    minor = det_int(tuple(tuple(M[b][c] for c in t) for b in t))
                    out[frozenset(child + tuple(rest[b] + 1 for b in extra))] = minor // det**size
    return out


def _type_of_rows(rows: tuple[tuple[int, ...], ...]) -> CartanType:
    """Cartan type of connected, already validated ``rows``.

    Only an indefinite matrix needs the corank-1 subdiagrams for its flags.
    """
    kind = kind_of_rows(rows)
    hyper, compact = hyperbolic_fast_flags(rows) if kind == INDEFINITE else (False, False)
    return CartanType(kind=kind, hyperbolic=hyper, compact_hyperbolic=compact)


def classify_indecomposable(A: GeneralizedCartanMatrix) -> CartanType:
    """Cartan type of an indecomposable GCM (finite / affine / indefinite)."""
    if not is_indecomposable(A):
        raise DecomposableError(
            "matrix is decomposable; classify() handles components separately"
        )
    return _type_of_rows(A.rows)


def classify(A: GeneralizedCartanMatrix) -> tuple[ComponentType, ...]:
    """Component-wise classification of an arbitrary GCM.

    One adjacency pass finds the components, lowest vertex first.  Each is
    classified on the rows ``A`` already holds: ``A.rows`` itself when ``A``
    is connected, its submatrix otherwise.  ``A`` was validated when it was
    built, so nothing is validated again and no component becomes a
    :class:`GeneralizedCartanMatrix` of its own.
    """
    rows = A.rows
    comps = mask_components((1 << len(rows)) - 1, adjacency_bitmasks(rows))
    whole = len(comps) == 1
    return tuple(
        ComponentType(mask_vertices(m), _type_of_rows(rows if whole else sub_rows(rows, m)))
        for m in comps
    )
