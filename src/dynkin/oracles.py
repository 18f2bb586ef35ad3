"""Independent oracle routes for the hyperbolic search, by definition only.

These routes re-derive :func:`dynkin.enumeration.search_rank` and
:func:`dynkin.enumeration.finite_affine_classes` without any of their
pruning, so that the two can falsify each other.  They share none of the
pruned search's rules: no corank lemma, no girth, triple, parent or orbit
rule, no ``classify.kind_of_rows`` and no corank-1 filter.  They do share the
labeller: classes are told apart by ``canonical.canonical_rows``, so a
labeller that merged or split classes would mislead both alike (ROADMAP
item 2 gives the oracle an isomorphism test of its own).  They classify with
the definitional recursion (:func:`definitional_kind`: determinant sign,
plus every one-vertex deletion componentwise finite; Kac,
*Infinite-dimensional Lie algebras*, Lemma 4.4), memoized per oracle call,
so the cross-checks test ``kind_of_rows`` as well:

* ``finite_affine_oracle(k)`` (1..10 vertices) and ``search_rank_oracle(n)``
  (ranks 3..11) grow connected diagrams one vertex at a time from the single
  vertex.  :func:`_attachments` gives the new vertex no edge or one of the
  eight labels towards each earlier vertex, and kills a branch only when a
  determined proper connected subdiagram through the new vertex is
  indefinite.  Each level keeps the leaves the recursion calls finite or
  affine and grows on from the finite ones.  At each rank checked, the
  affine classes one level down are attached to as well, and the indefinite
  leaves face the full definitional subset scan.
  ``search_ranks_oracle(lo, hi)`` walks the levels once and checks every
  rank of the range as it passes.
* ``search_rank_bruteforce`` (ranks 3..4) materializes every assignment with
  no aborts at all and filters afterwards.
* :func:`reflect` applies one simple reflection to a root by the definition,
  the reference for the root closure in :mod:`dynkin.weyl`.

Why the attachment walk misses nothing.  Every connected graph on two or more
vertices has a non-cut vertex ``v`` (an end of a longest path, or a leaf of a
spanning tree), so ``A - v`` is a connected proper subdiagram of ``A``:

* if ``A`` is connected finite or affine on ``k`` vertices, ``A - v`` is
  finite by the recursion, so ``A`` attaches one vertex to a connected finite
  class on ``k - 1`` vertices;
* if ``A`` is hyperbolic of rank ``n``, ``A - v`` is finite or affine by
  definition, so ``A`` attaches one vertex to a connected finite or affine
  class on ``n - 1`` vertices.

Every target has its proper connected subdiagrams finite or affine, so an
abort on an indefinite one never loses a target.  An edge with ``p * q > 4``
is an indefinite rank-2 diagram, so it is no target on two vertices and no
proper subdiagram of a larger one: the nine options per slot cover every
target.  Classes are compared by canonical rows, so the order the walk places
the vertices in does not matter.
"""

from __future__ import annotations

from itertools import count, islice, product
from typing import Iterator

from .canonical import canonical_rows
from .classify import AFFINE, FINITE, INDEFINITE, det_int, sub_rows
from .errors import DynkinError, RankBoundError
from .gcm import (
    GeneralizedCartanMatrix,
    _check_range,
    adjacency_bitmasks,
    mask_components,
    mask_connected,
    proper_connected_masks,
)
from .weyl import RootVector

__all__ = [
    "finite_affine_oracle",
    "search_rank_oracle",
    "search_ranks_oracle",
    "search_rank_bruteforce",
    "definitional_kind",
    "rows_fully_finite",
    "reflect",
    "ORACLE_RANK_LIMIT",
    "BRUTEFORCE_RANK_LIMIT",
]

Rows = tuple[tuple[int, ...], ...]

ORACLE_RANK_LIMIT = 11
BRUTEFORCE_RANK_LIMIT = 4

#: Edge labels (p, q) with p * q <= 4: a heavier edge is an indefinite rank-2
#: subdiagram, so no finite or affine diagram and no hyperbolic diagram of
#: rank >= 3 carries one.  Derived here from that bound rather than shared
#: with the pruned search.
_LABELS = tuple((p, q) for p in range(1, 5) for q in range(1, 5) if p * q <= 4)


# == the definitional kind ==


def _kind_uncached(rows: Rows, memo: dict[Rows, str]) -> str:
    """Cartan kind of connected ``rows`` by the definitional recursion.

    Finite iff the determinant is positive and every one-vertex deletion is
    componentwise finite; affine iff the determinant is 0 and the same holds.
    Ranks 1 and 2 need no case of their own: determinant 2 with only the empty
    deletion, and ``4 - p * q`` with finite rank-1 deletions.
    Subdiagram kinds go through ``memo``; ``rows`` itself is kept out of it,
    so a walk that calls this on each of its leaves memoizes only subdiagrams.
    """
    d = det_int(rows)
    if d < 0:
        return INDEFINITE
    full = (1 << len(rows)) - 1
    if all(rows_fully_finite(sub_rows(rows, full ^ 1 << v), memo) for v in range(len(rows))):
        return FINITE if d > 0 else AFFINE
    return INDEFINITE


def definitional_kind(rows: Rows, memo: dict[Rows, str] | None = None) -> str:
    """Cartan kind of connected ``rows`` by definition, memoized in ``memo`` (fresh if omitted)."""
    memo = {} if memo is None else memo
    kind = memo.get(rows)
    if kind is None:
        kind = memo[rows] = _kind_uncached(rows, memo)
    return kind


def rows_fully_finite(rows: Rows, memo: dict[Rows, str] | None = None) -> bool:
    """Whether every connected component of ``rows`` is of finite type, by definition."""
    memo = {} if memo is None else memo
    comps = mask_components((1 << len(rows)) - 1, adjacency_bitmasks(rows))
    return all(definitional_kind(sub_rows(rows, comp), memo) == FINITE for comp in comps)


def _hyperbolic_by_definition(rows: Rows, memo: dict[Rows, str]) -> bool:
    """Full scan over every proper connected subdiagram; no shortcuts."""
    return _kind_uncached(rows, memo) == INDEFINITE and _proper_not_indefinite(rows, memo)


def _proper_not_indefinite(rows: Rows, memo: dict[Rows, str]) -> bool:
    """Whether every proper connected subdiagram of ``rows`` is finite or affine, by definition."""
    return all(
        definitional_kind(sub_rows(rows, mask), memo) != INDEFINITE
        for mask in proper_connected_masks(adjacency_bitmasks(rows))
    )


# == the oracle searches ==


def _attachments(base: Rows, memo: dict[Rows, str]) -> Iterator[Rows]:
    """Connected extensions of connected ``base`` by one last vertex, aborts applied.

    The new vertex's slots are filled in order, each with no edge or one of
    ``_LABELS``.  After slot ``i`` every connected proper subdiagram on
    ``{0..i}`` plus the new vertex that contains both is determined, and the
    branch dies if one is indefinite; nothing else is pruned.  The full matrix
    is left to the caller.
    """
    k = len(base)
    full = (2 << k) - 1
    base_adj = adjacency_bitmasks(base)
    up, down = [0] * k, [0] * k  # the new column above the diagonal, the new row left of it

    def rec(i: int) -> Iterator[Rows]:
        top = 1 << i | 1 << k
        for p, q in ((0, 0),) + _LABELS:
            up[i], down[i] = -p, -q
            rows = tuple(r + (u,) for r, u in zip(base, up)) + (tuple(down) + (2,),)
            adj = [a | bool(d) << k for a, d in zip(base_adj, down)]
            adj.append(sum(bool(d) << j for j, d in enumerate(down)))
            if not any(
                definitional_kind(sub_rows(rows, sub | top), memo) == INDEFINITE
                for sub in range(1 << i)
                if sub | top != full and mask_connected(sub | top, adj)
            ):
                if i + 1 < k:
                    yield from rec(i + 1)
                elif any(down):
                    yield rows
        up[i] = down[i] = 0

    return rec(0)


def _levels(check_from: int) -> Iterator[tuple[set[Rows], set[Rows], set[Rows]]]:
    """Canonical finite, affine and hyperbolic classes on ``k = 1, 2, ...`` vertices.

    Level ``k + 1`` is one pass of :func:`_attachments` over the classes of
    level ``k``: its finite and affine leaves make the next level, and its
    indefinite leaves whose proper connected subdiagrams are all finite or
    affine are the hyperbolic classes.  Hyperbolic classes are collected from
    ``check_from`` vertices on, and only there are the affine classes
    attached to as well; an affine base has only finite proper subdiagrams
    (Kac, Lemma 4.4), so it never gives a finite or affine leaf.  One memo
    serves the whole walk and lives as long as it does.
    """
    memo: dict[Rows, str] = {}
    fins: set[Rows] = {((2,),)}
    affs: set[Rows] = set()
    hyps: set[Rows] = set()
    for k in count(2):
        yield fins, affs, hyps
        check = k >= check_from
        kinds = {
            r: _kind_uncached(r, memo)
            for base in (fins | affs if check else fins)
            for r in _attachments(base, memo)
        }
        fins, affs = (
            {canonical_rows(r)[0] for r in kinds if kinds[r] == c} for c in (FINITE, AFFINE)
        )
        hyps = {
            canonical_rows(r)[0]
            for r in kinds
            if check and kinds[r] == INDEFINITE and _proper_not_indefinite(r, memo)
        }


def finite_affine_oracle(k: int) -> tuple[tuple[Rows, ...], tuple[Rows, ...]]:
    """Canonical connected finite and affine classes on ``k`` vertices, by definition.

    Grown from the single vertex by :func:`_attachments` to the finite
    classes one level down, which suffices by the non-cut vertex argument in
    the module docstring.
    """
    message = f"oracle levels cover 1..{ORACLE_RANK_LIMIT - 1} vertices, got {{}}"
    _check_range(k, 1, ORACLE_RANK_LIMIT - 1, RankBoundError, message)
    fins, affs, _ = next(islice(_levels(ORACLE_RANK_LIMIT + 1), k - 1, None))
    return tuple(sorted(fins)), tuple(sorted(affs))


def search_ranks_oracle(lo: int, hi: int) -> Iterator[tuple[int, tuple[Rows, ...]]]:
    """``(n, search_rank_oracle(n))`` for each rank ``n = lo..hi``, from one walk.

    The levels are grown once, and each rank is checked as the walk passes
    it, so checking a range costs about what its top rank alone costs.
    """
    message = f"oracle enumeration covers ranks 3..{ORACLE_RANK_LIMIT}, got {{}}"
    for n in (lo, hi):
        _check_range(n, 3, ORACLE_RANK_LIMIT, RankBoundError, message)
    for n, (_, _, hyps) in enumerate(islice(_levels(lo), hi), start=1):
        if n >= lo:
            yield n, tuple(sorted(hyps))


def search_rank_oracle(n: int) -> tuple[Rows, ...]:
    """Oracle enumeration for ranks 3..11: one vertex attached to every level-``n - 1`` class.

    The finite and affine classes on ``n - 1`` vertices come from the same
    walk as :func:`finite_affine_oracle`; every leaf of :func:`_attachments`
    then faces the full definitional subset scan.
    """
    return next(search_ranks_oracle(n, n))[1]


def search_rank_bruteforce(n: int) -> tuple[Rows, ...]:
    """Literal enumeration for ranks 3..4: generate every assignment, filter after.

    No aborts of any kind; exists purely to backstop the other two routes.
    """
    message = f"brute-force enumeration covers ranks 3..{BRUTEFORCE_RANK_LIMIT}, got {{}}"
    _check_range(n, 3, BRUTEFORCE_RANK_LIMIT, RankBoundError, message)
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    options = ((0, 0),) + _LABELS
    found: set[Rows] = set()
    memo: dict[Rows, str] = {}
    for combo in product(options, repeat=len(slots)):
        rows = [[2 if a == b else 0 for b in range(n)] for a in range(n)]
        for (i, j), (p, q) in zip(slots, combo):
            rows[i][j], rows[j][i] = -p, -q
        rt = tuple(tuple(r) for r in rows)
        if not mask_connected((1 << n) - 1, adjacency_bitmasks(rt)):
            continue
        if _hyperbolic_by_definition(rt, memo):
            found.add(canonical_rows(rt)[0])
    return tuple(sorted(found))


# == the reference reflection ==


def reflect(A: GeneralizedCartanMatrix, i: int, beta: RootVector) -> RootVector:
    """Apply the simple reflection ``r_i`` (1-based ``i``) to ``beta``."""
    n = A.rank
    if len(beta.coords) != n:
        raise DynkinError(f"root has {len(beta.coords)} coordinates, matrix has rank {n}")
    A._check_vertex(i)
    row = A.rows[i - 1]
    pairing = sum(row[j] * beta.coords[j] for j in range(n))
    coords = list(beta.coords)
    coords[i - 1] -= pairing
    return RootVector(tuple(coords))
