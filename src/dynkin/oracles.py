"""Independent oracle routes for the hyperbolic search, by definition only.

These routes re-derive the low ranks of :func:`dynkin.enumeration.search_rank`
without any of its pruning, so that the two can falsify each other.  They
share nothing structural with the pruned search: no corank lemma, no
``classify.kind_of_rows`` and no corank-1 filter.  They classify with the
definitional recursion (:func:`definitional_kind`: determinant sign, plus
every one-vertex deletion componentwise finite), memoized per oracle call,
so the cross-checks test ``kind_of_rows`` as well:

* ``search_rank_oracle`` (ranks 3..5) walks all pair-slot assignments in
  column-major order, aborting a branch only when a fully determined proper
  connected subdiagram is already indefinite, which is forced by the
  definition itself; affine partial diagrams of every size are admitted.
  Surviving assignments face the full definitional subset scan.
* ``search_rank_bruteforce`` (ranks 3..4) materializes every assignment with
  no aborts at all and filters afterwards.
"""

from __future__ import annotations

from itertools import product

from .canonical import canonical_rows
from .classify import AFFINE, FINITE, INDEFINITE, det_int, sub_rows
from .errors import RankBoundError
from .gcm import adjacency_bitmasks, mask_components, mask_connected, proper_connected_masks

__all__ = [
    "search_rank_oracle",
    "search_rank_bruteforce",
    "definitional_kind",
    "rows_fully_finite",
    "ORACLE_RANK_LIMIT",
    "BRUTEFORCE_RANK_LIMIT",
]

Rows = tuple[tuple[int, ...], ...]

ORACLE_RANK_LIMIT = 5
BRUTEFORCE_RANK_LIMIT = 4

#: Edge labels (p, q) with p * q <= 4: a heavier edge is an indefinite rank-2
#: subdiagram, so no hyperbolic diagram of rank >= 3 carries one.  Derived
#: here from that bound rather than shared with the pruned search.
_LABELS = tuple((p, q) for p in range(1, 5) for q in range(1, 5) if p * q <= 4)


# == the definitional kind ==


def delete_vertex(rows: Rows, k: int) -> Rows:
    """Submatrix with 0-based row/column ``k`` removed."""
    return tuple(row[:k] + row[k + 1 :] for i, row in enumerate(rows) if i != k)


def _kind_uncached(rows: Rows, memo: dict[Rows, str]) -> str:
    """Cartan kind of connected ``rows`` by the definitional recursion.

    Finite iff the determinant is positive and every one-vertex deletion is
    componentwise finite; affine iff the determinant is 0 and the same holds.
    Subdiagram kinds go through ``memo``; ``rows`` itself is kept out of it,
    since oracle walks touch millions of distinct full-size matrices.
    """
    n = len(rows)
    if n == 1:
        return FINITE
    if n == 2:
        prod = rows[0][1] * rows[1][0]
        return FINITE if prod < 4 else AFFINE if prod == 4 else INDEFINITE
    d = det_int(rows)
    if d < 0:
        return INDEFINITE
    if all(rows_fully_finite(delete_vertex(rows, v), memo) for v in range(n)):
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
    if _kind_uncached(rows, memo) != INDEFINITE:
        return False
    return all(
        definitional_kind(sub_rows(rows, mask), memo) != INDEFINITE
        for mask in proper_connected_masks(adjacency_bitmasks(rows))
    )


# == the oracle searches ==


def search_rank_oracle(n: int) -> tuple[Rows, ...]:
    """Oracle enumeration for ranks 3..5: slot walk with definitional aborts only.

    Pair slots are filled in column-major order.  After each assignment every
    newly determined proper connected subdiagram is classified, and the branch
    dies if one is indefinite; nothing else is pruned, so affine partial
    diagrams of any size survive as long as the definition allows them.
    """
    if not 3 <= n <= ORACLE_RANK_LIMIT:
        raise RankBoundError(f"oracle enumeration covers ranks 3..{ORACLE_RANK_LIMIT}, got {n}")
    slots = [(i, j) for j in range(1, n) for i in range(j)]
    rows = [[2 if a == b else 0 for b in range(n)] for a in range(n)]
    full = (1 << n) - 1
    found: set[Rows] = set()
    options = (None,) + _LABELS
    memo: dict[Rows, str] = {}

    def newly_determined_ok(i: int, j: int) -> bool:
        # Sets S | {j} with S a nonempty subset of 0..i containing i.
        adj = adjacency_bitmasks(rows)
        top = 1 << i | 1 << j
        for sub in range(1 << i):
            mask = sub | top
            if mask == full:
                continue  # the full matrix is judged at the leaf
            if not mask_connected(mask, adj):
                continue
            if definitional_kind(sub_rows(rows, mask), memo) == INDEFINITE:
                return False
        return True

    def rec(t: int):
        if t == len(slots):
            rt = tuple(tuple(r) for r in rows)
            if mask_connected(full, adjacency_bitmasks(rt)) and _hyperbolic_by_definition(rt, memo):
                found.add(canonical_rows(rt)[0])
            return
        i, j = slots[t]
        for lab in options:
            if lab is None:
                rows[i][j] = rows[j][i] = 0
            else:
                rows[i][j] = -lab[0]
                rows[j][i] = -lab[1]
            if newly_determined_ok(i, j):
                rec(t + 1)
        rows[i][j] = rows[j][i] = 0

    rec(0)
    return tuple(sorted(found))


def search_rank_bruteforce(n: int) -> tuple[Rows, ...]:
    """Literal enumeration for ranks 3..4: generate every assignment, filter after.

    No aborts of any kind; exists purely to backstop the other two routes.
    """
    if not 3 <= n <= BRUTEFORCE_RANK_LIMIT:
        raise RankBoundError(
            f"brute-force enumeration covers ranks 3..{BRUTEFORCE_RANK_LIMIT}, got {n}"
        )
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    options = (None,) + _LABELS
    found: set[Rows] = set()
    memo: dict[Rows, str] = {}
    for combo in product(options, repeat=len(slots)):
        rows = [[2 if a == b else 0 for b in range(n)] for a in range(n)]
        for (i, j), lab in zip(slots, combo):
            if lab is not None:
                rows[i][j] = -lab[0]
                rows[j][i] = -lab[1]
        rt = tuple(tuple(r) for r in rows)
        if not mask_connected((1 << n) - 1, adjacency_bitmasks(rt)):
            continue
        if _hyperbolic_by_definition(rt, memo):
            found.add(canonical_rows(rt)[0])
    return tuple(sorted(found))
