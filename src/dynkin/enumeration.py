"""Exhaustive search for hyperbolic diagrams, with independent oracle routes.

Edge labels with ``p * q <= 4`` are the only ones that can appear anywhere in
a hyperbolic diagram of rank >= 3 (a single heavier edge is already an
indefinite rank-2 subdiagram), so the whole search lives over a nine-element
per-pair alphabet: no edge, or one of the eight labels below.

Everything the production search prunes rests on one fact about finite and
affine diagrams (Kac, *Infinite-dimensional Lie algebras*, Lemma 4.4 and
Ch. 4): every proper connected subdiagram of a connected finite or affine
diagram is finite.  Two consequences, the corank lemma:

* in a connected finite or affine diagram on ``k`` vertices, every connected
  subdiagram on at most ``k - 1`` vertices is finite;
* in a hyperbolic diagram of rank ``n``, every connected subdiagram on at
  most ``n - 2`` vertices is finite.  It extends, inside the diagram, to a
  connected subdiagram on ``n - 1`` vertices, which is finite or affine by
  definition, and contains it properly.

The production search grows connected diagrams one vertex at a time:

* ``finite_affine_classes(k)`` holds all connected finite-type and affine
  classes on ``k`` vertices, built by attaching a vertex to the finite classes
  on ``k - 1`` vertices.  Finite bases suffice for the growth because deleting
  a non-cut vertex from a connected finite or affine diagram always leaves a
  connected *finite* one.
* ``search_rank(n)`` attaches one vertex to every finite or affine class on
  ``n - 1`` vertices and keeps the extensions that pass the hyperbolicity
  filter.  Affine bases enter only at this last step: by the corank lemma a
  hyperbolic diagram has affine subdiagrams of corank 1 and no smaller ones.

Each attachment step is told the largest connected subdiagram size the
target forces to be finite (``k - 1`` for level ``k``, ``n - 2`` for rank
``n``) and prunes with it: at 2 or more no edge to the new vertex may carry a
product-4 label, since such an edge is affine; at 3 or more every determined
connected triple through the new vertex must be finite.  Without those rules
a determined proper triple only has to avoid being indefinite.  Only branches
that no admissible target can complete are cut, so the classes found do not
depend on the pruning.

Candidate filtering uses the corank-1 criterion: a connected indefinite
diagram is hyperbolic iff every *connected* subdiagram on ``n - 1`` vertices
is finite or affine (smaller connected subdiagrams are then finite, by the
argument above).

Two slower routes act as cross-checks and share nothing structural with the
production search.  They classify with the definitional recursion
(:func:`definitional_kind`: determinant sign, plus every one-vertex deletion
componentwise finite), memoized per oracle call, never with
``classify.kind_of_rows``, so the cross-checks test that function as well:

* ``search_rank_oracle`` (ranks 3..5) walks all pair-slot assignments in
  column-major order, aborting a branch only when a fully determined proper
  connected subdiagram is already indefinite, which is forced by the
  definition itself; affine partial diagrams of every size are admitted.
  Surviving assignments face the full definitional subset scan.
* ``search_rank_bruteforce`` (ranks 3..4) materializes every assignment with
  no aborts at all and filters afterwards.
"""

from __future__ import annotations

from functools import cache

from .canonical import canonical_rows
from .classify import AFFINE, FINITE, INDEFINITE, det_int, kind_of_rows, sub_rows
from .errors import RankBoundError
from .gcm import adjacency_bitmasks, mask_connected

__all__ = [
    "LABELS",
    "finite_affine_classes",
    "search_rank",
    "search_rank_oracle",
    "search_rank_bruteforce",
    "hyperbolic_fast_flags",
    "definitional_kind",
    "rows_fully_finite",
    "ORACLE_RANK_LIMIT",
    "BRUTEFORCE_RANK_LIMIT",
]

Rows = tuple[tuple[int, ...], ...]

#: Every edge label (p, q) with p * q <= 4, the full alphabet for rank >= 3.
LABELS: tuple[tuple[int, int], ...] = (
    (1, 1),
    (1, 2),
    (2, 1),
    (1, 3),
    (3, 1),
    (1, 4),
    (4, 1),
    (2, 2),
)

ORACLE_RANK_LIMIT = 5
BRUTEFORCE_RANK_LIMIT = 4


def _canon(rows: Rows) -> Rows:
    return canonical_rows(rows)[0]


# == one-vertex extensions ==


def _materialize(base: Rows, chosen: list[tuple[int, int] | None]) -> Rows:
    k = len(base)
    new_row = [0] * (k + 1)
    new_row[k] = 2
    out = []
    for i, row in enumerate(base):
        lab = chosen[i]
        if lab is None:
            out.append(row + (0,))
        else:
            out.append(row + (-lab[0],))
            new_row[i] = -lab[1]
    out.append(tuple(new_row))
    return tuple(out)


def _triples_ok(
    base: Rows, chosen: list[tuple[int, int] | None], i: int, reject: tuple[str, ...]
) -> bool:
    """No fully determined connected triple through the new vertex has a kind in ``reject``.

    ``reject`` is ``(INDEFINITE,)`` when the triple is only known to be a proper
    subdiagram of the target, and also holds ``AFFINE`` when the corank lemma
    forces the triple to be finite.  The caller skips this for targets of rank 3,
    where the triple is the target itself.
    """
    lab_i = chosen[i]
    for j in range(i):
        lab_j = chosen[j]
        if lab_i is None and lab_j is None:
            continue  # subdiagram of the base, already vetted
        b_ji = base[j][i]
        edge_count = (b_ji != 0) + (lab_j is not None) + (lab_i is not None)
        if edge_count < 2:
            continue  # disconnected triple, components vetted elsewhere
        pj, qj = lab_j if lab_j is not None else (0, 0)
        pi, qi = lab_i if lab_i is not None else (0, 0)
        triple = (
            (2, b_ji, -pj),
            (base[i][j], 2, -pi),
            (-qj, -qi, 2),
        )
        if kind_of_rows(triple) in reject:
            return False
    return True


def _attach_extensions(base: Rows, finite_max: int):
    """All connected one-vertex extensions of ``base`` that can still reach the target.

    ``finite_max`` is the largest connected subdiagram size that the target
    forces to be finite (the corank lemma in the module docstring).  At 2 or
    more the product-4 labels are dropped; at 3 or more every determined
    triple through the new vertex must be finite.  Depth-first over the
    attachment slots, so a branch dies at its first bad triple.
    """
    k = len(base)
    check_triples = k + 1 > 3
    reject = (INDEFINITE, AFFINE) if finite_max >= 3 else (INDEFINITE,)
    labels = LABELS if finite_max < 2 else tuple(lab for lab in LABELS if lab[0] * lab[1] < 4)
    chosen: list[tuple[int, int] | None] = [None] * k
    options = (None,) + labels

    def rec(i: int, any_edge: bool):
        if i == k:
            if any_edge:
                yield _materialize(base, chosen)
            return
        for lab in options:
            chosen[i] = lab
            if check_triples and lab is not None and not _triples_ok(base, chosen, i, reject):
                continue
            yield from rec(i + 1, any_edge or lab is not None)
        chosen[i] = None

    yield from rec(0, False)


# == connected finite and affine classes, by vertex count ==


@cache
def finite_affine_classes(k: int) -> tuple[tuple[Rows, ...], tuple[Rows, ...]]:
    """Canonical connected finite-type and affine classes on ``k`` vertices."""
    if k < 1:
        raise RankBoundError("vertex count must be at least 1")
    if k == 1:
        return (((2,),),), ()
    fins: set[Rows] = set()
    affs: set[Rows] = set()
    for base in finite_affine_classes(k - 1)[0]:
        for cand in _attach_extensions(base, k - 1):
            kind = kind_of_rows(cand)
            if kind == FINITE:
                fins.add(_canon(cand))
            elif kind == AFFINE:
                affs.add(_canon(cand))
    return tuple(sorted(fins)), tuple(sorted(affs))


# == hyperbolicity through the corank-1 criterion ==


def hyperbolic_fast_flags(rows: Rows) -> tuple[bool, bool]:
    """(hyperbolic, compact) for connected ``rows`` via corank-1 subdiagrams.

    Checks only the connected subdiagrams on ``n - 1`` vertices; equivalent to
    the definitional full scan for connected input, and cross-checked against
    it in the test suite.
    """
    n = len(rows)
    if n < 2:
        return False, False
    adj = adjacency_bitmasks(rows)
    full = (1 << n) - 1
    compact = True
    for v in range(n):
        m = full ^ (1 << v)
        if not mask_connected(m, adj):
            continue
        kind = kind_of_rows(sub_rows(rows, m))
        if kind == INDEFINITE:
            return False, False
        if kind == AFFINE:
            compact = False
    if kind_of_rows(rows) != INDEFINITE:
        return False, False
    return True, compact


@cache
def search_rank(n: int) -> tuple[Rows, ...]:
    """All hyperbolic classes of rank ``n`` (canonical rows, sorted).

    Rank 11 and beyond is a legal query and returns empty; the emptiness at 11
    is itself one of the facts the test suite pins down.
    """
    if n < 3:
        raise RankBoundError(f"hyperbolic search starts at rank 3, got {n}")
    fins, affs = finite_affine_classes(n - 1)
    found: set[Rows] = set()
    for base in fins + affs:
        for cand in _attach_extensions(base, n - 2):
            if hyperbolic_fast_flags(cand)[0]:
                found.add(_canon(cand))
    return tuple(sorted(found))


# == oracle routes ==


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
    n = len(rows)
    adj = adjacency_bitmasks(rows)
    unvisited = (1 << n) - 1
    while unvisited:
        start = unvisited & -unvisited
        seen = start
        frontier = start
        while frontier:
            i = frontier.bit_length() - 1
            frontier &= ~(1 << i)
            grow = adj[i] & ~seen
            seen |= grow
            frontier |= grow
        if definitional_kind(sub_rows(rows, seen), memo) != FINITE:
            return False
        unvisited &= ~seen
    return True


def _hyperbolic_by_definition(rows: Rows, memo: dict[Rows, str]) -> bool:
    """Full scan over every proper connected subdiagram; no shortcuts."""
    n = len(rows)
    if _kind_uncached(rows, memo) != INDEFINITE:
        return False
    adj = adjacency_bitmasks(rows)
    for mask in range(1, (1 << n) - 1):
        if not mask_connected(mask, adj):
            continue
        if definitional_kind(sub_rows(rows, mask), memo) == INDEFINITE:
            return False
    return True


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
    options = (None,) + tuple(LABELS)
    memo: dict[Rows, str] = {}

    def newly_determined_ok(i: int, j: int) -> bool:
        # Sets S | {j} with S a nonempty subset of 0..i containing i.
        top = 1 << i
        for sub in range(1 << i):
            mask = sub | top | (1 << j)
            if mask == full:
                continue  # the full matrix is judged at the leaf
            rt = tuple(
                tuple(rows[a][b] for b in range(n) if mask >> b & 1)
                for a in range(n)
                if mask >> a & 1
            )
            if not mask_connected((1 << len(rt)) - 1, adjacency_bitmasks(rt)):
                continue
            if definitional_kind(rt, memo) == INDEFINITE:
                return False
        return True

    def rec(t: int):
        if t == len(slots):
            rt = tuple(tuple(r) for r in rows)
            if mask_connected(full, adjacency_bitmasks(rt)) and _hyperbolic_by_definition(rt, memo):
                found.add(_canon(rt))
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
    from itertools import product

    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    options = (None,) + tuple(LABELS)
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
            found.add(_canon(rt))
    return tuple(sorted(found))
