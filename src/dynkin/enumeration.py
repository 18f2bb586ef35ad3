"""Exhaustive pruned search for hyperbolic diagrams.

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
target forces to be finite (``finite_max``: ``k - 1`` for level ``k``,
``n - 2`` for rank ``n``) and prunes with it:

* at 2 or more no edge to the new vertex may carry a product-4 label, since
  such an edge is affine;
* at 3 or more every determined connected triple through the new vertex must
  be finite.  Without this rule a determined proper triple only has to avoid
  being indefinite;
* the girth rule: the new vertex may take edges to two base vertices ``i``
  and ``j`` only if their edge distance in the base is at least
  ``finite_max - 1``.  Proof: a shortest base path from ``i`` to ``j`` has
  no chords, so with the new vertex it spans a connected subdiagram on
  ``dist(i, j) + 2`` vertices that contains a cycle.  Finite diagrams are
  trees (a cycle is never finite: Kac, Ch. 4), so that subdiagram may not be
  one the target forces to be finite.  Distances are taken in the base,
  which is valid for the affine cycle bases too: their cycle has ``n - 1``
  vertices, more than ``finite_max``.  The rule keeps the affine cycle on
  ``k`` vertices at level ``k`` and the cycles on ``n - 1`` and ``n``
  vertices at rank ``n``; from ``finite_max = 3`` on it also excludes every
  triangle through the new vertex.  It is one bit test per slot: the ball of
  radius ``finite_max - 2`` around each base vertex is grown from the base's
  adjacency bitmasks, and a slot may take an edge only if no ball around a
  slot already joined to the new vertex holds it (distance is symmetric).

These three rules cut only branches that no admissible target can complete.

One more rule, the parent rule, cuts branches that do reach a target, so that
each class is built from one parent instead of from every non-cut vertex
whose deletion leaves a base (McKay's canonical construction path: B. D.
McKay, *Isomorph-free exhaustive generation*, J. Algorithms 26, 1998).  The
key of a vertex is its ``(row sum, column sum)``, and the new vertex ``v``
must end with the largest key among the candidate's non-cut vertices.  A
branch is cut as soon as it cannot: when a base vertex ``u`` that is non-cut
in the base, already decided and not joined to ``v`` has a key greater than
``v``'s current ``(2 + sum of its row, 2 + sum of its column)``.  The rule is
safe to apply early: ``u``'s key is its base key in every completion, ``u``
stays non-cut (``v`` is joined to ``base - u``, which is connected), and
``v``'s sums only fall as more slots take edges.

Two more rules act at a leaf, where the whole attachment is known:

* the orbit rule.  The attachment is the list of the new vertex's pairs
  ``(down[i], up[i])`` against the base.  An automorphism ``g`` of the base
  maps it to the list whose slot ``i`` holds the pair of slot ``g[i]``, and
  the two candidates are isomorphic by ``g`` with ``v`` fixed.  A leaf is
  kept only if its attachment is the lexicographically largest of its images
  under Aut(base).  Each level keeps the automorphisms of its classes, read
  off the labelling that found them (:func:`dynkin.canonical._canonical_group`);
* the strict parent rule.  A leaf is kept only if no non-cut vertex of the
  candidate has a larger key than ``v``; ties are kept.  It also sees the
  vertices that the early cut cannot: those joined to ``v``, and the base
  cut vertices that ``v`` makes non-cut.

The early cut is a leaf condition too: a leaf survives it iff no non-cut base
vertex without an edge to ``v`` has a larger key than ``v``'s final key.  So
the parent rule in both forms depends only on the candidate up to an
isomorphism that fixes ``v``, and is invariant under Aut(base).

The invariant is that every class keeps at least one branch.  Take a target
class ``T`` and a non-cut vertex ``u*`` of ``T`` with the largest key.
``T - u*`` is connected, and finite (at level ``k``) or finite or affine (at
rank ``n``), so its canonical form is a base of that step.  The first three
rules cut no branch that leads to an admissible target, so some candidate
from that base is isomorphic to ``T`` with ``v`` in the place of ``u*``.
Every image of its attachment under Aut(base) gives ``T`` with ``v`` in the
same place, so the first three rules keep the largest image too.  In that
candidate no non-cut vertex has a larger key than ``v``, so neither form of
the parent rule cuts it, and the orbit rule keeps it by its choice.  The
classes found therefore do not depend on the pruning.  The canonical forms
still remove the duplicates that the rules leave: a class whose largest key
is held by non-cut vertices in more than one orbit of its own automorphisms
is built once from each of those orbits.

Candidate filtering uses :func:`dynkin.classify.hyperbolic_fast_flags`, the
corank-1 criterion: a connected indefinite diagram is hyperbolic iff every
*connected* subdiagram on ``n - 1`` vertices is finite or affine (smaller
connected subdiagrams are then finite, by the argument above).  It is the
same test the public classification API runs.

The independent routes that re-derive the levels and every rank 3..11
without any of this pruning live in :mod:`dynkin.oracles`.  They share none
of these rules; they do share the labeller, ``canonical_rows``.
"""

from __future__ import annotations

from functools import reduce
from operator import add, or_

from .canonical import _canonical_group, canonical_rows
from .classify import AFFINE, FINITE, INDEFINITE, hyperbolic_fast_flags, kind_of_rows
from .errors import RankBoundError
from .gcm import _check_range, adjacency_bitmasks, connected_deletions, mask_indices

__all__ = [
    "LABELS",
    "finite_affine_classes",
    "search_rank",
]

Rows = tuple[tuple[int, ...], ...]

_SEARCH_RANK_LIMIT = 11  # the top rank searched; the levels stop one below it

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


# == one-vertex extensions ==


def _triples_ok(
    base: Rows, up: list[int], down: list[int], i: int, reject: tuple[str, ...]
) -> bool:
    """No fully determined connected triple through the new vertex and slot ``i`` is bad.

    ``up`` and ``down`` hold the new vertex's column above the diagonal and
    its row left of it; slot ``j`` has an edge iff ``down[j]`` is nonzero.
    No such triple may have a kind in ``reject``: ``(INDEFINITE,)`` when the
    triple is only known to be a proper subdiagram of the target, and also
    ``AFFINE`` when the corank lemma forces it to be finite.  The caller skips
    this for targets of rank 3, where the triple is the target itself.
    """
    for j in range(i):
        b_ji = base[j][i]
        if not (down[j] or b_ji):
            continue  # disconnected triple, components vetted elsewhere
        triple = (
            (2, b_ji, up[j]),
            (base[i][j], 2, up[i]),
            (down[j], down[i], 2),
        )
        if kind_of_rows(triple) in reject:
            return False
    return True


def _attach_extensions(base: Rows, finite_max: int):
    """All connected one-vertex extensions of ``base`` that can still reach the target.

    ``finite_max`` is the largest connected subdiagram size that the target
    forces to be finite (the corank lemma in the module docstring).  At 2 or
    more the product-4 labels are dropped; at 3 or more every determined
    triple through the new vertex must be finite; and the new vertex closes
    no cycle on ``finite_max`` vertices or fewer.  For that last rule
    ``near[i]`` is the bitmask of the base vertices within distance
    ``finite_max - 2`` of ``i``, grown ring by ring from the adjacency
    bitmasks ``adj``, and ``blocked`` is the union of ``near`` over the slots
    already joined to the new vertex: slot ``i`` may take an edge only if its
    bit in ``blocked`` is clear.  For bases of at most two vertices the radius
    is at most 0, so the rule never fires there.  None of these cuts a branch
    that an admissible target can complete.  The parent rule (module
    docstring) cuts a branch once a decided non-cut base vertex with no edge
    to the new vertex has a larger ``(row sum, column sum)`` key than the new
    vertex has so far.  At a leaf the orbit rule keeps only the largest
    attachment of its orbit under the base automorphisms ``moves``, and the
    strict parent rule asks which vertices of the candidate are non-cut only
    if some vertex has a larger key (``now``) than the new vertex.  Every class
    still keeps a branch whose new vertex is one of its largest-key non-cut
    vertices.  Depth-first over the attachment slots, so a branch dies at its
    first bad pair, key or triple.  ``base`` must be a class of
    :func:`finite_affine_classes`, whose level holds its automorphisms.
    Slot ``i`` takes no edge or a label ``(p, q)``, held as the matrix entries
    ``up[i] = -p`` above the new diagonal entry and ``down[i] = -q`` left of it.
    """
    k = len(base)
    check_triples = k + 1 > 3
    reject = (INDEFINITE, AFFINE) if finite_max >= 3 else (INDEFINITE,)
    labels = LABELS if finite_max < 2 else tuple(lab for lab in LABELS if lab[0] * lab[1] < 4)
    adj = adjacency_bitmasks(base)
    near = [1 << i for i in range(k)]
    for _ in range(finite_max - 2):
        near = [reduce(or_, (adj[j] for j in mask_indices(ball)), ball) for ball in near]
    row_sums, col_sums = list(map(sum, base)), list(map(sum, zip(*base)))
    # (row sum, column sum) of each non-cut base vertex; () for a cut vertex,
    # since the empty tuple sorts below every key
    keys = [()] * k
    for u in connected_deletions(adj):
        keys[u] = (row_sums[u], col_sums[u])
    moves = _LEVELS[k][2][base][1:]  # every automorphism but the identity
    up, down = [0] * k, [0] * k
    options = ((0, 0),) + labels

    def rec(i: int, top: tuple[int, ...], row_sum: int, col_sum: int, blocked: int):
        # top is the largest key of a decided non-cut base vertex with no edge
        # to the new vertex; (row_sum, col_sum), the new vertex's key so far,
        # only falls from here; blocked holds the slots too close to a joined one
        if i == k:
            if not any(down):
                return
            if moves:
                pairs = list(zip(down, up))
                if any([pairs[j] for j in g] > pairs for g in moves):
                    return  # the orbit rule: a larger image of the attachment stands for it
            cand = tuple([r + (u,) for r, u in zip(base, up)] + [tuple(down) + (2,)])
            # every vertex's key in the candidate, the new vertex's last
            now = [*zip(map(add, row_sums, up), map(add, col_sums, down)), (row_sum, col_sum)]
            if max(now) > now[k] and any(
                now[u] > now[k] for u in connected_deletions(adjacency_bitmasks(cand))
            ):
                return  # the strict parent rule: a non-cut vertex has a larger key
            yield cand
            return
        for p, q in options:
            up[i], down[i] = -p, -q
            if q:
                if top > (row_sum - q, col_sum - p) or blocked & (1 << i):
                    continue
                if check_triples and not _triples_ok(base, up, down, i, reject):
                    continue
                yield from rec(i + 1, top, row_sum - q, col_sum - p, blocked | near[i])
            elif keys[i] <= (row_sum, col_sum):
                yield from rec(i + 1, max(top, keys[i]), row_sum, col_sum, blocked)
        up[i] = down[i] = 0

    yield from rec(0, (), 2, 2, 0)


# == connected finite and affine classes, by vertex count ==


Groups = dict[Rows, list[tuple[int, ...]]]

#: The levels built so far, filled only after a level's argument is checked:
#: the finite classes, the affine classes, and the automorphisms of each class
#: read off the labelling that found it.
_LEVELS: dict[int, tuple[tuple[Rows, ...], tuple[Rows, ...], Groups]] = {
    1: ((((2,),),), (), {((2,),): [(0,)]})
}


def finite_affine_classes(k: int) -> tuple[tuple[Rows, ...], tuple[Rows, ...]]:
    """Canonical connected finite-type and affine classes on ``k = 1..10`` vertices.

    Each level is built once, from the finite classes one level down, and
    kept.  Any other ``k``, a non-integer too, raises :class:`RankBoundError`.
    """
    message = f"finite and affine levels cover 1..{_SEARCH_RANK_LIMIT - 1} vertices, got {{}}"
    _check_range(k, 1, _SEARCH_RANK_LIMIT - 1, RankBoundError, message)
    if k not in _LEVELS:
        found: dict[str, set[Rows]] = {FINITE: set(), AFFINE: set()}
        groups: Groups = {}
        for base in finite_affine_classes(k - 1)[0]:
            for cand in _attach_extensions(base, k - 1):
                kind = kind_of_rows(cand)
                if kind in found:
                    rows, group = _canonical_group(cand)
                    found[kind].add(rows)
                    groups[rows] = group
        _LEVELS[k] = tuple(sorted(found[FINITE])), tuple(sorted(found[AFFINE])), groups
    return _LEVELS[k][:2]


# == the hyperbolic search ==


def search_rank(n: int) -> tuple[Rows, ...]:
    """All hyperbolic classes of rank ``n = 3..11`` (canonical rows, sorted).

    Rank 11 returns empty; that emptiness is itself one of the facts the test
    suite pins down.  Any other ``n``, a non-integer too, raises
    :class:`RankBoundError`, so the search answers only where the independent
    oracle routes check it.  Each call searches afresh on the kept levels of
    :func:`finite_affine_classes`.
    """
    message = f"hyperbolic search covers ranks 3..{_SEARCH_RANK_LIMIT}, got {{}}"
    _check_range(n, 3, _SEARCH_RANK_LIMIT, RankBoundError, message)
    fins, affs = finite_affine_classes(n - 1)
    found: set[Rows] = set()
    for base in fins + affs:
        for cand in _attach_extensions(base, n - 2):
            if hyperbolic_fast_flags(cand)[0]:
                found.add(canonical_rows(cand)[0])
    return tuple(sorted(found))
