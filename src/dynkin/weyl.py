"""Real roots, simple reflections, and Weyl-orbit structure on simple roots.

Roots are integer coordinate vectors over the simple-root basis.  The simple
reflection ``r_i`` acts by ``beta[i] -= sum_j A[i][j] * beta[j]`` and fixes
all other coordinates.  Real roots are generated by closing the simple roots
under reflections; the walk here is restricted to positive roots inside an
explicit height window, with a hard element budget that raises rather than
silently truncating.

The highest root of a finite type is not found by closing the root system
but by a climb (Humphreys, *Introduction to Lie Algebras and Representation
Theory*, 10.4; Bourbaki, *Lie* VI 1.8): start at a long simple root and,
while some pairing ``(A beta)_j`` is negative, apply ``r_j``, which raises
the height by ``-(A beta)_j``.  Reflections keep the length, so the walk
stays among the long roots and ends at a dominant one, and the only dominant
long root is the highest root.

Orbit structure: two simple roots land in the same Weyl orbit whenever they
are joined by a path of single edges, pairs with ``a_ij = a_ji = -1``, since
such an edge gives ``r_i r_j`` mapping one endpoint to the other.  The
converse holds for every GCM, symmetrizable or not.  ``W(A)`` is a Coxeter
group on the simple reflections, with ``m_ij`` = 2, 3, 4, 6 or infinity as
``a_ij a_ji`` is 0, 1, 2, 3 or at least 4 (Kac, *Infinite-dimensional Lie
algebras*, Prop. 3.13).  In a Coxeter group ``r_i`` and ``r_j`` are
conjugate iff a path of odd ``m_kl`` joins them (Bourbaki, *Lie*, Ch. IV,
Sec. 1, Ex. 3); odd ``m`` means ``m = 3``, a single edge.  If
``w alpha_i = +-alpha_j`` then ``w r_i w^-1 = r_j``, and
``-alpha_j = r_j alpha_j``, so simple roots in one orbit have conjugate
reflections.  Hence the orbit blocks are exactly the components of the
single-edge skeleton, which is how :func:`orbit_partition` computes them,
reading the pairs straight from the matrix.
:func:`orbit_partition_bruteforce` recomputes the blocks from an actual root
walk so the two can be compared.  The closure applies ``r_i`` inline;
:func:`dynkin.oracles.reflect` applies it by the definition, and the tests
walk the roots with it against the closure.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import BudgetExceededError, DynkinError, WrongTypeError
from .gcm import (
    FrozenRecord,
    GeneralizedCartanMatrix,
    _check_range,
    _is_int,
    _shown,
    graph_components,
    is_indecomposable,
)
from .classify import FINITE, kind_of_rows
from .symmetrize import _symmetrizing_weights

__all__ = [
    "RootVector",
    "OrbitPartition",
    "DEFAULT_BUDGET",
    "real_roots_up_to_height",
    "highest_root",
    "orbit_partition",
    "orbit_partition_bruteforce",
    "orbit_partitions_agree",
]

DEFAULT_BUDGET = 10**6


class RootVector(NamedTuple):
    """Root written in simple-root coordinates."""

    coords: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coords)


class OrbitPartition(FrozenRecord):
    """Partition of the 1-based simple-root indices into orbit blocks.

    Built from any iterable of blocks, each a non-empty set of integers that
    shares no integer with an earlier block; anything else raises
    :class:`DynkinError` naming the block.  Blocks are
    stored as frozensets sorted by smallest member, so equal partitions
    compare equal structurally.
    """

    __slots__ = ("blocks",)
    blocks: tuple[frozenset[int], ...]

    def __init__(self, blocks: Iterable[frozenset[int]]) -> None:
        try:
            blocks = tuple(blocks)
        except TypeError as exc:  # the blocks are not iterable
            raise DynkinError(f"orbit blocks: {exc}") from None
        seen: set[int] = set()
        for b in blocks:
            if not (isinstance(b, (set, frozenset)) and b and all(map(_is_int, b))):
                shown = _shown(b, repr)
                raise DynkinError(f"orbit block {shown} is not a non-empty set of integers")
            if not seen.isdisjoint(b):
                raise DynkinError(f"orbit block {_shown(b, repr)} meets an earlier block")
            seen |= b
        object.__setattr__(self, "blocks", tuple(sorted(map(frozenset, blocks), key=min)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_of(self, i: int) -> frozenset[int]:
        for b in self.blocks:
            if _is_int(i) and i in b:
                return b
        raise DynkinError(f"vertex {_shown(i)} is not covered by this partition")


# == root closure ==


def _find(
    parent: dict[tuple[int, ...], tuple[int, ...]], x: tuple[int, ...]
) -> tuple[int, ...]:
    """Class representative of root ``x`` in a union-find forest, halving paths."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _positive_closure(
    A: GeneralizedCartanMatrix, height: int, budget: int
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Positive real roots reachable inside the height window, linked as they close.

    Returns a union-find forest over the roots found (as coord tuples): each
    simple root starts its own class, a new root joins the class of the root
    whose reflection reached it, and a root reached again merges the two
    classes.  Two roots end up in one class iff a chain of simple reflections
    inside the window joins them.

    Only upward steps are taken: ``r_i`` is applied to ``beta`` only when
    ``(A beta)_i < 0``, so that ``r_i beta = beta - (A beta)_i e_i`` is
    higher.  Nothing is lost, for two reasons:

    * the window holds the same roots.  A positive root whose pairings
      ``(A beta)_i`` are all ``<= 0`` is imaginary (its support is connected,
      so it lies in the set ``K`` of Kac, *Infinite-dimensional Lie
      algebras*, Thm 5.4).  So a positive real root ``beta`` that is not
      simple has some ``i`` with ``(A beta)_i > 0``, and ``r_i beta`` is
      positive (Lemma 3.7: ``r_i`` permutes the positive roots other than
      ``alpha_i``) and lower.  By induction on the height, an upward chain
      from a simple root reaches ``beta`` without leaving the window;
    * the classes are the same.  A link ``{beta, r_i beta}`` between two
      roots of the window is an upward step from its lower end, since the
      two pairings with ``alpha_i`` have opposite signs, and every root of
      the window is expanded.

    A frontier item ``(gamma, A beta, i)`` names the root and how it was
    reached: ``gamma = r_i beta`` from its parent ``beta``.  The children of
    one root share its ``A beta``, and ``A gamma = A beta - (A beta)_i A e_i``
    is formed in O(n) only when ``gamma`` is expanded, so the frontier holds
    one pairing vector per expanded parent, not one per root waiting in it.
    A simple root enters as ``(e_i, -A e_i, i)``, since ``e_i = r_i(-e_i)``:
    the same update gives ``-A e_i + 2 A e_i = A e_i``.

    ``height`` and ``budget`` must be 64-bit integers; anything else raises
    :class:`DynkinError` before the walk.
    """
    _check_range(height, -2**63, 2**63 - 1, DynkinError, "height must be a 64-bit integer, got {}")
    _check_range(budget, -2**63, 2**63 - 1, DynkinError, "budget must be a 64-bit integer, got {}")
    n = A.rank
    cols = tuple(zip(*A.rows))  # cols[i] = A e_i
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    parent = {e: e for e in simple}
    frontier: list[tuple[tuple[int, ...], tuple[int, ...], int]]
    frontier = [(e, tuple(-c for c in cols[i]), i) for i, e in enumerate(simple)]
    while frontier:
        nxt: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
        for beta, a_up, r in frontier:
            step = a_up[r]
            a_beta = tuple(a - step * c for a, c in zip(a_up, cols[r]))
            h = sum(beta)
            for i in range(n):
                pairing = a_beta[i]
                if pairing >= 0 or h - pairing > height:
                    continue  # not an upward step, or one out of the window
                gamma = beta[:i] + (beta[i] - pairing,) + beta[i + 1 :]
                if gamma in parent:
                    parent[_find(parent, gamma)] = _find(parent, beta)
                    continue
                if len(parent) >= budget:
                    raise BudgetExceededError(
                        f"root closure exceeded budget of {budget} elements"
                    )
                parent[gamma] = beta
                nxt.append((gamma, a_beta, i))
        frontier = nxt
    return parent


def real_roots_up_to_height(
    A: GeneralizedCartanMatrix, height: int, budget: int = DEFAULT_BUDGET
) -> tuple[RootVector, ...]:
    """Positive real roots of height <= ``height``, reachable within the window.

    Canonically ordered by height, then lexicographically by coordinates;
    empty for a ``height`` below 1.  Raises :class:`BudgetExceededError`
    instead of returning a truncated set, and :class:`DynkinError` for a
    ``height`` or ``budget`` that is not a 64-bit integer.
    """
    found = _positive_closure(A, height, budget)
    if height < 1:
        return ()
    return tuple(RootVector(c) for c in sorted(found, key=lambda c: (sum(c), c)))


def highest_root(A: GeneralizedCartanMatrix) -> RootVector:
    """Highest root of an indecomposable finite-type GCM, found by a climb.

    The climb starts at a simple root of largest symmetrizer weight, which is
    a long root.  While some ``j`` has ``(A beta)_j < 0`` it applies ``r_j``
    for the most negative one, that is ``beta[j] -= (A beta)_j``, so each step
    raises the height and the finite root system bounds the walk.
    Reflections preserve length, and all long roots are Weyl-conjugate, so
    the walk stays among the long roots and stops at a dominant one.  The
    only dominant long root is the highest root.
    """
    if not is_indecomposable(A):
        raise WrongTypeError("highest root requires an indecomposable matrix")
    if kind_of_rows(A.rows) != FINITE:
        raise WrongTypeError("highest root is defined for finite type only")
    return RootVector(tuple(_climb(A.rows, _symmetrizing_weights(A))[0]))


def _climb(rows: tuple[tuple[int, ...], ...], d: list[int]) -> tuple[list[int], list[int]]:
    """Highest root ``theta`` and ``A theta`` of connected finite ``rows`` with symmetrizer ``d``.

    The climb of :func:`highest_root`, for callers that have checked ``rows``
    and hold ``d`` already.
    """
    start = d.index(max(d))
    beta = [0] * len(rows)
    beta[start] = 1
    pairings = [row[start] for row in rows]  # A beta, kept up to date
    while True:
        low = min(pairings)
        if low >= 0:
            return beta, pairings
        j = pairings.index(low)
        beta[j] -= low
        for i, row in enumerate(rows):
            pairings[i] -= row[j] * low


# == orbit partitions ==


def orbit_partition(A: GeneralizedCartanMatrix) -> OrbitPartition:
    """Orbit blocks of the simple roots: components of the single-edge skeleton.

    Reads the pairs with ``A[i][j] == A[j][i] == -1`` straight from the rows
    into one adjacency bitmask per vertex, in one O(n^2) pass: the row
    tuple's own ``count`` and ``index`` scan it past the diagonal for ``-1``,
    so only the ``-1`` entries cost a step of Python.

    Cost: each single edge costs a Python step and two big-integer ORs, so
    the worst case has ``-1`` at every off-diagonal entry.  At rank 2,000
    that takes 0.53-0.75 s of CPU time (``time.process_time``), against
    0.025 s for the path (CPython 3.11, one core of an Intel Xeon host).
    """
    rows = A.rows
    adj = [0] * len(rows)
    for i, row in enumerate(rows):
        j = i
        for _ in range(row[i + 1 :].count(-1)):
            j = row.index(-1, j + 1)
            if rows[j][i] == -1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return OrbitPartition(graph_components(adj))


def orbit_partition_bruteforce(A: GeneralizedCartanMatrix, height: int) -> OrbitPartition:
    """Orbit blocks recovered from an explicit reflection walk.

    Closes the positive roots of height <= ``height`` within
    ``DEFAULT_BUDGET`` elements, linking each root to the roots its simple
    reflections reach inside the window, and reads off which simple roots
    ended up in one class.  A window too small to surface a linking chain can
    split blocks that a larger window would merge.
    """
    parent = _positive_closure(A, height, DEFAULT_BUDGET)
    n = A.rank
    groups: dict[tuple[int, ...], set[int]] = {}
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        groups.setdefault(_find(parent, e), set()).add(i + 1)
    return OrbitPartition(tuple(frozenset(g) for g in groups.values()))


def orbit_partitions_agree(A: GeneralizedCartanMatrix) -> bool:
    """Whether the reflection walk in the window of height 8 gives the skeleton partition.

    One window decides for all of 8, 16, 32 and 64:

    * a single edge ``i - j`` links ``alpha_i`` and ``alpha_j`` through
      ``alpha_i + alpha_j``, at height 2, so every window of height >= 2 is at
      least as coarse as the skeleton partition;
    * widening a window only adds roots and links, so it only merges classes;
    * hence if a wider window matches the skeleton, window 8, which lies
      between the two, matches too.

    A budget overflow counts as disagreement: the claim could not be verified
    within bounds.
    """
    target = orbit_partition(A)
    try:
        return orbit_partition_bruteforce(A, 8) == target
    except BudgetExceededError:
        return False
