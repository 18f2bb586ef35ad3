"""Symmetrizability: diagonal scalings, the cycle criterion, bilinear forms.

``A`` is symmetrizable when a positive diagonal matrix ``D = diag(d)`` makes
``D A`` symmetric, i.e. ``d[i] A[i][j] == d[j] A[j][i]`` for all pairs.  On a
tree this always works: pick a root, set its weight to 1, and propagate the
forced ratio ``d[v] = d[u] * A[u][v] / A[v][u]`` along edges.  Obstructions
live on cycles only: a cycle is balanced when the product of matrix entries
read clockwise equals the product read anticlockwise, and ``A`` is
symmetrizable iff every cycle of its diagram is balanced.

Two independent implementations of that criterion are provided:
:func:`is_symmetrizable` (spanning-forest propagation, then each non-tree edge
is checked and an unbalanced fundamental cycle is reported as a witness) and
:func:`kac_cycle_oracle` (direct enumeration of all simple cycles, ranks up to
8), so each can falsify the other in tests.  :func:`is_symmetrizable`,
:func:`symmetrizer` and :func:`bilinear_form` all read one BFS forest pass.

All arithmetic is exact and in integers.  The forest keeps one integer weight
per vertex: when a tree edge forces a ratio the weights found so far cannot
meet, the component is first rescaled by the least factor that can, so the
weights of each component stay coprime.  Balance on an edge does not change
under scaling, so the verdict and the witness are those of the rational
propagation.  No floating point.
"""

from __future__ import annotations

import random
from math import gcd
from operator import mul
from typing import Iterator, NamedTuple

from .errors import DecomposableError, NotSymmetrizableError, RankBoundError
from .gcm import GeneralizedCartanMatrix, _check_range, is_indecomposable, validate_gcm

__all__ = [
    "Symmetrization",
    "UnbalancedCycleWitness",
    "is_symmetrizable",
    "kac_cycle_oracle",
    "symmetrizer",
    "bilinear_form",
    "random_gcm",
    "cycle_criterion_agreement",
]


class Symmetrization(NamedTuple):
    """Normalized symmetrizer: positive coprime integers, one per vertex."""

    d: tuple[int, ...]


class UnbalancedCycleWitness(NamedTuple):
    """A cycle whose two traversal directions give different entry products.

    ``cycle`` is the 1-based vertex sequence with the starting vertex repeated
    at the end, e.g. ``(1, 2, 3, 1)``.  ``forward_product`` multiplies
    ``A[c[t]][c[t+1]]`` along the sequence; ``reverse_product`` multiplies the
    opposite entries ``A[c[t+1]][c[t]]``.
    """

    cycle: tuple[int, ...]
    forward_product: int
    reverse_product: int


# == spanning-forest propagation ==


def _forest(
    rows: tuple[tuple[int, ...], ...]
) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """BFS weights forced by tree edges, parents (-1 at roots), non-tree edges (0-based).

    The weights are positive integers, coprime within each component.  A
    component starts at weight 1.  When the edge ``u -> v`` forces
    ``d[v] = num / den`` with ``num = d[u] A[u][v]`` and ``den = A[v][u]``,
    the weights found so far are first multiplied by ``s = |den| / g``,
    ``g = gcd(num, den)``, the least factor that makes ``d[v]`` an integer.
    Coprimality is kept at each step: the scaled weights have gcd ``s`` and
    the new weight is ``|num| / g``, which is coprime to ``s``.
    """
    n = len(rows)
    d = [0] * n
    parent = [-1] * n
    for root in range(n):
        if d[root]:
            continue
        d[root] = 1
        comp = [root]
        for u in comp:  # grows while it is read: breadth-first order
            for v in range(n):
                if v == u or rows[u][v] == 0 or d[v]:
                    continue
                num, den = d[u] * rows[u][v], rows[v][u]
                scale = -den // gcd(num, den)  # least factor after which den divides num
                if scale > 1:
                    for w in comp:
                        d[w] *= scale
                    num *= scale
                d[v] = num // den
                parent[v] = u
                comp.append(v)
    nontree = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rows[u][v] != 0 and parent[u] != v and parent[v] != u
    ]
    return d, parent, nontree


def _fundamental_cycle(u: int, v: int, parent: list[int]) -> list[int]:
    """Vertex cycle (no closing repeat) of the non-tree edge ``(u, v)``: ``u`` .. ``v``.

    One walk, linear in the two tree paths: from ``u`` up to its root, then
    from ``v`` up until it meets that path, at the lowest common ancestor;
    the part of the first path above that ancestor is then dropped.
    """
    head = [u]
    while parent[head[-1]] >= 0:
        head.append(parent[head[-1]])
    on_head = set(head)
    tail = []  # v .. the child of the common ancestor
    while v not in on_head:
        tail.append(v)
        v = parent[v]
    while head[-1] != v:
        head.pop()
    return head + tail[::-1]


def _normalize_cycle(verts: list[int]) -> list[int]:
    """Rotate to start at the smallest vertex, orient toward its smaller neighbour."""
    k = verts.index(min(verts))
    rot = verts[k:] + verts[:k]
    rev = [rot[0]] + rot[1:][::-1]
    return rot if rot[1] <= rev[1] else rev


def _cycle_products(rows: tuple[tuple[int, ...], ...], seq: list[int]) -> tuple[int, int]:
    fwd = 1
    rev = 1
    for a, b in zip(seq, seq[1:]):
        fwd *= rows[a][b]
        rev *= rows[b][a]
    return fwd, rev


def _weights_or_witness(
    rows: tuple[tuple[int, ...], ...]
) -> tuple[list[int], UnbalancedCycleWitness | None]:
    """Forest weights, and the witness of the first unbalanced non-tree edge if any."""
    d, parent, nontree = _forest(rows)
    for u, v in nontree:
        if d[u] * rows[u][v] != d[v] * rows[v][u]:
            cycle = _normalize_cycle(_fundamental_cycle(u, v, parent))
            seq = cycle + [cycle[0]]
            return d, UnbalancedCycleWitness(tuple(x + 1 for x in seq), *_cycle_products(rows, seq))
    return d, None


def is_symmetrizable(
    A: GeneralizedCartanMatrix,
) -> tuple[bool, UnbalancedCycleWitness | None]:
    """Decide symmetrizability; on failure return an unbalanced cycle witness.

    Weights are propagated over a BFS spanning forest, then every non-tree
    edge is checked for balance.  The witness cycle is the fundamental cycle
    of the first unbalanced edge, rotated to start at its smallest vertex.
    """
    _, witness = _weights_or_witness(A.rows)
    return witness is None, witness


def _symmetrizing_weights(A: GeneralizedCartanMatrix) -> list[int]:
    """Forest weights of ``A``; raises :class:`NotSymmetrizableError` with the witness."""
    d, witness = _weights_or_witness(A.rows)
    if witness is not None:
        raise NotSymmetrizableError(
            f"matrix is not symmetrizable: cycle {witness.cycle} has direction "
            f"products {witness.forward_product} and {witness.reverse_product}"
        )
    return d


# == independent cycle oracle ==

CYCLE_ORACLE_RANK_LIMIT = 8


def kac_cycle_oracle(A: GeneralizedCartanMatrix) -> bool:
    """Symmetrizability by brute force over all simple cycles (rank <= 8).

    Independent of the spanning-forest route: every simple cycle of the
    diagram is enumerated and its two direction products compared.
    """
    n = A.rank
    message = f"cycle oracle supported up to rank {CYCLE_ORACLE_RANK_LIMIT}, got {{}}"
    _check_range(n, 1, CYCLE_ORACLE_RANK_LIMIT, RankBoundError, message)
    rows = A.rows
    for cycle in _simple_cycles(rows):
        seq = list(cycle) + [cycle[0]]
        fwd, rev = _cycle_products(rows, seq)
        if fwd != rev:
            return False
    return True


def _simple_cycles(rows: tuple[tuple[int, ...], ...]) -> Iterator[tuple[int, ...]]:
    """Each simple cycle (length >= 3) once, 0-based vertices, generated lazily.

    Each cycle is produced with its smallest vertex first; the orientation is
    fixed by requiring the second vertex to be smaller than the last.
    """
    n = len(rows)

    def extend(path: list[int], used: set[int]) -> Iterator[tuple[int, ...]]:
        start, u = path[0], path[-1]
        for v in range(start + 1, n):
            if rows[u][v] == 0 or v in used:
                continue
            path.append(v)
            used.add(v)
            if len(path) >= 3 and rows[v][start] != 0 and path[1] < path[-1]:
                yield tuple(path)
            yield from extend(path, used)
            used.remove(v)
            path.pop()

    for s in range(n):
        yield from extend([s], {s})


# == symmetrizer and bilinear form ==


def symmetrizer(A: GeneralizedCartanMatrix) -> Symmetrization:
    """Normalized symmetrizer of an indecomposable symmetrizable GCM.

    The returned weights are positive coprime integers with
    ``d[i] * A[i][j] == d[j] * A[j][i]`` for all pairs, so ``diag(d) @ A`` is
    symmetric.  Raises on decomposable or unsymmetrizable input.
    """
    if not is_indecomposable(A):
        raise DecomposableError("symmetrizer requires an indecomposable matrix")
    return Symmetrization(d=tuple(_symmetrizing_weights(A)))


def bilinear_form(A: GeneralizedCartanMatrix) -> tuple[tuple[int, ...], ...]:
    """Symmetrized matrix ``B = diag(d) @ A`` of a symmetrizable GCM.

    Works componentwise, each component normalized on its own, so decomposable
    input is fine.  ``B[i][i] == 2 * d[i]`` and ``B`` is exactly symmetric.
    """
    d = _symmetrizing_weights(A)
    n = A.rank
    B = tuple(tuple(d[i] * A.rows[i][j] for j in range(n)) for i in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            assert B[i][j] == B[j][i], "propagation produced an asymmetric product"
    return B


def inertia(B: tuple[tuple[int, ...], ...]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric integer matrix.

    Exact: Berkowitz's division-free characteristic polynomial, then
    Descartes' rule of signs, which counts the positive roots exactly when
    every root is real, as it is for a symmetric matrix.
    """
    n = len(B)
    poly = [1]  # det(xI - M) for the trailing block M = B[k+1:, k+1:], highest degree first
    for k in range(n - 1, -1, -1):
        M = [B[i][k + 1 :] for i in range(k + 1, n)]
        R, v = B[k][k + 1 :], [B[i][k] for i in range(k + 1, n)]
        col = [1, -B[k][k]]  # then -R M^t C for t = 0, 1, ..., with C the first v
        for _ in M:
            col.append(-sum(map(mul, R, v)))
            v = [sum(map(mul, row, v)) for row in M]
        poly = [
            sum(col[i - j] * poly[j] for j in range(min(i, len(poly) - 1) + 1))
            for i in range(len(poly) + 1)
        ]
    signs = [c > 0 for c in poly if c]
    positive = sum(a != b for a, b in zip(signs, signs[1:]))
    zero = n - max(i for i, c in enumerate(poly) if c)
    return positive, n - positive - zero, zero


# == sampler for randomized cross-checks ==


def random_gcm(
    rng: random.Random, rank: int, max_label: int = 4, edge_prob: float = 0.5
) -> GeneralizedCartanMatrix:
    """Random GCM with off-diagonal entries in ``[-max_label, 0]``.

    Used to cross-check the two symmetrizability routes on dense, cycle-rich
    diagrams.  Every pair independently gets an edge with probability
    ``edge_prob``; edge entries are uniform in ``[-max_label, -1]``.

    A matrix of rank 1 or more is valid by construction and is not checked:
    2 on the diagonal, and each pair either zero in both entries or drawn
    from ``[-max_label, -1]`` in both, which fails for ``max_label < 1``.
    Rank 0 or below is still rejected by :func:`validate_gcm`.
    """
    rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            if rng.random() < edge_prob:
                rows[i][j] = -rng.randint(1, max_label)
                rows[j][i] = -rng.randint(1, max_label)
    if not rows:
        return validate_gcm(rows)
    return GeneralizedCartanMatrix._trusted(tuple(map(tuple, rows)))


def cycle_criterion_agreement(samples: int, seed: int = 0) -> list[GeneralizedCartanMatrix]:
    """Matrices where the two symmetrizability routes disagree (expected: none).

    Draws ``samples`` random GCMs of ranks 4..6 and runs both
    :func:`is_symmetrizable` and :func:`kac_cycle_oracle` on each.  Returns the
    disagreeing matrices so a failure is reproducible from the seed alone.
    """
    rng = random.Random(seed)
    bad = []
    for _ in range(samples):
        A = random_gcm(rng, rng.randint(4, 6))
        if is_symmetrizable(A)[0] != kac_cycle_oracle(A):
            bad.append(A)
    return bad
