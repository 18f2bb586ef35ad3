"""Core data model: validation, diagrams, connectivity, subdiagram masks.

The graph walks (:func:`mask_indices`, :func:`connected_deletions`) are
checked against plain scans over every bit and every vertex, on seeded random
graphs of ranks 0..70, so that the masks pass 64 bits.
"""

from __future__ import annotations

import random
import re

import pytest

from dynkin import (
    DynkinDiagram,
    EdgeLabel,
    MatrixValidationError,
    classify,
    matrix_to_diagram,
    validate_gcm,
)
from dynkin.errors import DynkinError
from dynkin.gcm import (
    adjacency_bitmasks,
    connected_deletions,
    graph_components,
    is_indecomposable,
    mask_indices,
    mask_vertices,
    proper_connected_masks,
)
from dynkin.symmetrize import random_gcm


class TestValidation:
    def test_accepts_valid(self):
        A = validate_gcm([[2, -1], [-3, 2]])
        assert A.rank == 2
        assert A.a(1, 2) == -1
        assert A.a(2, 1) == -3

    def test_rejects_bad_diagonal(self):
        with pytest.raises(MatrixValidationError) as info:
            validate_gcm([[2, -1], [-4, 3]])
        assert info.value.axiom == "diagonal"
        assert info.value.position == (2, 2)
        assert "3" in str(info.value)

    def test_rejects_positive_offdiagonal(self):
        with pytest.raises(MatrixValidationError) as info:
            validate_gcm([[2, 1], [-1, 2]])
        assert info.value.axiom == "sign"
        assert info.value.position == (1, 2)

    def test_rejects_zero_asymmetry(self):
        # One-sided zero: the zero side is the reported position.
        with pytest.raises(MatrixValidationError) as info:
            validate_gcm([[2, -1], [0, 2]])
        assert info.value.axiom == "zero-symmetry"
        assert info.value.position == (2, 1)

    @pytest.mark.parametrize(
        "rows,axiom",
        [
            ([[2 + 10**4000, -1], [-1, 2]], "diagonal"),
            ([[2, 10**4000], [-1, 2]], "sign"),
            ([[2, 0], [1 - 10**4000, 2]], "zero-symmetry"),
        ],
        ids=["diagonal", "sign", "zero-symmetry"],
    )
    def test_huge_entry_is_clipped_in_message(self, rows, axiom):
        with pytest.raises(MatrixValidationError) as info:
            validate_gcm(rows)
        assert info.value.axiom == axiom
        assert "... (4001 characters)" in str(info.value)
        assert len(str(info.value)) < 200

    def test_entry_past_the_digit_limit_is_described(self):
        with pytest.raises(MatrixValidationError, match=r"<integer of \d+ bits>") as info:
            validate_gcm([[2, 10**5000], [-1, 2]])
        assert info.value.axiom == "sign"

    def test_rejects_non_square(self):
        with pytest.raises(MatrixValidationError) as info:
            validate_gcm([[2, -1]])
        assert info.value.axiom == "shape"

    def test_rejects_non_integer(self):
        with pytest.raises(MatrixValidationError) as info:
            validate_gcm([[2, -1.0], [-1, 2]])
        assert info.value.axiom == "integrality"

    def test_rejects_empty(self):
        with pytest.raises(MatrixValidationError):
            validate_gcm([])

    def test_rank_one(self):
        assert validate_gcm([[2]]).rank == 1

    def test_immutable_and_hashable(self):
        A = validate_gcm([[2, -1], [-1, 2]])
        assert hash(A) == hash(validate_gcm([[2, -1], [-1, 2]]))
        with pytest.raises(AttributeError):
            A.rows = ()


class TestDiagramRoundTrip:
    def test_example_labels(self, unbalanced_triangle):
        D = matrix_to_diagram(unbalanced_triangle)
        assert D.rank == 3
        assert D.edges == (
            (1, 2, EdgeLabel(1, 2)),
            (1, 3, EdgeLabel(1, 2)),
            (2, 3, EdgeLabel(2, 1)),
        )

    def test_diagram_validation(self):
        with pytest.raises(DynkinError):
            DynkinDiagram(rank=2, edges=((1, 1, EdgeLabel(1, 1)),))
        with pytest.raises(DynkinError):
            DynkinDiagram(rank=2, edges=((1, 3, EdgeLabel(1, 1)),))

    @pytest.mark.parametrize(
        "edge",
        [(1, 2, (1, 1)), (1, 2), (1, 2, EdgeLabel("1", 1))],
        ids=["plain-label", "two-tuple", "string-entry"],
    )
    def test_malformed_edge_is_named(self, edge):
        with pytest.raises(DynkinError, match=re.escape(f"malformed edge {edge!r}")):
            DynkinDiagram(rank=2, edges=(edge,))

    @pytest.mark.parametrize("rank", ["3", 2.5])
    def test_non_integer_rank(self, rank):
        with pytest.raises(DynkinError, match=re.escape(f"positive integer, got {rank!r}")):
            DynkinDiagram(rank=rank, edges=())

    def test_edges_are_read_once(self):
        edges = [(2, 3, EdgeLabel(1, 2)), (1, 2, EdgeLabel(1, 1))]
        D = DynkinDiagram(3, (e for e in edges))
        assert D.edges == ((1, 2, EdgeLabel(1, 1)), (2, 3, EdgeLabel(1, 2)))
        assert D == DynkinDiagram(3, edges) == DynkinDiagram(3, tuple(edges))
        with pytest.raises(DynkinError, match="duplicate edge"):
            DynkinDiagram(3, (e for e in edges + edges))

    @pytest.mark.parametrize("edges", [None, 5])
    def test_non_iterable_edges(self, edges):
        message = f"diagram edges: '{type(edges).__name__}' object is not iterable"
        with pytest.raises(DynkinError, match=re.escape(message)):
            DynkinDiagram(3, edges)


class TestConnectivity:
    def test_indecomposable(self, arrow_chain):
        assert is_indecomposable(arrow_chain)
        assert is_indecomposable(validate_gcm([[2]]))

    def test_decomposable(self):
        A = validate_gcm([[2, -1, 0], [-1, 2, 0], [0, 0, 2]])
        assert not is_indecomposable(A)
        assert tuple(c.vertices for c in classify(A)) == (frozenset({1, 2}), frozenset({3}))

    def test_components_cover(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 8)
            rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.25:
                        rows[i][j] = rows[j][i] = -1
            A = validate_gcm(rows)
            comps = graph_components(adjacency_bitmasks(A.rows))
            assert comps == tuple(c.vertices for c in classify(A))
            assert sorted(v for c in comps for v in c) == list(range(1, n + 1))
            # no edges across components
            for a in range(n):
                for b in range(n):
                    if rows[a][b] != 0 and a != b:
                        assert any(a + 1 in c and b + 1 in c for c in comps)


class TestAdjacencyBitmasks:
    def test_matches_a_double_loop(self):
        rng = random.Random(1805)
        for _ in range(300):
            n = rng.randint(1, 25)
            rows = random_gcm(rng, n, rng.choice((1, 4, 10**30)), rng.random()).rows
            expected = [0] * n
            for i in range(n):
                for j in range(n):
                    if i != j and rows[i][j] != 0:
                        expected[i] |= 1 << j
            assert adjacency_bitmasks(rows) == expected
            assert adjacency_bitmasks([list(r) for r in rows]) == expected


def _connected_by_search(verts, adj):
    """Plain set-based graph search, independent of the bitmask helpers."""
    verts = set(verts)
    todo = [min(verts)]
    reached = set(todo)
    while todo:
        u = todo.pop()
        for v in verts - reached:
            if adj[u] >> v & 1:
                reached.add(v)
                todo.append(v)
    return reached == verts


def _random_adjacency(rng: random.Random, n: int) -> list[int]:
    """Random edges of one density on ``n`` vertices, and in half the draws a spanning tree."""
    adj = [0] * n
    tree = rng.random() < 0.5
    prob = rng.choice((0.02, 0.1, 0.5))
    for j in range(n):
        for i in range(j):
            if rng.random() < prob:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        if tree and j:
            i = rng.randrange(j)
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


class TestGraphWalks:
    def test_mask_indices_match_a_bit_scan(self):
        rng = random.Random(2029)
        for n in range(71):
            adj = _random_adjacency(rng, n)
            masks = adj + [(1 << n) - 1, rng.getrandbits(n) if n else 0, 1 << n >> 1]
            for mask in masks:
                expected = [i for i in range(n) if mask >> i & 1]
                assert mask_indices(mask) == expected
                assert mask_vertices(mask) == frozenset(i + 1 for i in expected)

    def test_connected_deletions_match_a_vertex_scan(self):
        rng = random.Random(2030)
        kept = lost = 0  # deletions that keep the graph connected, and the others
        for n in range(71):
            for _ in range(2):
                adj = _random_adjacency(rng, n)
                expected = [
                    v
                    for v in range(n)
                    if n > 1 and _connected_by_search(set(range(n)) - {v}, adj)
                ]
                assert list(connected_deletions(adj)) == expected
                kept += len(expected)
                lost += n - len(expected)
        assert kept > 1000 and lost > 1000


class TestProperConnectedMasks:
    def test_matches_sorted_bruteforce_filter(self):
        rng = random.Random(7)
        disconnected = 0
        for _ in range(400):
            n = rng.randint(1, 8)
            prob = rng.choice((0.15, 0.35, 0.7))
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < prob:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            disconnected += not _connected_by_search(range(n), adj)

            def verts(mask):
                return tuple(i for i in range(n) if mask >> i & 1)

            expected = [m for m in range(1, 2**n - 1) if _connected_by_search(verts(m), adj)]
            assert list(proper_connected_masks(adj)) == expected
        assert disconnected > 50
