"""Named Cartan matrices of the classical families, used as test fixtures.

Everything here is an independent, hand-written transcription of the standard
diagrams; the package under test never sees these as inputs to trust, only as
expectations to reproduce.  Vertex numbering: paths run 1..n in order; the
D-family fork puts the two short tips last; the E-family hangs the branch
vertex off position 4 (E8: chain 1-3-4-5-6-7-8 with 2 attached to 4).

The finite B, C and F4 matrices read their arrows as Bourbaki does, with
``A[i][j] = <alpha_i, alpha_j^vee>``; the package pairs the other way round
(``A[i][j] = <alpha_i^vee, alpha_j>``, Kac), which transposes them.  The
twisted affine generators are transcribed in the package's convention and
pinned by Kac's marks, so some of them equal an untwisted generator as a
matrix (``affine_b``, ``affine_c`` and ``affine_f4`` are Kac's
``A_(2l-1)^(2)``, ``D_(l+1)^(2)`` and ``E_6^(2)``).  Every class test takes each
fixture together with its transpose, so no class count depends on the
convention.
"""

from __future__ import annotations


def _path_matrix(n: int) -> list[list[int]]:
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = rows[i + 1][i] = -1
    return rows


def cartan_a(n: int) -> list[list[int]]:
    return _path_matrix(n)


def cartan_b(n: int) -> list[list[int]]:
    """Double edge at the tail, arrow toward the last (short-root) vertex."""
    rows = _path_matrix(n)
    rows[n - 2][n - 1] = -2
    return rows


def cartan_c(n: int) -> list[list[int]]:
    rows = _path_matrix(n)
    rows[n - 1][n - 2] = -2
    return rows


def cartan_d(n: int) -> list[list[int]]:
    rows = _path_matrix(n - 1)
    for row in rows:
        row.append(0)
    rows.append([0] * n)
    rows[n - 1][n - 1] = 2
    rows[n - 3][n - 1] = rows[n - 1][n - 3] = -1
    return rows


def cartan_e(n: int) -> list[list[int]]:
    assert n in (6, 7, 8)
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]  # 1-based vertex names
    for a, b in zip(chain, chain[1:]):
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = -1
    rows[2 - 1][4 - 1] = rows[4 - 1][2 - 1] = -1
    return rows


def cartan_f4() -> list[list[int]]:
    rows = _path_matrix(4)
    rows[1][2] = -2
    rows[2][1] = -1
    return rows


def cartan_g2() -> list[list[int]]:
    return [[2, -1], [-3, 2]]


def _add_vertex(rows: list[list[int]], joins: dict[int, tuple[int, int]]) -> list[list[int]]:
    """``rows`` plus a last vertex joined to each 1-based ``v`` in ``joins``.

    ``joins[v] = (p, q)`` sets ``A[v][new] = -p`` and ``A[new][v] = -q``.
    """
    n = len(rows)
    out = [list(r) + [0] for r in rows] + [[0] * n + [2]]
    for v, (p, q) in joins.items():
        out[v - 1][n] = -p
        out[n][v - 1] = -q
    return out


# Affine diagrams as one vertex added to a finite one (Kac, Tables Aff 1-3).
# Where the added edge is multiple, either orientation is affine (for instance
# C_l^(1), D_(l+1)^(2) and A_(2l)^(2) differ only in the arrows at the ends).


def affine_a(n: int) -> list[list[int]]:
    """A_n^(1): a cycle on n + 1 vertices (a doubled edge for n = 1)."""
    return _add_vertex(cartan_a(n), {1: (2, 2)} if n == 1 else {1: (1, 1), n: (1, 1)})


def affine_b(n: int) -> list[list[int]]:
    """B_n^(1), n >= 3: a second tip on vertex 2 makes the fork."""
    return _add_vertex(cartan_b(n), {2: (1, 1)})


def affine_c(n: int) -> list[list[int]]:
    """C_n^(1)-shaped, n >= 2: a double edge at each end of a path."""
    return _add_vertex(cartan_c(n), {1: (1, 2)})


def affine_d(n: int) -> list[list[int]]:
    """D_n^(1), n >= 4: a fork at each end."""
    return _add_vertex(cartan_d(n), {2: (1, 1)})


def affine_e(n: int) -> list[list[int]]:
    """E_n^(1): arms 2/2/2, 3/3/1 and 5/2/1 from the branch vertex."""
    return _add_vertex(cartan_e(n), {{6: 2, 7: 1, 8: 8}[n]: (1, 1)})


def affine_f4() -> list[list[int]]:
    return _add_vertex(cartan_f4(), {1: (1, 1)})


def affine_g2() -> list[list[int]]:
    return _add_vertex(cartan_g2(), {1: (1, 1)})


# Twisted affine diagrams (Kac, Tables Aff 2 and Aff 3), written with
# ``A[i][j] = <alpha_i^vee, alpha_j>``: the row holding -2, -3 or -4 belongs
# to the shorter root, which the arrow points to.  The simple roots come as
# alpha_1 .. alpha_l, then alpha_0, and ``TWISTED_MARKS`` holds Kac's marks
# ``a`` in that order (``A a = 0``).


def twisted_a2() -> list[list[int]]:
    """A_2^(2): alpha_0 <= alpha_1 by a quadruple edge; marks 1, 2."""
    return _add_vertex(cartan_a(1), {1: (1, 4)})


def twisted_a_even(n: int) -> list[list[int]]:
    """A_2n^(2), n >= 2: alpha_0 <= alpha_1 - ... - alpha_(n-1) <= alpha_n."""
    return _add_vertex(cartan_b(n), {1: (1, 2)})


def twisted_a_odd(n: int) -> list[list[int]]:
    """A_(2n-1)^(2), n >= 3: alpha_0 and alpha_1 on alpha_2, alpha_(n-1) <= alpha_n."""
    return _add_vertex(cartan_b(n), {2: (1, 1)})


def twisted_d(n: int) -> list[list[int]]:
    """D_(n+1)^(2), n >= 2: alpha_0 <= alpha_1 - ... - alpha_(n-1) => alpha_n."""
    return _add_vertex(cartan_c(n), {1: (1, 2)})


def twisted_e6() -> list[list[int]]:
    """E_6^(2): alpha_0 - alpha_1 - alpha_2 <= alpha_3 - alpha_4."""
    return _add_vertex(cartan_f4(), {1: (1, 1)})


def twisted_d4() -> list[list[int]]:
    """D_4^(3): alpha_0 - alpha_1 <= alpha_2 by a triple edge."""
    return _add_vertex([[2, -3], [-1, 2]], {1: (1, 1)})


#: name -> (matrix, Kac's marks in its vertex order) for each twisted
#: affine diagram on at most 10 vertices.
TWISTED_MARKS: dict[str, tuple[list[list[int]], tuple[int, ...]]] = {
    "A_2^(2)": (twisted_a2(), (1, 2)),
    **{f"A_{2 * n}^(2)": (twisted_a_even(n), (2,) * (n - 1) + (1, 2)) for n in range(2, 10)},
    **{
        f"A_{2 * n - 1}^(2)": (twisted_a_odd(n), (1,) + (2,) * (n - 2) + (1, 1))
        for n in range(3, 10)
    },
    **{f"D_{n + 1}^(2)": (twisted_d(n), (1,) * (n + 1)) for n in range(2, 10)},
    "E_6^(2)": (twisted_e6(), (2, 3, 2, 1, 1)),
    "D_4^(3)": (twisted_d4(), (2, 1, 1)),
}


def textbook_levels(k: int) -> tuple[list[list[list[int]]], list[list[list[int]]]]:
    """Every finite and every affine fixture on ``k`` vertices, ``1 <= k <= 10``.

    Transposes are left to the caller: the class counts take the two
    orientations of a multiple edge as two classes.
    """
    finite = [cartan_a(k)]
    finite += [cartan_b(k)] if k >= 2 else []
    finite += [cartan_c(k)] if k >= 3 else []
    finite += [cartan_d(k)] if k >= 4 else []
    finite += [cartan_e(k)] if k in (6, 7, 8) else []
    finite += {2: [cartan_g2()], 4: [cartan_f4()]}.get(k, [])
    n = k - 1
    affine = [affine_a(n)] if n >= 1 else []
    affine += [affine_b(n)] if n >= 3 else []
    affine += [affine_c(n)] if n >= 2 else []
    affine += [affine_d(n)] if n >= 4 else []
    affine += [affine_e(n)] if n in (6, 7, 8) else []
    affine += {3: [affine_g2()], 5: [affine_f4()]}.get(k, [])
    affine += [rows for rows, _ in TWISTED_MARKS.values() if len(rows) == k]
    return finite, affine


def path_with_heavy_end(n: int) -> list[list[int]]:
    """A_(n-1) with one more vertex hung off its end by a (1, 5) edge.

    Indefinite and not hyperbolic; from rank 20 on, a walk over all of its
    connected subsets takes seconds.
    """
    rows = _path_matrix(n)
    rows[n - 1][n - 2] = -5
    return rows


#: name -> matrix for every finite family member used by the tests.
FINITE_FIXTURES: dict[str, list[list[int]]] = {
    **{f"A{n}": cartan_a(n) for n in range(1, 9)},
    **{f"B{n}": cartan_b(n) for n in range(2, 9)},
    **{f"C{n}": cartan_c(n) for n in range(3, 9)},
    **{f"D{n}": cartan_d(n) for n in range(4, 9)},
    "E6": cartan_e(6),
    "E7": cartan_e(7),
    "E8": cartan_e(8),
    "F4": cartan_f4(),
    "G2": cartan_g2(),
}

#: textbook positive-root counts, an independent check on the closure walk.
POSITIVE_ROOT_COUNTS: dict[str, int] = {
    **{f"A{n}": n * (n + 1) // 2 for n in range(1, 9)},
    **{f"B{n}": n * n for n in range(2, 9)},
    **{f"C{n}": n * n for n in range(3, 9)},
    **{f"D{n}": n * (n - 1) for n in range(4, 9)},
    "E6": 36,
    "E7": 63,
    "E8": 120,
    "F4": 24,
    "G2": 6,
}

#: textbook highest-root heights.
HIGHEST_ROOT_HEIGHTS: dict[str, int] = {
    **{f"A{n}": n for n in range(1, 9)},
    **{f"B{n}": 2 * n - 1 for n in range(2, 9)},
    **{f"C{n}": 2 * n - 1 for n in range(3, 9)},
    **{f"D{n}": 2 * n - 3 for n in range(4, 9)},
    "E6": 11,
    "E7": 17,
    "E8": 29,
    "F4": 11,
    "G2": 5,
}

#: connected class counts by vertex count, transcribed from the standard
#: finite and affine lists (counting diagram classes, duals separate):
#: finite k=1..10; affine k=2..10.
FINITE_CLASS_COUNTS = {1: 1, 2: 3, 3: 3, 4: 5, 5: 4, 6: 5, 7: 5, 8: 5, 9: 4, 10: 4}
AFFINE_CLASS_COUNTS = {2: 2, 3: 6, 4: 6, 5: 9, 6: 7, 7: 8, 8: 8, 9: 8, 10: 7}
