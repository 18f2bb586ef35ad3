"""Core data model: generalized Cartan matrices and their graphs.

A generalized Cartan matrix (GCM) is an integer square matrix ``A`` with

* ``A[i][i] == 2`` on the diagonal,
* ``A[i][j] <= 0`` off the diagonal,
* ``A[i][j] == 0`` exactly when ``A[j][i] == 0``.

The entry ``A[i][j]`` is the pairing of the j-th simple root against the i-th
simple coroot.  Vertices are numbered 1..n in every public interface; the
underlying storage is 0-based tuples.  A GCM is its Dynkin diagram: the
package has no second data model for the diagram, and every diagram question
reads the rows.

Where the axioms are checked
----------------------------

Every matrix that comes from outside is checked once, when it is wrapped:
:func:`validate_gcm` and ``GeneralizedCartanMatrix(rows)`` accept any
sequence of rows, turn them into tuples and check them, and so do the text
and JSON parsers and the catalog loader, which build through them (the JSON
parser runs the one-pass check itself, so that its own message for a
non-integer entry keeps coming first).  The check makes one pass over the
entries and, only when that pass finds a fault, the ordered passes that name
the first violated axiom.

Every rank, vertex, height and budget argument of the package is a plain
integer (an ``int`` that is not a ``bool``) in a stated range, and
:func:`_check_range` is the one place that checks it.

A matrix the package builds from rows it has already checked is not checked
again.  ``GeneralizedCartanMatrix._trusted`` wraps such rows unchecked, and it
is called only where a docstring says why the rows hold the axioms: the
affine extension and the overextension of a validated matrix, the catalog
entries built from the search's rows, the random sampler and the JSON parser.

Graph questions
---------------

The graph of a matrix is one adjacency bitmask per vertex
(:func:`adjacency_bitmasks`), and each question about it has one walk here,
whose cost follows its answer.  :func:`mask_indices` lists the set bits of a
mask, one step per set bit, and every vertex set, submatrix and distance
ball is read through it.  :func:`connected_deletions` lists the vertices
whose deletion leaves the graph connected.  Those give the connected
subdiagrams on ``n - 1`` vertices that decide hyperbolicity, the base
vertices the search's parent rule keys, and the verifier's
``corank1-connected`` check.  :func:`mask_components` peels off one
component at a time.

All types in this module are immutable and hashable; functions are pure.
The package's types that check their input on construction are
``__slots__`` classes built on :class:`FrozenRecord`, which compare equal
only to their own type; its plain records are :class:`typing.NamedTuple`
classes.  Neither needs :mod:`dataclasses`, which is slow to import.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Iterator, Sequence

from .errors import DynkinError, MatrixValidationError, clip

__all__ = [
    "GeneralizedCartanMatrix",
    "validate_gcm",
    "matrix_to_diagram",
    "is_indecomposable",
]


# == immutable records ==


class FrozenRecord:
    """Base of the validating record types: fields set once, in ``__init__``.

    A subclass lists its fields in ``__slots__``, stores them with
    ``object.__setattr__`` and writes ``__eq__`` and ``__hash__`` over them
    directly (a generic loop over the slots is several times slower).
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, k) for k in self.__slots__)


# == generalized Cartan matrices ==


class GeneralizedCartanMatrix(FrozenRecord):
    """Immutable, validated generalized Cartan matrix.

    Construct via :func:`validate_gcm` or directly, from any sequence of
    rows; the axioms are checked either way, and anything that is not a
    sequence of sequences raises :class:`MatrixValidationError` with axiom
    ``shape``.  ``rows`` is stored as a tuple of row tuples.

    The package's own constructions from checked rows (affine extension,
    overextension, catalog entries, the random sampler) and the JSON parser,
    after its one-pass check, wrap their rows with the unchecked
    :meth:`_trusted` instead; each says in its docstring why the rows hold
    the axioms.
    """

    __slots__ = ("rows",)
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        try:
            rows = tuple(map(tuple, rows))
        except TypeError as exc:  # the matrix or a row is not iterable
            raise MatrixValidationError("shape", None, str(exc)) from None
        _check_axioms(rows)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> GeneralizedCartanMatrix:
        """Wrap tuple ``rows`` that are known to hold the axioms, without checking them.

        Only for callers whose docstring says why their rows are valid.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def a(self, i: int, j: int) -> int:
        """Entry ``A[i][j]`` with 1-based indices."""
        self._check_vertex(i)
        self._check_vertex(j)
        return self.rows[i - 1][j - 1]

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def _check_vertex(self, i: int) -> None:
        _check_range(i, 1, self.rank, DynkinError, f"vertex {{}} out of range 1..{self.rank}")


def _check_axioms(rows: tuple[tuple[int, ...], ...]) -> None:
    """Raise :class:`MatrixValidationError` for the first axiom ``rows`` violate.

    The one pass of :func:`_axioms_hold` settles almost every call; only when
    it finds a fault do the ordered passes run, to name the axiom and place.
    """
    if not _axioms_hold(rows):
        _check_axioms_in_order(rows)


def _axioms_hold(rows: object) -> bool:
    """Whether ``rows`` is a square tuple of tuples of ``int`` entries that hold the axioms.

    One pass over the entries, taking each off-diagonal pair ``(i, j)``,
    ``(j, i)`` together.  ``False`` means only "not shown valid here": a
    ``bool``, an ``int`` subclass or a list of rows is left to
    :func:`_check_axioms_in_order`, which decides and words the error.
    """
    if rows.__class__ is not tuple:
        return False
    n = len(rows)
    if not n:
        return False
    for row in rows:
        if row.__class__ is not tuple or len(row) != n:
            return False
    for i, row in enumerate(rows):
        d = row[i]
        if d.__class__ is not int or d != 2:
            return False
        for j in range(i):
            v = row[j]
            w = rows[j][i]
            if v.__class__ is not int or w.__class__ is not int:
                return False
            if v:
                if v > 0 or not w or w > 0:
                    return False
            elif w:
                return False
    return True


def _check_axioms_in_order(rows: tuple[tuple[int, ...], ...]) -> None:
    """The axioms one pass each, in the order shape, integrality, diagonal, sign, zero-symmetry.

    Raises :class:`MatrixValidationError` for the first fault, with its axiom,
    its 1-based position and a message; returns if there is none.
    """
    n = len(rows)
    if n < 1:
        raise MatrixValidationError("shape", None, "matrix must have at least one row")
    for idx, row in enumerate(rows):
        if len(row) != n:
            raise MatrixValidationError(
                "shape", None, f"row {idx + 1} has length {len(row)}, expected {n}"
            )
        for jdx, v in enumerate(row):
            if not _is_int(v):
                raise MatrixValidationError(
                    "integrality",
                    (idx + 1, jdx + 1),
                    f"entry {clip(repr(v))} at ({idx + 1}, {jdx + 1}) is not an integer",
                )
    for i in range(n):
        if rows[i][i] != 2:
            raise MatrixValidationError(
                "diagonal",
                (i + 1, i + 1),
                f"diagonal entry {_shown(rows[i][i])} at ({i + 1}, {i + 1}); "
                "every diagonal entry must be 2",
            )
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] > 0:
                raise MatrixValidationError(
                    "sign",
                    (i + 1, j + 1),
                    f"off-diagonal entry {_shown(rows[i][j])} at ({i + 1}, {j + 1}) must be <= 0",
                )
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] == 0 and rows[j][i] != 0:
                raise MatrixValidationError(
                    "zero-symmetry",
                    (i + 1, j + 1),
                    f"zero-symmetry axiom violated at ({i + 1}, {j + 1}): "
                    f"entry is 0 but ({j + 1}, {i + 1}) is {_shown(rows[j][i])}",
                )


def _shown(v: object, render: Callable[[object], str] = str) -> str:
    """``render(v)`` for an error message, clipped like every quoted input value."""
    try:
        return clip(render(v))
    except ValueError:  # holds an integer of more digits than the interpreter converts to text
        return f"<integer of {v.bit_length()} bits>" if _is_int(v) else f"<{type(v).__name__}>"


def _is_int(v: object) -> bool:
    """Whether ``v`` is an integer: an ``int`` that is not a ``bool``."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_range(v: object, lo: int, hi: int, error: type[DynkinError], message: str) -> None:
    """Raise ``error(message.format(_shown(v)))`` unless ``v`` is an integer in ``lo..hi``.

    The one check of every rank, vertex, height and budget argument, so a
    ``bool``, a float, a string or an integer past the interpreter's digit
    limit each ends in the caller's :class:`DynkinError` subclass.
    """
    if not (_is_int(v) and lo <= v <= hi):
        raise error(message.format(_shown(v)))


def validate_gcm(entries: Sequence[Sequence[int]]) -> GeneralizedCartanMatrix:
    """Validate an integer array and wrap it as a :class:`GeneralizedCartanMatrix`.

    Raises :class:`MatrixValidationError` naming the first violated axiom and
    the offending 1-based position.
    """
    return GeneralizedCartanMatrix(entries)


# == conversions ==


def matrix_to_diagram(A: GeneralizedCartanMatrix) -> GeneralizedCartanMatrix:
    """``A`` itself: a GCM is its Dynkin diagram.

    Kept only for the benchmark harness, whose worker calls
    ``orbit_partition(matrix_to_diagram(A))``; no module of the package calls
    it, and it goes together with that call.
    """
    return A


# == connectivity and subdiagrams ==


def adjacency_bitmasks(rows: Sequence[Sequence[int]]) -> list[int]:
    """For each 0-based vertex, the bitmask of its neighbours.

    One C-level pass per row: ``compress`` keeps the bits of the nonzero
    entries, and their sum is their union since the bits are distinct.
    """
    bits = [1 << j for j in range(len(rows))]
    return [sum(compress(bits, row)) & ~bit for bit, row in zip(bits, rows)]


def mask_component(mask: int, adj: Sequence[int]) -> int:
    """Component of the lowest vertex of non-empty ``mask`` in the subgraph it induces."""
    seen = frontier = mask & -mask
    while frontier:
        i = frontier.bit_length() - 1
        frontier &= ~(1 << i)
        grow = adj[i] & mask & ~seen
        seen |= grow
        frontier |= grow
    return seen


def mask_components(mask: int, adj: Sequence[int]) -> list[int]:
    """Connected components of the subgraph induced on ``mask``, lowest vertex first."""
    out = []
    while mask:
        out.append(mask_component(mask, adj))
        mask ^= out[-1]
    return out


def mask_connected(mask: int, adj: Sequence[int]) -> bool:
    """Whether the induced subgraph on bitmask ``mask`` is connected (empty: False)."""
    return mask != 0 and mask_component(mask, adj) == mask


def connected_deletions(adj: Sequence[int]) -> Iterator[int]:
    """Each 0-based vertex whose deletion leaves the graph ``adj`` connected, in order.

    The non-cut vertices of a connected graph; none for a single vertex,
    whose deletion leaves the empty graph.  Lazy, so a caller that stops at
    the first answer pays for no more.
    """
    full = (1 << len(adj)) - 1
    return (v for v in range(len(adj)) if mask_connected(full ^ (1 << v), adj))


def proper_connected_masks(adj: Sequence[int]) -> Iterator[int]:
    """Each proper connected induced vertex set once, as a bitmask (``2^n`` work).

    In ascending order of the mask.
    """
    for mask in range(1, (1 << len(adj)) - 1):
        if mask_connected(mask, adj):
            yield mask


def mask_indices(mask: int) -> list[int]:
    """The 0-based set bits of ``mask`` in ascending order.

    Each step reads the lowest bit, ``mask & -mask``, and clears it with
    ``mask & (mask - 1)``, so the loop runs once per set bit, not once per
    bit of the width.
    """
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def mask_vertices(mask: int) -> frozenset[int]:
    """The 1-based vertex set of the 0-based bitmask ``mask``."""
    return frozenset(i + 1 for i in mask_indices(mask))


def graph_components(adj: Sequence[int]) -> tuple[frozenset[int], ...]:
    """Components of the whole graph ``adj`` as 1-based vertex sets, by smallest member."""
    return tuple(map(mask_vertices, mask_components((1 << len(adj)) - 1, adj)))


def is_indecomposable(A: GeneralizedCartanMatrix) -> bool:
    """Whether the diagram of ``A`` is connected."""
    adj = adjacency_bitmasks(A.rows)
    return mask_connected((1 << A.rank) - 1, adj)
