"""Exception types shared across the package.

Every error raised on bad input derives from :class:`DynkinError`, so callers
(including the command line front end) can distinguish domain errors from
programming errors with a single ``except`` clause.
"""

from __future__ import annotations

from typing import Callable

#: Characters of an offending value quoted in an error message.
SHOWN_CHARS = 40


def clip(text: str, render: Callable[[str], str] = str) -> str:
    """``render(text)`` for an error message, cut to 40 characters plus the full length."""
    if len(text) <= SHOWN_CHARS:
        return render(text)
    return f"{render(text[:SHOWN_CHARS])}... ({len(text)} characters)"


class DynkinError(ValueError):
    """Base class for all domain errors raised by this package."""


class MatrixValidationError(DynkinError):
    """Input array fails one of the generalized Cartan matrix axioms.

    Attributes
    ----------
    axiom:
        Short name of the first violated rule (``"shape"``, ``"integrality"``,
        ``"diagonal"``, ``"sign"`` or ``"zero-symmetry"``).
    position:
        1-based ``(i, j)`` of the offending entry, or ``None`` for shape
        failures that have no single culprit.
    """

    def __init__(self, axiom: str, position: tuple[int, int] | None, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.position = position


class MatrixParseError(DynkinError):
    """Text or JSON matrix input could not be parsed."""


class DecomposableError(DynkinError):
    """Operation requires an indecomposable matrix but got a decomposable one."""


class NotSymmetrizableError(DynkinError):
    """Operation requires a symmetrizable matrix but got an unsymmetrizable one."""


class WrongTypeError(DynkinError):
    """Matrix does not have the Cartan type required by the operation."""


class RankBoundError(DynkinError):
    """Requested rank lies outside the supported range of the operation."""


class BudgetExceededError(DynkinError):
    """An enumeration or closure walk hit its explicit element budget."""


class CatalogFormatError(DynkinError):
    """A catalog file is malformed or violates a load-time invariant."""
