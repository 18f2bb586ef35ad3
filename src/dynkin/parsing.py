"""Matrix input formats: whitespace text and JSON.

Text format: one matrix row per line, entries separated by whitespace.  Blank
lines and lines starting with ``#`` are ignored.  JSON format: either a bare
array of arrays or an object with a ``"matrix"`` key.  Both parsers feed the
result through GCM validation, so structural errors and axiom violations come
back with positions attached.
"""

from __future__ import annotations

import json

from .errors import DynkinError, MatrixParseError, MatrixValidationError, clip
from .gcm import GeneralizedCartanMatrix, _is_int, validate_gcm

__all__ = [
    "parse_matrix_text",
    "parse_matrix_json",
    "parse_matrix_input",
    "format_matrix_text",
]


def parse_matrix_text(text: str) -> GeneralizedCartanMatrix:
    rows: list[list[int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        row = []
        for tok in stripped.split():
            try:
                row.append(int(tok))
            except ValueError:
                raise MatrixParseError(
                    f"line {lineno}: entry {clip(tok, repr)} is not an integer"
                ) from None
        rows.append(row)
    if not rows:
        raise MatrixParseError("no matrix rows found in input")
    return validate_gcm(rows)


def load_json(text: str, error: type[DynkinError], where: str = "") -> object:
    """``json.loads`` with every decoder failure raised as ``error``, prefixed by ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}invalid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{where}invalid JSON: arrays or objects nested too deeply") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise error(f"{where}invalid JSON: an integer has too many digits") from None


def parse_matrix_json(text: str) -> GeneralizedCartanMatrix:
    """Parse a JSON array of arrays, bare or under a ``"matrix"`` key.

    The rows go through ``GeneralizedCartanMatrix`` like any other input.
    Only when it rejects them is the first non-integer entry, in row order,
    looked for: it is reported as a :class:`MatrixParseError`, and without
    one the :class:`MatrixValidationError` stands.
    """
    obj = load_json(text, MatrixParseError)
    if isinstance(obj, dict):
        if "matrix" not in obj:
            raise MatrixParseError('JSON object must carry a "matrix" key')
        obj = obj["matrix"]
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise MatrixParseError("JSON matrix must be an array of arrays")
    try:
        return GeneralizedCartanMatrix(obj)
    except MatrixValidationError:
        for i, row in enumerate(obj, start=1):
            for j, v in enumerate(row, start=1):
                if not _is_int(v):
                    raise MatrixParseError(
                        f"entry {clip(repr(v))} at ({i}, {j}) is not an integer"
                    ) from None
        raise


def parse_matrix_input(text: str) -> GeneralizedCartanMatrix:
    """Parse either supported format, sniffing JSON by its first character."""
    head = text.lstrip()[:1]
    if head in ("{", "["):
        return parse_matrix_json(text)
    return parse_matrix_text(text)


def format_matrix_text(A: GeneralizedCartanMatrix) -> str:
    """Render a matrix in the text input format, columns right-aligned."""
    cells = [[str(v) for v in row] for row in A.rows]
    width = max(len(c) for row in cells for c in row)
    return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)
