"""Pinned output: one committed line per case, and the one switch that rewrites them.

A pin file ``tests/pinned/<name>.txt`` holds one line per case, the case's
name, a tab and its pinned value.  A value is a byte count with a SHA-256
digest, or a command's exit code with a digest of what it printed
(:func:`record`).  :func:`check` compares a test's cases with the file and
names every case that moved, appeared or went missing.

To rewrite every pin file from the program as it is, run the suite with
``DYNKIN_WRITE_PINS=1``::

    DYNKIN_WRITE_PINS=1 PYTHONPATH=src python -m pytest -q tests

A change that moves output on purpose does that in the same change and lists
every moved case; nothing else edits the pins.  The records were taken on
CPython 3.11.  Text that the interpreter writes (argparse's usage errors, the
JSON decoder's messages, the integer digit limit) can read differently on
another version, which is why a usage error (exit 2) is pinned by its exit
code and standard output only.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "pinned"

WRITE = os.environ.get("DYNKIN_WRITE_PINS") == "1"

#: Hex digits of the digest kept per command record.
RECORD_DIGITS = 16


def sha256(data: bytes) -> str:
    """The value pinned for a whole output: its byte count and SHA-256 digest."""
    return f"{len(data)} bytes sha256 {hashlib.sha256(data).hexdigest()}"


def record(code: object, out: str, err: str) -> str:
    """The value pinned for one command run: its exit code and a digest of its output.

    A usage error (exit 2) leaves standard error out, since argparse words
    it differently from one Python version to the next.
    """
    shown = [code, out] if code == 2 else [code, out, err]
    digest = hashlib.sha256(json.dumps(shown).encode("utf-8")).hexdigest()
    return f"exit {code} {digest[:RECORD_DIGITS]}"


def check(name: str, cases: dict[str, str]) -> None:
    """Compare ``cases`` (case name -> value) with ``tests/pinned/<name>.txt``, or write it."""
    assert not [c for c in cases if "\t" in c or "\n" in c], "a case name holds a tab or newline"
    path = PINNED / f"{name}.txt"
    if WRITE:
        PINNED.mkdir(exist_ok=True)
        path.write_text("".join(f"{c}\t{v}\n" for c, v in cases.items()), encoding="utf-8")
        return
    pinned = dict(line.split("\t", 1) for line in path.read_text(encoding="utf-8").splitlines())
    moved = []
    for case in dict.fromkeys([*cases, *pinned]):
        was, now = pinned.get(case, "not pinned"), cases.get(case, "not run")
        if was != now:
            moved.append(f"{case}: pinned {was!r}, now {now!r}")
    assert not moved, f"{len(moved)} cases of {path.name} moved:\n" + "\n".join(moved[:20])
