"""Every output byte of the catalog and of the matrix commands, pinned.

* The enumerated catalog serializes to ``perfbench/reference_catalog.jsonl``
  byte for byte; the test reads that file and never writes it.
* The TSV and LaTeX tables, the files ``enumerate`` writes in each format and
  its ``--oracle`` run on ranks 3..5 are pinned in ``tests/pinned/catalog.txt``.
* ``classify``, ``symmetrize`` and ``orbits`` with ``--format json`` are
  pinned by (exit code, stdout, stderr) in ``tests/pinned/matrix_commands.txt``,
  one line per case, on every catalog entry under one seeded relabelling and
  on a seeded ``random_gcm`` corpus of ranks 1..12.

The command runs reuse the session catalog: ``enumerate`` is handed its
entries instead of searching again.  ``tests/pins.py`` says how to rewrite
the pin files.
"""

from __future__ import annotations

import io
import json
import random
import sys
from pathlib import Path

import dynkin.cli
from dynkin.catalog import catalog_to_latex, catalog_to_lines, catalog_to_tsv
from dynkin.cli import main
from dynkin.symmetrize import random_gcm

import pins

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference_catalog.jsonl"

SEED = 20100

#: Random matrices in the matrix-command corpus, besides the catalog.
RANDOM_DRAWS = 150


def _run(capsys, monkeypatch, argv, stdin_text=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_catalog_lines_equal_the_reference(catalog):
    assert catalog_to_lines(catalog).encode("utf-8") == REFERENCE.read_bytes()


def test_catalog_tables_and_enumerate(catalog, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        dynkin.cli,
        "enumerate_hyperbolic",
        lambda lo, hi: tuple(e for e in catalog if lo <= e.rank <= hi),
    )
    cases = {
        "catalog_to_tsv": pins.sha256(catalog_to_tsv(catalog).encode("utf-8")),
        "catalog_to_latex": pins.sha256(catalog_to_latex(catalog).encode("utf-8")),
    }
    for fmt in ("jsonl", "tsv", "latex"):
        argv = ["enumerate", "--format", fmt, "--out", f"catalog.{fmt}"]
        cases[" ".join(argv)] = pins.record(*_run(capsys, monkeypatch, argv))
        written = (tmp_path / f"catalog.{fmt}").read_bytes()
        if fmt == "jsonl":
            assert written == REFERENCE.read_bytes()
        else:
            cases[f"{' '.join(argv)}: file"] = pins.sha256(written)
    argv = ["enumerate", "--min-rank", "3", "--max-rank", "5", "--out", "c.jsonl", "--oracle"]
    code, out, err = _run(capsys, monkeypatch, argv)
    assert out.endswith("oracle agreement for ranks 3..5: ok\n")
    cases[" ".join(argv)] = pins.record(code, out, err)
    pins.check("catalog", cases)


def _matrix_corpus(catalog):
    """``(name, rows)``: each catalog entry relabelled, then the random draws."""
    rng = random.Random(SEED)
    for e in catalog:
        p = list(range(e.rank))
        rng.shuffle(p)
        yield e.canonical_id, [[e.matrix.rows[i][j] for j in p] for i in p]
    for k in range(RANDOM_DRAWS):
        rank = rng.randint(1, 12)
        A = random_gcm(rng, rank, max_label=rng.choice((1, 2, 4)), edge_prob=rng.random())
        yield f"random-{k:03d}", A.to_lists()


def test_matrix_command_records(catalog, capsys, monkeypatch):
    cases = {}
    for name, rows in _matrix_corpus(catalog):
        text = json.dumps(rows)
        for command in ("classify", "symmetrize", "orbits"):
            argv = [command, "--format", "json"]
            cases[f"{command} {name}"] = pins.record(*_run(capsys, monkeypatch, argv, text))
    pins.check("matrix_commands", cases)
