"""Command line front end.

Subcommands
-----------
classify        type record (kind, hyperbolic, compact) per connected component
symmetrize      symmetrizer weights, or the unbalanced cycle witness (exit 1)
orbits          orbit blocks of the simple roots with their semantics flag
extend          affine extension of finite type, or overextension of affine type
enumerate       write the hyperbolic catalog for a rank range to a file
verify-catalog  recheck a catalog file property by property (failures: exit 3)

Matrix input comes from ``--input PATH`` or standard input (``-``), in either
whitespace text or JSON form; see the parsing module.  Exit codes: 0 success,
1 domain error (bad matrix, wrong type, unsymmetrizable where required),
2 usage error, 3 verification failure.  ``DYNKIN_SEED`` fixes the seed of the
randomized symmetrizability cross-check run by ``verify-catalog``; a value
that is not an integer, or has more digits than the interpreter converts, is a
usage error, reported before the catalog is read.  Error lines quote what
came from the command line or the environment clipped to 40 characters.

Each matrix command is two functions: one from the matrix (and the command's
own options) to an exit code and a JSON record, and one from that record to
its text lines.  One runner reads and parses the input, renders the record in
the chosen format and prints it.  The parser is built once, at import.  Only
``enumerate --oracle`` loads the oracle routes of :mod:`dynkin.oracles`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import partial
from pathlib import Path
from typing import NoReturn

from .catalog import (
    MAX_RANK,
    MIN_RANK,
    CatalogReport,
    PropertyCheck,
    catalog_to_latex,
    catalog_to_lines,
    catalog_to_tsv,
    enumerate_hyperbolic,
    extend_finite_to_affine,
    overextend_affine,
    read_catalog,
    semantics_for,
    verify_catalog,
)
from .classify import classify, kind_of_rows
from .errors import DecomposableError, DynkinError, clip
from .gcm import GeneralizedCartanMatrix, is_indecomposable
from .parsing import format_matrix_text, parse_matrix_input
from .symmetrize import _weights_or_witness, cycle_criterion_agreement, is_symmetrizable
from .weyl import orbit_partition

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3

EQUIVALENCE_SAMPLES = 2000

#: What a usage error echoes from the command line: a long list of unrecognized
#: arguments, a value quoted as ``repr`` writes it, or a long unquoted word.
_ECHOED = re.compile(
    r"""(?<=^unrecognized arguments: ).{41,}|'((?:[^'\\]|\\.)*)'|"((?:[^"\\]|\\.)*)"|\S{41,}""",
    re.S,
)
#: The integer syntax ``int`` accepts in base 10.
_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """Exit 2 with the usage, each echoed value clipped; the argument name is kept."""

        def clipped(m: re.Match) -> str:
            if m.lastindex is None:
                return clip(m[0])
            return clip(m[m.lastindex], lambda s: m[0][0] + s + m[0][0])

        super().error(_ECHOED.sub(clipped, message))


# == matrix commands: a record from the matrix, and text lines from the record ==


def _classify_record(A: GeneralizedCartanMatrix) -> tuple[int, dict]:
    comps = classify(A)
    components = [
        {
            "vertices": sorted(c.vertices),
            "kind": c.type.kind,
            "hyperbolic": c.type.hyperbolic,
            "compact_hyperbolic": c.type.compact_hyperbolic,
        }
        for c in comps
    ]
    return EXIT_OK, {"rank": A.rank, "indecomposable": len(comps) == 1, "components": components}


def _classify_lines(record: dict) -> list[str]:
    lines = []
    for c in record["components"]:
        vertices = ",".join(map(str, c["vertices"]))
        prefix = "" if record["indecomposable"] else f"component {{{vertices}}}: "
        lines += [
            f"{prefix}kind: {c['kind']}",
            f"{prefix}hyperbolic: {'yes' if c['hyperbolic'] else 'no'}",
            f"{prefix}compact_hyperbolic: {'yes' if c['compact_hyperbolic'] else 'no'}",
        ]
    return lines


def _symmetrize_record(A: GeneralizedCartanMatrix) -> tuple[int, dict]:
    d, witness = _weights_or_witness(A.rows)
    if witness is not None:
        return EXIT_DOMAIN, {"symmetrizable": False, "witness": witness._asdict()}
    if not is_indecomposable(A):
        raise DecomposableError("symmetrizer requires an indecomposable matrix")
    return EXIT_OK, {"symmetrizable": True, "symmetrizer": d, "root_lengths": len(set(d))}


def _symmetrize_lines(record: dict) -> list[str]:
    if record["symmetrizable"]:
        return [
            "symmetrizable: yes",
            f"symmetrizer: {' '.join(map(str, record['symmetrizer']))}",
            f"root_lengths: {record['root_lengths']}",
        ]
    w = record["witness"]
    return [
        "symmetrizable: no",
        f"unbalanced cycle: {' '.join(map(str, w['cycle']))}",
        f"forward_product: {w['forward_product']}",
        f"reverse_product: {w['reverse_product']}",
    ]


def _orbits_record(A: GeneralizedCartanMatrix) -> tuple[int, dict]:
    blocks = [sorted(b) for b in orbit_partition(A).blocks]
    semantics = semantics_for(is_symmetrizable(A)[0])
    return EXIT_OK, {"orbit_blocks": blocks, "orbit_semantics": semantics}


def _orbits_lines(record: dict) -> list[str]:
    blocks = " ".join("{" + ",".join(map(str, b)) + "}" for b in record["orbit_blocks"])
    return [f"orbit_blocks: {blocks}", f"orbit_semantics: {record['orbit_semantics']}"]


def _extend_record(A: GeneralizedCartanMatrix, mode: str, zero_vertex: int) -> tuple[int, dict]:
    B = extend_finite_to_affine(A) if mode == "affine" else overextend_affine(A, zero_vertex)
    return EXIT_OK, {"matrix": B.to_lists(), "kind": kind_of_rows(B.rows)}


def _extend_lines(record: dict) -> list[str]:
    return [format_matrix_text(record["matrix"]), f"# kind: {record['kind']}"]


def _run_matrix_command(record_of, lines_of, keywords, args: argparse.Namespace) -> int:
    """Read and parse the matrix, build its record and print it once, as JSON or text.

    The whole output is rendered before anything is printed, so an integer
    past the interpreter's digit limit prints one error and no partial record.
    """
    text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text(encoding="utf-8")
    code, record = record_of(parse_matrix_input(text), **{k: getattr(args, k) for k in keywords})
    try:
        lines = lines_of(record) if args.format == "text" else [json.dumps(record, sort_keys=True)]
    except ValueError:  # an integer past the interpreter's digit limit
        raise DynkinError("an output integer has too many digits to print") from None
    print("\n".join(lines))
    return code


# == the other commands ==


def _cmd_enumerate(args: argparse.Namespace) -> int:
    entries = enumerate_hyperbolic(args.min_rank, args.max_rank)
    Path(args.out).write_text(_TABLE_FORMATS[args.table_format](entries), encoding="utf-8")
    sym = sum(1 for e in entries if e.symmetrizable)
    print(
        f"ranks {args.min_rank}..{args.max_rank}: {len(entries)} classes, "
        f"{sym} symmetrizable -> {args.out}"
    )
    if args.oracle:
        from .oracles import search_ranks_oracle  # the oracle routes load only here

        for rank, slow in search_ranks_oracle(args.min_rank, args.max_rank):
            if tuple(e.matrix.rows for e in entries if e.rank == rank) != slow:
                print(f"FAIL oracle disagreement at rank {rank}", file=sys.stderr)
                return EXIT_VERIFY
        print(f"oracle agreement for ranks {args.min_rank}..{args.max_rank}: ok")
    return EXIT_OK


def _cmd_verify_catalog(args: argparse.Namespace) -> int:
    raw_seed = os.environ.get("DYNKIN_SEED", "0")
    try:
        seed = int(raw_seed)
    except ValueError:  # not an integer, or past the interpreter's digit limit
        problem = "has too many digits" if _INTEGER.fullmatch(raw_seed) else "must be an integer"
        print(f"error: DYNKIN_SEED {problem}, got {clip(raw_seed, repr)}", file=sys.stderr)
        return EXIT_USAGE
    entries = read_catalog(args.infile)
    checks = verify_catalog(entries).checks
    mismatches = cycle_criterion_agreement(EQUIVALENCE_SAMPLES, seed=seed)
    equivalence = PropertyCheck(
        "criterion-equivalence",
        not mismatches,
        f"{EQUIVALENCE_SAMPLES} random matrices, seed {seed}, "
        f"{len(mismatches)} disagreements between the two symmetrizability routes",
    )
    report = CatalogReport(checks + (equivalence,))
    for line in report.format_lines():
        print(line)
    if report.all_passed:
        print(f"verified {len(entries)} entries: all checks passed")
        return EXIT_OK
    print("verification failed", file=sys.stderr)
    return EXIT_VERIFY


# == parser wiring ==

#: ``enumerate --format``: each choice, in the order usage errors list them, and its emitter.
_TABLE_FORMATS = {"jsonl": catalog_to_lines, "tsv": catalog_to_tsv, "latex": catalog_to_latex}

#: ``extend``'s own options, added after ``--input`` and ``--format``: the keyword
#: its record function takes (``--`` and dashes make the flag) and the flag's keywords.
_EXTEND_OPTIONS = {
    "mode": dict(choices=("affine", "overextend"), required=True, help="extension kind"),
    "zero_vertex": dict(
        type=int,
        default=1,
        metavar="K",
        help="attachment vertex for --mode overextend (1-based, default 1)",
    ),
}

#: The matrix commands: name, record function, text function, help and own options.
_MATRIX_COMMANDS = (
    ("classify", _classify_record, _classify_lines, "Cartan type of each connected component", {}),
    ("symmetrize", _symmetrize_record, _symmetrize_lines,
     "symmetrizer weights or an unbalanced cycle", {}),
    ("orbits", _orbits_record, _orbits_lines, "orbit blocks of the simple roots", {}),
    ("extend", _extend_record, _extend_lines,
     "affine extension or overextension", _EXTEND_OPTIONS),
)


def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process as :data:`_PARSER`."""
    parser = _Parser(
        prog="dynkin",
        description="Classify generalized Cartan matrices and work with the "
        "catalog of hyperbolic Dynkin diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, record_of, lines_of, help_text, options in _MATRIX_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--input",
            default="-",
            metavar="PATH",
            help="matrix file (text or JSON); '-' reads standard input (default)",
        )
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        for keyword, settings in options.items():
            p.add_argument("--" + keyword.replace("_", "-"), **settings)
        p.set_defaults(func=partial(_run_matrix_command, record_of, lines_of, tuple(options)))

    p = sub.add_parser("enumerate", help="write the hyperbolic catalog to a file")
    p.add_argument("--min-rank", type=int, default=MIN_RANK)
    p.add_argument("--max-rank", type=int, default=MAX_RANK)
    p.add_argument("--out", required=True, metavar="PATH", help="output file")
    p.add_argument(
        "--format",
        dest="table_format",
        choices=_TABLE_FORMATS,
        default="jsonl",
        help="output format (jsonl is the loadable catalog format)",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check every rank in range against the definitional oracle",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify-catalog", help="recheck a catalog file's properties")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_verify_catalog)

    return parser


#: The one parser :func:`main` uses: a parse leaves it as it was.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (DynkinError, OSError, UnicodeDecodeError) as exc:
        shown = exc
        if isinstance(exc, OSError) and exc.filename is not None:  # clipped like any input
            shown = f"[Errno {exc.errno}] {exc.strerror}: {clip(exc.filename, repr)}"
        print(f"error: {shown}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
