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
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
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
from .oracles import search_ranks_oracle
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


def _read_matrix(source: str) -> GeneralizedCartanMatrix:
    text = sys.stdin.read() if source == "-" else Path(source).read_text(encoding="utf-8")
    return parse_matrix_input(text)


def _blocks_text(blocks) -> str:
    return " ".join("{" + ",".join(map(str, sorted(b))) + "}" for b in blocks)


# == subcommands ==


def _cmd_classify(args: argparse.Namespace) -> int:
    A = _read_matrix(args.input)
    comps = classify(A)
    if args.format == "json":
        obj = {
            "rank": A.rank,
            "indecomposable": len(comps) == 1,
            "components": [
                {
                    "vertices": sorted(c.vertices),
                    "kind": c.type.kind,
                    "hyperbolic": c.type.hyperbolic,
                    "compact_hyperbolic": c.type.compact_hyperbolic,
                }
                for c in comps
            ],
        }
        print(json.dumps(obj, sort_keys=True))
        return EXIT_OK
    for c in comps:
        prefix = "" if len(comps) == 1 else f"component {{{','.join(map(str, sorted(c.vertices)))}}}: "
        print(f"{prefix}kind: {c.type.kind}")
        print(f"{prefix}hyperbolic: {'yes' if c.type.hyperbolic else 'no'}")
        print(f"{prefix}compact_hyperbolic: {'yes' if c.type.compact_hyperbolic else 'no'}")
    return EXIT_OK


def _cmd_symmetrize(args: argparse.Namespace) -> int:
    A = _read_matrix(args.input)
    d, witness = _weights_or_witness(A.rows)
    ok = witness is None
    if ok:
        if not is_indecomposable(A):
            raise DecomposableError("symmetrizer requires an indecomposable matrix")
        obj = {"symmetrizable": True, "symmetrizer": d, "root_lengths": len(set(d))}
    else:
        assert witness is not None
        obj = {"symmetrizable": False, "witness": witness._asdict()}
    try:  # the whole text first, so a failed conversion prints nothing
        if args.format == "json":
            text = json.dumps(obj, sort_keys=True)
        elif ok:
            text = (
                "symmetrizable: yes\n"
                f"symmetrizer: {' '.join(map(str, d))}\n"
                f"root_lengths: {len(set(d))}"
            )
        else:
            text = (
                "symmetrizable: no\n"
                f"unbalanced cycle: {' '.join(map(str, witness.cycle))}\n"
                f"forward_product: {witness.forward_product}\n"
                f"reverse_product: {witness.reverse_product}"
            )
    except ValueError:  # an integer past the interpreter's digit limit
        raise DynkinError("an output integer has too many digits to print") from None
    print(text)
    return EXIT_OK if ok else EXIT_DOMAIN


def _cmd_orbits(args: argparse.Namespace) -> int:
    A = _read_matrix(args.input)
    part = orbit_partition(A)
    semantics = semantics_for(is_symmetrizable(A)[0])
    if args.format == "json":
        obj = {
            "orbit_blocks": [sorted(b) for b in part.blocks],
            "orbit_semantics": semantics,
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        print(f"orbit_blocks: {_blocks_text(part.blocks)}")
        print(f"orbit_semantics: {semantics}")
    return EXIT_OK


def _cmd_extend(args: argparse.Namespace) -> int:
    A = _read_matrix(args.input)
    if args.mode == "affine":
        B = extend_finite_to_affine(A)
    else:
        B = overextend_affine(A, args.zero_vertex)
    kind = kind_of_rows(B.rows)
    if args.format == "json":
        obj = {"matrix": B.to_lists(), "kind": kind}
        print(json.dumps(obj, sort_keys=True))
    else:
        print(format_matrix_text(B))
        print(f"# kind: {kind}")
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    entries = enumerate_hyperbolic(args.min_rank, args.max_rank)
    if args.table_format == "jsonl":
        payload = catalog_to_lines(entries)
    elif args.table_format == "tsv":
        payload = catalog_to_tsv(entries)
    else:
        payload = catalog_to_latex(entries)
    Path(args.out).write_text(payload, encoding="utf-8")
    sym = sum(1 for e in entries if e.symmetrizable)
    print(
        f"ranks {args.min_rank}..{args.max_rank}: {len(entries)} classes, "
        f"{sym} symmetrizable -> {args.out}"
    )
    if args.oracle:
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dynkin",
        description="Classify generalized Cartan matrices and work with the "
        "catalog of hyperbolic Dynkin diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def matrix_command(name: str, help_text: str) -> argparse.ArgumentParser:
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
        return p

    p = matrix_command("classify", "Cartan type of each connected component")
    p.set_defaults(func=_cmd_classify)

    p = matrix_command("symmetrize", "symmetrizer weights or an unbalanced cycle")
    p.set_defaults(func=_cmd_symmetrize)

    p = matrix_command("orbits", "orbit blocks of the simple roots")
    p.set_defaults(func=_cmd_orbits)

    p = matrix_command("extend", "affine extension or overextension")
    p.add_argument(
        "--mode", choices=("affine", "overextend"), required=True, help="extension kind"
    )
    p.add_argument(
        "--zero-vertex",
        type=int,
        default=1,
        metavar="K",
        help="attachment vertex for --mode overextend (1-based, default 1)",
    )
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("enumerate", help="write the hyperbolic catalog to a file")
    p.add_argument("--min-rank", type=int, default=MIN_RANK)
    p.add_argument("--max-rank", type=int, default=MAX_RANK)
    p.add_argument("--out", required=True, metavar="PATH", help="output file")
    p.add_argument(
        "--format",
        dest="table_format",
        choices=("jsonl", "tsv", "latex"),
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
