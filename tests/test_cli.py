"""Command line behaviour: output shapes, exit codes, file round trips, the parser."""

from __future__ import annotations

import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dynkin.cli
import dynkin.oracles
from dynkin import parse_matrix_input, read_catalog, validate_gcm, write_catalog
from dynkin.catalog import CatalogEntry, catalog_to_lines
from dynkin.cli import EXIT_VERIFY, main
from dynkin.weyl import OrbitPartition


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_text_output(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 -1\n-1 2\n")
        code, out, _ = run(capsys, ["classify", "--input", str(path)])
        assert code == 0
        assert out.splitlines() == [
            "kind: finite",
            "hyperbolic: no",
            "compact_hyperbolic: no",
        ]

    def test_stdin_hyperbolic(self, capsys, monkeypatch):
        text = "2 -1 -1\n-2 2 -2\n-2 -1 2\n"
        code, out, _ = run(capsys, ["classify"], text, monkeypatch)
        assert code == 0
        assert "kind: indefinite" in out
        assert "hyperbolic: yes" in out
        assert "compact_hyperbolic: yes" in out

    def test_json_decomposable(self, capsys, monkeypatch):
        text = json.dumps([[2, 0], [0, 2]])
        code, out, _ = run(capsys, ["classify", "--format", "json"], text, monkeypatch)
        assert code == 0
        obj = json.loads(out)
        assert obj["rank"] == 2
        assert obj["indecomposable"] is False
        assert [c["vertices"] for c in obj["components"]] == [[1], [2]]
        assert all(c["kind"] == "finite" for c in obj["components"])

    def test_component_prefix_in_text_mode(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["classify"], "2 0\n0 2\n", monkeypatch
        )
        assert code == 0
        assert "component {1}: kind: finite" in out


class TestSymmetrize:
    def test_weights(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["symmetrize"], "2 -1 0\n-1 2 -2\n0 -1 2\n", monkeypatch)
        assert code == 0
        assert "symmetrizable: yes" in out
        assert "symmetrizer: 1 1 2" in out
        assert "root_lengths: 2" in out

    def test_witness_sets_exit_code(self, capsys, monkeypatch):
        text = "2 -1 -1\n-2 2 -2\n-2 -1 2\n"
        code, out, _ = run(capsys, ["symmetrize"], text, monkeypatch)
        assert code == 1
        assert "symmetrizable: no" in out
        assert "unbalanced cycle: 1 2 3 1" in out
        assert "forward_product: -4" in out
        assert "reverse_product: -2" in out

    def test_json_witness(self, capsys, monkeypatch):
        text = "2 -1 -1\n-2 2 -2\n-2 -1 2\n"
        code, out, _ = run(capsys, ["symmetrize", "--format", "json"], text, monkeypatch)
        assert code == 1
        obj = json.loads(out)
        assert obj["symmetrizable"] is False
        assert obj["witness"]["cycle"] == [1, 2, 3, 1]

    def test_one_forest_pass(self, capsys, monkeypatch):
        module = importlib.import_module("dynkin.symmetrize")
        calls = []
        forest = module._forest

        def counted(rows):
            calls.append(rows)
            return forest(rows)

        monkeypatch.setattr(module, "_forest", counted)
        code, out, _ = run(capsys, ["symmetrize"], "2 -1 0\n-1 2 -2\n0 -1 2\n", monkeypatch)
        assert code == 0
        assert "symmetrizer: 1 1 2" in out
        assert len(calls) == 1

    def test_decomposable_symmetrizable_is_an_error(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["symmetrize"], "2 0\n0 2\n", monkeypatch)
        assert code == 1
        assert out == ""
        assert err == "error: symmetrizer requires an indecomposable matrix\n"


class TestOrbits:
    def test_json(self, capsys, monkeypatch):
        text = "2 -1 0\n-1 2 -2\n0 -1 2\n"
        code, out, _ = run(capsys, ["orbits", "--format", "json"], text, monkeypatch)
        assert code == 0
        obj = json.loads(out)
        assert obj["orbit_blocks"] == [[1, 2], [3]]
        assert obj["orbit_semantics"] == "verified"

    def test_text_unverified(self, capsys, monkeypatch):
        text = "2 -1 -1\n-2 2 -2\n-2 -1 2\n"
        code, out, _ = run(capsys, ["orbits"], text, monkeypatch)
        assert code == 0
        assert "orbit_blocks: {1} {2} {3}" in out
        assert "orbit_semantics: unverified" in out


class TestExtend:
    def test_affine_output_parses_back(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["extend", "--mode", "affine"], "2 -1\n-1 2\n", monkeypatch
        )
        assert code == 0
        assert "# kind: affine" in out
        B = parse_matrix_input(out)  # comment line is ignored by the parser
        assert B.rows == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))

    def test_overextend_zero_vertex(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["extend", "--mode", "overextend", "--zero-vertex", "2"],
            "2 -2\n-2 2\n",
            monkeypatch,
        )
        assert code == 0
        assert parse_matrix_input(out).rows == ((2, 0, -1), (0, 2, -2), (-1, -2, 2))
        assert "# kind: indefinite" in out

    def test_json_mode(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["extend", "--mode", "affine", "--format", "json"],
            "2\n",
            monkeypatch,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj == {"kind": "affine", "matrix": [[2, -2], [-2, 2]]}

    def test_wrong_type_is_domain_error(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, ["extend", "--mode", "affine"], "2 -2\n-2 2\n", monkeypatch
        )
        assert code == 1
        assert "error:" in err


class TestErrorPaths:
    def test_axiom_violation(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["classify"], "2 -1\n-1 3\n", monkeypatch)
        assert code == 1
        assert "diagonal entry 3 at (2, 2)" in err

    def test_parse_error(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["classify"], "2 frog\n", monkeypatch)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "text", ["[" * 100000, "[[" + "9" * 5000 + "]]"], ids=["deep-nesting", "huge-integer"]
    )
    def test_hostile_json_is_one_error_line(self, capsys, monkeypatch, text):
        code, out, err = run(capsys, ["classify"], text, monkeypatch)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    def test_huge_diagonal_entry_is_clipped(self, capsys, monkeypatch):
        text = "[[" + "9" * 4000 + ", -1], [-1, 2]]"
        code, out, err = run(capsys, ["classify"], text, monkeypatch)
        assert code == 1
        assert out == ""
        assert err.startswith("error: diagonal entry ")
        assert len(err.splitlines()) == 1
        assert len(err) < 200

    def test_long_string_entry_is_clipped(self, capsys, monkeypatch):
        text = json.dumps([["x" * 100_000]])
        code, out, err = run(capsys, ["classify"], text, monkeypatch)
        assert code == 1
        assert out == ""
        assert err.startswith("error: entry ")
        assert "(100002 characters)" in err
        assert len(err.splitlines()) == 1
        assert len(err) < 200

    @pytest.mark.parametrize(
        "argv, code, kept",
        [
            (["enumerate", "--min-rank", "9" * 5000, "--out", "x"], 2, "argument --min-rank: "),
            (["classify", "--format", "x" * 3000], 2, "argument --format: invalid choice: 'xxxx"),
            (["classify", "--input", "p" * 3000], 1, "File name too long: 'pppp"),
            (["c" * 3000], 2, "argument command: invalid choice: 'cccc"),
        ],
        ids=["int-value", "choice", "path", "subcommand"],
    )
    def test_echoed_argument_is_clipped(self, capsys, argv, code, kept):
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse ends a usage error this way
            got = exc.code
        err = capsys.readouterr().err
        assert got == code
        assert kept in err
        assert f"... ({max(map(len, argv))} characters)" in err
        assert len(err) < 400

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["classify", "--input", str(tmp_path / "nope.txt")])
        assert code == 1
        assert "error:" in err

    def test_usage_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(["enumerate"])  # --out is required
        assert info.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(["verify-catalog", "--in", "X", "--height", "8"])  # no window option
        assert info.value.code == 2
        capsys.readouterr()


class TestEnumerate:
    def test_rank3_jsonl(self, capsys, tmp_path):
        out_path = tmp_path / "rank3.jsonl"
        code, out, _ = run(
            capsys,
            ["enumerate", "--min-rank", "3", "--max-rank", "3", "--out", str(out_path)],
        )
        assert code == 0
        assert out.strip() == f"ranks 3..3: 123 classes, 44 symmetrizable -> {out_path}"
        entries = read_catalog(out_path)
        assert len(entries) == 123
        assert all(e.rank == 3 for e in entries)

    def test_oracle_flag(self, capsys, tmp_path):
        out_path = tmp_path / "rank3.jsonl"
        code, out, _ = run(
            capsys,
            [
                "enumerate",
                "--min-rank",
                "3",
                "--max-rank",
                "3",
                "--out",
                str(out_path),
                "--oracle",
            ],
        )
        assert code == 0
        assert "oracle agreement for ranks 3..3: ok" in out

    def test_oracle_disagreement(self, capsys, monkeypatch, tmp_path):
        # the written catalog is what the oracle checks: one class short fails
        monkeypatch.setattr(dynkin.oracles, "search_ranks_oracle", lambda lo, hi: iter([(3, ())]))
        argv = ["enumerate", "--min-rank", "3", "--max-rank", "3", "--out", str(tmp_path / "c")]
        code, _, err = run(capsys, argv + ["--oracle"])
        assert code == EXIT_VERIFY
        assert err == "FAIL oracle disagreement at rank 3\n"

    def test_oracle_flag_above_rank_5(self, capsys, tmp_path):
        out_path = tmp_path / "rank6.jsonl"
        argv = ["enumerate", "--min-rank", "6", "--max-rank", "6", "--out", str(out_path)]
        code, out, _ = run(capsys, argv + ["--oracle"])
        assert code == 0
        assert "oracle agreement for ranks 6..6: ok" in out

    def test_tsv_and_latex(self, capsys, tmp_path):
        tsv = tmp_path / "t.tsv"
        code, _, _ = run(
            capsys,
            [
                "enumerate",
                "--min-rank",
                "10",
                "--max-rank",
                "10",
                "--out",
                str(tsv),
                "--format",
                "tsv",
            ],
        )
        assert code == 0
        lines = tsv.read_text().splitlines()
        assert lines[0].startswith("id\trank")
        assert len(lines) == 5  # header + the four rank-10 classes
        tex = tmp_path / "t.tex"
        code, _, _ = run(
            capsys,
            [
                "enumerate",
                "--min-rank",
                "10",
                "--max-rank",
                "10",
                "--out",
                str(tex),
                "--format",
                "latex",
            ],
        )
        assert code == 0
        assert tex.read_text().startswith(r"\begin{tabular}")

    def test_bad_rank_range(self, capsys):
        code, _, err = run(
            capsys, ["enumerate", "--min-rank", "2", "--max-rank", "3", "--out", "x"]
        )
        assert code == 1
        assert "rank range" in err


#: The whole ``verify-catalog`` report on the full catalog, with the
#: criterion check at its default seed 0.
FULL_CATALOG_REPORT = (
    "PASS rank-bound: all ranks within 3..10\n"
    "PASS well-formed: ids unique, matrices canonical, flags consistent\n"
    "PASS hyperbolic: every entry hyperbolic, compact flags agree with the subset scan\n"
    "PASS symmetrizer: flags match recomputation; stored weights symmetrize exactly\n"
    "PASS lorentzian: symmetrized forms have signature (n-1, 1); det A < 0 on every entry\n"
    "PASS duality: transpose classes present, dual pairing is an involution\n"
    "PASS affine-subdiagram-corank: every proper connected affine subdiagram has exactly "
    "rank-1 vertices\n"
    "PASS corank1-connected: every entry keeps a connected subdiagram on rank-1 vertices\n"
    "PASS product4-edges: symmetrizable entries carry a product-4 edge exactly in rank 3 "
    "non-compact\n"
    "PASS rank3-affine-edge: rank-3 symmetrizable entries: non-compact iff an edge subdiagram "
    "is affine\n"
    "PASS max-edge-product: symmetrizable entries of rank >= 4 keep edge products <= 3\n"
    "PASS compact-profile: compactness stops at rank 5, symmetrizable compactness at rank 4\n"
    "PASS ranks-7-10-symmetrizable: every entry of rank 7..10 is symmetrizable\n"
    "PASS root-length-bound: root-length counts stay at <= 4 with exactly one entry reaching 4\n"
    "PASS orbit-block-bound: orbit block counts stay at <= 4 and attain 4\n"
    "PASS equal-norm-orbit-split: witness: 3-003\n"
    "PASS orbit-oracle: stored orbit blocks rechecked; reflection-walk orbits agree with the "
    "skeleton partition\n"
    "PASS headline-counts: ranks 3..10: 123/53/22/22/4/5/5/4 classes, 44/40/20/20/4/5/5/4 "
    "symmetrizable, ids <rank>-001..N\n"
    "PASS criterion-equivalence: 2000 random matrices, seed 0, 0 disagreements between the two "
    "symmetrizability routes\n"
    "verified 238 entries: all checks passed\n"
)

#: Every line name of the report, in order.
REPORT_NAMES = [line.split()[1].rstrip(":") for line in FULL_CATALOG_REPORT.splitlines()[:-1]]

#: A rank-4 path whose first edge has product 4, an affine subdiagram on 2 vertices.
HEAVY_EDGE_PATH = validate_gcm([[2, -2, 0, 0], [-2, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
#: The affine 4-cycle: symmetrizable, with a null direction and det 0.
AFFINE_SQUARE = validate_gcm([[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]])
#: Three isolated vertices: every deletion leaves a disconnected diagram.
EDGELESS = validate_gcm([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
#: The fields of an entry that is not symmetrizable.
NOT_SYMMETRIZABLE = {
    "symmetrizable": False,
    "symmetrizer": None,
    "root_lengths": None,
    "orbit_semantics": "unverified",
}


def _blocks(*blocks):
    return OrbitPartition(tuple(map(frozenset, blocks)))


def _with(catalog, ident, **fields):
    return tuple(e._replace(**fields) if e.canonical_id == ident else e for e in catalog)


def _path_entry(n):
    """A loadable entry for the simply laced path on ``n`` vertices, id ``<n>-001``."""
    rows = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    ident, d, one = f"{n}-001", (1,) * n, _blocks(range(1, n + 1))
    return CatalogEntry(ident, n, validate_gcm(rows), False, True, d, 1, one, "verified", ident)


def _one_orbit_when_symmetrizable(catalog):
    return tuple(
        e._replace(orbit_blocks=_blocks(range(1, e.rank + 1))) if e.symmetrizable else e
        for e in catalog
    )


#: Report name -> (a change to the full catalog that fails that check, the id
#: its FAIL line names, or None for a check that lists no ids).
FAILING = {
    "rank-bound": (lambda c: c + (_path_entry(11),), "11-001"),
    "well-formed": (lambda c: _with(c, "3-001", orbit_semantics="verified"), "3-001"),
    "hyperbolic": (lambda c: _with(c, "3-001", compact=True), "3-001"),
    "symmetrizer": (lambda c: _with(c, "3-003", symmetrizer=(2, 4, 4)), "3-003"),
    "lorentzian": (lambda c: _with(c, "4-001", matrix=AFFINE_SQUARE), "4-001"),
    "duality": (lambda c: _with(c, "3-002", dual_id="3-001"), "3-002"),
    "affine-subdiagram-corank": (lambda c: _with(c, "4-001", matrix=HEAVY_EDGE_PATH), "4-001"),
    "corank1-connected": (lambda c: _with(c, "3-001", matrix=EDGELESS), "3-001"),
    "product4-edges": (lambda c: _with(c, "3-003", compact=True), "3-003"),
    "rank3-affine-edge": (lambda c: _with(c, "3-071", compact=False), "3-071"),
    "max-edge-product": (lambda c: _with(c, "4-001", matrix=HEAVY_EDGE_PATH), "4-001"),
    "compact-profile": (lambda c: _with(c, "6-001", compact=True), None),
    "ranks-7-10-symmetrizable": (lambda c: _with(c, "7-001", **NOT_SYMMETRIZABLE), "7-001"),
    "root-length-bound": (lambda c: _with(c, "3-003", root_lengths=5), "3-003"),
    "orbit-block-bound": (
        lambda c: _with(c, "5-001", orbit_blocks=_blocks([1], [2], [3], [4], [5])),
        None,
    ),
    "equal-norm-orbit-split": (_one_orbit_when_symmetrizable, None),
    "orbit-oracle": (lambda c: _with(c, "4-001", orbit_blocks=_blocks([1, 2, 3, 4])), "4-001"),
    "headline-counts": (lambda c: tuple(e for e in c if e.canonical_id != "6-002"), None),
    "criterion-equivalence": (lambda c: c, None),  # the cross-check is patched to disagree once
}


class TestVerifyCatalog:
    def test_full_catalog_report_is_pinned(self, capsys, tmp_path, catalog, monkeypatch):
        path = tmp_path / "full.jsonl"
        write_catalog(catalog, path)
        monkeypatch.delenv("DYNKIN_SEED", raising=False)
        code, out, err = run(capsys, ["verify-catalog", "--in", str(path)])
        assert (code, err) == (0, "")
        assert out == FULL_CATALOG_REPORT

    def test_full_catalog_passes(self, capsys, tmp_path, catalog, monkeypatch):
        path = tmp_path / "full.jsonl"
        write_catalog(catalog, path)
        monkeypatch.setenv("DYNKIN_SEED", "123")
        code, out, _ = run(capsys, ["verify-catalog", "--in", str(path)])
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "criterion-equivalence" in out
        assert "seed 123" in out
        assert lines[-1] == f"verified {len(catalog)} entries: all checks passed"

    @pytest.mark.parametrize("name", REPORT_NAMES)
    def test_each_check_fails_on_a_catalog_built_to_fail_it(
        self, capsys, tmp_path, catalog, monkeypatch, name
    ):
        change, offending = FAILING[name]
        path = tmp_path / "failing.jsonl"
        write_catalog(change(catalog), path)
        monkeypatch.delenv("DYNKIN_SEED", raising=False)
        monkeypatch.setattr(dynkin.cli, "EQUIVALENCE_SAMPLES", 10)
        if name == "criterion-equivalence":
            disagreeing = [AFFINE_SQUARE]
            monkeypatch.setattr(
                dynkin.cli, "cycle_criterion_agreement", lambda *a, **k: disagreeing
            )
        code, out, err = run(capsys, ["verify-catalog", "--in", str(path)])
        assert (code, err) == (EXIT_VERIFY, "verification failed\n")
        lines = out.splitlines()
        assert not any(line.startswith("verified") for line in lines)
        fail = [line for line in lines if line.startswith(f"FAIL {name}: ")]
        assert len(fail) == 1, lines
        if offending is not None:
            head = f"FAIL {name}: offending entries: "
            assert fail[0].startswith(head), fail[0]
            assert offending in fail[0][len(head) :].split(", "), fail[0]

    @pytest.mark.parametrize("case", ["dropped-6-002", "dropped-self-dual", "renumbered-10-004"])
    def test_missing_or_renumbered_classes_fail_headline_counts(
        self, capsys, tmp_path, catalog, case
    ):
        if case == "dropped-6-002":
            entries = [e for e in catalog if e.canonical_id != "6-002"]
        elif case == "dropped-self-dual":  # the 18 self-dual entries of rank >= 6
            entries = [e for e in catalog if e.rank < 6 or e.dual_id != e.canonical_id]
            assert len(entries) == len(catalog) - 18
        else:  # 10-004 is self-dual, so the dual pairing stays an involution
            entries = [
                e._replace(canonical_id="10-005", dual_id="10-005")
                if e.canonical_id == "10-004"
                else e
                for e in catalog
            ]
        path = tmp_path / "headline.jsonl"
        write_catalog(tuple(entries), path)
        code, out, err = run(capsys, ["verify-catalog", "--in", str(path)])
        assert code == 3
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith("FAIL headline-counts: "), fails
        assert "verification failed" in err

    def test_repeated_class_fails_well_formed(self, capsys, tmp_path, catalog):
        # 3-001 and 3-007 are both self-dual, so the dual pairing stays an involution
        first = next(e for e in catalog if e.canonical_id == "3-001")
        entries = tuple(
            first._replace(canonical_id="3-007", dual_id="3-007")
            if e.canonical_id == "3-007"
            else e
            for e in catalog
        )
        path = tmp_path / "repeated.jsonl"
        write_catalog(entries, path)
        code, out, err = run(capsys, ["verify-catalog", "--in", str(path)])
        assert code == EXIT_VERIFY
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL well-formed: offending entries: 3-001, 3-007"], fails
        assert "verification failed" in err

    def test_bad_seed_is_usage_error_before_the_catalog_is_read(
        self, capsys, tmp_path, catalog, monkeypatch
    ):
        path = tmp_path / "rank10.jsonl"
        write_catalog(tuple(e for e in catalog if e.rank == 10), path)
        for value, shown in (("abc", "'abc'"), ("9" * 5000, "(5000 characters)")):
            monkeypatch.setenv("DYNKIN_SEED", value)
            code, out, err = run(capsys, ["verify-catalog", "--in", str(path)])
            assert code == 2
            assert out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith("error: DYNKIN_SEED") and shown in err
            assert len(err) < 200
        monkeypatch.setenv("DYNKIN_SEED", "-5")
        code, out, _ = run(capsys, ["verify-catalog", "--in", str(path)])
        assert code == 3  # the global checks need the full catalog
        assert "seed -5" in out

    def test_seed_past_the_digit_limit_says_so(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DYNKIN_SEED", "9" * 5000)
        code, out, err = run(capsys, ["verify-catalog", "--in", str(tmp_path / "unread.jsonl")])
        assert (code, out) == (2, "")
        assert err.startswith("error: DYNKIN_SEED has too many digits, got '999")

    def test_partial_catalog_fails(self, capsys, tmp_path, catalog):
        path = tmp_path / "partial.jsonl"
        write_catalog(tuple(e for e in catalog if e.rank == 3), path)
        code, out, err = run(capsys, ["verify-catalog", "--in", str(path)])
        assert code == 3
        assert "FAIL" in out
        assert "verification failed" in err

    def test_stored_orbit_blocks_are_rechecked(self, capsys, tmp_path, catalog):
        lines = catalog_to_lines(catalog).splitlines()
        k, obj = next(
            (k, json.loads(line)) for k, line in enumerate(lines) if '"id":"4-001"' in line
        )
        assert obj["orbit_blocks"] != [[1, 2, 3, 4]]
        obj["orbit_blocks"] = [[1, 2, 3, 4]]  # loadable, but merges two orbits
        lines[k] = json.dumps(obj)
        path = tmp_path / "merged-blocks.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, ["verify-catalog", "--in", str(path)])
        assert code == 3
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL orbit-oracle: offending entries: 4-001"]

    def test_out_of_range_entry_is_reported_not_labelled(self, capsys, tmp_path):
        # four disjoint 5-cycles: loadable, but too symmetric to label canonically
        n = 20
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for v in range(n):
            w = v - v % 5 + (v + 1) % 5
            rows[v][w] = rows[w][v] = -1
        obj = {
            "id": "20-001",
            "rank": n,
            "matrix": rows,
            "compact": False,
            "symmetrizable": True,
            "symmetrizer": [1] * n,
            "root_lengths": 1,
            "orbit_blocks": [list(range(c + 1, c + 6)) for c in range(0, n, 5)],
            "orbit_semantics": "verified",
            "dual_id": "20-001",
        }
        path = tmp_path / "cycles.jsonl"
        path.write_text(catalog_to_lines(()) + json.dumps(obj) + "\n")
        assert len(read_catalog(path)) == 1
        code, out, err = run(capsys, ["verify-catalog", "--in", str(path)])
        assert code == 3
        assert "FAIL rank-bound: offending entries: 20-001" in out.splitlines()
        for name in ("well-formed", "duality"):
            assert f"FAIL {name}: offending entries: 20-001" in out.splitlines()
        assert "error:" not in err

    def test_long_string_matrix_entry_is_clipped(self, capsys, tmp_path, catalog):
        obj = json.loads(catalog_to_lines(catalog[:1]).splitlines()[1])
        obj["matrix"] = [["x" * 100_000]]
        path = tmp_path / "string-entry.jsonl"
        path.write_text(catalog_to_lines(()) + json.dumps(obj) + "\n")
        code, out, err = run(capsys, ["verify-catalog", "--in", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 2: bad matrix: entry ")
        assert len(err.splitlines()) == 1
        assert len(err) < 200

    def test_long_offending_id_is_clipped(self, capsys, tmp_path, catalog):
        obj = json.loads(catalog_to_lines(catalog[:1]).splitlines()[1])
        obj["id"] = "3-" + "x" * 100_000  # its dual no longer points back: offending
        path = tmp_path / "long-id.jsonl"
        path.write_text(catalog_to_lines(()) + json.dumps(obj) + "\n")
        code, out, _ = run(capsys, ["verify-catalog", "--in", str(path)])
        assert code == 3
        lines = out.splitlines()
        assert any(
            line.startswith("FAIL duality: offending entries: ")
            and line.endswith("... (100002 characters)")
            for line in lines
        )
        assert max(map(len, lines)) < 200

    def test_malformed_file_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("{}\n")
        code, _, err = run(capsys, ["verify-catalog", "--in", str(path)])
        assert code == 1
        assert "error:" in err


class TestParser:
    #: What ``--help`` names: every subcommand at the top level, every option of each
    #: subcommand.  The wording is argparse's and differs across Python versions.
    HELP_NAMES = {
        "dynkin": ["classify", "symmetrize", "orbits", "extend", "enumerate", "verify-catalog"],
        "classify": ["--input", "--format"],
        "symmetrize": ["--input", "--format"],
        "orbits": ["--input", "--format"],
        "extend": ["--input", "--format", "--mode", "--zero-vertex"],
        "enumerate": ["--min-rank", "--max-rank", "--out", "--format", "--oracle"],
        "verify-catalog": ["--in"],
    }

    @pytest.mark.parametrize("command", list(HELP_NAMES))
    def test_help_names_every_subcommand_and_option(self, capsys, command):
        argv = ["--help"] if command == "dynkin" else [command, "--help"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        out, err = capsys.readouterr()
        assert (exit_info.value.code, err) == (0, "")
        words = set(re.findall(r"[\w-]+", out))
        assert [n for n in ["--help"] + self.HELP_NAMES[command] if n not in words] == []

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(dynkin.cli, "build_parser", refuse)
        code, out, err = run(capsys, ["orbits", "--format", "json"], "2 -1\n-1 2\n", monkeypatch)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"orbit_blocks": [[1, 2]], "orbit_semantics": "verified"}


def _run_module(argv, stdin_text, cwd):
    """``python -m dynkin.cli ARGV`` in a fresh interpreter, as the ``dynkin`` script starts."""
    src = str(Path(dynkin.cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "dynkin.cli", *argv],
        input=stdin_text,
        env=dict(os.environ, PYTHONPATH=path),
        cwd=cwd,
        capture_output=True,
        text=True,
    )


def test_module_entry_point(tmp_path):
    done = _run_module(["classify", "--format", "json"], "2 -1\n-4 2\n", tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        '{"components": [{"compact_hyperbolic": false, "hyperbolic": false, "kind": "affine", '
        '"vertices": [1, 2]}], "indecomposable": true, "rank": 2}\n'
    )
    done = _run_module(["enumerate"], "", tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert "--out" in done.stderr
    assert list(tmp_path.iterdir()) == []
    done = _run_module(["classify"], "2 1\n-1 2\n", tmp_path)  # main's own exit code
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: off-diagonal entry 1 at (1, 2)")
