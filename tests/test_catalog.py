"""Catalog entries, file format, extensions, and the verification harness."""

from __future__ import annotations

import importlib
import json

import pytest

from dynkin import (
    CatalogFormatError,
    RankBoundError,
    WrongTypeError,
    enumerate_hyperbolic,
    extend_finite_to_affine,
    overextend_affine,
    read_catalog,
    validate_gcm,
    write_catalog,
)
from dynkin.canonical import canonical_rows
from dynkin.catalog import (
    catalog_from_lines,
    catalog_to_latex,
    catalog_to_lines,
    catalog_to_tsv,
    verify_catalog,
)
from dynkin.errors import DynkinError
from dynkin.weyl import OrbitPartition, orbit_partitions_agree

from lie_fixtures import FINITE_FIXTURES, path_with_heavy_end


def entry_obj(entry) -> dict:
    """Plain-dict form of an entry, obtained through the public serializer."""
    return json.loads(catalog_to_lines((entry,)).splitlines()[1])


def lines_for(*objs: dict) -> str:
    header = catalog_to_lines(()).splitlines()[0]
    return "\n".join([header] + [json.dumps(o) for o in objs]) + "\n"


class TestEntries:
    def test_ids_and_shapes(self, catalog):
        seen = set()
        for e in catalog:
            assert e.canonical_id.startswith(f"{e.rank}-")
            assert e.canonical_id not in seen
            seen.add(e.canonical_id)
            assert e.matrix.rank == e.rank

    def test_matrices_canonical(self, catalog):
        for e in catalog:
            assert canonical_rows(e.matrix.rows)[0] == e.matrix.rows

    def test_symmetrizer_fields_consistent(self, catalog):
        for e in catalog:
            assert e.symmetrizable == (e.symmetrizer is not None)
            assert e.symmetrizable == (e.root_lengths is not None)
            if e.symmetrizable:
                assert e.root_lengths == len(set(e.symmetrizer))
                assert e.orbit_semantics == "verified"
            else:
                assert e.orbit_semantics == "unverified"

    def test_orbit_blocks_partition_vertices(self, catalog):
        for e in catalog:
            flat = sorted(v for b in e.orbit_blocks.blocks for v in b)
            assert flat == list(range(1, e.rank + 1))

    def test_dual_closure(self, catalog):
        by_id = {e.canonical_id: e for e in catalog}
        for e in catalog:
            mate = by_id[e.dual_id]
            assert mate.dual_id == e.canonical_id
            transpose = tuple(zip(*e.matrix.rows))
            assert mate.matrix.rows == canonical_rows(transpose)[0]

    def test_rank_range_validated(self):
        with pytest.raises(RankBoundError):
            enumerate_hyperbolic(2, 5)
        with pytest.raises(RankBoundError):
            enumerate_hyperbolic(3, 11)
        with pytest.raises(RankBoundError):
            enumerate_hyperbolic(5, 4)


class TestFileFormat:
    def test_round_trip(self, catalog):
        assert catalog_from_lines(catalog_to_lines(catalog)) == catalog

    def test_byte_deterministic(self, catalog):
        text = catalog_to_lines(catalog)
        assert catalog_to_lines(catalog_from_lines(text)) == text

    def test_write_read(self, catalog, tmp_path):
        path = tmp_path / "catalog.jsonl"
        write_catalog(catalog[:5], path)
        assert read_catalog(path) == catalog[:5]

    def test_empty_catalog(self):
        assert catalog_from_lines(catalog_to_lines(())) == ()

    def test_rejects_empty_file(self):
        with pytest.raises(CatalogFormatError, match="empty"):
            catalog_from_lines("")

    def test_rejects_bad_header(self):
        with pytest.raises(CatalogFormatError, match="invalid JSON"):
            catalog_from_lines("not json\n")
        with pytest.raises(CatalogFormatError, match="unsupported"):
            catalog_from_lines('{"format": "dynkin-catalog/999"}\n')

    def test_rejects_bad_entry_json(self):
        with pytest.raises(CatalogFormatError, match="line 2"):
            catalog_from_lines(catalog_to_lines(()) + "{broken\n")

    def test_rejects_unknown_fields(self, catalog):
        obj = entry_obj(catalog[0])
        obj["extra"] = 1
        with pytest.raises(CatalogFormatError, match="unexpected entry fields"):
            catalog_from_lines(lines_for(obj))
        del obj["extra"]
        del obj["rank"]
        with pytest.raises(CatalogFormatError, match="unexpected entry fields"):
            catalog_from_lines(lines_for(obj))

    def test_rejects_rank_mismatch(self, catalog):
        obj = entry_obj(catalog[0])
        obj["rank"] = obj["rank"] + 1
        with pytest.raises(CatalogFormatError, match="rank field"):
            catalog_from_lines(lines_for(obj))

    def test_rejects_invalid_matrix(self, catalog):
        obj = entry_obj(catalog[0])
        obj["matrix"] = [[2, -1], [0, 2]]
        obj["rank"] = 2
        with pytest.raises(CatalogFormatError, match="bad matrix"):
            catalog_from_lines(lines_for(obj))

    def test_rejects_inconsistent_symmetrizer(self, catalog):
        sym = next(e for e in catalog if e.symmetrizable)
        obj = entry_obj(sym)
        obj["symmetrizer"] = obj["symmetrizer"][:-1]
        with pytest.raises(CatalogFormatError, match="bad symmetrizer"):
            catalog_from_lines(lines_for(obj))
        nonsym = next(e for e in catalog if not e.symmetrizable)
        obj = entry_obj(nonsym)
        obj["symmetrizer"] = [1] * nonsym.rank
        with pytest.raises(CatalogFormatError, match="null symmetrizer"):
            catalog_from_lines(lines_for(obj))

    def test_rejects_broken_orbit_partition(self, catalog):
        obj = entry_obj(catalog[0])
        obj["orbit_blocks"] = [[1]]
        with pytest.raises(CatalogFormatError, match="partition"):
            catalog_from_lines(lines_for(obj))
        obj = entry_obj(catalog[0])
        obj["orbit_semantics"] = "maybe"
        with pytest.raises(CatalogFormatError, match="orbit_semantics"):
            catalog_from_lines(lines_for(obj))

    def test_rejects_non_boolean_compact(self, catalog):
        for value in ("no", 0, None):
            obj = entry_obj(catalog[0])
            obj["compact"] = value
            with pytest.raises(CatalogFormatError, match="compact must be a boolean"):
                catalog_from_lines(lines_for(obj))

    def test_rejects_duplicate_ids(self, catalog):
        obj = entry_obj(catalog[0])
        with pytest.raises(CatalogFormatError, match="duplicate id"):
            catalog_from_lines(lines_for(obj, obj))


class TestExtensions:
    def test_a2_closes_to_cycle(self):
        out = extend_finite_to_affine(validate_gcm(FINITE_FIXTURES["A2"]))
        assert out.rows == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))

    def test_a1_doubles_the_edge(self):
        out = extend_finite_to_affine(validate_gcm([[2]]))
        assert out.rows == ((2, -2), (-2, 2))

    def test_g2_attaches_single_edge(self):
        out = extend_finite_to_affine(validate_gcm(FINITE_FIXTURES["G2"]))
        assert out.rows == ((2, -1, 0), (-1, 2, -1), (0, -3, 2))

    def test_rejects_wrong_type(self):
        with pytest.raises(WrongTypeError):
            extend_finite_to_affine(validate_gcm([[2, -2], [-2, 2]]))
        with pytest.raises(WrongTypeError):
            extend_finite_to_affine(validate_gcm([[2, 0], [0, 2]]))
        with pytest.raises(WrongTypeError):
            overextend_affine(validate_gcm([[2, -1], [-1, 2]]))

    def test_overextend_default_vertex(self):
        out = overextend_affine(validate_gcm([[2, -2], [-2, 2]]))
        assert out.rows == ((2, -1, 0), (-1, 2, -2), (0, -2, 2))

    def test_overextend_chosen_vertex(self):
        out = overextend_affine(validate_gcm([[2, -2], [-2, 2]]), zero_vertex=2)
        assert out.rows == ((2, 0, -1), (0, 2, -2), (-1, -2, 2))

    def test_overextend_vertex_range(self):
        with pytest.raises(DynkinError):
            overextend_affine(validate_gcm([[2, -2], [-2, 2]]), zero_vertex=3)

    def test_chain_lands_in_catalog(self, catalog):
        chained = overextend_affine(extend_finite_to_affine(validate_gcm([[2]])))
        canon = canonical_rows(chained.rows)[0]
        assert any(e.matrix.rows == canon for e in catalog if e.rank == 3)


class TestVerification:
    def test_full_catalog_passes(self, catalog):
        report = verify_catalog(catalog)
        assert report.all_passed
        assert all(line.startswith("PASS ") for line in report.format_lines())

    def test_check_names_stable(self, catalog):
        names = [c.name for c in verify_catalog(catalog).checks]
        assert names == [
            "rank-bound",
            "well-formed",
            "hyperbolic",
            "symmetrizer",
            "lorentzian",
            "duality",
            "affine-subdiagram-corank",
            "corank1-connected",
            "product4-edges",
            "rank3-affine-edge",
            "max-edge-product",
            "compact-profile",
            "ranks-7-10-symmetrizable",
            "root-length-bound",
            "orbit-block-bound",
            "equal-norm-orbit-split",
            "orbit-oracle",
            "headline-counts",
        ]

    def test_partial_catalog_fails_global_checks(self, catalog):
        rank3 = tuple(e for e in catalog if e.rank == 3)
        report = verify_catalog(rank3)
        assert not report.all_passed
        by_name = {c.name: c for c in report.checks}
        assert not by_name["headline-counts"].passed
        # per-entry checks still hold on the subset
        assert by_name["hyperbolic"].passed
        assert by_name["duality"].passed
        # catalog-wide profile claims need the full rank range
        assert not by_name["compact-profile"].passed

    def test_fabricated_out_of_range_entry_is_flagged(self, catalog):
        n = 11
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            rows[i][i + 1] = rows[i + 1][i] = -1
        obj = {
            "id": "11-001",
            "rank": n,
            "matrix": rows,
            "compact": False,
            "symmetrizable": True,
            "symmetrizer": [1] * n,
            "root_lengths": 1,
            "orbit_blocks": [list(range(1, n + 1))],
            "orbit_semantics": "verified",
            "dual_id": "11-001",
        }
        loaded = catalog_from_lines(lines_for(obj))  # schema-valid, loads fine
        assert len(loaded) == 1
        report = verify_catalog(catalog + loaded)
        assert not report.all_passed
        by_name = {c.name: c for c in report.checks}
        assert not by_name["rank-bound"].passed
        assert "11-001" in by_name["rank-bound"].detail

    def test_entry_the_loader_rejects_is_listed_not_raised(self, catalog):
        sym = next(e for e in catalog if e.symmetrizable and e.dual_id != e.canonical_id)
        plain = next(e for e in catalog if not e.symmetrizable and e.dual_id != e.canonical_id)
        for e, bad in (
            (sym, sym._replace(symmetrizer=None)),
            (sym, sym._replace(root_lengths=None)),
            (plain, plain._replace(symmetrizable=True)),
            (sym, sym._replace(symmetrizer=sym.symmetrizer[:-1])),
            (sym, sym._replace(rank=sym.rank + 1)),
            (sym, sym._replace(orbit_blocks=OrbitPartition(sym.orbit_blocks.blocks[1:]))),
        ):
            mate = next(x for x in catalog if x.canonical_id == e.dual_id)
            report = verify_catalog((mate, bad))
            naming = [c.name for c in report.checks if e.canonical_id in c.detail]
            assert naming == ["well-formed"]
            by_name = {c.name: c for c in report.checks}
            assert not by_name["well-formed"].passed
            assert by_name["duality"].passed  # the mate's dual is still found by id

    @pytest.mark.parametrize(
        "fields, detail",
        [
            (
                dict(
                    symmetrizable=True,
                    symmetrizer=(1,) * 5,
                    root_lengths=1,
                    orbit_semantics="verified",
                ),
                "5-012 unexpectedly symmetrizable; max symmetrizable compact rank is not 4",
            ),
            (
                dict(matrix=validate_gcm(FINITE_FIXTURES["A5"])),
                "5-012 is not a cycle with a unique double arrow",
            ),
        ],
        ids=["symmetrizable", "path"],
    )
    def test_compact_profile_names_the_rank5_entry(self, catalog, fields, detail):
        # 5-012 is the one compact entry of rank 5, a cycle with one double arrow
        changed = tuple(e._replace(**fields) if e.canonical_id == "5-012" else e for e in catalog)
        assert [e.canonical_id for e in changed if e.compact and e.rank == 5] == ["5-012"]
        assert catalog_from_lines(catalog_to_lines(changed)) == changed  # loadable
        check = next(c for c in verify_catalog(changed).checks if c.name == "compact-profile")
        assert (check.passed, check.detail) == (False, detail)

    def test_orbit_walk_past_its_budget_fails_orbit_oracle(self, catalog, monkeypatch):
        monkeypatch.setattr(importlib.import_module("dynkin.weyl"), "DEFAULT_BUDGET", 1)
        assert orbit_partitions_agree(catalog[0].matrix) is False
        failed = [c for c in verify_catalog(catalog).checks if not c.passed]
        assert [c.name for c in failed] == ["orbit-oracle"]
        assert failed[0].detail.startswith("offending entries: 3-001, 3-002, ")

    def test_out_of_range_entry_is_never_walked(self, catalog, monkeypatch):
        n = 22
        obj = {
            "id": "22-001",
            "rank": n,
            "matrix": path_with_heavy_end(n),
            "compact": False,
            "symmetrizable": False,
            "symmetrizer": None,
            "root_lengths": None,
            "orbit_blocks": [list(range(1, n + 1))],
            "orbit_semantics": "unverified",
            "dual_id": "22-001",
        }
        loaded = catalog_from_lines(lines_for(obj))
        module = importlib.import_module("dynkin.catalog")
        walked = set()

        def spy(name, rank=len):
            real = getattr(module, name)

            def wrapper(arg):
                assert rank(arg) <= 10, f"{name} walked rank {rank(arg)}"
                walked.add(name)
                return real(arg)

            monkeypatch.setattr(module, name, wrapper)

        spy("hyperbolic_compact_scan")
        spy("subdiagram_kinds")
        spy("orbit_partitions_agree", rank=lambda A: A.rank)
        spy("inertia")
        spy("det_int")
        report = verify_catalog(catalog + loaded)
        assert len(walked) == 5
        by_name = {c.name: c for c in report.checks}
        for name in (
            "rank-bound", "hyperbolic", "lorentzian", "affine-subdiagram-corank", "orbit-oracle"
        ):
            assert not by_name[name].passed
            assert "22-001" in by_name[name].detail


class TestTableEmitters:
    def test_tsv_shape(self, catalog):
        text = catalog_to_tsv(catalog[:10])
        lines = text.splitlines()
        assert len(lines) == 11
        header = lines[0].split("\t")
        assert header[0] == "id" and header[-1] == "dual_id"
        first = lines[1].split("\t")
        assert first[0] == catalog[0].canonical_id
        assert json.loads(first[2]) == [list(r) for r in catalog[0].matrix.rows]

    def test_tsv_empty_cells_for_nonsymmetrizable(self, catalog):
        e = next(x for x in catalog if not x.symmetrizable)
        row = catalog_to_tsv((e,)).splitlines()[1].split("\t")
        assert row[5] == "" and row[6] == ""

    def test_latex_wraps_table(self, catalog):
        text = catalog_to_latex(catalog[:5])
        assert text.startswith(r"\begin{tabular}")
        assert text.rstrip().endswith(r"\end{tabular}")
        assert text.count("smallmatrix") == 10  # open and close per entry

    def test_latex_marks_nonsymmetrizable(self, catalog):
        e = next(x for x in catalog if not x.symmetrizable)
        assert "N.S." in catalog_to_latex((e,))
