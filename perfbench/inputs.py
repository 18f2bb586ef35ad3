"""Seeded inputs and independent answer checks for the benchmark.

Nothing here imports ``dynkin``: the expected answers come from the committed
reference catalog, read with the ``json`` module, and from exact rational
elimination written out below.  The program under test therefore never
grades its own output.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_CATALOG = HERE / "reference_catalog.jsonl"

#: Catalog classes per rank 3..10, and the symmetrizable total (the paper's counts).
RANK_SPLIT = {3: 123, 4: 53, 5: 22, 6: 22, 7: 4, 8: 5, 9: 5, 10: 4}
TOTAL_CLASSES = 238
SYMMETRIZABLE_CLASSES = 142

#: Requests of each slice per rank in one ``queries`` round, with the ranks they cover:
#: 96 hyperbolic, 48 identify, 46 families (A_n and one other series per rank),
#: 34 random and 14 symmetric requests, about 40/20/19/14/6 % of the stream.
CATALOG_RANKS = range(3, 11)
HYPERBOLIC_PER_RANK = 12
IDENTIFY_PER_RANK = 6
FAMILY_RANKS = range(2, 25)
RANDOM_RANKS = range(4, 21)
RANDOM_PER_RANK = 2
#: ``symmetric`` slice inputs, each once per round: complete simply-laced K_n and 2*I_n.
SYMMETRIC_SIZES = range(4, 11)

#: Random-slice edge labels (p, q); single edges dominate, as in real diagrams.
RANDOM_LABELS = [(1, 1)] * 6 + [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1)]
MINOR_CHECK_RANK = 12


def load_reference() -> list[dict]:
    """Entries of the reference catalog as plain dicts (header line dropped)."""
    lines = REFERENCE_CATALOG.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines[1:] if line.strip()]


def check_catalog_counts(entries: list[dict]) -> list[str]:
    """Problems with the paper's headline counts, or an empty list."""
    problems = []
    if len(entries) != TOTAL_CLASSES:
        problems.append(f"{len(entries)} classes, expected {TOTAL_CLASSES}")
    sym = sum(1 for e in entries if e["symmetrizable"])
    if sym != SYMMETRIZABLE_CLASSES:
        problems.append(f"{sym} symmetrizable, expected {SYMMETRIZABLE_CLASSES}")
    split = {r: 0 for r in RANK_SPLIT}
    for e in entries:
        split[e["rank"]] = split.get(e["rank"], 0) + 1
    if split != RANK_SPLIT:
        problems.append(f"per-rank split {split}, expected {RANK_SPLIT}")
    return problems


# == matrices ==


def relabel(rows, perm):
    """Rows of the matrix with vertex ``perm[i]`` moved to position ``i``."""
    return [[rows[a][b] for b in perm] for a in perm]


def to_text(rows, rng: random.Random) -> str:
    """Matrix as request text: whitespace rows, a bare JSON array or a JSON object."""
    form = rng.randrange(3)
    if form == 0:
        return "\n".join(" ".join(map(str, r)) for r in rows) + "\n"
    if form == 1:
        return json.dumps(rows)
    return json.dumps({"matrix": rows})


def _path(n: int):
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = rows[i + 1][i] = -1
    return rows


def classical(series: str, n: int):
    """Cartan matrix of the finite type ``series``_n (Bourbaki numbering)."""
    if series == "G":
        return [[2, -1], [-3, 2]]
    if series == "F":
        return [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    rows = _path(n)
    if series == "B":
        rows[n - 2][n - 1] = -2
    elif series == "C":
        rows[n - 1][n - 2] = -2
    elif series == "D":
        rows[n - 2][n - 1] = rows[n - 1][n - 2] = 0
        rows[n - 3][n - 1] = rows[n - 1][n - 3] = -1
    elif series == "E":
        # 1-3-4-...-n with 2 hanging off 4: path 2-4 reattached from 1-2.
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
        for a, b in edges:
            rows[a][b] = rows[b][a] = -1
    return rows


#: Exceptional types come right after A so that the first round of every run
#: includes them, E_8 (whose overextension must be the hyperbolic E_10) among them.
FAMILIES = (
    [("A", n) for n in FAMILY_RANKS]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    + [("B", n) for n in FAMILY_RANKS]
    + [("C", n) for n in FAMILY_RANKS if n >= 3]
    + [("D", n) for n in FAMILY_RANKS if n >= 4]
)


def random_gcm(rng: random.Random, n: int):
    """Sparse connected GCM: a random tree plus about n/5 extra edges."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(n // 5):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    for a, b in edges:
        p, q = rng.choice(RANDOM_LABELS)
        rows[a][b], rows[b][a] = -p, -q
    return relabel(rows, rng.sample(range(n), n))


def leading_pivots(rows) -> list[Fraction]:
    """Pivots of Gaussian elimination without row exchanges.

    The k-th pivot is D_k / D_(k-1) for the leading principal minors D_k; a
    zero pivot stops the elimination and is returned last.
    """
    m = [[Fraction(v) for v in r] for r in rows]
    n = len(m)
    out = []
    for k in range(n):
        piv = m[k][k]
        out.append(piv)
        if piv == 0:
            break
        for r in range(k + 1, n):
            f = m[r][k] / piv
            if f:
                for c in range(k, n):
                    m[r][c] -= f * m[k][c]
    return out


def is_finite_symmetrizable(rows) -> bool:
    """Finite type, for a symmetrizable indecomposable GCM: every leading minor > 0."""
    return all(p > 0 for p in leading_pivots(rows))


def is_affine_symmetrizable(rows) -> bool:
    """Affine type, for a symmetrizable indecomposable GCM: leading minors > 0, det = 0."""
    piv = leading_pivots(rows)
    return len(piv) == len(rows) and all(p > 0 for p in piv[:-1]) and piv[-1] == 0


def kind_from_minors(minors: dict) -> str:
    """Cartan kind of an indecomposable GCM from all of its principal minors."""
    full = max(minors, key=len)
    proper_positive = all(v > 0 for s, v in minors.items() if s != full)
    if proper_positive and minors[full] > 0:
        return "finite"
    if proper_positive and minors[full] == 0:
        return "affine"
    return "indefinite"


def symmetrizes(rows, d) -> bool:
    n = len(rows)
    return len(d) == n and all(d[i] > 0 for i in range(n)) and all(
        d[i] * rows[i][j] == d[j] * rows[j][i] for i in range(n) for j in range(n)
    )


def cycle_products(rows, cycle) -> tuple[int, int]:
    """Products of the entries along a closed 1-based vertex sequence, both ways."""
    fwd = rev = 1
    for a, b in zip(cycle, cycle[1:]):
        fwd *= rows[a - 1][b - 1]
        rev *= rows[b - 1][a - 1]
    return fwd, rev


def mapped_blocks(blocks, perm) -> list[list[int]]:
    """Stored 1-based orbit blocks expressed in the relabelled vertex numbering."""
    where = {old: new for new, old in enumerate(perm)}
    return sorted(sorted(where[v - 1] + 1 for v in b) for b in blocks)


# == the queries stream ==


def _cycled(rng: random.Random, items):
    """Endless stream over ``items``: each pass is a fresh seeded permutation."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _by_rank(entries: list[dict]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for e in entries:
        out.setdefault(e["rank"], []).append(e)
    return out


def slice_counts() -> dict[str, int]:
    """Requests of each slice in one ``queries`` round."""
    return {
        "hyperbolic": HYPERBOLIC_PER_RANK * len(CATALOG_RANKS),
        "identify": IDENTIFY_PER_RANK * len(CATALOG_RANKS),
        "families": 2 * len(FAMILY_RANKS),
        "random": RANDOM_PER_RANK * len(RANDOM_RANKS),
        "symmetric": 2 * len(SYMMETRIC_SIZES),
    }


def query_rounds(seed: int, entries: list[dict]):
    """Endless seeded rounds of requests ``(slice, text, expect)``.

    A round is stratified: every rank of a slice gets the same number of
    requests, every ``symmetric`` input appears once, and the classical
    series at each rank follow the round number.  The catalog entry, random
    matrix, vertex relabelling, input format and request order are drawn from
    the seed.  Rank and series drive the cost of a request, so every round
    costs about the same and the run-to-run spread stays small.
    """
    rng = random.Random(seed)
    by_rank = _by_rank(entries)
    series_at: dict[int, list[str]] = {}
    for series, n in FAMILIES:
        series_at.setdefault(n, []).append(series)

    def catalog_request(slice_name, rank):
        e = rng.choice(by_rank[rank])
        perm = rng.sample(range(rank), rank)
        return slice_name, to_text(relabel(e["matrix"], perm), rng), {"entry": e, "perm": perm}

    for round_no in itertools.count():
        batch = []
        for rank in CATALOG_RANKS:
            batch += [catalog_request("hyperbolic", rank) for _ in range(HYPERBOLIC_PER_RANK)]
            batch += [catalog_request("identify", rank) for _ in range(IDENTIFY_PER_RANK)]
        for n in FAMILY_RANKS:
            # A_n, the slowest series, in every round; the other series at rank n
            # take turns by round number, the same for every seed.
            others = series_at[n][1:]
            for series in ("A", others[round_no % len(others)]):
                rows = relabel(classical(series, n), rng.sample(range(n), n))
                batch.append(("families", to_text(rows, rng), {"family": f"{series}{n}", "rows": rows}))
        for n in RANDOM_RANKS:
            for _ in range(RANDOM_PER_RANK):
                rows = random_gcm(rng, n)
                batch.append(("random", to_text(rows, rng), {"rows": rows}))
        for n in SYMMETRIC_SIZES:
            for off in (-1, 0):  # K_n, then 2*I_n
                rows = [[2 if i == j else off for j in range(n)] for i in range(n)]
                batch.append(("symmetric", to_text(rows, rng), {"rows": rows}))
        rng.shuffle(batch)
        yield batch


# == the cold-cli command rounds ==


def cli_rounds(seed: int, entries: list[dict]):
    """Endless seeded rounds of one-shot commands ``(argv, stdin, expect)``.

    Each round runs every command kind once: classify on a relabelled catalog
    entry and on a relabelled classical family, symmetrize and orbits on
    relabelled catalog entries, an affine extension of a family, and
    ``verify-catalog`` on the reference file.
    """
    rng = random.Random(seed)
    ranks = _cycled(rng, CATALOG_RANKS)
    small_families = _cycled(rng, [f for f in FAMILIES if f[1] <= 12])
    by_rank = _by_rank(entries)

    def entry_input():
        rank = next(ranks)
        e = rng.choice(by_rank[rank])
        perm = rng.sample(range(rank), rank)
        rows = relabel(e["matrix"], perm)
        return to_text(rows, rng), {"entry": e, "perm": perm, "rows": rows}

    while True:
        batch = []
        for cmd in ("classify", "symmetrize", "orbits"):
            text, expect = entry_input()
            batch.append(([cmd, "--format", "json"], text, dict(expect, cmd=cmd)))
        for cmd in ("classify-family", "extend"):
            series, n = next(small_families)
            rows = relabel(classical(series, n), rng.sample(range(n), n))
            argv = ["classify"] if cmd == "classify-family" else ["extend", "--mode", "affine"]
            batch.append((argv + ["--format", "json"], to_text(rows, rng), {"cmd": cmd, "rows": rows}))
        batch.append((["verify-catalog", "--in", str(REFERENCE_CATALOG)], "", {"cmd": "verify-catalog"}))
        yield batch


def check_cli(expect: dict, code: int, out: str) -> str | None:
    """Problem with one command's exit code and output, or ``None``."""
    cmd = expect["cmd"]
    if cmd == "verify-catalog":
        lines = out.splitlines()
        if code != 0 or any(not ln.startswith(("PASS", "verified")) for ln in lines):
            return f"verify-catalog exit {code}"
        if f"verified {TOTAL_CLASSES} entries: all checks passed" not in lines:
            return "verify-catalog did not verify every entry"
        return None
    want_code = 0
    if cmd == "symmetrize" and not expect["entry"]["symmetrizable"]:
        want_code = 1
    if code != want_code:
        return f"{cmd} exit {code}, expected {want_code}"
    obj = json.loads(out)
    rows = expect["rows"]
    if cmd == "classify":
        e = expect["entry"]
        (comp,) = obj["components"]
        ok = (comp["kind"], comp["hyperbolic"], comp["compact_hyperbolic"]) == ("indefinite", True, e["compact"])
    elif cmd == "classify-family":
        (comp,) = obj["components"]
        ok = comp["kind"] == "finite" and not comp["hyperbolic"]
    elif cmd == "symmetrize":
        e = expect["entry"]
        if e["symmetrizable"]:
            ok = symmetrizes(rows, obj["symmetrizer"]) and obj["root_lengths"] == e["root_lengths"]
        else:
            fwd, rev = cycle_products(rows, obj["witness"]["cycle"])
            ok = not obj["symmetrizable"] and fwd != rev
    elif cmd == "orbits":
        e = expect["entry"]
        ok = sorted(obj["orbit_blocks"]) == mapped_blocks(e["orbit_blocks"], expect["perm"])
    else:  # extend
        out_rows = obj["matrix"]
        ok = (
            obj["kind"] == "affine"
            and len(out_rows) == len(rows) + 1
            and [r[1:] for r in out_rows[1:]] == rows
            and is_affine_symmetrizable(out_rows)
        )
    return None if ok else f"{cmd}: wrong answer"
