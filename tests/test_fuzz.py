"""Seeded fuzzing of the command line, in process.

Every case must end in a documented exit code (0 success, 1 domain error,
2 usage error, 3 verification failure), write at most one ``error:`` line,
keep every stdout line and the whole of stderr within 1,000 characters, and
never let an exception escape ``main``.  Three sources of input:

* random GCMs of ranks 1..12 (``random_gcm``) into the matrix commands,
  and command lines with a long option value, path, subcommand or argument,
  or a thousand arguments;
* hostile matrix text and JSON, and matrices whose symmetrizer weights or
  cycle products have more digits than the interpreter will print (these
  must also leave stdout empty);
* single-field mutations of catalog lines into ``verify-catalog``, plus a
  dense in-range entry that the orbit oracle walks, and hostile values of
  ``DYNKIN_SEED``.

Every case's (exit code, stdout, stderr) is pinned, one line per case, in
``tests/pinned/fuzz.txt`` (a usage error by its exit code and stdout only;
see ``tests/pins.py``).  The cases run in the test's temporary directory
and name their files relatively, so no record holds a temporary path.

A library-level case hands ``verify_catalog`` entries built in memory with
one field set to a type-correct value the file loader rejects; the report
must list each under ``well-formed`` instead of raising.
"""

from __future__ import annotations

import io
import json
import random
import sys

import dynkin.cli
from dynkin.catalog import catalog_to_lines, verify_catalog
from dynkin.cli import main
from dynkin.errors import clip
from dynkin.symmetrize import random_gcm
from dynkin.weyl import OrbitPartition

import pins

SEED = 20100

EXIT_CODES = {0, 1, 2, 3}

HOSTILE_VALUES = [
    None,
    True,
    0,
    -1,
    3,
    25,
    2**70,
    1.5,
    "",
    "x",
    "3-001",
    [],
    [[]],
    [1, "2"],
    [[1], ["2"]],
    [[None, 1]],
    [[2, -1], [-1, 2]],
    {},
    {"matrix": [[2]]},
    [[[[[]]]]],
]

HOSTILE_SEEDS = ["", "abc", "9" * 5000, "1e3"]

#: Command lines whose usage error or file error echoes a long value.
HOSTILE_ARGV = [
    ["enumerate", "--min-rank", "9" * 5000, "--out", "x"],
    ["classify", "--format", "x" * 3000],
    ["classify", "--input", "p" * 3000],
    ["c" * 3000],
    ["classify", "z" * 3000],
    ["classify"] + ["a"] * 1000,
    ["enumerate", "--m=" + "x" * 3000, "--out", "x"],
]

HOSTILE_MATRICES = [
    "",
    "\n\n# only a comment\n",
    "2 -1\n-1",
    "2 -1\n-1 2\n3",
    "2 x\n-1 2",
    "2 -1.0\n-1 2",
    "9" * 5000,
    "2 -1\n-1 " + "9" * 5000,
    "[" * 100_000,
    "[[" + "9" * 5000 + "]]",
    "[[2, -1], [-1, 2]",
    "[[2, -1], [-1, 2]] trailing",
    "[]",
    "[[]]",
    "[[2], []]",
    "[2, -1]",
    '{"rows": [[2]]}',
    '{"matrix": 5}',
    '{"matrix": [[2, NaN], [0, 2]]}',
    '{"matrix": [[2, Infinity], [0, 2]]}',
    "[[2, true], [0, 2]]",
    '[["2"]]',
    "[[2, -1], [0, 2]]",
    "[[2, 1], [1, 2]]",
    "[[3]]",
    "[[-2]]",
    "null",
    '"text"',
    "{",
    "\x00\x01\x02",
    "２ －１\n－１ ２",
    "1_0 0\n0 2",
    json.dumps([["x" * 100_000]]),
    json.dumps({"matrix": [[2, "x" * 100_000], [0, 2]]}),
]


def _huge_output_matrices():
    """Matrices in the parser's range whose ``symmetrize`` output is not.

    A rank-30 path with ``a[i][i+1] = -10^2000`` and ``a[i+1][i] = -1``, whose
    weights multiply up, and an unbalanced 4-cycle with entries near
    ``-10^1500``, whose witness products do.
    """
    n, big = 30, 10**2000
    path = [
        [2 if i == j else -big if j == i + 1 else -1 if i == j + 1 else 0 for j in range(n)]
        for i in range(n)
    ]
    b = 10**1500
    cycle = [[2, -b, 0, -1], [-1, 2, -b, 0], [0, -1, 2, -b], [-b - 1, 0, -1, 2]]
    return [path, cycle]


def _run(capsys, monkeypatch, argv, stdin_text=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse ends usage errors this way
        code = exc.code
    except Exception as exc:  # escaped main: a user would see a traceback
        code = f"uncaught {exc!r}"[:200]
    out, err = capsys.readouterr()
    return code, out, err


def _problems(code, out, err):
    found = []
    if code not in EXIT_CODES:
        found.append(f"exit {code!r}")
    if err.count("error:") > 1:
        found.append(f"{err.count('error:')} error lines")
    if len(err) > 1000:  # quoted input is clipped to 40 characters
        found.append(f"{len(err)} characters on stderr")
    if any(len(line) > 1000 for line in out.splitlines()):
        found.append(f"a stdout line of {max(map(len, out.splitlines()))} characters")
    if "Traceback" in out + err:
        found.append("traceback")
    return found


def _matrix_text(rng, rows):
    if rng.random() < 0.5:
        return json.dumps(rows if rng.random() < 0.5 else {"matrix": rows})
    return "\n".join(" ".join(map(str, r)) for r in rows) + "\n"


def _matrix_cases(rng):
    for _ in range(180):
        rank = rng.randint(1, 12)
        A = random_gcm(rng, rank, max_label=rng.choice((1, 2, 4)), edge_prob=rng.random())
        command = rng.choice(("classify", "symmetrize", "orbits", "extend"))
        argv = [command, "--format", rng.choice(("text", "json"))]
        if command == "extend":
            argv += ["--mode", rng.choice(("affine", "overextend"))]
            argv += ["--zero-vertex", str(rng.randint(-1, rank + 1))]
        yield argv, _matrix_text(rng, A.to_lists())


def _hostile_cases(rng):
    alphabet = "0123456789-+ \n\t[]{},.:\"#eEx"
    texts = list(HOSTILE_MATRICES)
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40))) for _ in range(40)]
    for text in texts:
        yield [rng.choice(("classify", "symmetrize", "orbits"))], text


def _catalog_cases(rng, lines):
    """Every entry field set to every hostile value, then the header, then whole lines."""
    header, entries = lines[0], lines[1:]
    for key in sorted(json.loads(entries[0])):
        for value in HOSTILE_VALUES:
            picked = rng.sample(entries, rng.randint(1, 3))
            k = rng.randrange(len(picked))
            obj = json.loads(picked[k])
            obj[key] = value
            yield header, picked[:k] + [json.dumps(obj)] + picked[k + 1 :]
    for key in sorted(json.loads(header)):
        for value in HOSTILE_VALUES:
            yield json.dumps({**json.loads(header), key: value}), rng.sample(entries, 1)
    long_id = json.dumps({**json.loads(entries[0]), "id": "3-" + "x" * 10_000})
    yield header, [long_id, long_id]  # duplicate id, quoted in the error
    offending = json.dumps({**json.loads(entries[0]), "id": "3-" + "x" * 100_000})
    yield header, [offending]  # loads, then fails duality: quoted in the report
    string_entry = json.dumps({**json.loads(entries[0]), "matrix": [["x" * 100_000]]})
    yield header, [string_entry]  # non-integer entry, quoted in the error
    yield header, [entries[0][:-1]]  # truncated line
    yield header, ["[" * 100_000]  # nested too deeply for the JSON decoder
    yield header, ['{"rank": ' + "9" * 5000 + "}"]  # integer past the digit limit
    yield "\x00", []


def test_cli_fuzz(capsys, monkeypatch, tmp_path, catalog):
    # the symmetrizability cross-check of verify-catalog is not under test here
    monkeypatch.setattr(dynkin.cli, "EQUIVALENCE_SAMPLES", 10)
    monkeypatch.chdir(tmp_path)  # files go by relative name, so no record holds the path
    rng = random.Random(SEED)
    problems = []
    records = {}

    def case(name, argv, text=""):
        code, out, err = _run(capsys, monkeypatch, argv, text)
        key = f"{len(records):03d} {name}"
        records[key] = pins.record(code, out, err)
        problems.extend(f"{key}: {p}" for p in _problems(code, out, err))
        return code, out, err

    hostile_argv = [(argv, "") for argv in HOSTILE_ARGV]
    for argv, text in list(_matrix_cases(rng)) + list(_hostile_cases(rng)) + hostile_argv:
        case(clip(" ".join(argv)), argv, text)
    for rows in _huge_output_matrices():
        for fmt in ("text", "json"):
            argv = ["symmetrize", "--format", fmt]
            name = f"symmetrize --format {fmt} rank {len(rows)}"
            code, out, err = case(name, argv, json.dumps(rows))
            if code != 1 or out or err.count("error:") != 1:
                problems.append(f"{name}: exit {code!r}, stdout {out[:40]!r}")
    path = tmp_path / "fuzz.jsonl"
    argv = ["verify-catalog", "--in", path.name]
    for header, entry_lines in _catalog_cases(rng, catalog_to_lines(catalog).splitlines()):
        path.write_text("\n".join([header, *entry_lines]) + "\n", encoding="utf-8")
        case("verify-catalog", argv)
    # in range, so the orbit oracle walks it (4,015 roots in its height-8
    # window); K_10 with single edges is not hyperbolic, so the report fails
    n = 10
    dense = {
        "id": "10-001",
        "rank": n,
        "matrix": [[2 if i == j else -1 for j in range(n)] for i in range(n)],
        "compact": False,
        "symmetrizable": True,
        "symmetrizer": [1] * n,
        "root_lengths": 1,
        "orbit_blocks": [list(range(1, n + 1))],
        "orbit_semantics": "verified",
        "dual_id": "10-001",
    }
    path.write_text(catalog_to_lines(()) + json.dumps(dense) + "\n", encoding="utf-8")
    code = case("verify-catalog K_10", argv)[0]
    problems += [] if code == 3 else [f"K_10: exit {code!r}"]
    path.write_text(catalog_to_lines(catalog[:3]), encoding="utf-8")
    for seed in HOSTILE_SEEDS:
        monkeypatch.setenv("DYNKIN_SEED", seed)
        case(f"verify-catalog DYNKIN_SEED={clip(seed, repr)}", argv)
    monkeypatch.delenv("DYNKIN_SEED")
    path.write_bytes(b"\xff\xfe not utf-8\n")
    for argv in (["classify", "--input", path.name], ["verify-catalog", "--in", path.name]):
        case(f"{' '.join(argv)} not utf-8", argv)
    assert len(records) >= 400
    assert not problems, "\n".join(problems[:20])
    pins.check("fuzz", records)


def _unloadable_fields(e, other):
    """(field, value) pairs of the right type that the loader rejects for entry ``e``.

    ``other`` is an entry of another rank, whose matrix then mismatches the rank.
    """
    d = e.symmetrizer or (1,) * e.rank
    partial = tuple(b - {1} for b in e.orbit_blocks.blocks if b - {1})
    yield "symmetrizable", not e.symmetrizable
    yield "symmetrizer", None if e.symmetrizable else d
    yield "symmetrizer", d[:-1]
    yield "symmetrizer", d + (1,)
    yield "root_lengths", None if e.symmetrizable else 1
    yield "rank", e.rank - 1
    yield "rank", e.rank + 1
    yield "matrix", other.matrix
    yield "orbit_blocks", OrbitPartition(())
    yield "orbit_blocks", OrbitPartition(partial)


def test_library_entries_the_loader_rejects(catalog):
    rng = random.Random(SEED)
    problems = []
    cases = 0
    for e in rng.sample(catalog, 12):
        other = rng.choice([x for x in catalog if x.rank != e.rank])
        for field, value in _unloadable_fields(e, other):
            picked = rng.sample(catalog, rng.randint(0, 2))
            entries = tuple(picked) + (e._replace(**{field: value}),)
            case = f"{e.canonical_id} {field}={value!r}"
            cases += 1
            try:
                checks = {c.name: c for c in verify_catalog(entries).checks}
            except Exception as exc:  # a library caller would see it raise
                problems.append(f"{case}: {exc!r}")
                continue
            well_formed = checks["well-formed"]
            if well_formed.passed or clip(e.canonical_id) not in well_formed.detail:
                problems.append(f"{case}: well-formed reads {well_formed.detail!r}")
    assert cases == 120
    assert not problems, "\n".join(problems[:20])
