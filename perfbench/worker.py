"""One workload process.  Started by ``run.py`` with ``src`` on ``PYTHONPATH``.

``python perfbench/worker.py catalog [--trace] --out FILE``
    ``enumerate_hyperbolic(3, 10)`` plus the JSONL write, then ``search_rank(11)``.
``python perfbench/worker.py queries --seed N --seconds S [--requests R] [--trace] --out FILE``
    The seeded request stream, whole rounds until S seconds of stream time
    (or exactly R requests, to replay an earlier run under the tracer).
``python perfbench/worker.py cli --out FILE -- ARGV...``
    ``dynkin.cli.main(ARGV)`` with the tracer installed, for traced cold-cli runs.

Each writes one JSON document to ``--out``.  Answer checks run outside the
timed sections, with the tracer removed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import inputs
from tracer import Tracer

import dynkin

clock = time.perf_counter

#: Rounds every queries run completes; peak RSS is read after exactly this many,
#: so a faster program that fits more rounds into the run is not charged for
#: the memory the extra rounds take.
MIN_ROUNDS = 2


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def kind_cache_size():
    """Entries in the kind cache, or ``None`` once the module no longer has one."""
    cache = getattr(sys.modules.get("dynkin.classify"), "_KIND_CACHE", None)
    return len(cache) if cache is not None else None


def _tracer(enabled: bool):
    if not enabled:
        return None
    tr = Tracer()
    tr.install()
    return tr


def _trace_doc(tr, cache_before):
    if tr is None:
        return None
    doc = tr.dump()
    after = kind_cache_size()
    doc["kind_cache_entries"] = after
    doc["kind_cache_new"] = None if after is None else after - cache_before
    return doc


# == catalog ==


def run_catalog(args) -> dict:
    work = Path(args.out).parent
    out_path = work / "catalog.jsonl"
    cache_before = kind_cache_size()
    tr = _tracer(args.trace)
    t0 = clock()
    entries = dynkin.enumerate_hyperbolic(3, 10)
    dynkin.write_catalog(entries, out_path)
    t1 = clock()
    rank11 = dynkin.search_rank(11)
    t2 = clock()
    rss = peak_rss_mb()
    doc = _trace_doc(tr, cache_before)
    if tr is not None:
        tr.uninstall()

    problems = []
    produced = out_path.read_bytes()
    if produced != inputs.REFERENCE_CATALOG.read_bytes():
        problems.append("catalog bytes differ from the reference catalog")
    lines = produced.decode("utf-8").splitlines()[1:]
    problems += inputs.check_catalog_counts([json.loads(ln) for ln in lines if ln.strip()])
    if rank11:
        problems.append(f"search_rank(11) found {len(rank11)} classes, expected none")
    return {
        "enumerate_s": t1 - t0,
        "rank11_s": t2 - t1,
        "work_s": t2 - t0,
        "peak_rss_mb": rss,
        "attempted": 2,
        "failed": 0,  # an exception in either call ends the worker, and the run, with an error
        "problems": problems,
        "trace": doc,
    }


# == queries ==


def answer(slice_name: str, text: str, index: dict):
    """Serve one request through the public API; returns what the checks need."""
    A = dynkin.parse_matrix_input(text)
    if slice_name == "hyperbolic":
        comps = dynkin.classify(A)
        sym, _ = dynkin.is_symmetrizable(A)
        d = dynkin.symmetrizer(A).d if sym else None
        part = dynkin.orbit_partition(dynkin.matrix_to_diagram(A))
        return [(c.type.kind, c.type.hyperbolic, c.type.compact_hyperbolic) for c in comps], sym, d, part.blocks
    if slice_name == "identify":
        return index.get(dynkin.canonical_form(A).rows)
    if slice_name == "families":
        kinds = [c.type.kind for c in dynkin.classify(A)]
        B = dynkin.extend_finite_to_affine(A)
        C = dynkin.overextend_affine(B)
        top = dynkin.classify(C)[0].type if C.rank <= 10 else None
        return kinds, B.rows, C.rows, top
    if slice_name == "random":
        comps = dynkin.classify(A)
        sym, witness = dynkin.is_symmetrizable(A)
        d = dynkin.symmetrizer(A).d if sym else None
        return [c.type.kind for c in comps], sym, witness, d
    return dynkin.canonical_form(A).rows  # symmetric


def check_answer(slice_name: str, expect: dict, got) -> bool:
    """Independent check of one answer against the reference catalog or exact arithmetic."""
    if slice_name in ("hyperbolic", "identify"):
        e, perm = expect["entry"], expect["perm"]
        if slice_name == "identify":
            return got == e["id"]
        rows = inputs.relabel(e["matrix"], perm)
        comps, sym, d, blocks = got
        return (
            comps == [("indefinite", True, e["compact"])]
            and sym == e["symmetrizable"]
            and (not sym or (inputs.symmetrizes(rows, d) and len(set(d)) == e["root_lengths"]))
            and len(blocks) == len(e["orbit_blocks"])
            and sorted(sorted(b) for b in blocks) == inputs.mapped_blocks(e["orbit_blocks"], perm)
        )
    rows = expect["rows"]
    if slice_name == "families":
        kinds, B, C, top = got
        n = len(rows)
        ok = (
            kinds == ["finite"]
            and inputs.is_finite_symmetrizable(rows)
            and [list(r[1:]) for r in B[1:]] == rows
            and inputs.is_affine_symmetrizable(B)
            and [r[1:] for r in C[1:]] == list(B)
            and C[0][1] == C[1][0] == -1
            and C[0][2:] == (0,) * n
        )
        if top is not None:
            ok = ok and top.kind == "indefinite"
        if expect["family"] == "E8":
            ok = ok and top is not None and top.hyperbolic
        return ok
    if slice_name == "random":
        kinds, sym, witness, d = got
        if len(rows) <= inputs.MINOR_CHECK_RANK:
            minors = dynkin.principal_minors(dynkin.validate_gcm(rows))
            if kinds != [inputs.kind_from_minors(minors)]:
                return False
        if sym:
            return inputs.symmetrizes(rows, d)
        fwd, rev = inputs.cycle_products(rows, witness.cycle)
        return fwd != rev and (fwd, rev) == (witness.forward_product, witness.reverse_product)
    return [list(r) for r in got] == rows  # symmetric: K_n and 2*I_n are their own canonical form


def tally(batch, results, check) -> tuple[list[str], list[str]]:
    """(raised, wrong) descriptions for one round.

    Both count as failed operations.  A request that raised, whatever the
    exception, is not checked; one that returned is checked, and a wrong
    answer also makes the run incorrect.
    """
    failures, wrong = [], []
    for (slice_name, _, expect), got in zip(batch, results):
        if isinstance(got, Exception):
            failures.append(f"{slice_name}: {type(got).__name__}: {got}")
        elif not check(slice_name, expect, got):
            source = expect.get("family") or expect.get("entry", {}).get("id")
            wrong.append(f"{slice_name}: wrong answer for {source}")
    return failures, wrong


def run_queries(args) -> dict:
    reference = inputs.load_reference()
    cache_before = kind_cache_size()
    tr = _tracer(args.trace)
    index = {e.matrix.rows: e.canonical_id for e in dynkin.read_catalog(inputs.REFERENCE_CATALOG)}
    latencies: list[tuple[str, float]] = []
    rounds: list[float] = []
    failures: list[str] = []
    wrong: list[str] = []
    stream_s = 0.0
    for batch in inputs.query_rounds(args.seed, reference):
        if args.requests is not None and len(latencies) >= args.requests:
            break
        if args.requests is None and stream_s >= args.seconds and len(rounds) >= MIN_ROUNDS:
            break
        results = []
        round_s = 0.0
        for slice_name, text, _ in batch:
            t0 = clock()
            try:
                with tr.span("request", slice_name) if tr is not None else nullcontext():
                    got = answer(slice_name, text, index)
            except Exception as exc:  # noqa: BLE001  every failure is counted, none stops the stream
                got = exc
            dt = clock() - t0
            round_s += dt
            latencies.append((slice_name, dt))
            results.append(got)
        stream_s += round_s
        rounds.append(round_s)
        if len(rounds) == MIN_ROUNDS:
            rss_min_rounds = peak_rss_mb()
        if tr is not None:
            tr.uninstall()
        round_failures, round_wrong = tally(batch, results, check_answer)
        failures += round_failures
        wrong += round_wrong
        if tr is not None:
            tr.install()
    doc = _trace_doc(tr, cache_before)
    if tr is not None:
        tr.uninstall()
    return {
        "stream_s": stream_s,
        "rounds_s": rounds,
        "work_s": statistics.median(rounds),
        "latencies": latencies,
        "peak_rss_mb": rss_min_rounds,
        "attempted": len(latencies),
        "failed": len(failures) + len(wrong),
        "failures": sorted(set(failures)),
        "problems": wrong[:20],
        "trace": doc,
    }


# == traced one-shot CLI ==


def run_cli(args) -> int:
    from dynkin import cli

    cache_before = kind_cache_size()
    tr = _tracer(True)
    with tr.span("cli.main"):
        code = cli.main(args.argv)
    doc = _trace_doc(tr, cache_before)
    tr.uninstall()
    Path(args.out).write_text(json.dumps({"trace": doc}), encoding="utf-8")
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=("catalog", "queries", "cli"))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--requests", type=int)
    p.add_argument("--trace", action="store_true")
    argv = sys.argv[1:] if argv is None else list(argv)
    cli_argv = []
    if "--" in argv:  # everything after it goes to dynkin.cli.main unparsed
        cut = argv.index("--")
        argv, cli_argv = argv[:cut], argv[cut + 1 :]
    args = p.parse_args(argv)
    args.argv = cli_argv
    if args.mode == "cli":
        return run_cli(args)
    doc = run_catalog(args) if args.mode == "catalog" else run_queries(args)
    Path(args.out).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
