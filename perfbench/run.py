"""Benchmark of the ``dynkin`` package, driven from outside through its public API and CLI.

    python3 perfbench/run.py --workload {catalog,queries,cold-cli} --seed N --seconds S --trace {0,1}

Run from anywhere; the package is taken from ``src/`` next to this directory.
``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same work untraced and then traced, and reports the
per-layer metrics from the traced pass.  Every answer is checked; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import signal
import tempfile
import threading
import time
from pathlib import Path

import inputs
from stats import failed_ratio, summarize
from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("catalog", "queries", "cold-cli")
#: Fresh processes timed for ``setup_s`` (and for each ``cli.*`` floor); the median is reported.
SETUP_SAMPLES = 11
MIN_ROUNDS = 2
WORKER_TIMEOUT = 170
PROCESS_TIMEOUT = 60
clock = time.perf_counter


class BenchError(Exception):
    """The benchmark could not run; no result line is printed."""


# == processes ==


def _env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["DYNKIN_SEED"] = str(seed)
    # The untimed warm-up must leave bytecode behind for the timed processes.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], env: dict, work: Path, stdin_text: str = "") -> tuple[int, str, str, float, float]:
    """Run one process to completion: (exit code, stdout, stderr, wall seconds, peak RSS MB).

    ``os.wait4`` reaps the child, so the RSS is that process's own and not the
    running maximum ``RUSAGE_CHILDREN`` keeps over every child ever waited for.
    """
    stdin_path, out_path, err_path = work / "stdin", work / "stdout", work / "stderr"
    stdin_path.write_text(stdin_text, encoding="utf-8")
    with open(stdin_path, "rb") as fin, open(out_path, "wb") as fout, open(err_path, "wb") as ferr:
        t0 = clock()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr, env=env, cwd=ROOT)
        killer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= PROCESS_TIMEOUT:
        raise BenchError(f"{argv[1:3]} did not finish within {PROCESS_TIMEOUT} s")
    return (
        proc.returncode,
        out_path.read_text(encoding="utf-8"),
        err_path.read_text(encoding="utf-8"),
        wall,
        usage.ru_maxrss / 1024,
    )


def run_worker(args: list[str], env: dict, work: Path) -> dict:
    out = work / "worker.json"
    out.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--out", str(out)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT,
    )
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def fresh_walls(code: str, env: dict, work: Path, count: int) -> list[float]:
    """Wall times of ``count`` fresh ``python -c code`` processes."""
    walls = []
    for _ in range(count):
        rc, _, err, wall, _ = spawn([sys.executable, "-c", code], env, work)
        if rc != 0:
            raise BenchError(f"setup process failed: {err.strip()[-2000:]}")
        walls.append(wall)
    return walls


def median_wall(code: str, env: dict, work: Path) -> float:
    return statistics.median(fresh_walls(code, env, work, SETUP_SAMPLES))


def setup_code(workload: str) -> str:
    """What a workload's process does before its first operation: import, and load the catalog."""
    if workload == "catalog":
        return "import dynkin"
    return f"import dynkin; dynkin.read_catalog({str(inputs.REFERENCE_CATALOG)!r})"


def metadata(args, workload_extra: dict) -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg": os.getloadavg(),
        **workload_extra,
    }


# == workloads ==


def bench_catalog(args, env, work) -> dict:
    r = run_worker(["catalog"], env, work)
    out = {
        "untraced": r,
        "report": {"enumerate_s": r["enumerate_s"], "rank11_s": r["rank11_s"]},
        "rounds": 1,
    }
    if args.trace:
        out["traced"] = run_worker(["catalog", "--trace"], env, work)
        out["overhead"] = out["traced"]["work_s"] / r["work_s"]
    return out


def bench_queries(args, env, work) -> dict:
    base = ["queries", "--seed", str(args.seed)]
    r = run_worker(base + ["--seconds", str(args.seconds)], env, work)
    lat = [t for _, t in r["latencies"]]
    by_slice: dict[str, list[float]] = {}
    for s, t in r["latencies"]:
        by_slice.setdefault(s, []).append(t)
    q = summarize([t * 1000 for t in lat])
    out = {
        "untraced": r,
        "rounds": len(r["rounds_s"]),
        "report": {
            "round_s": r["rounds_s"],
            "query_ms": q,
            "queries_per_s": len(lat) / r["stream_s"],
            **{f"{s}_ms": summarize([t * 1000 for t in v]) for s, v in sorted(by_slice.items())},
        },
        "slice_p50_ms": {s: statistics.median(v) * 1000 for s, v in by_slice.items()},
    }
    if args.trace:
        t = run_worker(base + ["--requests", str(len(lat)), "--trace"], env, work)
        out["traced"] = t
        out["overhead"] = t["stream_s"] / r["stream_s"]
    return out


def _cli_pass(args, env, work, rounds_wanted=None, traced=False) -> dict:
    """Cold processes round by round; whole rounds until ``--seconds`` of command time."""
    entries = inputs.load_reference()
    walls, cmd_walls, verify_walls, rss, failures, problems, traces = [], [], [], [], [], [], []
    round_walls = []
    attempted = failed = 0
    for batch in inputs.cli_rounds(args.seed, entries):
        if rounds_wanted is not None and len(round_walls) >= rounds_wanted:
            break
        if rounds_wanted is None and sum(round_walls) >= args.seconds and len(round_walls) >= MIN_ROUNDS:
            break
        round_wall = 0.0
        for argv, stdin_text, expect in batch:
            trace_path = work / "trace.json"
            if traced:
                cmd = [sys.executable, str(HERE / "worker.py"), "cli", "--out", str(trace_path), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "dynkin.cli", *argv]
            code, out, err, wall, maxrss = spawn(cmd, env, work, stdin_text)
            attempted += 1
            round_wall += wall
            walls.append(wall)
            (verify_walls if expect["cmd"] == "verify-catalog" else cmd_walls).append(wall)
            rss.append(maxrss)
            if "Traceback" in err or err.startswith("error:"):  # the CLI's form of an exception
                failed += 1
                failures.append(f"{expect['cmd']}: {err.strip().splitlines()[-1]}")
                continue
            try:
                problem = inputs.check_cli(expect, code, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"{expect['cmd']}: unreadable output ({exc})"
            if problem:
                failed += 1
                problems.append(problem)
            if traced:
                traces.append(json.loads(trace_path.read_text(encoding="utf-8"))["trace"])
        round_walls.append(round_wall)
    return {
        "round_walls": round_walls,
        "walls": walls,
        "cmd_walls": cmd_walls,
        "verify_walls": verify_walls,
        "peak_rss_mb": max(rss),
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(set(failures)),
        "problems": problems,
        "traces": traces,
    }


def bench_cold_cli(args, env, work) -> dict:
    r = _cli_pass(args, env, work)
    r["work_s"] = statistics.median(r["round_walls"])
    out = {
        "untraced": r,
        "rounds": len(r["round_walls"]),
        "report": {
            "round_s": r["round_walls"],
            "cold_cmd_ms": summarize([w * 1000 for w in r["cmd_walls"]]),
            "verify_s": summarize(r["verify_walls"]),
        },
    }
    if args.trace:
        t = _cli_pass(args, env, work, rounds_wanted=len(r["round_walls"]), traced=True)
        out["traced"] = t
        out["overhead"] = sum(t["walls"]) / sum(r["walls"])
    return out


# == per-layer metrics ==


def merge_traces(docs: list[dict]) -> dict:
    """Sum the aggregates of several traced processes; keep every process's spans."""
    agg: dict[str, dict] = {}
    spans = []
    entries = []
    new = []
    for d in docs:
        for g, a in d["aggregates"].items():
            m = agg.setdefault(g, {"calls": 0, "total": 0.0, "self": 0.0})
            for k in m:
                m[k] += a[k]
        spans.append(d["spans"])
        entries.append(d["kind_cache_entries"])
        new.append(d["kind_cache_new"])
    known = None not in entries
    return {
        "aggregates": agg,
        "span_lists": spans,
        "kind_cache_entries": max(entries) if known else None,
        "kind_cache_new": sum(new) if known else None,
    }


def per_layer(workload: str, res: dict, env: dict, work: Path) -> dict:
    traced = res["traced"]
    if workload == "cold-cli":
        tr = merge_traces(traced["traces"])
    else:
        tr = merge_traces([traced["trace"]])
    rounds = res["rounds"]
    agg = tr["aggregates"]

    def a(group, key):
        return agg.get(group, {}).get(key, 0) / rounds

    span_self: dict[tuple[str, object], float] = {}
    span_total: dict[str, float] = {}
    span_calls: dict[str, int] = {}
    span_attr: dict[tuple[str, object], dict] = {}
    for spans in tr["span_lists"]:
        for s, self_t in zip(spans, self_times(spans)):
            key = (s["name"], s["arg"])
            span_self[key] = span_self.get(key, 0.0) + self_t
            span_total[s["name"]] = span_total.get(s["name"], 0.0) + (s["end"] - s["start"])
            span_calls[s["name"]] = span_calls.get(s["name"], 0) + 1
            if "size" in s:
                attr = span_attr.setdefault(key, {"size": 0, "fast_flags_calls": 0})
                attr["size"] = s["size"]
                attr["fast_flags_calls"] += s["fast_flags_calls"]

    m: dict[str, float | None] = {}
    for k in range(2, 11):
        m[f"enumeration.level_s.k{k}"] = span_self.get(("finite_affine_classes", k), 0.0) / rounds
        m[f"enumeration.level_classes.k{k}"] = span_attr.get(("finite_affine_classes", k), {}).get("size", 0)
    cand_total = found_total = 0
    for r in range(3, 12):
        attr = span_attr.get(("search_rank", r), {"size": 0, "fast_flags_calls": 0})
        m[f"enumeration.search_s.r{r}"] = span_self.get(("search_rank", r), 0.0) / rounds
        m[f"enumeration.candidates.r{r}"] = attr["fast_flags_calls"] / rounds
        m[f"enumeration.found.r{r}"] = attr["size"]
        cand_total += attr["fast_flags_calls"]
        found_total += attr["size"]
    m["enumeration.accept_ratio"] = found_total / cand_total if cand_total else 0.0
    m["enumeration.fast_filter_s"] = a("fast_flags", "total")

    kind_calls = agg.get("kind", {}).get("calls", 0)
    m["classify.kind_calls"] = kind_calls / rounds
    m["classify.kind_self_s"] = a("kind", "self")
    new = tr["kind_cache_new"]
    m["classify.kind_hit_ratio"] = None if new is None else (1 - new / kind_calls if kind_calls else 0.0)
    m["classify.kind_cache_entries"] = tr["kind_cache_entries"]
    m["classify.det_calls"] = a("det", "calls")
    m["classify.det_s"] = a("det", "self")
    m["classify.scan_calls"] = a("scan", "calls")
    m["classify.scan_s"] = a("scan", "total")
    m["canonical.calls"] = a("canonical", "calls")
    m["canonical.s"] = a("canonical", "total")
    m["catalog.entries_s"] = sum(v for (n, _), v in span_self.items() if n == "enumerate_hyperbolic") / rounds
    m["catalog.write_s"] = span_total.get("catalog_to_lines", 0.0) / rounds
    for name, key in (("read_catalog", "catalog.read_s"), ("verify_catalog", "catalog.verify_s")):
        m[key] = span_total.get(name, 0.0) / span_calls[name] if name in span_calls else 0.0  # per call
    m["symmetrize.calls"] = a("symmetrize", "calls")
    m["symmetrize.s"] = a("symmetrize", "total")
    m["symmetrize.criterion_s"] = a("criterion", "total")
    m["weyl.orbit_calls"] = a("orbit", "calls")
    m["weyl.orbit_s"] = a("orbit", "total")
    m["weyl.orbit_oracle_s"] = a("orbit_oracle", "total")
    m["parsing.parse_s"] = a("parse", "total")
    m["gcm.validate_calls"] = a("validate", "calls")
    m["gcm.validate_s"] = a("validate", "total")
    m["cli.interpreter_s"] = median_wall("pass", env, work)
    m["cli.import_s"] = median_wall("import dynkin", env, work)
    slice_p50 = res.get("slice_p50_ms", {})
    for s in inputs.slice_counts():
        m[f"queries.{s}_p50_ms"] = slice_p50.get(s, 0.0)
    m["trace.overhead_ratio"] = res["overhead"]
    return m


# == main ==


def run(args) -> tuple[dict, list[str]]:
    if not (SRC / "dynkin" / "__init__.py").is_file():
        raise BenchError(f"package source not found at {SRC / 'dynkin'}")
    env = _env(args.seed)
    scratch_root = HERE / ".work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        # Untimed warm-up: compile the bytecode once, as an installed package has it.
        rc, _, err, _, _ = spawn([sys.executable, "-c", "import dynkin.cli"], env, work)
        if rc != 0:
            raise BenchError(f"cannot import dynkin: {err.strip()[-2000:]}")
        extra = {"slice_counts": inputs.slice_counts()} if args.workload == "queries" else {}
        lines = ["meta " + json.dumps(metadata(args, extra), sort_keys=True)]
        # Half the set-up samples before the workload and half after, so that a
        # slow spell of a shared machine does not land on all of them.
        code = setup_code(args.workload)
        setup_walls = fresh_walls(code, env, work, SETUP_SAMPLES // 2)
        bench = {"catalog": bench_catalog, "queries": bench_queries, "cold-cli": bench_cold_cli}[args.workload]
        res = bench(args, env, work)
        setup_walls += fresh_walls(code, env, work, SETUP_SAMPLES - SETUP_SAMPLES // 2)
        setup_s = statistics.median(setup_walls)
        r = res["untraced"]
        problems = list(r["problems"])
        attempted, failed = r["attempted"], r["failed"]
        if "traced" in res:
            problems += res["traced"]["problems"]
        report = {
            "setup_s": setup_s,
            "work_s": r["work_s"],
            "peak_rss_mb": r["peak_rss_mb"],
            "failed_ratio": failed_ratio(attempted, failed),
            "rounds": res["rounds"],
            **res["report"],
        }
        if r.get("failures"):
            report["failures"] = r["failures"]
        lines.append("report " + json.dumps(report, sort_keys=True))
        for p in problems[:20]:
            lines.append(f"CHECK FAILED: {p}")
        if args.trace:
            values = per_layer(args.workload, res, env, work)
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "work_s": {"value": r["work_s"], "unit": "s"},
                "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
            }
        result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        return result, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it


def _units() -> dict[str, str]:
    u = {}
    for k in range(2, 11):
        u[f"enumeration.level_s.k{k}"] = "s"
        u[f"enumeration.level_classes.k{k}"] = "count"
    for r in range(3, 12):
        u[f"enumeration.search_s.r{r}"] = "s"
        u[f"enumeration.candidates.r{r}"] = "count"
        u[f"enumeration.found.r{r}"] = "count"
    for name in (
        "enumeration.accept_ratio", "classify.kind_hit_ratio", "trace.overhead_ratio",
    ):
        u[name] = "ratio"
    for name in (
        "classify.kind_calls", "classify.kind_cache_entries", "classify.det_calls", "classify.scan_calls",
        "canonical.calls", "symmetrize.calls", "weyl.orbit_calls", "gcm.validate_calls",
    ):
        u[name] = "count"
    for name in (
        "enumeration.fast_filter_s", "classify.kind_self_s", "classify.det_s", "classify.scan_s", "canonical.s",
        "catalog.entries_s", "catalog.write_s", "catalog.read_s", "catalog.verify_s", "symmetrize.s",
        "symmetrize.criterion_s", "weyl.orbit_s", "weyl.orbit_oracle_s", "parsing.parse_s", "gcm.validate_s",
        "cli.interpreter_s", "cli.import_s",
    ):
        u[name] = "s"
    for s in inputs.slice_counts():
        u[f"queries.{s}_p50_ms"] = "ms"
    return u


UNITS = _units()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM unwind normally, so that running children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result, lines = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
