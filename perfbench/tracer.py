"""Tracing wrappers installed around ``dynkin`` functions from outside the package.

Two kinds of record are kept, both in memory until the run ends:

* spans at the coarse boundaries (``search_rank(n)``, ``finite_affine_classes(k)``,
  ``enumerate_hyperbolic``, ``read_catalog``, ``verify_catalog``, each
  request): name, argument, start, end and parent span;
* aggregates for functions called millions of times (``kind_of_rows``,
  ``det_int``, ...): calls, total time at the outermost call of the group,
  and self time.  Nothing per call is stored, so memory stays bounded.

A function is patched in every ``dynkin`` namespace that holds it, because
``from .classify import kind_of_rows`` gives ``enumeration``, ``catalog`` and
``cli`` their own binding of the name.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

#: (module, function) for the coarse boundaries; the span takes the function's name.
SPANS = [
    ("dynkin.enumeration", "search_rank"),
    ("dynkin.enumeration", "finite_affine_classes"),
    ("dynkin.catalog", "enumerate_hyperbolic"),
    ("dynkin.catalog", "catalog_to_lines"),
    ("dynkin.catalog", "read_catalog"),
    ("dynkin.catalog", "verify_catalog"),
]

#: How many classes a span's result holds, where that is a layer count.
RESULT_SIZE = {
    "search_rank": len,
    "finite_affine_classes": lambda fins_affs: len(fins_affs[0]) + len(fins_affs[1]),
}

#: (module, function, aggregate group) for the hot or frequent calls.
LEAVES = [
    ("dynkin.classify", "kind_of_rows", "kind"),
    ("dynkin.classify", "det_int", "det"),
    ("dynkin.enumeration", "hyperbolic_fast_flags", "fast_flags"),
    ("dynkin.classify", "hyperbolic_compact_scan", "scan"),
    ("dynkin.canonical", "canonical_rows", "canonical"),
    ("dynkin.canonical", "canonical_form", "canonical"),
    ("dynkin.symmetrize", "is_symmetrizable", "symmetrize"),
    ("dynkin.symmetrize", "symmetrizer", "symmetrize"),
    ("dynkin.symmetrize", "cycle_criterion_agreement", "criterion"),
    ("dynkin.weyl", "orbit_partition", "orbit"),
    ("dynkin.weyl", "orbit_partitions_agree", "orbit_oracle"),
    ("dynkin.parsing", "parse_matrix_input", "parse"),
    ("dynkin.gcm", "validate_gcm", "validate"),
]

clock = time.perf_counter


class Aggregate:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Spans and aggregates for one process; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.aggregates: dict[str, Aggregate] = {}
        self._span_stack: list[int] = []
        self._leaf_child = [0.0]  # time spent in child aggregates, per open frame
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --

    @contextmanager
    def span(self, name: str, arg=None):
        """Record a span around the body; yields the span record for extra fields."""
        rec = {"name": name, "arg": arg, "parent": self._span_stack[-1] if self._span_stack else None}
        self.spans.append(rec)
        self._span_stack.append(len(self.spans) - 1)
        rec["start"] = clock()
        try:
            yield rec
        finally:
            rec["end"] = clock()
            self._span_stack.pop()

    def _span_wrapper(self, name: str, fn):
        fast = self._agg("fast_flags")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, args[0] if args and isinstance(args[0], int) else None) as rec:
                before = fast.calls
                result = fn(*args, **kwargs)
                rec["fast_flags_calls"] = fast.calls - before
                if name in RESULT_SIZE:
                    rec["size"] = RESULT_SIZE[name](result)
                return result

        return wrapper

    # -- aggregates --

    def _agg(self, group: str) -> Aggregate:
        return self.aggregates.setdefault(group, Aggregate())

    def _leaf_wrapper(self, group: str, fn):
        agg = self._agg(group)
        child = self._leaf_child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            agg.calls += 1
            agg.depth += 1
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg.self_time += dt - child.pop()
                child[-1] += dt
                agg.depth -= 1
                if not agg.depth:
                    agg.total += dt

        return wrapper

    # -- patching --

    def install(self) -> None:
        """Wrap every function in :data:`SPANS` and :data:`LEAVES` in all dynkin namespaces."""
        targets = [(m, f, self._span_wrapper, f) for m, f in SPANS]
        targets += [(m, f, self._leaf_wrapper, g) for m, f, g in LEAVES]
        for module_name, func_name, make, label in targets:
            try:
                original = getattr(importlib.import_module(module_name), func_name)
            except (ImportError, AttributeError):
                continue  # gone from the package: its figures read 0
            wrapped = make(label, original)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if (name == "dynkin" or name.startswith("dynkin.")) and getattr(mod, func_name, None) is original:
                    setattr(mod, func_name, wrapped)
                    self._patched.append((mod, func_name, original))

    def uninstall(self) -> None:
        for mod, func_name, original in reversed(self._patched):
            setattr(mod, func_name, original)
        self._patched.clear()

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": {
                g: {"calls": a.calls, "total": a.total, "self": a.self_time} for g, a in self.aggregates.items()
            },
        }


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span: its duration minus the part its child spans cover.

    Children are the spans whose ``parent`` is the span's index; overlapping
    children are merged so that no interval is subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s["start"]), min(b, s["end"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s["end"] - s["start"]) - covered)
    return out
