"""Tests of the benchmark's own statistics, span accounting and failure tally."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import inputs  # noqa: E402
from stats import failed_ratio, percentile, summarize, tail  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


# == percentile rule ==


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = list(range(n))
    got = tail(samples)
    if expected is None:
        assert got is None
        return
    p, value = got
    assert p == expected
    assert sum(1 for s in samples if s > value) >= 10


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile([7], 99) == 7


def test_summarize_states_sample_count_and_supported_tail():
    s = summarize([float(i) for i in range(100)])
    assert s["n"] == 100 and s["p50"] == 49.5 and s["p90"] == 89.0
    assert set(summarize([1.0, 2.0])) == {"n", "p50"}


# == self time ==


def _span(name, start, end, parent):
    return {"name": name, "arg": None, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("x", 1.0, 5.0, 0),
        _span("y", 4.0, 7.0, 0),
        _span("z", 9.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorded_spans_nest_and_self_times_add_up():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner", 3):
            sum(range(10000))
        with tr.span("inner", 4):
            pass
    outer, first, second = tr.spans
    assert (first["parent"], second["parent"], outer["parent"]) == (0, 0, None)
    assert first["arg"] == 3
    selfs = self_times(tr.spans)
    assert sum(selfs) == pytest.approx(outer["end"] - outer["start"])
    assert all(s >= 0 for s in selfs)


def test_recursive_aggregate_counts_every_call_and_total_once():
    tr = Tracer()

    def fact(n):
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = tr._leaf_wrapper("fact", fact)
    assert wrapped(5) == 120
    agg = tr.aggregates["fact"]
    assert agg.calls == 5 and agg.depth == 0
    assert agg.self_time == pytest.approx(agg.total, rel=1e-6, abs=1e-6)


# == failure accounting ==


def test_failed_ratio():
    assert failed_ratio(40, 2) == 0.05
    assert failed_ratio(3, 0) == 0.0
    with pytest.raises(ValueError):
        failed_ratio(0, 0)
    with pytest.raises(ValueError):
        failed_ratio(2, 3)


def test_tally_counts_exceptions_as_failed_and_checks_the_rest():
    worker = pytest.importorskip("worker")
    batch = [("symmetric", "", {"rows": []}), ("identify", "", {"entry": {"id": "3-001"}}), ("identify", "", {"entry": {"id": "3-002"}})]
    results = [ValueError("state explosion"), "3-001", "3-999"]
    failures, wrong = worker.tally(batch, results, lambda s, e, got: got == e["entry"]["id"])
    assert failures == ["symmetric: ValueError: state explosion"]
    assert wrong == ["identify: wrong answer for 3-002"]
    assert failed_ratio(len(batch), len(failures)) == pytest.approx(1 / 3)


# == inputs ==


def test_rounds_are_seeded_and_stratified():
    entries = inputs.load_reference()
    a = next(inputs.query_rounds(7, entries))
    b = next(inputs.query_rounds(7, entries))
    c = next(inputs.query_rounds(8, entries))
    assert a == b and a != c
    counts = {}
    for slice_name, _, _ in a:
        counts[slice_name] = counts.get(slice_name, 0) + 1
    assert counts == inputs.slice_counts()


def test_independent_type_checks_on_classical_families():
    for series, n in inputs.FAMILIES:
        assert inputs.is_finite_symmetrizable(inputs.classical(series, n)), (series, n)
    affine_a2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert inputs.is_affine_symmetrizable(affine_a2)
    assert not inputs.is_finite_symmetrizable(affine_a2)


def test_reference_catalog_has_the_paper_counts():
    assert inputs.check_catalog_counts(inputs.load_reference()) == []
