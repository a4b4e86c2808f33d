"""Unit tests for the benchmark's own arithmetic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import stats  # noqa: E402
from stats import Span  # noqa: E402


def test_median_and_quartiles_match_statistics():
    values = [7.0, 1.0, 3.0, 10.0, 2.0, 9.0, 4.0, 8.0, 6.0, 5.0]
    assert stats.median(values) == 5.5
    assert stats.quartiles(values) == pytest.approx((2.75, 5.5, 8.25))
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.relative_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 7.0, parent=0),
    ]
    assert stats.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    assert stats.self_time_by_name(spans + [Span("b", 20.0, 21.0)])["b"] == pytest.approx(3.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("root", 0.0, 10.0),
        Span("x", 1.0, 4.0, parent=0),
        Span("y", 3.0, 6.0, parent=0),
        Span("late", 9.0, 12.0, parent=0),
    ]
    # children cover [1, 6] and [9, 10] inside the root
    assert stats.self_times(spans)[0] == pytest.approx(4.0)


def test_failures_are_charged_the_full_deadline():
    assert stats.charged_seconds(True, 0.25, 15.0) == 0.25
    assert stats.charged_seconds(False, 0.01, 15.0) == 15.0
    fast_fail = stats.summarise({"a": [(True, 1.0)], "b": [(False, 0.01)]}, 15.0)
    fixed = stats.summarise({"a": [(True, 1.0)], "b": [(True, 3.0)]}, 15.0)
    assert fast_fail["wall_s"] == pytest.approx(16.0)
    assert fixed["wall_s"] < fast_fail["wall_s"]


def test_summarise_takes_per_instance_medians():
    attempts = {
        "a": [(True, 1.0), (True, 3.0), (True, 2.0)],
        "b": [(True, 5.0), (False, 0.1), (True, 4.0)],
        "c": [(True, 0.5), (True, 0.7), (True, 0.6)],
    }
    got = stats.summarise(attempts, 10.0)
    # per-instance medians 2.0, 5.0 (of 5, 10, 4) and 0.6
    assert got["wall_s"] == pytest.approx(7.6)
    assert got["solve_p50_s"] == pytest.approx(2.0)
    assert (got["attempted"], got["failed"], got["instances"]) == (9, 1, 3)
    assert got["fail_share"] == pytest.approx(1 / 9)


def test_fail_share():
    assert stats.fail_share([True, False, False, True]) == 0.5
    assert stats.fail_share([True, True]) == 0.0
    with pytest.raises(ZeroDivisionError):
        stats.fail_share([])


def test_tracer_records_nesting_and_errors():
    from layers import Tracer

    tr = Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)

    def fail():
        raise ValueError("boom")

    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    with pytest.raises(ValueError):
        tr.wrap("bad", fail)()
    spans = tr.take()
    assert [(s.name, s.parent) for s in spans] == [("outer", None), ("inner", 0), ("bad", None)]
    assert spans[2].attrs["error"] == "ValueError"
    assert tr.take() == []


def test_metric_tables_match_benchmark_json():
    import run
    from layers import PER_LAYER

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


def _busy(seconds):
    from time import perf_counter
    end = perf_counter() + seconds
    n = 0
    while perf_counter() < end:
        n += 1
    return n


def test_deadline_interrupts_a_busy_loop():
    from workloads import DeadlineExceeded, deadline

    with pytest.raises(DeadlineExceeded):
        with deadline(0.05):
            _busy(2.0)


def test_speed_probe_samples_inside_and_excludes_its_own_runs():
    from time import perf_counter

    import speed

    probe = speed.SpeedProbe()
    t0 = perf_counter()
    with probe.interval() as timing:
        _busy(0.5)
    outer = perf_counter() - t0
    assert len(probe._samples) >= 4          # both ends plus ticks every TICK_S of CPU
    assert 0.4 < timing.raw_s < outer
    assert timing.scale == pytest.approx(speed.CAL_REF_S / statistics.median(probe._samples))
