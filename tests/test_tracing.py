"""perfbench/layers.py times cut replay by rebinding ``engine.refine_with_cut``,
dual LPs by rebinding ``ucp.solve`` and restricted compilation by rebinding
``ucp.build_restricted_master_dd``.

These tests import the tracer unchanged and check that a solve still
reaches refinement through that attribute, once per non-empty replay,
solves every dual LP through ``ucp.solve``, compiles every restricted
diagram through ``ucp.build_restricted_master_dd``, and replays cuts only
inside those compiles, a unit-commitment solve making no relaxed build,
so that the benchmark's per-layer refine, dual LP, restricted compile and
replay metrics cannot silently read 0.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from layers import Tracer, layer_metrics, traced  # noqa: E402
from reference_lp import scaled_instance  # noqa: E402

from ddbd.ucp import ucp_solve  # noqa: E402


def test_trace_records_one_refine_per_nonempty_replay():
    # without demand the pool stays empty, so its replays are empty
    tracer = Tracer()
    with traced(tracer):
        reports = [ucp_solve(scaled_instance(2, 4, 2, 0, factor)) for factor in (0.0, 0.4)]
    assert all(report.status == "optimal" for report in reports)
    spans = tracer.take()
    replays = [k for k, s in enumerate(spans) if s.name == "engine.replay"]
    refines = [s for s in spans if s.name == "diagram.refine"]
    assert any(spans[k].attrs["cuts"] for k in replays)
    assert any(not spans[k].attrs["cuts"] for k in replays)
    assert all(s.parent in replays for s in refines)
    for k in replays:
        inside = sum(1 for s in refines if s.parent == k)
        assert inside == (1 if spans[k].attrs["cuts"] else 0), spans[k].attrs
    metrics = layer_metrics([spans], reports)
    assert metrics["diagram.refine.calls"] == len(refines) > 0
    assert metrics["engine.replay.calls"] == len(replays)


def test_trace_records_one_dual_lp_span_per_lp_call():
    # the tracer times dual LPs by rebinding ucp.solve, so every LP the
    # subproblem oracle solves must go through that attribute
    tracer = Tracer()
    with traced(tracer):
        report = ucp_solve(scaled_instance(2, 4, 2, 0, 0.4))
    spans = tracer.take()
    dual_lps = [s for s in spans if s.name == "simplex.dual_lp"]
    assert len(dual_lps) == report.lp_calls > 0
    assert layer_metrics([spans], [report])["simplex.dual_lp.calls"] == report.lp_calls


def test_trace_records_one_restricted_compile_per_restricted_build():
    tracer = Tracer()
    with traced(tracer):
        report = ucp_solve(scaled_instance(3, 3, 1, 0, 0.4))
    spans = tracer.take()
    builds = [k for k, s in enumerate(spans) if s.name == "ucp.master_restricted"]
    compiles = [s for s in spans if s.name == "ucp.compile_restricted"]
    assert len(builds) > 1
    assert sorted(s.parent for s in compiles) == builds
    metrics = layer_metrics([spans], [report])
    assert metrics["ucp.compile_restricted.calls"] == len(builds)


def test_trace_records_every_replay_inside_a_restricted_compile():
    # a unit-commitment solve closes its nodes on the restricted side, and
    # its replays come through ucp.replay_cuts inside the restricted
    # compile, so the benchmark's engine.replay metrics count them all
    tracer = Tracer()
    with traced(tracer):
        report = ucp_solve(scaled_instance(3, 6, 3, 0, 0.8))
    spans = tracer.take()
    compiles = {k for k, s in enumerate(spans) if s.name == "ucp.compile_restricted"}
    replays = [s for s in spans if s.name == "engine.replay"]
    assert report.status == "optimal" and compiles
    assert not any(s.name == "ucp.master_relaxed" for s in spans)
    assert replays and all(s.parent in compiles for s in replays)
    assert layer_metrics([spans], [report])["engine.replay.calls"] == len(replays)
