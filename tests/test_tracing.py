"""perfbench/layers.py times cut replay by rebinding ``engine.refine_with_cut``,
dual LPs by rebinding ``ucp.solve`` and restricted compilation by rebinding
``ucp.build_restricted_master_dd``.

These tests import the tracer unchanged and check that a unit-commitment
solve solves every dual LP through ``ucp.solve`` and makes every
restricted diagram through ``ucp.build_restricted_master_dd``, one span
per restricted build, so that the benchmark's dual LP and restricted
compile metrics cannot silently read 0.  Such a solve finds its
restricted paths by a label pass with no cut replay and makes no relaxed
build, so its replay and refine metrics read 0, and the tests say so.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from layers import Tracer, layer_metrics, traced  # noqa: E402
from reference_lp import scaled_instance  # noqa: E402

from ddbd.ucp import ucp_solve  # noqa: E402


def assert_compiles_without_replay(spans, reports):
    """One restricted compile inside every restricted build, and no cut
    replay, refinement or relaxed build anywhere."""
    builds = [k for k, s in enumerate(spans) if s.name == "ucp.master_restricted"]
    compiles = [s for s in spans if s.name == "ucp.compile_restricted"]
    assert builds and sorted(s.parent for s in compiles) == builds
    assert not any(s.name in ("engine.replay", "diagram.refine", "ucp.master_relaxed")
                   for s in spans)
    metrics = layer_metrics([spans], reports)
    assert metrics["ucp.compile_restricted.calls"] == len(builds)
    assert metrics["engine.replay.calls"] == metrics["diagram.refine.calls"] == 0


def test_trace_records_no_refine_in_a_unit_commitment_solve():
    # without demand the pool stays empty; with it, cuts are pooled
    tracer = Tracer()
    with traced(tracer):
        reports = [ucp_solve(scaled_instance(2, 4, 2, 0, factor)) for factor in (0.0, 0.4)]
    assert all(report.status == "optimal" for report in reports)
    assert reports[1].feasibility_cuts and reports[1].optimality_cuts
    assert_compiles_without_replay(tracer.take(), reports)


def test_trace_records_one_dual_lp_span_per_lp_call():
    # the tracer times dual LPs by rebinding ucp.solve, so every LP the
    # subproblem oracle solves must go through that attribute: one call
    # per evaluation, chaining the LPs of the instance's two scenarios
    tracer = Tracer()
    with traced(tracer):
        report = ucp_solve(scaled_instance(2, 4, 2, 0, 0.4))
    spans = tracer.take()
    dual_lps = [s for s in spans if s.name == "simplex.dual_lp"]
    assert 2 * len(dual_lps) == report.lp_calls > 0
    assert layer_metrics([spans], [report])["simplex.dual_lp.calls"] == len(dual_lps)


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


def test_trace_records_no_replay_inside_a_restricted_compile():
    # a unit-commitment solve is one loop at the root, and
    # each restricted compile is one label pass over the whole pool
    tracer = Tracer()
    with traced(tracer):
        report = ucp_solve(scaled_instance(3, 6, 3, 0, 0.8))
    assert report.status == "optimal" and report.optimality_cuts
    assert_compiles_without_replay(tracer.take(), [report])
