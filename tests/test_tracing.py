"""perfbench/layers.py times cut replay by rebinding ``engine.refine_with_cut``,
dual LPs by rebinding ``ucp.solve`` and restricted compilation by rebinding
``ucp.build_restricted_master_dd``.

These tests import the tracer unchanged and check that a unit-commitment
solve solves every dual LP through ``ucp.solve`` and answers every master
ask through ``ucp.build_restricted_master_dd``, one span per ask, so that
the benchmark's dual LP and restricted compile metrics cannot silently
read 0.  Such a solve finds its points by a label pass with no cut replay,
no diagram and no relaxed build, so its replay, refine and path metrics
read 0, and the tests say so.  The tracer's ``ucp.master_restricted`` span
hooks ``build_restricted_dd``, a method no oracle has any more, so its
metrics read 0 too, and the asks are counted on ``best_point`` here.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from layers import Tracer, layer_metrics, traced  # noqa: E402
from reference_lp import scaled_instance  # noqa: E402

from ddbd import ucp  # noqa: E402
from ddbd.ucp import ucp_solve  # noqa: E402


def count_asks(monkeypatch):
    """Calls of UcpMasterOracle.best_point, which the tracer's master inherits."""
    asks = []
    real = ucp.UcpMasterOracle.best_point
    monkeypatch.setattr(ucp.UcpMasterOracle, "best_point",
                        lambda self, cuts: asks.append(1) or real(self, cuts))
    return asks


def assert_compiles_without_replay(spans, reports, asks):
    """One restricted compile per master ask, and no cut replay,
    refinement, path extraction or relaxed build anywhere."""
    compiles = [s for s in spans if s.name == "ucp.compile_restricted"]
    assert asks and len(compiles) == asks
    assert not any(s.name in ("engine.replay", "diagram.refine", "diagram.optimal_path",
                              "ucp.master_relaxed") for s in spans)
    metrics = layer_metrics([spans], reports)
    assert metrics["ucp.compile_restricted.calls"] == asks
    assert metrics["engine.replay.calls"] == metrics["diagram.refine.calls"] == 0
    assert metrics["ucp.master_restricted.busy_s"] == 0
    assert metrics["ucp.master_restricted.empty_share"] == 0


def test_trace_records_no_refine_in_a_unit_commitment_solve(monkeypatch):
    # without demand the pool stays empty; with it, cuts are pooled
    asks = count_asks(monkeypatch)
    tracer = Tracer()
    with traced(tracer):
        reports = [ucp_solve(scaled_instance(2, 4, 2, 0, factor)) for factor in (0.0, 0.4)]
    assert all(report.status == "optimal" for report in reports)
    assert reports[1].feasibility_cuts and reports[1].optimality_cuts
    assert_compiles_without_replay(tracer.take(), reports, len(asks))


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


def test_trace_records_one_restricted_compile_per_restricted_build(monkeypatch):
    asks = count_asks(monkeypatch)
    tracer = Tracer()
    with traced(tracer):
        report = ucp_solve(scaled_instance(3, 3, 1, 0, 0.4))
    spans = tracer.take()
    compiles = [s for s in spans if s.name == "ucp.compile_restricted"]
    assert len(asks) > 1 and len(compiles) == len(asks)
    metrics = layer_metrics([spans], [report])
    assert metrics["ucp.compile_restricted.calls"] == len(asks)


def test_trace_records_no_replay_inside_a_restricted_compile(monkeypatch):
    # a unit-commitment solve is one loop at the root, and
    # each restricted compile is one label pass over the whole pool
    asks = count_asks(monkeypatch)
    tracer = Tracer()
    with traced(tracer):
        report = ucp_solve(scaled_instance(3, 6, 3, 0, 0.8))
    assert report.status == "optimal" and report.optimality_cuts
    assert_compiles_without_replay(tracer.take(), [report], len(asks))
