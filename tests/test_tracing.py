"""perfbench/layers.py times cut replay by rebinding ``engine.refine_with_cut``.

These tests import the tracer unchanged and check that a solve still
reaches refinement through that attribute, once per non-empty replay, so
that the benchmark's per-layer refine metrics cannot silently read 0.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from layers import Tracer, layer_metrics, traced  # noqa: E402
from reference_lp import scaled_instance  # noqa: E402

from ddbd.ucp import ucp_solve  # noqa: E402


def test_trace_records_one_refine_per_nonempty_replay():
    tracer = Tracer()
    with traced(tracer):
        report = ucp_solve(scaled_instance(2, 4, 2, 0, 0.4))
    assert report.status == "optimal"
    spans = tracer.take()
    replays = [k for k, s in enumerate(spans) if s.name == "engine.replay"]
    refines = [s for s in spans if s.name == "diagram.refine"]
    assert any(spans[k].attrs["cuts"] for k in replays)
    assert any(not spans[k].attrs["cuts"] for k in replays)
    assert all(s.parent in replays for s in refines)
    for k in replays:
        inside = sum(1 for s in refines if s.parent == k)
        assert inside == (1 if spans[k].attrs["cuts"] else 0), spans[k].attrs
    metrics = layer_metrics([spans], [report])
    assert metrics["diagram.refine.calls"] == len(refines) > 0
    assert metrics["engine.replay.calls"] == len(replays)
