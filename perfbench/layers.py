"""Spans around ddbd's public calls, recorded from outside the solver.

``traced(tracer)`` rebinds module attributes of ``ddbd.ucp`` and
``ddbd.engine`` and swaps the unit-commitment oracle classes for
subclasses with wrapped methods; leaving the block restores them.  No
ddbd source is edited.  Spans stay in memory; ``layer_metrics`` turns
them into the per-layer figures.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from ddbd import engine, ucp

from stats import Span, self_time_by_name

# name -> (unit, better); the order is the print order
PER_LAYER = {
    "simplex.gamma_lp.calls": ("count", "lower"),
    "simplex.gamma_lp.busy_s": ("s", "lower"),
    "simplex.gamma_lp.cells": ("count", "lower"),
    "simplex.dual_lp.calls": ("count", "lower"),
    "simplex.dual_lp.busy_s": ("s", "lower"),
    "simplex.dual_lp.ray_share": ("ratio", "lower"),
    "simplex.failed": ("count", "lower"),
    "ucp.compute_gamma.busy_s": ("s", "lower"),
    "ucp.compile_restricted.calls": ("count", "lower"),
    "ucp.compile_restricted.busy_s": ("s", "lower"),
    "ucp.compile_relaxed.calls": ("count", "lower"),
    "ucp.compile_relaxed.busy_s": ("s", "lower"),
    "ucp.master_restricted.busy_s": ("s", "lower"),
    "ucp.master_restricted.empty_share": ("ratio", "lower"),
    "ucp.master_relaxed.busy_s": ("s", "lower"),
    "ucp.evaluate.calls": ("count", "lower"),
    "ucp.evaluate.busy_s": ("s", "lower"),
    "ucp.evaluate.hit_share": ("ratio", "higher"),
    "ucp.evaluate.lp_share": ("ratio", "lower"),
    "engine.replay.calls": ("count", "lower"),
    "engine.replay.cuts": ("count", "lower"),
    "engine.replay.self_s": ("s", "lower"),
    "engine.replay.width_growth": ("ratio", "lower"),
    "engine.replay.nodes_out_max": ("count", "lower"),
    "engine.enumerate_prefixes.busy_s": ("s", "lower"),
    "engine.branches": ("count", "lower"),
    "engine.cuts.feasibility": ("count", "lower"),
    "engine.cuts.optimality": ("count", "lower"),
    "diagram.refine.calls": ("count", "lower"),
    "diagram.refine.busy_s": ("s", "lower"),
    "diagram.optimal_path.calls": ("count", "lower"),
    "diagram.optimal_path.busy_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def take(self):
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans, self._open = self.spans, [], []
        return spans

    def reset_open(self):
        # a deadline signal can land between a span's end and its pop
        self._open = []

    def enclosing(self):
        return self.spans[self._open[-1]].name if self._open else None

    def call(self, name, fn, args, kwargs, before=None, after=None):
        span = Span(name, 0.0, parent=self._open[-1] if self._open else None)
        if before:
            before(span.attrs, *args)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._open.pop()
        if after:
            after(span.attrs, result)
        return result

    def wrap(self, name, fn, before=None, after=None):
        def traced_fn(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)
        return traced_fn


def _lp_before(attrs, lp):
    attrs["cells"] = lp.num_rows * lp.num_vars


def _lp_after(attrs, outcome):
    attrs["status"] = outcome.status


def _replay_before(attrs, dd, cuts, *rest):
    attrs.update(cuts=len(cuts), width_in=dd.width, nodes_in=dd.node_count())


def _replay_after(attrs, dd):
    attrs.update(width_out=dd.width, nodes_out=dd.node_count())


def _set_empty(attrs, dd):
    attrs["empty"] = dd is None


def _traced_oracles(tracer):
    base_master, base_sub = ucp.UcpMasterOracle, ucp.UcpSubproblemOracle

    class TracedMaster(base_master):
        def build_restricted_dd(self, *args):
            return tracer.call("ucp.master_restricted", super().build_restricted_dd,
                               args, {}, after=lambda a, r: _set_empty(a, r[0]))

        def build_relaxed_dd(self, *args):
            return tracer.call("ucp.master_relaxed", super().build_relaxed_dd,
                               args, {}, after=_set_empty)

    class TracedSub(base_sub):
        def evaluate(self, x):
            def hit(attrs, res):
                attrs["hit"] = res.lp_calls == 0
            return tracer.call("ucp.evaluate", super().evaluate, (x,), {}, after=hit)

    return TracedMaster, TracedSub


@contextmanager
def traced(tracer):
    """Rebind the traced ddbd attributes for the duration of the block."""
    solve = ucp.solve

    def solve_lp(lp):
        name = ("simplex.gamma_lp" if tracer.enclosing() == "ucp.compute_gamma"
                else "simplex.dual_lp")
        return tracer.call(name, solve, (lp,), {}, _lp_before, _lp_after)

    replay = tracer.wrap("engine.replay", engine.replay_cuts,
                         _replay_before, _replay_after)
    master, sub = _traced_oracles(tracer)
    patches = [
        (ucp, "solve", solve_lp),
        (ucp, "compute_gamma", tracer.wrap("ucp.compute_gamma", ucp.compute_gamma)),
        (ucp, "build_restricted_master_dd",
         tracer.wrap("ucp.compile_restricted", ucp.build_restricted_master_dd)),
        (ucp, "build_relaxed_master_dd",
         tracer.wrap("ucp.compile_relaxed", ucp.build_relaxed_master_dd)),
        (ucp, "replay_cuts", replay),
        (ucp, "UcpMasterOracle", master),
        (ucp, "UcpSubproblemOracle", sub),
        (engine, "replay_cuts", replay),
        (engine, "refine_with_cut", tracer.wrap("diagram.refine", engine.refine_with_cut)),
        (engine, "optimal_path", tracer.wrap("diagram.optimal_path", engine.optimal_path)),
        (engine, "enumerate_prefixes",
         tracer.wrap("engine.enumerate_prefixes", engine.enumerate_prefixes)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    for mod, attr, fn in patches:
        setattr(mod, attr, fn)
    try:
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(segments, reports):
    """Per-layer figures from span lists and the solve reports of one pass.

    Each segment is a list whose parent indices point into itself.

    trace.overhead_s and trace.coverage need the untraced passes and are
    filled in by the caller.
    """
    spans = [s for seg in segments for s in seg]
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by.get(name, ()))

    def busy(name):
        return sum(s.duration for s in by.get(name, ()))

    def count(name, key):
        return sum(1 for s in by.get(name, ()) if s.attrs.get(key))

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by.get(name, ()))

    dual_done = [s for s in by.get("simplex.dual_lp", ()) if "status" in s.attrs]
    replays = [s for s in by.get("engine.replay", ()) if "width_out" in s.attrs]
    m = {
        "simplex.gamma_lp.calls": calls("simplex.gamma_lp"),
        "simplex.gamma_lp.busy_s": busy("simplex.gamma_lp"),
        "simplex.gamma_lp.cells": total("simplex.gamma_lp", "cells"),
        "simplex.dual_lp.calls": calls("simplex.dual_lp"),
        "simplex.dual_lp.busy_s": busy("simplex.dual_lp"),
        "simplex.dual_lp.ray_share": _share(
            sum(1 for s in dual_done if s.attrs["status"] == "unbounded"), len(dual_done)),
        "simplex.failed": count("simplex.gamma_lp", "error") + count("simplex.dual_lp", "error"),
        "ucp.compute_gamma.busy_s": busy("ucp.compute_gamma"),
        "ucp.compile_restricted.calls": calls("ucp.compile_restricted"),
        "ucp.compile_restricted.busy_s": busy("ucp.compile_restricted"),
        "ucp.compile_relaxed.calls": calls("ucp.compile_relaxed"),
        "ucp.compile_relaxed.busy_s": busy("ucp.compile_relaxed"),
        "ucp.master_restricted.busy_s": busy("ucp.master_restricted"),
        "ucp.master_restricted.empty_share": _share(
            count("ucp.master_restricted", "empty"), calls("ucp.master_restricted")),
        "ucp.master_relaxed.busy_s": busy("ucp.master_relaxed"),
        "ucp.evaluate.calls": calls("ucp.evaluate"),
        "ucp.evaluate.busy_s": busy("ucp.evaluate"),
        "ucp.evaluate.hit_share": _share(count("ucp.evaluate", "hit"), calls("ucp.evaluate")),
        "ucp.evaluate.lp_share": _share(busy("simplex.dual_lp"), busy("ucp.evaluate")),
        "engine.replay.calls": calls("engine.replay"),
        "engine.replay.cuts": total("engine.replay", "cuts"),
        "engine.replay.self_s": sum(self_time_by_name(seg).get("engine.replay", 0.0)
                                    for seg in segments),
        "engine.replay.width_growth": _share(sum(s.attrs["width_out"] for s in replays),
                                             sum(s.attrs["width_in"] for s in replays)),
        "engine.replay.nodes_out_max": max((s.attrs["nodes_out"] for s in replays), default=0),
        "engine.enumerate_prefixes.busy_s": busy("engine.enumerate_prefixes"),
        "engine.branches": sum(r.branches for r in reports),
        "engine.cuts.feasibility": sum(r.feasibility_cuts for r in reports),
        "engine.cuts.optimality": sum(r.optimality_cuts for r in reports),
        "diagram.refine.calls": calls("diagram.refine"),
        "diagram.refine.busy_s": busy("diagram.refine"),
        "diagram.optimal_path.calls": calls("diagram.optimal_path"),
        "diagram.optimal_path.busy_s": busy("diagram.optimal_path"),
    }
    return m
