"""Benders-style cut generation over a master oracle.

The solve is one separation loop at the root: ask the master for its
best point under the cut pool, evaluate the subproblem there, pool the
cuts, and ask the master again under the grown pool (the only way fresh
cuts reach the master), until the point's value variable agrees with
the subproblem optimum.  The master answers with an optimum of its
points under the pool (see MasterOracle), so a converged point is
optimal and no relaxed diagram or branching is needed.
Cuts live in a global deduplicated pool, seeded before the first ask
with the subproblem oracle's initial_cuts(): cuts that hold for every
x, such as the unit-commitment oracle's per-period capacity cuts and
its period-0 start-up cut.  Both oracles find an optimal path of their
master under the pool in one label pass (diagram.label_point) and return
its point; neither builds a diagram.  Every point whose
evaluation is optimal is feasible, and the best of them is the
incumbent until a converged point replaces it, so a solve stopped by the
clock still reports one.  The clock is read before the first ask and
after every ask; a solve stopped after an ask reports that point's
master value as its bound.
The engine evaluates each point at most once and keeps its result.  A
point the master answers again is decided from the kept result, whose
cuts are all pooled, so it converges or, like any evaluation that
brings no fresh cut, raises EngineError.  Each pass therefore evaluates
a point not seen before or ends the loop, and a master's x takes
finitely many values, so the loop ends.

Master and subproblem oracles are duck-typed; see MasterOracle and
SubproblemOracle for the expected surface.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

# no solve calls optimal_path, refine_with_cut or replay_cuts (below): they
# are the tests' reference, and perfbench/layers.py binds engine.optimal_path
# and engine.refine_with_cut (its diagram.optimal_path and diagram.refine
# spans) and engine.replay_cuts (engine.replay) by name
from .diagram import optimal_path, refine_with_cut  # noqa: F401

VALUE_TOL = 1e-9       # strictness for incumbent comparisons
CONVERGE_TOL = 1e-6    # convergence test: the point's z equals subproblem value


class EngineError(Exception):
    """An oracle broke its contract (an evaluation that neither converges
    nor brings a fresh cut)."""


class MasterOracle:
    """Contract for problem-specific master oracles.

    sense: "min" or "max".
    best_point(cuts) -> (x, z, w) or None

    Write Sol(exact) for the master's points that satisfy every cut.
    The answer is an optimum of Sol(exact): its discrete labels x (a
    tuple), its value variable z and its master value w, so that a
    converged point is optimal over the master under the cuts; None says
    Sol(exact) is empty.  Every master has a value variable (fixed at v
    when the subproblem value is fixed), so z is always a number.

    The master is asked again after every batch of fresh cuts, with the
    pool's list grown by them (the list only appends, and a cut never
    changes).  These calls are the only way fresh cuts reach the master.
    """

    sense = "min"

    def best_point(self, cuts):
        raise NotImplementedError


class SubproblemOracle:
    """evaluate(x) returns a SubproblemResult.

    The engine evaluates each point at most once.  The cuts need only be
    valid: an oracle that warm-starts its LPs from earlier ones may
    return a different cut for the same x when the dual is degenerate.

    initial_cuts() returns cuts that hold for every x the subproblem can
    serve and that the oracle can write before any evaluation; the solve
    pools them before the root is expanded.  The default returns none.
    """

    def evaluate(self, x):
        raise NotImplementedError

    def initial_cuts(self):
        return []


@dataclass
class SubproblemResult:
    kind: str                 # "optimal" | "infeasible"
    cuts: list                # optimality cut, or one feasibility cut per distinct cut row
    value: float = None
    lp_calls: int = 0


class CutPool:
    """Insertion-ordered cut set, deduplicated on rounded coefficients."""

    def __init__(self):
        self.cuts = []
        self._keys = set()

    def add(self, cut):
        key = cut.key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self.cuts.append(cut)
        return True

    def count(self, kind):
        return sum(1 for c in self.cuts if c.kind == kind)

@dataclass
class EngineConfig:
    time_limit: float = None

    def __post_init__(self):
        # `not >=` also rejects NaN, which every comparison would ignore
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError(f"time limit must be at least 0 seconds, got {self.time_limit}")


@dataclass
class SolveReport:
    status: str                        # "optimal" | "time_limit" | "infeasible"
    x: tuple = None
    z: float = None
    value: float = None
    feasibility_cuts: int = 0
    optimality_cuts: int = 0
    branches: int = 0                  # always 0: the solve does not branch
    lp_calls: int = 0
    wall_time: float = 0.0
    gap: float = None
    instance: str = ""

    CSV_HEADER = "instance,status,value,time,f_cuts,o_cuts,branches,lp_calls"

    def csv_row(self):
        val = "" if self.value is None else f"{self.value:.9g}"
        return (f"{self.instance},{self.status},{val},{self.wall_time:.3f},"
                f"{self.feasibility_cuts},{self.optimality_cuts},"
                f"{self.branches},{self.lp_calls}")

    def to_json(self):
        doc = {
            "instance": self.instance,
            "status": self.status,
            "x": list(self.x) if self.x is not None else None,
            "z": self.z,
            "value": self.value,
            "feasibility_cuts": self.feasibility_cuts,
            "optimality_cuts": self.optimality_cuts,
            "branches": self.branches,
            "lp_calls": self.lp_calls,
            "wall_time": self.wall_time,
            # strict JSON has no Infinity: no incumbent, no finite gap
            "gap": self.gap if self.gap is not None and math.isfinite(self.gap) else None,
        }
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


# no solve calls enumerate_prefixes; it stays importable as engine.enumerate_prefixes,
# which perfbench/layers.py binds by name (its engine.enumerate_prefixes span)
def enumerate_prefixes(dd, layer_idx, cap):
    """Distinct label prefixes of root paths into node layer layer_idx,
    sorted, or None when more than `cap` exist."""
    order, first = dd.out_index()
    order, first = order.tolist(), first.tolist()
    label, head = dd.label.tolist(), dd.head.tolist()
    out = []
    seen = set()
    stack = [(dd.root, 0, ())]
    while stack:
        node, j, labs = stack.pop()
        if j == layer_idx:
            if labs not in seen:
                seen.add(labs)
                out.append(labs)
                if len(out) > cap:
                    return None
            continue
        for i in order[first[node]:first[node + 1]]:
            stack.append((head[i], j + 1, labs + (label[i],)))
    return sorted(out)


def replay_cuts(dd, cuts):
    """Exact refinement of a diagram with respect to pooled cuts.

    The whole list goes to one refine_with_cut call, a single top-down
    pass; an empty list returns dd itself.  It calls through this
    module's refine_with_cut, so wrappers bound there (as
    perfbench/layers.py binds) see every replay.
    Node splitting may push the diagram past any width its oracle
    compiled it to; that growth is allowed, never blocked.
    """
    if cuts:
        dd = refine_with_cut(dd, list(cuts))
    return dd


def dd_bd_solve(master, sub, config=None):
    """Run the decomposition loop to optimality (or time limit)."""
    cfg = config or EngineConfig()
    sense = master.sense
    t0 = time.perf_counter()
    pool = CutPool()
    for cut in sub.initial_cuts():
        pool.add(cut)
    best_x, best_z, w_star = None, None, None
    bound = None          # the last point's value, when the clock stops the loop
    lp_calls = 0
    status = "optimal"

    def better(a, b):
        if b is None:
            return True
        return a > b + VALUE_TOL if sense == "max" else a < b - VALUE_TOL

    def out_of_time():
        return cfg.time_limit is not None and time.perf_counter() - t0 > cfg.time_limit

    if out_of_time():
        status = "time_limit"
    else:
        seen = {}         # each evaluated x and its result
        while True:
            point = master.best_point(pool.cuts)
            if point is None:
                break
            x, z, w = point
            if out_of_time():
                # w is the optimum of the master under the pool: it bounds
                # every feasible point
                status, bound = "time_limit", w
                break
            res = seen.get(x)
            if res is None:
                res = seen[x] = sub.evaluate(x)
                lp_calls += res.lp_calls
            fresh = [c for c in res.cuts if pool.add(c)]
            if res.kind == "optimal":
                if abs(z - res.value) <= CONVERGE_TOL:
                    # a converged point replaces an incumbent it ties, which
                    # came from a point evaluated on the way
                    if better(w, w_star) or abs(w - w_star) <= VALUE_TOL:
                        w_star, best_x, best_z = w, x, z
                    break
                # an optimal evaluation that has not converged is the
                # feasible point x at cost w - z + value
                if better(w - z + res.value, w_star):
                    w_star, best_x, best_z = w - z + res.value, x, res.value
            if not fresh:
                raise EngineError(
                    "subproblem regenerated only pooled cuts; the master's "
                    "point brought no fresh cut")

    wall = time.perf_counter() - t0
    report = SolveReport(status=status, lp_calls=lp_calls, wall_time=wall,
                         feasibility_cuts=pool.count("feasibility"),
                         optimality_cuts=pool.count("optimality"))
    if best_x is None:
        if status != "time_limit":
            report.status = "infeasible"
        report.gap = math.inf if status == "time_limit" else None
        return report
    report.x, report.z, report.value = best_x, best_z, w_star
    if status == "time_limit":
        report.gap = abs(bound - w_star)
    return report
