"""Branch-and-bound over restricted/relaxed decision diagrams with
Benders-style cut generation.

The solve loop keeps a LIFO stack of partial assignments.  Each node
runs one separation loop: take the diagram's optimal path, evaluate the
subproblem there, pool the cuts, and ask the master again for the node
under the grown pool (the only way fresh cuts reach a diagram), until
the path's value variable agrees with the subproblem optimum.  On the
restricted diagram that yields the node's candidate, and a cut the pool
already holds is an oracle error.  A restricted diagram reported exact
solves the node; both shipped oracles report exact, so their solves end
at the root.  For an inexact one the relaxed side runs the same loop to
tighten the bound: the node is pruned once the bound cannot beat the
incumbent, and otherwise it branches over the last exact node layer of
the last diagram refined, after RELAXED_CUT_CAP evaluations or a stale
cut.  A single prefix is no branching: it is extended as far as every
path shares it (forced_prefix) and pushed as the only child.
Cuts live in a global deduplicated pool, seeded before the root with
the subproblem oracle's initial_cuts(): cuts that hold for every x,
such as the unit-commitment oracle's per-period capacity cuts.  The MIP
oracle brings the pool into a diagram by one exact refinement pass over
the list (see replay_cuts); the unit-commitment oracle finds an optimal
path of its master under the pool in one label pass and returns that
path.  Every restricted path whose evaluation is optimal is a feasible
point, and the best of them is the incumbent until a converged path
replaces it, so a solve stopped by the clock still reports one.
The clock is read before every evaluation, before each node, and once
more between the restricted loop and the relaxed build; a node open
when the time runs out goes back on the stack with a bound that holds
for it.

Master and subproblem oracles are duck-typed; see MasterOracle and
SubproblemOracle for the expected surface.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .diagram import (
    EmptyDiagramError,
    optimal_path,
    refine_with_cut,
    to_dot,
)

VALUE_TOL = 1e-9       # strictness for incumbent comparisons
CONVERGE_TOL = 1e-6    # repeat-loop test: path z equals subproblem value
REPEAT_CAP = 1000      # restricted refine iterations per node before giving up
RELAXED_CUT_CAP = 20   # subproblem calls on relaxed paths per node
BRANCH_CAP = 64        # prefixes per branching before backing up a layer


class EngineError(Exception):
    """An oracle broke its contract (stalled refinement, bad diagram)."""


class PropertyViolationError(Exception):
    """Input diagram lacks the unique-incoming-arc property."""


class MasterOracle:
    """Contract for problem-specific diagram builders.

    sense: "min" or "max".
    build_restricted_dd(partial, cuts) -> (diagram or None, is_exact)
    build_relaxed_dd(partial, cuts)    -> diagram or None

    Both build over the completions of the partial assignment that
    satisfy every cut.  Write Sol(exact) for that set; the contract,
    projected to the discrete labels, is
    Sol(restricted) <= Sol(exact) <= Sol(relaxed) for every input.
    Relaxed diagrams tag relaxation-merged nodes so exact_cutset works,
    and None from build_relaxed_dd says Sol(exact) is empty.  Diagrams
    must end in a continuous value layer (a [v, v] interval when the
    subproblem value is fixed).  An oracle that bounds its diagrams'
    width takes the width in its constructor.

    is_exact promises that the restricted diagram holds an optimum of
    Sol(exact), at its value: its optimal path is optimal over the whole
    node under the cuts, so the node needs no relaxed diagram and no
    branching, and build_relaxed_dd is never called for it; an oracle
    that always reports exact (both shipped ones do) need not define
    it.  (None, True) means Sol(exact) is empty: the partial assignment
    has no completion, or the cuts remove every one.  (None, False) only
    says the restricted diagram found nothing.

    Both builds are asked again for the same partial after every batch
    of fresh cuts, with the pool's list grown by them (the list only
    appends, and a cut never changes); the last restricted answer's
    is_exact is the one that counts.  These calls are the only way fresh
    cuts reach a node's diagrams.  An oracle may keep state for one
    partial assignment to make them cheap, as MipMasterOracle does; any
    other call must still answer in full.
    """

    sense = "min"

    def build_restricted_dd(self, partial, cuts):
        raise NotImplementedError

    def build_relaxed_dd(self, partial, cuts):
        raise NotImplementedError


class SubproblemOracle:
    """evaluate(x) returns a SubproblemResult.

    Its kind and value must be a pure function of x.  The cuts need only
    be valid: an oracle that warm-starts its LPs from earlier ones may
    return a different cut for the same x when the dual is degenerate,
    so an oracle that must repeat itself exactly memoizes per x, as
    UcpSubproblemOracle does.

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

    def __len__(self):
        return len(self.cuts)


@dataclass
class EngineConfig:
    time_limit: float = None
    dot_dir: str = None                # dump refinement snapshots when set

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
    branches: int = 0
    nodes: int = 0                     # partial assignments taken off the stack
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
            "nodes": self.nodes,
            "lp_calls": self.lp_calls,
            "wall_time": self.wall_time,
            # strict JSON has no Infinity: no incumbent, no finite gap
            "gap": self.gap if self.gap is not None and math.isfinite(self.gap) else None,
        }
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def split_assignment(dd, assignment):
    """(discrete labels, value-variable) parts of a path assignment."""
    if dd.layer_kinds and dd.layer_kinds[-1] == "continuous":
        return tuple(assignment[:-1]), assignment[-1]
    return tuple(assignment), None


def exact_cutset(dd):
    """Deepest node layer above any relaxation-merged node.

    Returns (layer index, node ids).  For an exact diagram this is the
    last node layer before the terminal; the root layer is always exact.
    """
    merged = np.flatnonzero(dd.merged)
    if merged.size:   # rows are in layer order, so the first merged row is shallowest
        idx = int(np.searchsorted(dd.node_first, merged[0], side="right")) - 2
    else:
        idx = dd.num_arc_layers - 1
    idx = max(idx, 0)
    return idx, list(dd.layer_rows(idx))


def enumerate_prefixes(dd, layer_idx, cap):
    """Distinct label prefixes of root paths into node layer layer_idx.

    Branching must cover every path of the diagram, and paths that share
    a node can carry different subproblem behaviour, so one prefix per
    node is not enough.  Returns None when more than `cap` prefixes
    exist so the caller can fall back to a shallower layer.
    """
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


def forced_prefix(dd):
    """Longest label prefix that every root path of dd starts with.

    Stops at the last node layer before the terminal, so the prefix
    never takes a value-layer label.
    """
    labels = ()
    nodes = np.zeros(dd.node_count(), dtype=bool)
    nodes[dd.root] = True
    for j in range(dd.num_arc_layers - 1):
        a, b = dd.arc_first[j], dd.arc_first[j + 1]
        out = nodes[dd.tail[a:b]]
        labs = dd.label[a:b][out].tolist()
        if len(set(labs)) != 1:
            break
        labels += (labs[0],)
        nodes[dd.head[a:b][out]] = True
    return labels


def replay_cuts(dd, cuts):
    """Exact refinement of a diagram with respect to pooled cuts.

    The whole list goes to one refine_with_cut call, a single top-down
    pass; an empty list returns dd itself.  Master oracles call it through
    their own module's attribute (ucp.replay_cuts), and it calls through
    this module's refine_with_cut, so wrappers bound there (as
    perfbench/layers.py binds) see every replay.
    Node splitting may push the diagram past any width its oracle
    compiled it to; that growth is allowed, never blocked.
    """
    if cuts:
        dd = refine_with_cut(dd, list(cuts))
    return dd


class _DotDumper:
    def __init__(self, directory):
        self.directory = directory
        self.seq = 0
        if directory:
            os.makedirs(directory, exist_ok=True)

    def dump(self, dd, tag):
        if not self.directory:
            return
        path = os.path.join(self.directory, f"{self.seq:04d}_{tag}.dot")
        with open(path, "w") as fh:
            fh.write(to_dot(dd))
        self.seq += 1


def dd_bd_solve(master, sub, config=None, instance_id=""):
    """Run the decomposition loop to optimality (or time limit)."""
    cfg = config or EngineConfig()
    sense = master.sense
    t0 = time.perf_counter()
    dots = _DotDumper(cfg.dot_dir)
    pool = CutPool()
    for cut in sub.initial_cuts():
        pool.add(cut)
    # (partial assignment, bound inherited from the relaxed diagram it came from)
    stack = [((), math.inf if sense == "max" else -math.inf)]
    best_x, best_z, w_star = None, None, None
    best_closed = False   # the incumbent is a converged path
    branches = 0
    lp_calls = 0
    nodes_expanded = 0
    restricted_exact = False
    status = "optimal"

    def better(a, b):
        if b is None:
            return True
        return a > b + VALUE_TOL if sense == "max" else a < b - VALUE_TOL

    def tie(a, b):
        return b is not None and abs(a - b) <= VALUE_TOL

    def out_of_time():
        return cfg.time_limit is not None and time.perf_counter() - t0 > cfg.time_limit

    def restricted():
        # the last build's exactness flag is the one that counts
        nonlocal restricted_exact
        rdd, restricted_exact = master.build_restricted_dd(partial, pool.cuts)
        return rdd

    def separate(build, tag, cap, prune):
        """Build -> path -> subproblem -> pool, at most cap evaluations.

        build() returns the node's diagram under the current pool, or
        None when no path is left; it is called first and again after
        every batch of fresh cuts.  Returns (outcome, diagram, (x, z, w))
        with the last diagram and its optimal path.  Outcomes:
        "converged" (the path's value variable equals the subproblem
        value), "stale" (no fresh cut), "empty" (no path is left; the
        diagram is None), "bounded" (prune is set and the path cannot
        beat the incumbent), "cap" and "time_limit".  On the restricted
        side, an optimal evaluation that has not converged
        is the feasible point x at cost w - z + value, taken as the
        incumbent when it is strictly better.
        """
        nonlocal lp_calls, w_star, best_x, best_z, best_closed
        path = (None, None, None)
        for evaluations in itertools.count():
            dd = build()
            if dd is None:
                return "empty", None, path
            dots.dump(dd, tag)
            try:
                assignment, w = optimal_path(dd, sense)
            except EmptyDiagramError:
                return "empty", None, path
            x, z = split_assignment(dd, assignment)
            path = (x, z, w)
            if prune and not better(w, w_star):
                return "bounded", dd, path
            if evaluations == cap:
                return "cap", dd, path
            if out_of_time():
                return "time_limit", dd, path
            res = sub.evaluate(x)
            lp_calls += res.lp_calls
            fresh = [c for c in res.cuts if pool.add(c)]
            if res.kind == "optimal" and z is not None:
                if abs(z - res.value) <= CONVERGE_TOL:
                    return "converged", dd, path
                if tag == "restricted" and better(w - z + res.value, w_star):
                    w_star, best_x, best_z = w - z + res.value, x, res.value
                    best_closed = False
            if not fresh:
                return "stale", dd, path

    while stack:
        if out_of_time():
            status = "time_limit"
            break
        partial, bound_here = stack.pop()
        nodes_expanded += 1
        if not better(bound_here, w_star):
            continue

        outcome, _, (x, z, w) = separate(restricted, "restricted", REPEAT_CAP, prune=False)
        if outcome == "time_limit":
            # the node is open again: its inherited bound still holds
            stack.append((partial, bound_here))
            status = "time_limit"
            break
        if outcome == "stale":
            raise EngineError(
                "subproblem regenerated only pooled cuts; the diagram "
                "refinement cannot make progress")
        if outcome == "cap":
            raise EngineError("restricted repeat loop exceeded its cap")
        # a converged path replaces an incumbent it ties that came from a
        # point evaluated on the way, and of tied converged paths the
        # lexicographically smallest x is kept
        if outcome == "converged" and (better(w, w_star) or (
                tie(w, w_star) and (not best_closed or x < best_x))):
            w_star, best_x, best_z = w, x, z
            best_closed = True

        if restricted_exact:
            # the last restricted diagram represented the node exactly: the
            # node is fully solved (or infeasible) and branching cannot improve it
            continue
        if out_of_time():
            # as after a restricted loop cut short: the inherited bound holds
            stack.append((partial, bound_here))
            status = "time_limit"
            break

        # a stale cut leaves nothing new to separate with: stop improving
        # the bound and branch, as after the cap
        outcome, xdd, (_, _, w_bar) = separate(
            lambda: master.build_relaxed_dd(partial, pool.cuts), "relaxed",
            RELAXED_CUT_CAP, prune=True)
        if outcome == "time_limit":
            # w_bar bounds every completion of this node's relaxed diagram
            stack.append((partial, w_bar))
            status = "time_limit"
            break
        if outcome in ("empty", "bounded"):
            continue

        layer_idx, _ = exact_cutset(xdd)
        if layer_idx <= len(partial):
            raise EngineError("branching did not extend the partial assignment")
        prefixes = None
        while prefixes is None:
            prefixes = enumerate_prefixes(xdd, layer_idx, BRANCH_CAP)
            if prefixes is None:
                if layer_idx <= len(partial) + 1:
                    prefixes = enumerate_prefixes(xdd, layer_idx, 10 ** 9)
                    break
                layer_idx -= 1
        if len(prefixes) == 1:
            # one prefix is no choice: every path of xdd, and so every
            # completion that satisfies the pool, shares it as far as it goes
            prefixes = [forced_prefix(xdd)]
        # every prefix extends partial by the same length, so none is pushed twice
        stack.extend((prefix, w_bar) for prefix in sorted(prefixes, reverse=True))
        branches += len(prefixes)

    wall = time.perf_counter() - t0
    report = SolveReport(status=status, branches=branches, nodes=nodes_expanded,
                         lp_calls=lp_calls, wall_time=wall, instance=instance_id,
                         feasibility_cuts=pool.count("feasibility"),
                         optimality_cuts=pool.count("optimality"))
    if best_x is None:
        if status != "time_limit":
            report.status = "infeasible"
        report.gap = math.inf if status == "time_limit" else None
        return report
    report.x, report.z, report.value = best_x, best_z, w_star
    if status == "time_limit":
        open_bounds = [b for _, b in stack] or [w_star]
        bound = max(open_bounds) if sense == "max" else min(open_bounds)
        report.gap = abs(bound - w_star)
    return report


# -- reward propagation over unique-parent diagrams -----------------------------------


def cost_tuple_reward(dd, cuts):
    """Final reward of upper-bounding cuts over a non-reduced diagram.

    Every cut must bound the value variable from above by an affine
    function of the discrete labels (sense "<=", positive value
    coefficient, or the mirrored pair).  Requires each internal node to
    have exactly one incoming arc; per-cut rewards are propagated along
    those arcs, combined by min at the last layer, and maximised over
    its nodes.
    """
    m = dd.num_arc_layers
    if m == 0 or not dd.layer_rows(m - 1):
        raise EmptyDiagramError("no nodes to propagate rewards through")
    incoming = np.bincount(dd.head, minlength=dd.node_count())
    for j in range(1, m):
        for nid in dd.layer_rows(j):
            if incoming[nid] != 1:
                raise PropertyViolationError(
                    f"node {nid} at layer {j} has {incoming[nid]} incoming arcs")
    alphas = []
    for cut in cuts:
        if cut.z_coeff == 0.0:
            raise ValueError("only value-bounding cuts are supported")
        if not ((cut.sense == "<=" and cut.z_coeff > 0) or
                (cut.sense == ">=" and cut.z_coeff < 0)):
            raise ValueError("cut must bound the value variable from above")
        coef = {j: -c / cut.z_coeff for j, c in cut.coeffs.items()}
        alphas.append((coef, cut.rhs / cut.z_coeff))

    tail, head, label = dd.tail.tolist(), dd.head.tolist(), dd.label.tolist()
    rewards = {dd.root: [a0 for _, a0 in alphas]}
    for j in range(m - 1):
        for i in dd.layer_arcs(j):
            base = rewards[tail[i]]
            rewards[head[i]] = [
                base[k] + alphas[k][0].get(j, 0.0) * label[i]
                for k in range(len(alphas))
            ]
    best = None
    last = {}
    for i in dd.layer_arcs(m - 1):
        last.setdefault(tail[i], []).append(i)
    for nid in dd.layer_rows(m - 1):
        arcs = last.get(nid)
        if not arcs:
            continue
        if len(arcs) != 1:
            raise PropertyViolationError(
                f"node {nid} sends {len(arcs)} arcs to the terminal")
        acc = min(rewards[nid][k] + alphas[k][0].get(m - 1, 0.0) * label[arcs[0]]
                  for k in range(len(alphas)))
        if best is None or acc > best:
            best = acc
    if best is None:
        raise EmptyDiagramError("no arcs into the terminal")
    return best
