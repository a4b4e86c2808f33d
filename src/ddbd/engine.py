"""Branch-and-bound over restricted/relaxed decision diagrams with
Benders-style cut generation.

The solve loop keeps a LIFO stack of partial assignments.  For each one
it builds a width-limited restricted diagram (primal side), iterates
longest-path / subproblem / refine until the path's value-variable
agrees with the subproblem optimum, then builds a relaxed diagram (dual
side) for pruning and for branching over its last exact node layer.
Cuts live in a global deduplicated pool.  The oracles replay the whole
pool into every freshly built diagram, and the loops replay each batch
of new cuts into the current one; either way a replay is one exact
refinement pass over the list (see replay_cuts).

Master and subproblem oracles are duck-typed; see MasterOracle and
SubproblemOracle for the expected surface.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass

from .diagram import (
    EmptyDiagramError,
    InfeasibleDiagramError,
    optimal_path,
    refine_with_cut,
    to_dot,
)

log = logging.getLogger("ddbd.engine")

VALUE_TOL = 1e-9       # strictness for incumbent comparisons
CONVERGE_TOL = 1e-6    # repeat-loop test: path z equals subproblem value
REPEAT_CAP = 1000      # restricted refine iterations per node before giving up
RELAXED_CUT_CAP = 20   # subproblem calls on relaxed paths per node
BRANCH_CAP = 64        # prefixes per branching before backing up a layer


class EngineError(Exception):
    """An oracle broke its contract (stalled refinement, bad diagram)."""


class BoundViolationError(Exception):
    """Debug-mode bound sandwich failed."""


class PropertyViolationError(Exception):
    """Input diagram lacks the unique-incoming-arc property."""


class MasterOracle:
    """Contract for problem-specific diagram builders.

    sense: "min" or "max".
    build_exact_dd(partial, cuts)      -> diagram or None when infeasible
    build_restricted_dd(partial, cuts, width) -> (diagram or None, is_exact)
    build_relaxed_dd(partial, cuts, width)    -> diagram or None

    Solution-set contract, projected to the discrete labels:
    Sol(restricted) <= Sol(exact) <= Sol(relaxed) for every input.
    Relaxed diagrams tag relaxation-merged nodes so exact_cutset works.
    Diagrams must end in a continuous value layer (a [v, v] interval
    when the subproblem value is fixed).
    """

    sense = "min"

    def build_exact_dd(self, partial, cuts):
        raise NotImplementedError

    def build_restricted_dd(self, partial, cuts, width):
        raise NotImplementedError

    def build_relaxed_dd(self, partial, cuts, width):
        raise NotImplementedError


class SubproblemOracle:
    """evaluate(x) returns a SubproblemResult.

    Its kind and value must be a pure function of x.  The cuts need only
    be valid: an oracle that warm-starts its LPs from earlier ones may
    return a different cut for the same x when the dual is degenerate,
    so an oracle that must repeat itself exactly memoizes per x, as
    UcpSubproblemOracle does.
    """

    def evaluate(self, x):
        raise NotImplementedError


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
    width: int = 2
    time_limit: float = None
    relaxed_cuts: bool = True          # run subproblems on relaxed paths too
    debug_bounds: bool = False         # per-node sandwich check (slow)
    dot_dir: str = None                # dump refinement snapshots when set

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be at least 1, got {self.width}")


@dataclass
class SolveReport:
    status: str                        # "optimal" | "time_limit" | "infeasible"
    x: tuple = None
    z: float = None
    value: float = None
    feasibility_cuts: int = 0
    optimality_cuts: int = 0
    branches: int = 0
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
    where = dd.node_layer_of()
    first_merged = None
    for nid in dd.merged:
        li = where.get(nid)
        if li is not None and (first_merged is None or li < first_merged):
            first_merged = li
    if first_merged is None:
        idx = len(dd.layers) - 2
    else:
        idx = first_merged - 1
    idx = max(idx, 0)
    return idx, list(dd.layers[idx])


def enumerate_prefixes(dd, layer_idx, cap):
    """Distinct label prefixes of root paths into node layer layer_idx.

    Branching must cover every path of the diagram, and paths that share
    a node can carry different subproblem behaviour, so one prefix per
    node is not enough.  Returns None when more than `cap` prefixes
    exist so the caller can fall back to a shallower layer.
    """
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
        for arc in dd.arcs[j]:
            if arc.tail == node:
                stack.append((arc.head, j + 1, labs + (arc.label,)))
    return sorted(out)


def replay_cuts(dd, cuts, width_hint=None):
    """Exact refinement of a diagram with respect to pooled cuts.

    The whole list goes to one refine_with_cut call, a single top-down
    pass; an empty list returns dd itself.  The call goes through this
    module's refine_with_cut attribute, so a wrapper bound there (as
    perfbench/layers.py does to time refinement) sees every replay.
    Node splitting may push the diagram past any configured width;
    that growth is allowed and logged, never blocked.
    """
    if cuts:
        dd = refine_with_cut(dd, list(cuts))
    if width_hint is not None and dd.width > width_hint:
        log.debug("refinement grew the diagram to width %d (cap %d)",
                  dd.width, width_hint)
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


def dd_bd_solve(master, sub, config=None, instance_id="", known_optimum=None):
    """Run the decomposition loop to optimality (or time limit).

    known_optimum is only consulted when config.debug_bounds is set: the
    per-node primal/dual bound sandwich is then asserted against it and
    against per-node exact diagrams, raising BoundViolationError.
    """
    cfg = config or EngineConfig()
    sense = master.sense
    t0 = time.perf_counter()
    dots = _DotDumper(cfg.dot_dir)
    pool = CutPool()
    stack = [()]
    seen = {()}
    inherited_bound = {(): math.inf if sense == "max" else -math.inf}
    best_x, best_z, w_star = None, None, None
    branches = 0
    lp_calls = 0
    nodes_expanded = 0
    status = "optimal"

    def better(a, b):
        if b is None:
            return True
        return a > b + VALUE_TOL if sense == "max" else a < b - VALUE_TOL

    def tie(a, b):
        return b is not None and abs(a - b) <= VALUE_TOL

    def out_of_time():
        return cfg.time_limit is not None and time.perf_counter() - t0 > cfg.time_limit

    while stack:
        if out_of_time():
            status = "time_limit"
            break
        partial = stack.pop()
        nodes_expanded += 1
        bound_here = inherited_bound.pop(partial, None)
        if bound_here is not None and w_star is not None and not better(bound_here, w_star):
            continue

        if cfg.debug_bounds:
            _debug_sandwich(master, partial, pool.cuts, cfg.width, sense,
                            known_optimum if partial == () else None)

        rdd, restricted_exact = master.build_restricted_dd(partial, pool.cuts, cfg.width)
        candidate = None
        if rdd is not None:
            dots.dump(rdd, "restricted")
            for _ in range(REPEAT_CAP):
                if out_of_time():
                    status = "time_limit"
                    break
                try:
                    assignment, w = optimal_path(rdd, sense)
                except EmptyDiagramError:
                    rdd = None
                    break
                x, z = split_assignment(rdd, assignment)
                res = sub.evaluate(x)
                lp_calls += res.lp_calls
                fresh = [c for c in res.cuts if pool.add(c)]
                if res.kind == "optimal" and z is not None and \
                        abs(z - res.value) <= CONVERGE_TOL:
                    candidate = (x, z, w)
                    break
                if not fresh:
                    raise EngineError(
                        "subproblem regenerated only pooled cuts; the diagram "
                        "refinement cannot make progress")
                try:
                    rdd = replay_cuts(rdd, fresh, width_hint=cfg.width)
                except InfeasibleDiagramError:
                    rdd = None
                    break
                dots.dump(rdd, "restricted")
            else:
                raise EngineError("restricted repeat loop exceeded its cap")
        if status == "time_limit":
            # the node is open again: its inherited bound still holds
            inherited_bound[partial] = bound_here
            break

        if candidate is not None:
            x, z, w = candidate
            if cfg.debug_bounds and known_optimum is not None:
                ok = w >= known_optimum - 1e-6 if sense == "min" \
                    else w <= known_optimum + 1e-6
                if not ok:
                    raise BoundViolationError(
                        f"feasible candidate value {w} beats the known optimum "
                        f"{known_optimum}")
            if better(w, w_star) or (tie(w, w_star) and best_x is not None and x < best_x):
                w_star, best_x, best_z = w, x, z

        if restricted_exact:
            # the restricted diagram represented the node exactly: the node
            # is fully solved (or infeasible) and branching cannot improve it
            continue

        xdd = master.build_relaxed_dd(partial, pool.cuts, cfg.width)
        if xdd is None:
            continue
        dots.dump(xdd, "relaxed")
        try:
            assignment, w_bar = optimal_path(xdd, sense)
        except EmptyDiagramError:
            continue
        if not better(w_bar, w_star):
            continue

        pruned = False
        if cfg.relaxed_cuts:
            for _ in range(RELAXED_CUT_CAP):
                if out_of_time():
                    status = "time_limit"
                    break
                x_bar, z_bar = split_assignment(xdd, assignment)
                res = sub.evaluate(x_bar)
                lp_calls += res.lp_calls
                fresh = [c for c in res.cuts if pool.add(c)]
                if res.kind == "optimal" and z_bar is not None and \
                        abs(z_bar - res.value) <= CONVERGE_TOL:
                    break
                if not fresh:
                    break  # nothing new to separate with; stop improving the bound
                try:
                    xdd = replay_cuts(xdd, fresh, width_hint=cfg.width)
                except InfeasibleDiagramError:
                    pruned = True
                    break
                dots.dump(xdd, "relaxed")
                try:
                    assignment, w_bar = optimal_path(xdd, sense)
                except EmptyDiagramError:
                    pruned = True
                    break
                if not better(w_bar, w_star):
                    pruned = True
                    break
        if status == "time_limit":
            # w_bar bounds every completion of this node's relaxed diagram
            inherited_bound[partial] = w_bar
            break
        if pruned:
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
        for prefix in sorted(prefixes, reverse=True):
            if prefix in seen:
                continue
            seen.add(prefix)
            inherited_bound[prefix] = w_bar
            stack.append(prefix)
            branches += 1

    wall = time.perf_counter() - t0
    report = SolveReport(status=status, branches=branches, lp_calls=lp_calls,
                         wall_time=wall, instance=instance_id,
                         feasibility_cuts=pool.count("feasibility"),
                         optimality_cuts=pool.count("optimality"))
    if best_x is None:
        if status != "time_limit":
            report.status = "infeasible"
        report.gap = math.inf if status == "time_limit" else None
        return report
    report.x, report.z, report.value = best_x, best_z, w_star
    if status == "time_limit":
        open_bounds = [b for b in inherited_bound.values()] or [w_star]
        bound = max(open_bounds) if sense == "max" else min(open_bounds)
        report.gap = abs(bound - w_star)
    return report


def _debug_sandwich(master, partial, cuts, width, sense, known_optimum):
    """Relaxed <= exact <= restricted path values (min sense; mirrored for max)."""
    try:
        edd = master.build_exact_dd(partial, cuts)
    except (InfeasibleDiagramError, EmptyDiagramError):
        edd = None
    if edd is None:
        return
    try:
        _, exact_val = optimal_path(edd, sense)
    except EmptyDiagramError:
        return
    rdd, _ = master.build_restricted_dd(partial, cuts, width)
    xdd = master.build_relaxed_dd(partial, cuts, width)
    tol = 1e-6 * (1.0 + abs(exact_val))
    if xdd is not None:
        _, relax_val = optimal_path(xdd, sense)
        ok = relax_val <= exact_val + tol if sense == "min" else relax_val >= exact_val - tol
        if not ok:
            raise BoundViolationError(
                f"relaxed bound {relax_val} cuts off exact value {exact_val}")
    if rdd is not None:
        _, restr_val = optimal_path(rdd, sense)
        ok = restr_val >= exact_val - tol if sense == "min" else restr_val <= exact_val + tol
        if not ok:
            raise BoundViolationError(
                f"restricted value {restr_val} beats exact value {exact_val}")
    if known_optimum is not None and xdd is not None:
        _, relax_val = optimal_path(xdd, sense)
        ok = relax_val <= known_optimum + 1e-6 if sense == "min" \
            else relax_val >= known_optimum - 1e-6
        if not ok:
            raise BoundViolationError(
                f"root relaxed bound {relax_val} excludes the optimum {known_optimum}")


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
    if m == 0 or not dd.layers[-2]:
        raise EmptyDiagramError("no nodes to propagate rewards through")
    for j in range(1, m):
        incoming = dd.in_map(j - 1)
        for nid in dd.layers[j]:
            if len(incoming.get(nid, ())) != 1:
                raise PropertyViolationError(
                    f"node {nid} at layer {j} has "
                    f"{len(incoming.get(nid, ()))} incoming arcs")
    alphas = []
    for cut in cuts:
        if cut.z_coeff == 0.0:
            raise ValueError("only value-bounding cuts are supported")
        if not ((cut.sense == "<=" and cut.z_coeff > 0) or
                (cut.sense == ">=" and cut.z_coeff < 0)):
            raise ValueError("cut must bound the value variable from above")
        coef = {j: -c / cut.z_coeff for j, c in cut.coeffs.items()}
        alphas.append((coef, cut.rhs / cut.z_coeff))

    rewards = {dd.root: [a0 for _, a0 in alphas]}
    for j in range(m - 1):
        for arc in dd.arcs[j]:
            base = rewards[arc.tail]
            rewards[arc.head] = [
                base[k] + alphas[k][0].get(j, 0.0) * arc.label
                for k in range(len(alphas))
            ]
    best = None
    last = dd.out_map(m - 1)
    for nid in dd.layers[-2]:
        arcs = last.get(nid)
        if not arcs:
            continue
        if len(arcs) != 1:
            raise PropertyViolationError(
                f"node {nid} sends {len(arcs)} arcs to the terminal")
        arc = arcs[0]
        acc = min(rewards[nid][k] + alphas[k][0].get(m - 1, 0.0) * arc.label
                  for k in range(len(alphas)))
        if best is None or acc > best:
            best = acc
    if best is None:
        raise EmptyDiagramError("no arcs into the terminal")
    return best
