"""Layered decision diagrams with point- and interval-labeled arcs.

A diagram is a DAG organised in node layers U_0 .. U_m with arc layers
A_0 .. A_{m-1} between them.  Layer 0 holds the single root, the last
node layer the single terminal.  Discrete arc layers carry float labels
(one variable value per arc).  The final arc layer may instead be
"continuous": its arcs carry [lo, hi] interval labels and their weight
acts as a slope, so a path picks an endpoint e and contributes
weight * e to the path length.

Diagrams are treated as immutable once built: every operation in this
module returns a fresh diagram.  Callers that share diagrams across
threads must clone per worker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance for deciding whether a path satisfies a cut.
CUT_TOL = 1e-7
# Accumulated cut left-hand sides are keyed on this grid during exact
# refinement so that node splitting stays finite.
SPLIT_GRID = 1e-9
# Tie tolerance when extracting optimal paths.
PATH_TIE_TOL = 1e-9


class EmptyDiagramError(Exception):
    """No root-terminal path exists."""


class InfeasibleDiagramError(Exception):
    """A refinement removed every root-terminal path."""


class PathExplosionError(Exception):
    """Path enumeration exceeded the configured cap."""


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def endpoints(self):
        if abs(self.hi - self.lo) <= 0.0:
            return (self.lo,)
        return (self.lo, self.hi)


@dataclass
class Arc:
    tail: int
    head: int
    label: object  # float for discrete layers, Interval for continuous
    weight: float


@dataclass
class CutRow:
    """Linear inequality  sum_j coeffs[j]*x_j + z_coeff*z  (sense)  rhs.

    coeffs is keyed by discrete arc-layer index.  z_coeff is zero for
    feasibility cuts and nonzero for optimality cuts; z always maps to
    the continuous terminal layer.
    """

    coeffs: dict = field(default_factory=dict)
    z_coeff: float = 0.0
    rhs: float = 0.0
    sense: str = "<="  # "<=" or ">="

    @property
    def kind(self):
        return "feasibility" if self.z_coeff == 0.0 else "optimality"

    def key(self):
        items = tuple(sorted((j, round(c / SPLIT_GRID)) for j, c in self.coeffs.items()
                             if round(c / SPLIT_GRID) != 0))
        return (self.sense, round(self.z_coeff / SPLIT_GRID), items,
                round(self.rhs / SPLIT_GRID))

    def satisfied(self, lhs, tol=CUT_TOL):
        if self.sense == "<=":
            return lhs <= self.rhs + tol
        return lhs >= self.rhs - tol


class DecisionDiagram:
    """Layered DAG; see module docstring for the representation."""

    def __init__(self, num_arc_layers, continuous_last=False):
        self.layers = [[] for _ in range(num_arc_layers + 1)]
        self.arcs = [[] for _ in range(num_arc_layers)]
        self.layer_kinds = ["discrete"] * num_arc_layers
        if continuous_last and num_arc_layers:
            self.layer_kinds[-1] = "continuous"
        self.states = {}
        self.merged = set()
        self._next_id = 0

    # -- construction helpers -------------------------------------------------

    def new_node(self, layer, state=None, merged=False):
        nid = self._next_id
        self._next_id += 1
        self.layers[layer].append(nid)
        if state is not None:
            self.states[nid] = state
        if merged:
            self.merged.add(nid)
        return nid

    def add_arc(self, layer, tail, head, label, weight=0.0):
        self.arcs[layer].append(Arc(tail, head, label, weight))

    # -- basic queries ---------------------------------------------------------

    @property
    def num_arc_layers(self):
        return len(self.arcs)

    @property
    def root(self):
        return self.layers[0][0]

    @property
    def terminal(self):
        return self.layers[-1][0]

    @property
    def width(self):
        return max(len(layer) for layer in self.layers)

    def node_count(self):
        return sum(len(layer) for layer in self.layers)

    def node_layer_of(self):
        where = {}
        for i, layer in enumerate(self.layers):
            for nid in layer:
                where[nid] = i
        return where

    def out_map(self, layer):
        out = {}
        for arc in self.arcs[layer]:
            out.setdefault(arc.tail, []).append(arc)
        return out

    def in_map(self, layer):
        incoming = {}
        for arc in self.arcs[layer]:
            incoming.setdefault(arc.head, []).append(arc)
        return incoming

    def copy(self):
        dd = DecisionDiagram(self.num_arc_layers)
        dd.layer_kinds = list(self.layer_kinds)
        dd.layers = [list(layer) for layer in self.layers]
        dd.arcs = [[Arc(a.tail, a.head, a.label, a.weight) for a in layer]
                   for layer in self.arcs]
        dd.states = dict(self.states)
        dd.merged = set(self.merged)
        dd._next_id = self._next_id
        return dd

    def validate(self):
        """Check the structural invariants; raises ValueError on violation."""
        if len(self.layers[0]) != 1 or len(self.layers[-1]) != 1:
            raise ValueError("root and terminal layers must hold exactly one node")
        where = self.node_layer_of()
        for j, layer_arcs in enumerate(self.arcs):
            for arc in layer_arcs:
                if where.get(arc.tail) != j or where.get(arc.head) != j + 1:
                    raise ValueError(f"arc at layer {j} does not connect adjacent layers")
                if isinstance(arc.label, Interval):
                    if self.layer_kinds[j] != "continuous":
                        raise ValueError("interval label on a discrete layer")
                    if arc.label.lo > arc.label.hi:
                        raise ValueError("interval with lo > hi")
        if "continuous" in self.layer_kinds[:-1]:
            raise ValueError("only the final arc layer may be continuous")
        reach = _alive_nodes(self)
        for j, layer in enumerate(self.layers):
            for nid in layer:
                if nid not in reach and 0 < j < len(self.layers) - 1:
                    raise ValueError(f"dangling node {nid} at layer {j}")


def _alive_nodes(dd):
    """Nodes lying on at least one root-terminal path."""
    if not dd.arcs:
        return {dd.root}
    fwd = {dd.root}
    for layer_arcs in dd.arcs:
        nxt = {a.head for a in layer_arcs if a.tail in fwd}
        fwd |= nxt
    bwd = {dd.terminal}
    for layer_arcs in reversed(dd.arcs):
        prv = {a.tail for a in layer_arcs if a.head in bwd}
        bwd |= prv
    return fwd & bwd


def prune_dead_nodes(dd):
    """Drop nodes and arcs off every root-terminal path.

    Raises InfeasibleDiagramError when nothing survives.
    """
    alive = _alive_nodes(dd)
    if dd.root not in alive or dd.terminal not in alive:
        raise InfeasibleDiagramError("diagram has no root-terminal path")
    out = DecisionDiagram(dd.num_arc_layers)
    out.layer_kinds = list(dd.layer_kinds)
    out.layers = [[nid for nid in layer if nid in alive] for layer in dd.layers]
    out.arcs = [[Arc(a.tail, a.head, a.label, a.weight)
                 for a in layer if a.tail in alive and a.head in alive]
                for layer in dd.arcs]
    out.states = {nid: s for nid, s in dd.states.items() if nid in alive}
    out.merged = {nid for nid in dd.merged if nid in alive}
    out._next_id = dd._next_id
    return out


# -- path optimisation ---------------------------------------------------------


def _arc_contribution(arc, sense):
    """Best objective contribution of an arc and the label realising it."""
    if isinstance(arc.label, Interval):
        cands = [(arc.weight * e, e) for e in (arc.label.lo, arc.label.hi)]
        if sense == "max":
            best = max(v for v, _ in cands)
        else:
            best = min(v for v, _ in cands)
        # among optimal endpoints prefer the smaller label
        label = min(e for v, e in cands if v == best)
        return best, label
    return arc.weight, arc.label


def optimal_path(dd, sense="max"):
    """Return (assignment, value) of an optimal root-terminal path.

    Ties are broken toward the lexicographically smallest assignment so
    results are reproducible.  Raises EmptyDiagramError when no path
    exists.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    if not dd.arcs:
        raise EmptyDiagramError("diagram has no arc layers")
    best = {dd.terminal: 0.0}
    for j in range(dd.num_arc_layers - 1, -1, -1):
        nxt = {}
        for arc in dd.arcs[j]:
            if arc.head not in best:
                continue
            val, _ = _arc_contribution(arc, sense)
            total = val + best[arc.head]
            cur = nxt.get(arc.tail)
            if cur is None or (sense == "max" and total > cur) or \
                    (sense == "min" and total < cur):
                nxt[arc.tail] = total
        for nid, v in nxt.items():
            best[nid] = v
        if not nxt:
            raise EmptyDiagramError("diagram has no root-terminal path")
    if dd.root not in best:
        raise EmptyDiagramError("diagram has no root-terminal path")

    assignment = []
    node = dd.root
    for j in range(dd.num_arc_layers):
        tol = PATH_TIE_TOL * (1.0 + abs(best[node]))
        choice = None
        for arc in dd.arcs[j]:
            if arc.tail != node or arc.head not in best:
                continue
            if isinstance(arc.label, Interval):
                cand_labels = arc.label.endpoints()
            else:
                cand_labels = (arc.label,)
            for lab in cand_labels:
                contrib = arc.weight * lab if isinstance(arc.label, Interval) else arc.weight
                if abs(contrib + best[arc.head] - best[node]) <= tol:
                    key = (lab, arc.head)
                    if choice is None or key < choice[0]:
                        choice = (key, arc)
        if choice is None:  # numerical safety net; fall back to best arc
            raise EmptyDiagramError("optimal path reconstruction failed")
        (lab, _), arc = choice
        assignment.append(lab)
        node = arc.head
    return assignment, best[dd.root]


def enumerate_solutions(dd, cap=100_000):
    """Exact multiset of path encodings; interval arcs expand to endpoints."""
    if not dd.arcs:
        return []
    out_maps = [dd.out_map(j) for j in range(dd.num_arc_layers)]
    results = []
    stack = [(dd.root, 0, ())]
    while stack:
        node, j, prefix = stack.pop()
        if j == dd.num_arc_layers:
            results.append(prefix)
            if len(results) > cap:
                raise PathExplosionError(f"more than {cap} paths")
            continue
        for arc in reversed(out_maps[j].get(node, ())):
            labels = arc.label.endpoints() if isinstance(arc.label, Interval) \
                else (arc.label,)
            for lab in reversed(labels):
                stack.append((arc.head, j + 1, prefix + (lab,)))
                if len(stack) > cap:
                    raise PathExplosionError(f"more than {cap} paths")
    return results


def path_weight(dd, assignment, sense="max"):
    """Length of a path encoding `assignment`.

    When several paths share the encoding (equal labels toward different
    nodes), the best length for the given sense is returned.
    """
    better = max if sense == "max" else min
    reach = {dd.root: 0.0}
    for j, lab in enumerate(assignment):
        nxt = {}
        for arc in dd.arcs[j]:
            if arc.tail not in reach:
                continue
            if isinstance(arc.label, Interval):
                if not (arc.label.lo - 1e-12 <= lab <= arc.label.hi + 1e-12):
                    continue
                total = reach[arc.tail] + arc.weight * lab
            else:
                if arc.label != lab:
                    continue
                total = reach[arc.tail] + arc.weight
            nxt[arc.head] = better(nxt.get(arc.head, total), total)
        if not nxt:
            raise ValueError(f"no arc with label {lab} at layer {j}")
        reach = nxt
    return better(reach.values())


# -- structural operations -----------------------------------------------------


def reduce_interval_arcs(dd, layer_indices):
    """Keep only the min- and max-labeled arc of every parallel bundle.

    Applies to the arc layers in `layer_indices`, leaving the others
    untouched.  Preserves optima of objectives convex in those
    coordinates.
    """
    out = dd.copy()
    for j in layer_indices:
        groups = {}
        for arc in out.arcs[j]:
            groups.setdefault((arc.tail, arc.head), []).append(arc)
        kept = []
        for pair_arcs in groups.values():
            lo_arc = min(pair_arcs, key=_label_lo)
            hi_arc = max(pair_arcs, key=_label_hi)
            kept.append(lo_arc)
            if hi_arc is not lo_arc:
                kept.append(hi_arc)
        # keep deterministic layer order
        order = {id(a): i for i, a in enumerate(out.arcs[j])}
        kept.sort(key=lambda a: order[id(a)])
        out.arcs[j] = kept
    return out


def _label_lo(arc):
    return arc.label.lo if isinstance(arc.label, Interval) else arc.label


def _label_hi(arc):
    return arc.label.hi if isinstance(arc.label, Interval) else arc.label


def merge_nodes(dd, node_layer, nodes, state_merge=None):
    """Replace `nodes` (all in the given node layer) by a single node.

    Incoming and outgoing arcs are redirected, the merged node state is
    state_merge([state, ...]) when a combiner is supplied, and the new
    node is tagged as merged.  Every path of the input stays encodable.
    """
    group = set(nodes)
    if not group.issubset(set(dd.layers[node_layer])):
        raise ValueError("nodes must all belong to the given layer")
    out = dd.copy()
    states = [out.states.get(nid) for nid in nodes]
    for nid in group:
        out.layers[node_layer].remove(nid)
        out.states.pop(nid, None)
        out.merged.discard(nid)
    merged_id = out.new_node(
        node_layer,
        state=state_merge(states) if state_merge is not None else None,
        merged=True)
    if node_layer > 0:
        for arc in out.arcs[node_layer - 1]:
            if arc.head in group:
                arc.head = merged_id
    if node_layer < len(out.layers) - 1:
        for arc in out.arcs[node_layer]:
            if arc.tail in group:
                arc.tail = merged_id
    return out


def append_value_layer(dd, lo, hi, slope=1.0):
    """Add a trailing continuous layer with one [lo, hi] arc per pre-terminal node.

    Each node u in the old pre-terminal layer keeps its arcs into a new
    clone node, and the clone connects to the terminal with an interval
    arc.  Used to give a value variable to diagrams built over discrete
    variables only.
    """
    m = dd.num_arc_layers
    out = DecisionDiagram(m + 1, continuous_last=True)
    out.layer_kinds[:m] = list(dd.layer_kinds)
    out.layers = [list(layer) for layer in dd.layers[:-1]]
    out.layers.append([])   # clone layer
    out.layers.append([])   # new terminal
    out.arcs = [[Arc(a.tail, a.head, a.label, a.weight) for a in layer]
                for layer in dd.arcs[:-1]]
    out.states = dict(dd.states)
    out.merged = set(dd.merged)
    out._next_id = dd._next_id
    clone = {}
    last_arcs = []
    for arc in dd.arcs[-1]:
        if arc.tail not in clone:
            clone[arc.tail] = out.new_node(m)
        last_arcs.append(Arc(arc.tail, clone[arc.tail], arc.label, arc.weight))
    out.arcs.append(last_arcs)
    term = out.new_node(m + 1)
    out.arcs.append([Arc(v, term, Interval(float(lo), float(hi)), slope)
                     for v in out.layers[m]])
    return out


# -- cut refinement --------------------------------------------------------------


def refine_with_cut(dd, cut, mode="exact"):
    """Restrict the diagram to cuts, exactly or as a relaxation.

    mode="exact": `cut` is a CutRow or a list of them, and the result
    encodes {s in Sol(dd) : s satisfies every cut}.  All cuts are applied
    in one top-down pass (see _refine_exact): nodes are split on the
    accumulated left-hand sides so the decision at the last layer is
    unambiguous, interval endpoints are tightened for optimality cuts,
    and violating paths are removed.

    mode="relaxed": `cut` is a single CutRow.  No splitting; arcs are
    dropped only when every path through them violates a feasibility
    cut, and z intervals are tightened only as far as is valid for every
    path through the node.  The result is sandwiched between the exact
    refinement and Sol(dd).

    Raises InfeasibleDiagramError when every path is removed.
    """
    if mode not in ("exact", "relaxed"):
        raise ValueError("mode must be 'exact' or 'relaxed'")
    single = isinstance(cut, CutRow)
    if mode == "relaxed" and not single:
        raise ValueError("relaxed refinement takes a single cut")
    cuts = [cut] if single else list(cut)
    m = dd.num_arc_layers
    if m == 0:
        raise EmptyDiagramError("cannot refine an empty diagram")
    has_cont = dd.layer_kinds[-1] == "continuous"
    if not has_cont and any(c.z_coeff != 0.0 for c in cuts):
        raise ValueError("optimality cut on a diagram without a continuous layer")
    if mode == "relaxed":
        return _refine_relaxed(dd, cut)
    return _refine_exact(dd, cuts)


def _refine_exact(dd, cuts):
    """Exact refinement by a list of cuts in one top-down pass.

    An output node stands for an input node together with the
    accumulated left-hand side of every tracked cut, rounded to
    SPLIT_GRID; the first prefix to reach a key supplies the lhs values
    carried on.  Optimality cuts are always tracked, because their lhs
    bounds the value interval on the last layer.  A feasibility cut is
    tracked until the completion ranges of one backward pass over the
    input (_completion_limits) show that every completion from the node
    satisfies it; a child is dropped as soon as even its best completion
    violates one.  Both tests leave a rounding margin, so on the last
    layer the cuts still tracked are decided by CutRow.satisfied exactly
    as if each cut were applied on its own, and optimality cuts tighten
    [lo, hi] in list order.

    Each layer is extended for all cuts at once: rows of lhs values, one
    per output node, one column per cut.  A settled cut's entry is NaN,
    never 0: a zero there would merge a prefix whose cut is settled with
    one whose lhs is exactly 0 and still open, and hand both the same,
    wrong, completions.
    """
    m = dd.num_arc_layers
    cont = dd.layer_kinds[-1] == "continuous"
    num_discrete = m - 1 if cont else m
    feas = [c for c in cuts if c.z_coeff == 0.0]
    opt = [c for c in cuts if c.z_coeff != 0.0]
    # ">=" cuts are negated (exactly) so that every feasibility test below
    # reads  sign * lhs <= sign * rhs + CUT_TOL
    sign = np.array([1.0 if c.sense == "<=" else -1.0 for c in feas])
    fcoef = _coefficients(feas, num_discrete) * sign
    ocoef = _coefficients(opt, num_discrete)
    row = {nid: r for r, nid in enumerate(nid for layer in dd.layers for nid in layer)}
    drop_above, settled_at = _completion_limits(dd, feas, sign, fcoef, row)

    def settle(lhs, heads):
        """Rows that survive, and lhs with newly settled cuts set to NaN."""
        keep = ~(lhs > drop_above[heads]).any(axis=1)
        return np.where(lhs <= settled_at[heads], np.nan, lhs), keep

    def satisfied(flhs):
        """Per row: CutRow.satisfied holds for every cut the row still tracks."""
        ok = np.ones(len(flhs), dtype=bool)
        for r, i in zip(*np.nonzero(~np.isnan(flhs))):
            ok[r] &= feas[i].satisfied(sign[i] * flhs[r, i])
        return ok

    flhs, keep = settle(np.zeros((1, len(feas))), [row[dd.root]])
    if not keep[0]:
        raise InfeasibleDiagramError("a cut removes every path")
    olhs = np.zeros((1, len(opt)))
    out = DecisionDiagram(m)
    out.layer_kinds = list(dd.layer_kinds)
    olds = [dd.root]
    news = [out.new_node(0, state=dd.states.get(dd.root), merged=dd.root in dd.merged)]
    for j in range(m):
        is_last = j == m - 1
        out_arcs = dd.out_map(j)
        src, arcs = [], []
        for r, u in enumerate(olds):
            for arc in out_arcs.get(u, ()):
                src.append(r)
                arcs.append(arc)
        if not arcs:
            raise InfeasibleDiagramError("a cut removes every path")
        term = out.new_node(m, state=dd.states.get(dd.terminal),
                            merged=dd.terminal in dd.merged) if is_last else None
        if cont and is_last:
            ok, bound_lhs = satisfied(flhs), olhs.tolist()
            for arc, r in zip(arcs, src):
                label = _tighten(arc.label, opt, bound_lhs[r]) if ok[r] else None
                if label is not None:
                    out.add_arc(j, news[r], term, label, arc.weight)
            break
        labels = np.array([a.label for a in arcs])[:, None]
        heads = [row[a.head] for a in arcs]
        child_f, keep = settle(flhs[src] + labels * fcoef[j], heads)
        if is_last:
            for c in np.flatnonzero(keep & satisfied(child_f)):
                out.add_arc(j, news[src[c]], term, arcs[c].label, arcs[c].weight)
            break
        child_o = olhs[src] + labels * ocoef[j]
        # keys compare bits: one NaN pattern for every settled cut, and
        # + 0.0 folds -0.0 into 0.0 as round() does
        keys = _row_keys(np.column_stack([
            heads,
            np.where(np.isnan(child_f), np.nan, np.rint(child_f / SPLIT_GRID) + 0.0),
            np.rint(child_o / SPLIT_GRID) + 0.0]))
        nxt = {}
        first = []
        for c in np.flatnonzero(keep).tolist():
            arc = arcs[c]
            node = nxt.get(keys[c])
            if node is None:
                node = nxt[keys[c]] = out.new_node(j + 1, state=dd.states.get(arc.head),
                                                   merged=arc.head in dd.merged)
                first.append(c)
            out.add_arc(j, news[src[c]], node, arc.label, arc.weight)
        olds = [arcs[c].head for c in first]
        news = list(nxt.values())
        flhs, olhs = child_f[first], child_o[first]
    return prune_dead_nodes(out)


def _row_keys(a):
    """One bytes object per row of a float array, equal iff the rows' bits are."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel().tolist()


def _coefficients(cuts, num_layers):
    """(num_layers, len(cuts)) array of the cuts' coefficients per layer."""
    return np.array([[c.coeffs.get(j, 0.0) for c in cuts] for j in range(num_layers)],
                    dtype=float).reshape(num_layers, len(cuts))


def _completion_limits(dd, feas, sign, fcoef, row):
    """Per input node row, the lhs limits past which feasibility cuts are decided.

    One backward pass gives, for every node, the min and max over its
    completions of each cut's signed lhs (+inf and -inf when no
    completion exists).  drop_above[u, i] is the signed prefix lhs
    beyond which even the best completion violates cut i by more than
    CUT_TOL plus a margin; settled_at[u, i] is the signed prefix lhs at
    or below which every completion satisfies it with the same margin to
    spare.  The margin covers the SPLIT_GRID drift of carried lhs values
    (one grid step per layer, on either side) and the different
    summation order.
    """
    m = dd.num_arc_layers
    lo = np.full((len(row), len(feas)), np.inf)
    hi = np.full((len(row), len(feas)), -np.inf)
    lo[row[dd.terminal]] = hi[row[dd.terminal]] = 0.0
    for j in range(m - 1, -1, -1):
        if not dd.arcs[j]:
            continue
        tails = [row[a.tail] for a in dd.arcs[j]]
        heads = [row[a.head] for a in dd.arcs[j]]
        step = 0.0
        if j < len(fcoef):
            step = np.array([a.label for a in dd.arcs[j]])[:, None] * fcoef[j]
        np.minimum.at(lo, tails, lo[heads] + step)
        np.maximum.at(hi, tails, hi[heads] + step)
    rhs = np.array([c.rhs for c in feas])
    limit = sign * rhs + CUT_TOL
    margin = 2 * (m + 1) * SPLIT_GRID * (1.0 + np.abs(rhs))
    return limit + margin - lo, limit - margin - hi


def _tighten(label, opt, lhs):
    """Interval label after each optimality cut in turn, or None once empty."""
    lo, hi = label.lo, label.hi
    for cut, s in zip(opt, lhs):
        bound = (cut.rhs - s) / cut.z_coeff
        if (cut.sense == "<=") == (cut.z_coeff > 0):
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
        if lo > hi + CUT_TOL:
            return None
        lo, hi = min(lo, hi), max(lo, hi)
    return Interval(lo, hi)


def _refine_relaxed(dd, cut):
    m = dd.num_arc_layers
    has_cont = dd.layer_kinds[-1] == "continuous"
    # accumulated-LHS ranges from the root
    min_top = {dd.root: 0.0}
    max_top = {dd.root: 0.0}
    for j in range(m):
        if dd.layer_kinds[j] == "continuous":
            break
        coef = cut.coeffs.get(j, 0.0)
        for arc in dd.arcs[j]:
            if arc.tail not in min_top:
                continue
            v = coef * arc.label
            lo = min_top[arc.tail] + v
            hi = max_top[arc.tail] + v
            min_top[arc.head] = min(min_top.get(arc.head, lo), lo)
            max_top[arc.head] = max(max_top.get(arc.head, hi), hi)
    # completion ranges down to the terminal
    min_bot = {dd.terminal: 0.0}
    max_bot = {dd.terminal: 0.0}
    for j in range(m - 1, -1, -1):
        coef = 0.0 if dd.layer_kinds[j] == "continuous" else cut.coeffs.get(j, 0.0)
        for arc in dd.arcs[j]:
            if arc.head not in min_bot:
                continue
            v = coef * arc.label if not isinstance(arc.label, Interval) else 0.0
            lo = min_bot[arc.head] + v
            hi = max_bot[arc.head] + v
            min_bot[arc.tail] = min(min_bot.get(arc.tail, lo), lo)
            max_bot[arc.tail] = max(max_bot.get(arc.tail, hi), hi)

    out = dd.copy()
    for j in range(m):
        cont = dd.layer_kinds[j] == "continuous"
        kept = []
        for arc in out.arcs[j]:
            if arc.tail not in min_top or arc.head not in min_bot:
                continue
            if cont:
                if cut.z_coeff != 0.0:
                    lo, hi = arc.label.lo, arc.label.hi
                    tighten_hi = (cut.sense == "<=") == (cut.z_coeff > 0)
                    if tighten_hi:
                        # loosest bound valid for every path through the tail
                        s = min_top[arc.tail] if cut.z_coeff > 0 else max_top[arc.tail]
                        hi = min(hi, (cut.rhs - s) / cut.z_coeff)
                    else:
                        s = max_top[arc.tail] if cut.z_coeff > 0 else min_top[arc.tail]
                        lo = max(lo, (cut.rhs - s) / cut.z_coeff)
                    if lo > hi + CUT_TOL:
                        continue
                    arc.label = Interval(min(lo, hi), hi)
                else:
                    lo_tot = min_top[arc.tail]
                    hi_tot = max_top[arc.tail]
                    if cut.sense == "<=" and lo_tot > cut.rhs + CUT_TOL:
                        continue
                    if cut.sense == ">=" and hi_tot < cut.rhs - CUT_TOL:
                        continue
            else:
                v = cut.coeffs.get(j, 0.0) * arc.label
                lo_tot = min_top[arc.tail] + v + min_bot[arc.head]
                hi_tot = max_top[arc.tail] + v + max_bot[arc.head]
                if cut.z_coeff == 0.0:
                    if cut.sense == "<=" and lo_tot > cut.rhs + CUT_TOL:
                        continue
                    if cut.sense == ">=" and hi_tot < cut.rhs - CUT_TOL:
                        continue
            kept.append(arc)
        out.arcs[j] = kept
    return prune_dead_nodes(out)


# -- constructors ----------------------------------------------------------------


def from_paths(paths, weight_fn=None):
    """Build a diagram encoding exactly the given label sequences.

    Path elements are floats for discrete layers; the final element may
    be an (lo, hi) pair or Interval, making the last layer continuous.
    weight_fn(layer, label) supplies arc weights (interval arcs receive
    the slope); weights default to zero.
    """
    paths = [tuple(p) for p in paths]
    if not paths:
        return DecisionDiagram(0)
    m = len(paths[0])
    if any(len(p) != m for p in paths):
        raise ValueError("all paths must have the same length")

    def norm(el):
        if isinstance(el, Interval):
            return el
        if isinstance(el, tuple):
            return Interval(float(el[0]), float(el[1]))
        return float(el)

    paths = [tuple(norm(el) for el in p) for p in paths]
    continuous = any(isinstance(p[-1], Interval) for p in paths)
    if any(isinstance(el, Interval) for p in paths for el in p[:-1]):
        raise ValueError("interval labels are only allowed on the last layer")
    dd = DecisionDiagram(m, continuous_last=continuous)
    root = dd.new_node(0)
    term = dd.new_node(m)
    trie = {(): root}
    for p in paths:
        for j in range(m):
            prefix, nxt = p[:j], p[:j + 1]
            tail = trie[prefix]
            if j == m - 1:
                head = term
            elif nxt in trie:
                continue
            else:
                head = dd.new_node(j + 1)
                trie[nxt] = head
            label = p[j]
            if continuous and j == m - 1 and not isinstance(label, Interval):
                label = Interval(float(label), float(label))
            w = weight_fn(j, label) if weight_fn is not None else 0.0
            if j == m - 1 and any(a.tail == tail and a.label == label
                                  for a in dd.arcs[j]):
                continue
            dd.add_arc(j, tail, head, label, w)
    # order layers by first appearance for determinism
    return dd


def from_boxes(boxes, weight_fn=None):
    """Diagram whose paths encode the extreme points of axis-aligned boxes.

    Boxes are (lo tuple, hi tuple) pairs.  Each box contributes one node
    chain with parallel arcs labeled by the coordinate's two endpoints
    (one arc when they coincide); root and terminal are shared, so the
    width equals the number of boxes.
    """
    dims = {len(lo) for lo, hi in boxes}
    if len(dims) != 1:
        raise ValueError("boxes must share one dimension")
    n = dims.pop()
    dd = DecisionDiagram(n)
    root = dd.new_node(0)
    term = dd.new_node(n)
    for lo, hi in boxes:
        prev = root
        for j in range(n):
            head = term if j == n - 1 else dd.new_node(j + 1)
            labels = (float(lo[j]),) if lo[j] == hi[j] else (float(lo[j]), float(hi[j]))
            for lab in labels:
                w = weight_fn(j, lab) if weight_fn is not None else 0.0
                dd.add_arc(j, prev, head, lab, w)
            prev = head
    return dd


# -- export ----------------------------------------------------------------------


def to_dot(dd):
    """Graphviz text with deterministic node ordering."""
    lines = ["digraph dd {", "  rankdir=TB;"]
    names = {}
    for i, layer in enumerate(dd.layers):
        for nid in layer:
            if nid == dd.root:
                name = "r"
            elif len(dd.layers) > 1 and nid == dd.terminal:
                name = "t"
            else:
                name = f"n{len(names)}"
            names[nid] = name
            state = dd.states.get(nid)
            label = name if state is None else f"{name} {state}"
            if nid in dd.merged:
                label += " *"
            lines.append(f'  {name} [label="{label}"];')
    for j, layer_arcs in enumerate(dd.arcs):
        for arc in layer_arcs:
            if isinstance(arc.label, Interval):
                lab = f"[{arc.label.lo:g},{arc.label.hi:g}]"
            else:
                lab = f"{arc.label:g}"
            lines.append(f'  {names[arc.tail]} -> {names[arc.head]} '
                         f'[label="{lab} / {arc.weight:g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


SCHEMA_VERSION = 1


def dd_to_json(dd):
    """Versioned JSON text; node ids are renumbered canonically."""
    ids = {}
    for layer in dd.layers:
        for nid in layer:
            ids[nid] = len(ids)
    doc = {
        "version": SCHEMA_VERSION,
        "layer_kinds": list(dd.layer_kinds),
        "layers": [
            [
                {
                    "id": ids[nid],
                    **({"state": list(dd.states[nid])
                        if isinstance(dd.states.get(nid), (tuple, list))
                        else dd.states[nid]} if nid in dd.states else {}),
                    **({"merged": True} if nid in dd.merged else {}),
                }
                for nid in layer
            ]
            for layer in dd.layers
        ],
        "arcs": [
            [
                {
                    "tail": ids[a.tail],
                    "head": ids[a.head],
                    "label": {"lo": a.label.lo, "hi": a.label.hi}
                    if isinstance(a.label, Interval) else a.label,
                    "weight": a.weight,
                }
                for a in layer
            ]
            for layer in dd.arcs
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def dd_from_json(text):
    doc = json.loads(text)
    if doc.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported diagram schema version {doc.get('version')}")
    m = len(doc["arcs"])
    dd = DecisionDiagram(m)
    dd.layer_kinds = list(doc["layer_kinds"])
    for i, layer in enumerate(doc["layers"]):
        for node in layer:
            dd.layers[i].append(node["id"])
            if "state" in node:
                state = node["state"]
                dd.states[node["id"]] = tuple(state) if isinstance(state, list) else state
            if node.get("merged"):
                dd.merged.add(node["id"])
    dd._next_id = 1 + max((n["id"] for layer in doc["layers"] for n in layer),
                          default=-1)
    for j, layer in enumerate(doc["arcs"]):
        for a in layer:
            label = a["label"]
            if isinstance(label, dict):
                label = Interval(label["lo"], label["hi"])
            dd.add_arc(j, a["tail"], a["head"], label, a["weight"])
    return dd
