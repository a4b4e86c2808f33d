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

import itertools
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
    the continuous terminal layer.  A cut is not changed once made (see
    dense).
    """

    coeffs: dict = field(default_factory=dict)
    z_coeff: float = 0.0
    rhs: float = 0.0
    sense: str = "<="  # "<=" or ">="
    _dense: np.ndarray = field(default=None, init=False, compare=False, repr=False)

    def dense(self, num_layers):
        """coeffs as a float vector over arc layers 0 .. num_layers - 1.

        The vector is made on the first call for a length and kept on the
        cut, so it lives exactly as long as the cut; it takes no part in
        ==, key() or repr.  This is sound because a cut is never changed
        after it is made: code that needs another cut builds a new one.
        """
        if self._dense is None or self._dense.size != num_layers:
            self._dense = np.array([self.coeffs.get(j, 0.0) for j in range(num_layers)],
                                   dtype=float)
        return self._dense

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


def _drop_dead_nodes(dd):
    """Drop the nodes and arcs off every root-terminal path, in place.

    Only for a diagram nothing else holds.  Raises InfeasibleDiagramError
    when nothing survives.
    """
    alive = _alive_nodes(dd)
    if dd.root not in alive or dd.terminal not in alive:
        raise InfeasibleDiagramError("diagram has no root-terminal path")
    dd.layers = [[nid for nid in layer if nid in alive] for layer in dd.layers]
    dd.arcs = [[a for a in layer if a.tail in alive and a.head in alive]
               for layer in dd.arcs]
    dd.states = {nid: s for nid, s in dd.states.items() if nid in alive}
    dd.merged &= alive
    return dd


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


def refine_with_cut(dd, cuts):
    """Restrict the diagram to a list of cuts, exactly.

    The result encodes {s in Sol(dd) : s satisfies every cut}.  All cuts
    are applied in one top-down pass (see _refine_exact): nodes are split
    on the accumulated left-hand sides so the decision at the last layer
    is unambiguous, interval endpoints are tightened for optimality cuts,
    and violating paths are removed.

    Raises InfeasibleDiagramError when every path is removed.
    """
    if dd.num_arc_layers == 0:
        raise EmptyDiagramError("cannot refine an empty diagram")
    if dd.layer_kinds[-1] != "continuous" and any(c.z_coeff != 0.0 for c in cuts):
        raise ValueError("optimality cut on a diagram without a continuous layer")
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
    per output node, one column per cut (feasibility cuts first).  A
    settled cut's entry is NaN, never 0: a zero there would merge a
    prefix whose cut is settled with one whose lhs is exactly 0 and
    still open, and hand both the same, wrong, completions.  A column
    that is NaN in every carried row separates no two keys, so it is
    dropped; cuts settled at the root never enter the pass.

    Per-layer work is spent only where the diagram branches.  The arcs
    are flattened once, with one row per arc of label times coefficient
    (from CutRow.dense, which the cut keeps) and of the drop and settle
    limits at the arc's head.  A frontier of one node whose input node
    has a single outgoing arc starts a run of single-arc layers, which
    _advance_run takes in one step; one arc makes one node, so the run
    needs no keys.  Elsewhere, one key per arc holds the head and the
    rounded lhs of every column.  Node ids, arc order, labels, weights
    and the InfeasibleDiagramError cases are those of extending,
    settling and keying every layer on its own.
    """
    m = dd.num_arc_layers
    cont = dd.layer_kinds[-1] == "continuous"
    num_discrete = m - 1 if cont else m
    feas = [c for c in cuts if c.z_coeff == 0.0]
    opt = [c for c in cuts if c.z_coeff != 0.0]
    nf = len(feas)
    # ">=" feasibility cuts are negated (exactly) so that every feasibility
    # test below reads  sign * lhs <= sign * rhs + CUT_TOL
    sign = np.array([1.0 if c.sense == "<=" else -1.0 for c in feas])
    coef = np.array([c.dense(num_discrete) for c in feas + opt],
                    dtype=float).reshape(len(cuts), num_discrete).T
    coef[:, :nf] *= sign
    nids = [nid for layer in dd.layers for nid in layer]
    row = {nid: r for r, nid in enumerate(nids)}
    arcs = [a for layer in dd.arcs for a in layer]
    first = list(itertools.accumulate((len(layer) for layer in dd.arcs), initial=0))
    tails = [row[a.tail] for a in arcs]
    heads = [row[a.head] for a in arcs]
    nd = first[num_discrete]   # arcs on discrete layers come first
    step = np.zeros((len(arcs), len(cuts)))
    step[:nd] = np.array([a.label for a in arcs[:nd]], dtype=float)[:, None] \
        * coef[np.repeat(np.arange(num_discrete), np.diff(first[:num_discrete + 1]))]
    drop_above, settled_at = _completion_limits(dd, feas, sign, step[:, :nf],
                                                tails, heads, first, row)
    # per discrete arc: step, drop limit and settle limit at its head; the
    # optimality columns get limits that never fire
    head_rows = np.array(heads[:nd], dtype=int)
    per_arc = np.empty((nd, 3, len(cuts)))
    per_arc[:, 0] = step[:nd]
    per_arc[:, 1, :nf] = drop_above[head_rows]
    per_arc[:, 1, nf:] = np.inf
    per_arc[:, 2, :nf] = settled_at[head_rows]
    per_arc[:, 2, nf:] = -np.inf
    # CutRow.satisfied per column, for the last layer
    le = np.array([c.sense == "<=" for c in feas] + [True] * len(opt))
    rhs = np.array([c.rhs for c in feas] + [np.inf] * len(opt))
    rhs_up, rhs_down = rhs + CUT_TOL, rhs - CUT_TOL

    rt = row[dd.root]
    if (0.0 > drop_above[rt]).any():
        raise InfeasibleDiagramError("a cut removes every path")
    cols = np.concatenate([np.flatnonzero(settled_at[rt] < 0.0), np.arange(nf, len(cuts))])
    lhs = np.zeros((1, cols.size))
    out = DecisionDiagram(m)
    out.layer_kinds = list(dd.layer_kinds)

    def copy_node(layer, nid):
        """A node of out in `layer` with input node nid's state and merged tag."""
        return out.new_node(layer, state=dd.states.get(nid), merged=nid in dd.merged)

    def gather(idx):
        g = per_arc[idx]
        return g if cols.size == len(cuts) else g[:, :, cols]

    olds = [rt]
    news = [copy_node(0, dd.root)]
    j = 0
    while True:
        # a run: one frontier node whose input node has one outgoing arc,
        # followed down to the last layer but one
        run = []
        while len(olds) == 1 and j + len(run) < m - 1:
            u = heads[run[-1]] if run else olds[0]
            a, b = first[j + len(run)], first[j + len(run) + 1]
            if tails[a:b].count(u) != 1:
                break
            run.append(tails.index(u, a, b))
        if run:
            g = gather(run)
            lhs = _advance_run(lhs, g[:, 0], g[:, 1], g[:, 2])
            if lhs is None:
                raise InfeasibleDiagramError("a cut removes every path")
            for i in run:
                tail = news[0]
                news = [copy_node(j + 1, nids[heads[i]])]
                out.arcs[j].append(Arc(tail, news[0], arcs[i].label, arcs[i].weight))
                j += 1
            olds = [heads[run[-1]]]
        else:
            a, b = first[j], first[j + 1]
            out_of = {}
            for i in range(a, b):
                out_of.setdefault(tails[i], []).append(i)
            src, idx = [], []
            for r, u in enumerate(olds):
                for i in out_of.get(u, ()):
                    src.append(r)
                    idx.append(i)
            if not idx:
                raise InfeasibleDiagramError("a cut removes every path")
            is_last = j == m - 1
            term = copy_node(m, dd.terminal) if is_last else None
            if cont and is_last:
                ok, bound_lhs = _satisfied(lhs, le[cols], rhs_up[cols], rhs_down[cols]), \
                    lhs[:, cols.size - len(opt):].tolist()
                tighten = [(c.rhs, c.z_coeff, (c.sense == "<=") == (c.z_coeff > 0))
                           for c in opt]
                for i, r in zip(idx, src):
                    label = _tighten(arcs[i].label, tighten, bound_lhs[r]) if ok[r] else None
                    if label is not None:
                        out.arcs[j].append(Arc(news[r], term, label, arcs[i].weight))
                break
            g = gather(idx)
            child = lhs[src] + g[:, 0]
            keep = ~(child > g[:, 1]).any(axis=1)
            child = np.where(child <= g[:, 2], np.nan, child)
            if is_last:
                keep &= _satisfied(child, le[cols], rhs_up[cols], rhs_down[cols])
                out.arcs[j] = [Arc(news[src[c]], term, arcs[idx[c]].label, arcs[idx[c]].weight)
                               for c in np.flatnonzero(keep).tolist()]
                break
            # keys compare bits: every NaN here is np.nan itself, so one
            # pattern per settled entry, and + 0.0 folds -0.0 into 0.0 as
            # round() does
            key = np.empty((len(idx), 1 + cols.size))
            key[:, 0] = head_rows[idx]
            np.rint(child / SPLIT_GRID, out=key[:, 1:])
            key[:, 1:] += 0.0
            keys = _row_keys(key)
            sel = np.flatnonzero(keep).tolist()
            group, kept = {}, []   # output node of each key, numbered by first arc
            for c in sel:
                if keys[c] not in group:
                    group[keys[c]] = len(kept)
                    kept.append(c)
            olds = [heads[idx[c]] for c in kept]
            nxt = [copy_node(j + 1, nids[r]) for r in olds]
            out.arcs[j] = [Arc(news[src[c]], nxt[group[keys[c]]], arcs[idx[c]].label,
                               arcs[idx[c]].weight) for c in sel]
            news = nxt
            lhs = child[kept]
            j += 1
        live = ~np.isnan(lhs).all(axis=0)
        if not live.all():
            cols, lhs = cols[live], lhs[:, live]
    return _drop_dead_nodes(out)


def _advance_run(lhs, step, drop, settle):
    """The carried lhs row after a run of single-arc layers, or None.

    lhs is the (1, k) row entering the run; step, drop and settle hold
    one row per run position.  The run is added up with one cumsum,
    which makes the same left-to-right additions as extending layer by
    layer.  A column is NaN from the position after the one where it
    settles; that position still takes its drop test first, as a layer
    does.  None when any position drops the child.
    """
    vals = np.cumsum(np.concatenate([lhs, step]), axis=0)[1:]
    settled = np.logical_or.accumulate(vals <= settle, axis=0)
    tested = vals > drop
    tested[1:] &= ~settled[:-1]
    if tested.any():
        return None
    return np.where(settled[-1:], np.nan, vals[-1:])


def _satisfied(lhs, le, rhs_up, rhs_down):
    """Per row: CutRow.satisfied holds in every column that is not NaN.

    lhs holds signed feasibility lhs values; le, rhs_up (rhs + CUT_TOL)
    and rhs_down (rhs - CUT_TOL) describe each column's cut.
    """
    return (np.where(le, lhs <= rhs_up, -lhs >= rhs_down) | np.isnan(lhs)).all(axis=1)


def _row_keys(a):
    """One bytes object per row of a float array, equal iff the rows' bits are."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel().tolist()


def _completion_limits(dd, feas, sign, fstep, tails, heads, first, row):
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

    fstep holds each arc's signed lhs step (zero on a continuous layer),
    with the arcs flattened layer by layer; layer j's arcs are
    first[j]:first[j + 1], and tails and heads give their node rows.  A
    run of layers with one arc each, chained head to tail, is one reverse
    cumsum from its deep end: the same additions as layer by layer, since
    such a layer's tail has no other arc to take a min or max with.
    """
    m = dd.num_arc_layers
    if not feas:
        return np.empty((len(row), 0)), np.empty((len(row), 0))
    lo = np.full((len(row), len(feas)), np.inf)
    hi = np.full((len(row), len(feas)), -np.inf)
    lo[row[dd.terminal]] = hi[row[dd.terminal]] = 0.0
    j = m - 1
    while j >= 0:
        a, b = first[j], first[j + 1]
        if b - a == 1:
            top = j
            while top > 0 and first[top] - first[top - 1] == 1 \
                    and heads[first[top - 1]] == tails[first[top]]:
                top -= 1
            run = first[j:top - 1 if top else None:-1]   # one arc per layer, deep end first
            rows = [tails[i] for i in run]
            steps = fstep[run]
            h = heads[run[0]]
            lo[rows] = np.cumsum(np.concatenate([lo[h:h + 1], steps]), axis=0)[1:]
            hi[rows] = np.cumsum(np.concatenate([hi[h:h + 1], steps]), axis=0)[1:]
            j = top - 1
            continue
        if b > a:
            t, h = tails[a:b], heads[a:b]
            np.minimum.at(lo, t, lo[h] + fstep[a:b])
            np.maximum.at(hi, t, hi[h] + fstep[a:b])
        j -= 1
    rhs = np.array([c.rhs for c in feas])
    limit = sign * rhs + CUT_TOL
    margin = 2 * (m + 1) * SPLIT_GRID * (1.0 + np.abs(rhs))
    return limit + margin - lo, limit - margin - hi


def _tighten(label, opt, lhs):
    """Interval label after each optimality cut in turn, or None once empty.

    opt holds (rhs, z_coeff, bounds z from above) per optimality cut.
    """
    lo, hi = label.lo, label.hi
    for (rhs, z_coeff, upper), s in zip(opt, lhs):
        bound = (rhs - s) / z_coeff
        if upper:
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
        if lo > hi + CUT_TOL:
            return None
        lo, hi = min(lo, hi), max(lo, hi)
    return Interval(lo, hi)


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
