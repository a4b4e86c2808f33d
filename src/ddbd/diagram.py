"""Layered decision diagrams with point- and interval-labeled arcs.

A diagram is a DAG organised in node layers U_0 .. U_m with arc layers
A_0 .. A_{m-1} between them.  Layer 0 holds the single root, the last
node layer the single terminal.  Discrete arc layers carry float labels
(one variable value per arc).  The final arc layer may instead be
"continuous": its arcs carry [lo, hi] interval labels and their weight
acts as a slope, so a path picks an endpoint e and contributes
weight * e to the path length.

A diagram is a set of flat arrays, and a node's id is its row.  Node
layer i is rows node_first[i]:node_first[i + 1], so the root is row 0
and the terminal the last row; states[row] is a node's state (None when
it has none) and merged[row] its relaxation tag.  Arc layer j is arcs
arc_first[j]:arc_first[j + 1], each with a tail and a head row, a float
label and a weight.  A continuous layer's intervals are in lo and hi, one
entry per arc of that layer, and its labels are NaN.

DiagramBuilder makes diagrams: it numbers the rows layer by layer in
creation order and keeps each layer's arcs in add order.  A built
diagram is never changed (its arrays are read-only), so operations share
arrays freely and every operation returns a fresh diagram.

No solve builds a diagram: both masters answer by the label pass at the
end of this module (KeyGraph, label_point).  The diagram, its builder,
optimal_path and refine_with_cut stay for the relaxed compiler and the
names perfbench/layers.py binds; the explicit-diagram operations that
only the tests use are in tests/reference_dd.py.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from operator import add, ge, is_, mul

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


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float


def _endpoints(lo, hi):
    if abs(hi - lo) <= 0.0:
        return (lo,)
    return (lo, hi)


@dataclass
class CutRow:
    """Linear inequality  sum_j coeffs[j]*x_j + z_coeff*z  (sense)  rhs.

    coeffs is keyed by discrete arc-layer index.  z_coeff is zero for
    feasibility cuts and nonzero for optimality cuts; z always maps to
    the continuous terminal layer.  A cut is not changed once made (see
    dense).  Keys and numbers may be of any numeric type; the
    unit-commitment oracle writes Python int keys and Python float
    coefficients, z_coeff and rhs, which key(), called by every
    CutPool.add, rounds several times faster than numpy scalars.
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
        grid = [(j, round(c / SPLIT_GRID)) for j, c in self.coeffs.items()]
        items = tuple(sorted(item for item in grid if item[1] != 0))
        return (self.sense, round(self.z_coeff / SPLIT_GRID), items,
                round(self.rhs / SPLIT_GRID))

    def satisfied(self, lhs, tol=CUT_TOL):
        if self.sense == "<=":
            return lhs <= self.rhs + tol
        return lhs >= self.rhs - tol


@dataclass(frozen=True, eq=False, repr=False)
class DecisionDiagram:
    """Layered DAG as flat arrays; see the module docstring."""

    layer_kinds: list
    node_first: np.ndarray
    states: list
    merged: np.ndarray
    arc_first: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    label: np.ndarray
    weight: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        for a in (self.node_first, self.merged, self.arc_first, self.tail, self.head,
                  self.label, self.weight, self.lo, self.hi):
            a.flags.writeable = False

    # -- basic queries ---------------------------------------------------------

    @property
    def num_arc_layers(self):
        return len(self.layer_kinds)

    @property
    def root(self):
        return 0

    @property
    def terminal(self):
        return len(self.states) - 1

    @property
    def width(self):
        return int(np.diff(self.node_first).max())

    def node_count(self):
        return len(self.states)

    @property
    def value_first(self):
        """Index of the first value-layer arc (the arc count when there is
        none): arc i from there on spans lo[i - value_first], hi[i - value_first]."""
        return len(self.tail) - len(self.lo)

    def out_index(self):
        """(order, first): node u's out-arcs, in add order, are
        order[first[u]:first[u + 1]]."""
        order = np.argsort(self.tail, kind="stable")
        return order, _offsets(self.tail, self.node_count())

class DiagramBuilder:
    """Collects nodes and arcs in lists and freezes them once, in build.

    new_node returns a handle that add_arc takes as tail or head.  build
    numbers the rows layer by layer in creation order and keeps each arc
    layer's arcs in add order.  An Interval label goes on a continuous
    layer, a float label on a discrete one.
    """

    def __init__(self, num_arc_layers, continuous_last=False):
        self.layer_kinds = ["discrete"] * num_arc_layers
        if continuous_last and num_arc_layers:
            self.layer_kinds[-1] = "continuous"
        self._node_layer, self._states, self._merged = [], [], []
        self._arc_layer, self._tail, self._head, self._label, self._weight = [], [], [], [], []
        self._lo, self._hi = [], []   # of each Interval label, in add order

    def new_node(self, layer, state=None, merged=False):
        self._node_layer.append(layer)
        self._states.append(state)
        self._merged.append(merged)
        return len(self._states) - 1

    def add_arc(self, layer, tail, head, label, weight=0.0):
        if isinstance(label, Interval):
            if self.layer_kinds[layer] != "continuous":
                raise ValueError(f"Interval label on discrete layer {layer}")
            self._lo.append(label.lo)
            self._hi.append(label.hi)
            label = _NAN
        self._arc_layer.append(layer)
        self._tail.append(tail)
        self._head.append(head)
        self._label.append(label)
        self._weight.append(weight)

    def build(self):
        m = len(self.layer_kinds)
        layer = np.array(self._node_layer, dtype=np.intp)
        order = np.argsort(layer, kind="stable")
        row = np.empty(len(order), dtype=np.intp)
        row[order] = np.arange(len(order))
        arc_layer = np.array(self._arc_layer, dtype=np.intp)
        arc_first = _offsets(arc_layer, m)
        if m and self.layer_kinds[-1] == "continuous" \
                and arc_first[-1] - arc_first[-2] != len(self._lo):
            raise ValueError(f"float label on continuous layer {m - 1}")
        arcs = np.argsort(arc_layer, kind="stable")
        return DecisionDiagram(
            layer_kinds=list(self.layer_kinds),
            node_first=_offsets(layer, m + 1),
            states=[self._states[i] for i in order.tolist()],
            merged=np.array(self._merged, dtype=bool)[order],
            arc_first=arc_first,
            tail=row[np.array(self._tail, dtype=np.intp)[arcs]],
            head=row[np.array(self._head, dtype=np.intp)[arcs]],
            label=np.array(self._label, dtype=float)[arcs],
            weight=np.array(self._weight, dtype=float)[arcs],
            lo=np.array(self._lo, dtype=float),
            hi=np.array(self._hi, dtype=float))


_NAN = float("nan")


def _offsets(layer_of, num_layers):
    """Offsets of the groups of a layer (or node) index array, as in node_first."""
    counts = np.bincount(layer_of, minlength=num_layers)   # raises on a negative index
    if len(counts) > num_layers:
        raise IndexError(f"layer index past the last layer, {num_layers - 1}")
    first = np.zeros(num_layers + 1, dtype=np.intp)
    np.cumsum(counts, out=first[1:])
    return first


def _alive_nodes(dd):
    """Bool per row: the node lies on at least one root-terminal path."""
    n = dd.node_count()
    fwd, bwd = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    fwd[dd.root] = bwd[dd.terminal] = True
    first = dd.arc_first.tolist()
    for a, b in zip(first[:-1], first[1:]):
        fwd[dd.head[a:b][fwd[dd.tail[a:b]]]] = True
    for a, b in zip(first[-2::-1], first[:0:-1]):
        bwd[dd.tail[a:b][bwd[dd.head[a:b]]]] = True
    return fwd & bwd


def _drop_dead_nodes(dd):
    """dd without the nodes and arcs off every root-terminal path.

    Returns dd itself when every non-terminal node has an out-arc and
    every non-root node an in-arc, since then every node is on a path.
    Raises InfeasibleDiagramError when nothing survives.
    """
    n = dd.node_count()
    if np.bincount(dd.tail, minlength=n)[:-1].all() \
            and np.bincount(dd.head, minlength=n)[1:].all():
        return dd
    alive = _alive_nodes(dd)
    if not alive[dd.root] or not alive[dd.terminal]:
        raise InfeasibleDiagramError("diagram has no root-terminal path")
    return _subset(dd, alive, alive[dd.tail] & alive[dd.head])


def _subset(dd, nodes, arcs):
    """The diagram of the rows and arcs of dd where the bool masks are set;
    a kept arc's tail and head must be kept nodes."""
    row = np.cumsum(nodes) - 1
    value = arcs[dd.value_first:]
    return DecisionDiagram(
        layer_kinds=list(dd.layer_kinds),
        node_first=np.concatenate([[0], np.cumsum(nodes)])[dd.node_first],
        states=[s for s, keep in zip(dd.states, nodes.tolist()) if keep],
        merged=dd.merged[nodes],
        arc_first=np.concatenate([[0], np.cumsum(arcs)])[dd.arc_first],
        tail=row[dd.tail[arcs]], head=row[dd.head[arcs]],
        label=dd.label[arcs], weight=dd.weight[arcs],
        lo=dd.lo[value], hi=dd.hi[value])


def _arc_labels(dd):
    """Each arc's label as a float, or as an (lo, hi) pair on the value layer."""
    labels = dd.label.tolist()
    labels[dd.value_first:] = zip(dd.lo.tolist(), dd.hi.tolist())
    return labels


# -- path optimisation ---------------------------------------------------------


def optimal_path(dd, sense="max"):
    """Return (assignment, value) of an optimal root-terminal path.

    Ties are broken toward the lexicographically smallest assignment so
    results are reproducible.  Raises EmptyDiagramError when no path
    exists.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    m = dd.num_arc_layers
    if not m:
        raise EmptyDiagramError("diagram has no arc layers")
    is_max = sense == "max"
    vf = dd.value_first
    tail, head, first = dd.tail.tolist(), dd.head.tolist(), dd.arc_first.tolist()
    weight = dd.weight.tolist()
    # an interval arc contributes its better endpoint, the first on a tie
    at_lo, at_hi = dd.weight[vf:] * dd.lo, dd.weight[vf:] * dd.hi
    gain = weight[:vf] + np.where(at_hi > at_lo if is_max else at_hi < at_lo,
                                  at_hi, at_lo).tolist()
    best = [None] * dd.node_count()
    best[dd.terminal] = 0.0
    for j in range(m - 1, -1, -1):
        reached = False
        for i in range(first[j], first[j + 1]):
            below = best[head[i]]
            if below is None:
                continue
            reached = True
            total = gain[i] + below
            cur = best[tail[i]]
            if cur is None or (total > cur if is_max else total < cur):
                best[tail[i]] = total
        if not reached:
            raise EmptyDiagramError("diagram has no root-terminal path")
    if best[dd.root] is None:
        raise EmptyDiagramError("diagram has no root-terminal path")

    labels = _arc_labels(dd)
    assignment = []
    node = dd.root
    for j in range(m):
        tol = PATH_TIE_TOL * (1.0 + abs(best[node]))
        choice = None
        for i in range(first[j], first[j + 1]):
            below = best[head[i]]
            if tail[i] != node or below is None:
                continue
            lab = labels[i]
            for e in (_endpoints(*lab) if i >= vf else (lab,)):
                contrib = weight[i] * e if i >= vf else weight[i]
                if abs(contrib + below - best[node]) <= tol:
                    key = (e, head[i])
                    if choice is None or key < choice:
                        choice = key
        if choice is None:   # no arc within the tie tolerance of the pass's value
            raise EmptyDiagramError("optimal path reconstruction failed")
        assignment.append(choice[0])
        node = choice[1]
    return assignment, best[dd.root]


# -- cut refinement --------------------------------------------------------------


def refine_with_cut(dd, cuts):
    """Restrict the diagram to a list of cuts, exactly, in one top-down pass.

    The result encodes {s in Sol(dd) : s satisfies every cut}.  An output
    node stands for an input node together with the accumulated left-hand
    side of every tracked cut, rounded to SPLIT_GRID; the first prefix to
    reach a key supplies the lhs values carried on.  Optimality cuts are
    always tracked, because their lhs bounds the value interval on the
    last layer.  A feasibility cut is tracked until the completion ranges
    of one backward pass over the input (_completion_limits) show that
    every completion from the node satisfies it; a child is dropped as
    soon as even its best completion violates one.  Both tests leave a
    rounding margin, so on the last layer the cuts still tracked are
    decided by CutRow.satisfied exactly as if each cut were applied on its
    own, and optimality cuts tighten [lo, hi] in list order (_tighten).

    Each layer is extended for all cuts at once: rows of lhs values, one
    per output node, one column per cut.  A settled cut's entry is NaN,
    never 0: a zero there would merge a prefix whose cut is settled with
    one whose lhs is exactly 0 and still open, and hand both the same,
    wrong, completions.

    Raises InfeasibleDiagramError when every path is removed.
    """
    m = dd.num_arc_layers
    if m == 0:
        raise EmptyDiagramError("cannot refine an empty diagram")
    cont = dd.layer_kinds[-1] == "continuous"
    if not cont and any(c.z_coeff != 0.0 for c in cuts):
        raise ValueError("optimality cut on a diagram without a continuous layer")
    num_discrete = m - 1 if cont else m
    feas = [c for c in cuts if c.z_coeff == 0.0]
    opt = [c for c in cuts if c.z_coeff != 0.0]
    # ">=" cuts are negated (exactly) so that every feasibility test below
    # reads  sign * lhs <= sign * rhs + CUT_TOL
    sign = np.array([1.0 if c.sense == "<=" else -1.0 for c in feas])
    # each discrete layer's coefficients, one column per cut
    coef = np.array([c.dense(num_discrete) for c in feas + opt],
                    dtype=float).reshape(len(feas) + len(opt), num_discrete).T
    fcoef, ocoef = coef[:, :len(feas)] * sign, coef[:, len(feas):]
    drop_above, settled_at = _completion_limits(dd, feas, sign, fcoef)

    def settle(lhs, heads):
        """lhs with newly settled cuts set to NaN, and the rows that survive."""
        keep = ~(lhs > drop_above[heads]).any(axis=1)
        return np.where(lhs <= settled_at[heads], np.nan, lhs), keep

    def satisfied(flhs):
        """Per row: CutRow.satisfied holds for every cut the row still tracks."""
        ok = np.ones(len(flhs), dtype=bool)
        for r, i in zip(*np.nonzero(~np.isnan(flhs))):
            ok[r] &= feas[i].satisfied(sign[i] * flhs[r, i])
        return ok

    flhs, keep = settle(np.zeros((1, len(feas))), [dd.root])
    if not keep[0]:
        raise InfeasibleDiagramError("a cut removes every path")
    olhs = np.zeros((1, len(opt)))
    states, merged = dd.states, dd.merged.tolist()
    head, weight, labels = dd.head.tolist(), dd.weight.tolist(), _arc_labels(dd)
    order, first = (a.tolist() for a in dd.out_index())
    out = DiagramBuilder(m)
    out.layer_kinds = list(dd.layer_kinds)
    olds = [dd.root]
    news = [out.new_node(0, states[dd.root], merged[dd.root])]
    term = out.new_node(m, states[dd.terminal], merged[dd.terminal])
    for j in range(m):
        # each frontier node's out-arcs in turn, in add order
        src, arcs = [], []
        for r, u in enumerate(olds):
            for i in order[first[u]:first[u + 1]]:
                src.append(r)
                arcs.append(i)
        if not arcs:
            raise InfeasibleDiagramError("a cut removes every path")
        if cont and j == m - 1:
            ok, bound_lhs = satisfied(flhs), olhs.tolist()
            for i, r in zip(arcs, src):
                label = _tighten(*labels[i], opt, bound_lhs[r]) if ok[r] else None
                if label is not None:
                    out.add_arc(j, news[r], term, label, weight[i])
            break
        lab = dd.label[arcs, None]
        child_f, keep = settle(flhs[src] + lab * fcoef[j], dd.head[arcs])
        if j == m - 1:
            for c in np.flatnonzero(keep & satisfied(child_f)).tolist():
                out.add_arc(j, news[src[c]], term, labels[arcs[c]], weight[arcs[c]])
            break
        child_o = olhs[src] + lab * ocoef[j]
        # keys compare bits: one NaN pattern for every settled cut, and
        # + 0.0 folds -0.0 into 0.0 as round() does
        keys = _row_keys(np.column_stack([
            dd.head[arcs],
            np.where(np.isnan(child_f), np.nan, np.rint(child_f / SPLIT_GRID) + 0.0),
            np.rint(child_o / SPLIT_GRID) + 0.0]))
        nxt, firsts = {}, []   # output node of each key, numbered by first arc
        for c in np.flatnonzero(keep).tolist():
            i = arcs[c]
            node = nxt.get(keys[c])
            if node is None:
                node = nxt[keys[c]] = out.new_node(j + 1, states[head[i]], merged[head[i]])
                firsts.append(c)
            out.add_arc(j, news[src[c]], node, labels[i], weight[i])
        olds = [head[arcs[c]] for c in firsts]
        news = list(nxt.values())
        flhs, olhs = child_f[firsts], child_o[firsts]
    return _drop_dead_nodes(out.build())


def _completion_limits(dd, feas, sign, fcoef):
    """Per input node row, the lhs limits past which feasibility cuts are decided.

    One backward pass gives, for every node, the min and max over its
    completions of each cut's signed lhs (+inf and -inf when no
    completion exists).  drop_above[u, i] is the signed prefix lhs
    beyond which even the best completion violates cut i by more than
    CUT_TOL plus a margin; settled_at[u, i] is the signed prefix lhs at
    or below which every completion satisfies it with the same margin to
    spare.  The margin covers the SPLIT_GRID drift of carried lhs values
    (one grid step per layer, on either side) and the different
    summation order.  fcoef[j] holds the signed coefficients of discrete
    layer j.
    """
    m, n = dd.num_arc_layers, dd.node_count()
    lo = np.full((n, len(feas)), np.inf)
    hi = np.full((n, len(feas)), -np.inf)
    lo[dd.terminal] = hi[dd.terminal] = 0.0
    first = dd.arc_first.tolist()
    for j in range(m - 1, -1, -1):
        a, b = first[j], first[j + 1]
        step = dd.label[a:b, None] * fcoef[j] if j < len(fcoef) else 0.0
        np.minimum.at(lo, dd.tail[a:b], lo[dd.head[a:b]] + step)
        np.maximum.at(hi, dd.tail[a:b], hi[dd.head[a:b]] + step)
    rhs = np.array([c.rhs for c in feas])
    limit = sign * rhs + CUT_TOL
    margin = 2 * (m + 1) * SPLIT_GRID * (1.0 + np.abs(rhs))
    return limit + margin - lo, limit - margin - hi


def _tighten(lo, hi, opt, lhs):
    """The interval [lo, hi] after each optimality cut in turn, whose lhs
    values are lhs, or None once it is empty."""
    for cut, s in zip(opt, lhs):
        bound = (cut.rhs - s) / cut.z_coeff
        if (cut.sense == "<=") == (cut.z_coeff > 0):   # bounds z from above
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
        if lo > hi + CUT_TOL:
            return None
        lo, hi = min(lo, hi), max(lo, hi)
    return Interval(lo, hi)


def _row_keys(a):
    """One bytes object per row of a float array, equal iff the rows' bits are."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel().tolist()


# -- the label pass: one master pass for both oracles ----------------------------


class KeyGraph:
    """The label pass's keys and arcs, kept across asks of one master.

    Layer g sets variable order[g] by a move of unit g % n, each unit its
    own variables in order (numbered unit-major) from state 0.  labels[v]
    holds v's sorted distinct labels, moves() each unit's (label, weight,
    next state) moves by state, a label 0.0 weighing 0, and costs closer
    than margin may tie.  Keys depend on the feasibility cuts alone: under
    the same ones, the same objects in the same order, an ask only moves
    labels.  The moves and the tables are made by the first fit whose cuts
    pass _cut_schedule's every-path test.
    """

    def __init__(self, labels, order, moves, margin):
        self.labels, self.order, self.margin = labels, order, margin
        self._make_moves = moves
        self.moves = self.feas = self.layers = None

    def fit(self, feas):
        """Build the arcs under the feasibility cuts feas unless they are kept."""
        if (self.feas is not None and len(self.feas) == len(feas)
                and all(map(is_, self.feas, feas))):
            return
        self.feas = None   # a build that raises keeps nothing
        schedule = _cut_schedule(feas, self.order, self.labels)
        if self.moves is None:
            self.moves = self._make_moves()
            # x is one integer in mixed radix over the label ranks, unit-major
            # (bits for binary labels): the smaller integer, the smaller x
            self.place = list(itertools.accumulate(map(len, self.labels[:0:-1]), mul,
                                                   initial=1))[::-1]
            # per layer and label, None (label 0.0 at rank 0 changes nothing)
            # or the row (of step_var and step_label) and the x it adds
            steps, var, value = [], [], []
            for v, labs in enumerate(self.labels):
                steps.append(dict.fromkeys(labs))
                for r, lab in enumerate(labs):
                    if r or lab != 0.0:
                        steps[v][lab] = (len(var), r * self.place[v])
                        var.append(v)
                        value.append(lab)
            self.steps = [steps[v] for v in self.order]
            self.step_var, self.step_label = np.array(var, dtype=np.intp), np.array(value)[:, None]
        self.layers = _key_graph(self.moves, schedule)
        self.feas = list(feas)


def label_point(graph, bounds, cuts):
    """An optimum of the master's points that satisfy every cut, as (x, z, w),
    the value variable within the Interval bounds, each optimality cut
    bounding it from below; None when the cuts leave no point, as a
    MasterOracle answers.  The pass's every-path test, key graph and
    labels raise InfeasibleDiagramError, caught here alone."""
    feas = [c for c in cuts if c.z_coeff == 0.0]
    opt = [c for c in cuts if c.z_coeff != 0.0]
    if any((c.sense == "<=") == (c.z_coeff > 0) for c in opt):
        raise ValueError("an optimality cut must bound the value from below")
    try:
        graph.fit(feas)
        x = _best_completion(graph, bounds, opt)
    except InfeasibleDiagramError:
        return None
    return _point(graph, bounds, x, opt)


def _cut_schedule(feas, order, labels):
    """When each feasibility cut is tested, along the layer order `order`.

    A cut is signed to read lhs <= limit, its rhs plus CUT_TOL (a ">="
    cut is negated, exactly).  After layer g the lhs still to come lies
    between the suffix sums of each later layer's least and greatest
    term, the least and greatest of a * v over its variable's labels
    (min(0, a) and max(0, a) for labels {0, 1}).  A cut that every
    completion meets, with a margin, never opens; one that every
    completion breaks raises InfeasibleDiagramError.  Any other cut opens
    at its first layer with a nonzero coefficient, and every such layer
    tests a label's lhs: above `drop` the label goes, at or below
    `settle` the cut is settled and leaves the key.  Both keep the
    rounding margin of refine_with_cut's completion limits, except at the
    cut's last nonzero coefficient, where both are the limit itself:
    there every open cut is decided as CutRow.satisfied decides it.

    The suffix sums run from the last layer back over the cut's nonzero
    terms alone, one cut at a time: a zero term adds nothing to them.

    Returns one (open_now, opening) pair per layer, split as
    _advance_cuts takes them: open_now maps each cut already open that
    the layer tests to its (coefficient, drop, settle), and opening lists
    (cut, coefficient, drop, settle) for the cuts that open there, in
    list order.
    """
    N = len(order)
    layers = [({}, []) for _ in range(N)]
    layer_of = {v: g for g, v in enumerate(order)}
    for k, cut in enumerate(feas):
        sign = 1.0 if cut.sense == "<=" else -1.0
        terms = sorted((layer_of[j], sign * c) for j, c in cut.coeffs.items()
                       if c != 0.0 and j in layer_of)
        # each term with the suffix sums of the least and greatest terms after it
        rest, lo, hi = [], 0.0, 0.0
        for g, a in reversed(terms):
            rest.append((g, a, lo, hi))
            labs = labels[order[g]]
            if a < 0.0:
                lo += a * labs[-1]
                hi += a * labs[0]
            else:
                lo += a * labs[0]
                hi += a * labs[-1]
        limit = sign * cut.rhs + CUT_TOL
        margin = 2 * (N + 2) * SPLIT_GRID * (1.0 + abs(cut.rhs))
        if lo > limit + (margin if terms else 0.0):
            raise InfeasibleDiagramError("a cut removes every path")
        if not terms or hi <= limit - margin:
            continue
        first, last = terms[0][0], terms[-1][0]
        for g, a, rest_lo, rest_hi in reversed(rest):
            if g == last:
                drop = settle = limit
            else:
                drop, settle = limit + margin - rest_lo, limit - margin - rest_hi
            if g == first:
                layers[g][1].append((k, a, drop, settle))
            else:
                layers[g][0][k] = (a, drop, settle)
    return layers


def _advance_cuts(flhs, lab, open_now, opening):
    """The open feasibility cuts' (cut, lhs) pairs after one layer's move.

    flhs holds the cuts open before the layer; the move sets the layer's
    variable to lab.  open_now maps each of them that the layer tests to
    its (coefficient, drop, settle), and opening lists (cut, coefficient,
    drop, settle) for the cuts whose first nonzero coefficient is the
    layer's (see _cut_schedule).  A settled cut leaves; None when a test
    drops the move.
    """
    out = []
    for k, lhs in flhs:
        test = open_now.get(k)
        if test is not None:
            a, drop, settle = test
            if lab:
                lhs += a * lab
            if lhs > drop:
                return None
            if lhs <= settle:
                continue
        out.append((k, lhs))
    for k, a, drop, settle in opening:
        lhs = a * lab if lab else 0.0
        if lhs > drop:
            return None
        if lhs > settle:
            out.append((k, lhs))
    return tuple(out)


def _add_label(labels, label, margin):
    """Keep labels a Pareto set: add label unless one there dominates it,
    and drop those it dominates.

    a dominates b when it costs no more, has every optimality lhs at
    least as high (signed), and has either the lexicographically smaller
    x or a cost lower by more than the tie margin: b can then neither
    win nor tie into the win.  Dominance is transitive, so a label that
    one there dominates dominates none of them.
    """
    cost, olhs, xkey = label
    kept = []
    for old in labels:
        c, o, x = old
        if c <= cost and (x < xkey or c < cost - margin) and all(map(ge, o, olhs)):
            return
        if not (cost <= c and (xkey < x or cost < c - margin) and all(map(ge, olhs, o))):
            kept.append(old)
    kept.append(label)
    labels[:] = kept


def _key_graph(moves, schedule):
    """The keys of a label pass and the arcs between them.

    moves holds each unit's moves by state (KeyGraph) and schedule the
    feasibility tests of each layer (_cut_schedule).  A key is the
    state of every unit and the SPLIT_GRID-rounded lhs of every open
    feasibility cut, whose values the first arc to reach the key
    supplies; a move that a feasibility test drops makes no arc.
    Keys are numbered per layer in the order arcs first reach them,
    visiting the parent keys in their own order and each parent's moves
    in their listed order.  No key depends on a label, so this is the
    order in which a label pass that keyed labels as it went would meet
    them.

    Returns one (parent, label, weight, child, width) per layer: its arcs
    in visiting order as `array` columns (parent and child key indices,
    the move's label and weight) and its number of keys.
    Raises InfeasibleDiagramError when no key is left.
    """
    n = len(moves)
    keys, lhs_of = [((0,) * n, ())], [()]
    graph = []
    for g, (open_now, opening) in enumerate(schedule):
        unit = g % n
        tests = open_now or opening
        parent, label, weight, child = array("i"), array("d"), array("d"), array("i")
        children, child_lhs = {}, []
        for i, (states, fkey) in enumerate(keys):
            flhs = lhs_of[i]
            for lab, w, nxt in moves[unit][states[unit]]:
                if tests:
                    cflhs = _advance_cuts(flhs, lab, open_now, opening)
                    if cflhs is None:
                        continue
                    cfkey = tuple((k, round(lhs / SPLIT_GRID)) for k, lhs in cflhs)
                else:
                    cflhs, cfkey = flhs, fkey
                key = (states[:unit] + (nxt,) + states[unit + 1:], cfkey)
                j = children.get(key)
                if j is None:
                    j = children[key] = len(child_lhs)
                    child_lhs.append(cflhs)
                parent.append(i)
                label.append(lab)
                weight.append(w)
                child.append(j)
        if not children:
            raise InfeasibleDiagramError("a cut removes every path")
        graph.append((parent, label, weight, child, len(child_lhs)))
        keys, lhs_of = children, child_lhs
    return graph


def _best_completion(graph, bounds, opt):
    """x of an optimal completion under the optimality cuts opt, unit-major.

    One top-down label pass over graph's layers (KeyGraph, _key_graph).
    A label is a prefix: its cost, the signed lhs of every optimality
    cut and x as one integer (KeyGraph.fit).  Each arc moves its parent
    key's labels to its child key, in the graph's order, adding the
    move's weight, a * v to each lhs (rows of one numpy product per ask)
    and its rank to x.  Each key keeps a Pareto set (_add_label); with no
    optimality cut that is its cheapest label, and any label within the
    tie margin that has a smaller x.  This is the label dominance of
    resource-constrained shortest paths (Irnich and Desaulniers, 2005).

    A final label is worth cost + z, where z is the largest of bounds.lo
    and every optimality cut's bound, capped at bounds.hi; one whose bound
    tops bounds.hi by more than CUT_TOL is dropped, as refine_with_cut drops
    a value arc whose interval it empties.  Of the labels within PATH_TIE_TOL of the best worth, the
    one with the smallest x wins, as optimal_path breaks ties.  Raises
    InfeasibleDiagramError when no label is left.
    """
    N, margin = len(graph.order), graph.margin
    # signed so that a higher lhs is a lower bound on z
    ocoef = np.array([np.sign(c.z_coeff) * c.dense(N) for c in opt]).reshape(len(opt), N).T
    rows = (ocoef[graph.step_var] * graph.step_label).tolist()
    sets = [[(0.0, (0.0,) * len(opt), 0)]]   # labels per key
    for steps, (parent, label, weight, child, width) in zip(graph.steps, graph.layers):
        out = [None] * width
        for i, lab, w, j in zip(parent, label, weight, child):
            labels = sets[i]
            step = steps[lab]
            if step is None:   # label 0.0 costs nothing and adds nothing to any lhs
                moved = labels
            else:
                k, dx = step
                oc = rows[k]
                moved = [(cost + w, tuple(map(add, olhs, oc)), xkey + dx)
                         for cost, olhs, xkey in labels]
            bucket = out[j]
            if bucket is None:   # one parent's set, moved alike, needs no test
                out[j] = list(moved)
            else:
                for entry in moved:
                    _add_label(bucket, entry, margin)
        sets = out

    limits = [(c.rhs, c.z_coeff, np.sign(c.z_coeff)) for c in opt]
    worth = []
    for labels in sets:
        for cost, olhs, xkey in labels:
            z = max([bounds.lo] + [(rhs - s * lhs) / zc
                                   for lhs, (rhs, zc, s) in zip(olhs, limits)])
            if z <= bounds.hi + CUT_TOL:
                worth.append((cost + min(z, bounds.hi), xkey))
    if not worth:
        raise InfeasibleDiagramError("the optimality cuts remove every path")
    best = min(w for w, _ in worth)
    tol = PATH_TIE_TOL * (1.0 + abs(best))
    xkey = min(k for w, k in worth if w <= best + tol)
    return [labs[xkey // p % len(labs)] for labs, p in zip(graph.labels, graph.place)]


def _point(graph, bounds, x, opt):
    """(x, z, w) of the master's path of x, to the bit as optimal_path
    reads them off that path in the exact diagram: z is bounds.lo raised
    by each optimality cut in list order, each lhs summed in unit-major
    order as a replay sums it, and capped at bounds.hi; w sums x's move
    weights and then z from the last layer up, w_0 + (... + (w_(N-1) + z)).
    """
    T = len(x) // len(graph.moves)
    weights = []
    for unit, moves in enumerate(graph.moves):
        state = 0
        for lab in x[unit * T:(unit + 1) * T]:
            w, state = next((w, nxt) for b, w, nxt in moves[state] if b == lab)
            weights.append(w)
    z, hi = bounds.lo, bounds.hi
    for cut in opt:
        lhs = 0.0
        for c, v in zip(cut.dense(len(x)).tolist(), x):
            if v:
                lhs += c * v
        bound = (cut.rhs - lhs) / cut.z_coeff
        z = bound if bound > z else z
        z = hi if hi < z else z
    w = 0.0
    for weight in reversed(weights + [z]):
        w = weight + w
    return tuple(x), z, w
