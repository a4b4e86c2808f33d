"""The explicit-diagram operations that no solve and no command runs.

Both masters answer by one label pass over diagram.KeyGraph, so the
package keeps only the diagram code that pass, the commands and
perfbench's bindings reach (DiagramBuilder, DecisionDiagram,
refine_with_cut, optimal_path and the relaxed compiler).  What the tests
still check against an explicit diagram lives here: invariant checks,
path enumeration and weights, parallel-arc reduction, a trailing value
layer, diagrams from paths or boxes, the versioned JSON export, reward
propagation over unique-parent diagrams, the exact master compiler and
the explicit dual dispatch LP.  validate, layer_rows and layer_arcs take
a DecisionDiagram as their first argument, since the class keeps only
what the package runs.
"""

from __future__ import annotations

import json

import numpy as np

from ddbd.diagram import (
    DiagramBuilder,
    EmptyDiagramError,
    Interval,
    _alive_nodes,
    _arc_labels,
    _endpoints,
    _subset,
)
from ddbd.simplex import LinearProgram
from ddbd.ucp import (
    _commitment_prices,
    _commitment_vector,
    _compile_master,
    _dual_objective,
    _dual_rows,
    _unit_columns,
)


class PathExplosionError(Exception):
    """Path enumeration exceeded the configured cap."""


class PropertyViolationError(Exception):
    """Input diagram lacks the unique-incoming-arc property."""


# -- diagram queries ----------------------------------------------------------


def layer_rows(dd, i):
    """Rows of node layer i."""
    return range(int(dd.node_first[i]), int(dd.node_first[i + 1]))


def layer_arcs(dd, j):
    """Arc indices of arc layer j."""
    return range(int(dd.arc_first[j]), int(dd.arc_first[j + 1]))


def validate(dd):
    """Check the array invariants; raises ValueError on violation."""
    n, m, num_arcs = len(dd.states), dd.num_arc_layers, len(dd.tail)
    for name, first, size in (("node", dd.node_first, n),
                              ("arc", dd.arc_first, num_arcs)):
        if first[0] != 0 or first[-1] != size or (np.diff(first) < 0).any():
            raise ValueError(f"{name} offsets are not monotone over the arrays")
    if len(dd.node_first) != m + 2 or len(dd.arc_first) != m + 1:
        raise ValueError("offsets do not match the layer count")
    if len(dd.merged) != n:
        raise ValueError("states and merged need one entry per node")
    if not len(dd.head) == len(dd.label) == len(dd.weight) == num_arcs:
        raise ValueError("arc arrays differ in length")
    if np.diff(dd.node_first)[[0, -1]].tolist() != [1, 1]:
        raise ValueError("root and terminal layers must hold exactly one node")
    if "continuous" in dd.layer_kinds[:-1]:
        raise ValueError("only the final arc layer may be continuous")
    num_value = int(np.diff(dd.arc_first)[-1]) \
        if m and dd.layer_kinds[-1] == "continuous" else 0
    if not len(dd.lo) == len(dd.hi) == num_value:
        raise ValueError("lo and hi need one entry per value-layer arc")
    if (dd.lo > dd.hi).any():
        raise ValueError("interval with lo > hi")
    layer_of = np.repeat(np.arange(m + 1), np.diff(dd.node_first))
    arc_layer = np.repeat(np.arange(m), np.diff(dd.arc_first))
    if ((dd.tail < 0) | (dd.tail >= n) | (dd.head < 0) | (dd.head >= n)).any() \
            or (layer_of[dd.tail] != arc_layer).any() \
            or (layer_of[dd.head] != arc_layer + 1).any():
        raise ValueError("an arc does not connect adjacent layers")
    dangling = np.flatnonzero(~_alive_nodes(dd))
    if dangling.size:
        raise ValueError(f"dangling node {dangling[0]} at layer {layer_of[dangling[0]]}")


def enumerate_solutions(dd, cap=100_000):
    """Exact multiset of path encodings; interval arcs expand to endpoints."""
    m = dd.num_arc_layers
    if not m:
        return []
    labels, vf = _arc_labels(dd), dd.value_first
    head = dd.head.tolist()
    order, first = dd.out_index()
    order, first = order.tolist(), first.tolist()
    results = []
    stack = [(dd.root, 0, ())]
    while stack:
        node, j, prefix = stack.pop()
        if j == m:
            results.append(prefix)
            if len(results) > cap:
                raise PathExplosionError(f"more than {cap} paths")
            continue
        for i in reversed(order[first[node]:first[node + 1]]):
            lab = labels[i]
            for e in reversed(_endpoints(*lab) if i >= vf else (lab,)):
                stack.append((head[i], j + 1, prefix + (e,)))
                if len(stack) > cap:
                    raise PathExplosionError(f"more than {cap} paths")
    return results


def path_weight(dd, assignment, sense="max"):
    """Length of a path encoding `assignment`.

    When several paths share the encoding (equal labels toward different
    nodes), the best length for the given sense is returned.
    """
    better = max if sense == "max" else min
    labels, weight, vf = _arc_labels(dd), dd.weight.tolist(), dd.value_first
    tail, head = dd.tail.tolist(), dd.head.tolist()
    reach = {dd.root: 0.0}
    for j, lab in enumerate(assignment):
        nxt = {}
        for i in layer_arcs(dd, j):
            if tail[i] not in reach:
                continue
            if i >= vf:
                lo, hi = labels[i]
                if not (lo - 1e-12 <= lab <= hi + 1e-12):
                    continue
                total = reach[tail[i]] + weight[i] * lab
            else:
                if labels[i] != lab:
                    continue
                total = reach[tail[i]] + weight[i]
            nxt[head[i]] = better(nxt.get(head[i], total), total)
        if not nxt:
            raise ValueError(f"no arc with label {lab} at layer {j}")
        reach = nxt
    return better(reach.values())


# -- structural operations ----------------------------------------------------


def reduce_interval_arcs(dd, layer_indices):
    """Keep only the min- and max-labeled arc of every parallel bundle.

    Applies to the arc layers in `layer_indices`, leaving the others
    untouched.  Preserves optima of objectives convex in those
    coordinates.
    """
    labels = _arc_labels(dd)
    lo = [lab[0] if i >= dd.value_first else lab for i, lab in enumerate(labels)]
    hi = [lab[1] if i >= dd.value_first else lab for i, lab in enumerate(labels)]
    tail, head = dd.tail.tolist(), dd.head.tolist()
    keep = np.ones(len(labels), dtype=bool)
    for j in layer_indices:
        groups = {}
        for i in layer_arcs(dd, j):
            keep[i] = False
            groups.setdefault((tail[i], head[i]), []).append(i)
        for arcs in groups.values():
            keep[min(arcs, key=lo.__getitem__)] = True
            keep[max(arcs, key=hi.__getitem__)] = True
    return _subset(dd, np.ones(dd.node_count(), dtype=bool), keep)


def append_value_layer(dd, lo, hi, slope=1.0):
    """Add a trailing continuous layer with one [lo, hi] arc per pre-terminal node.

    Each node u in the old pre-terminal layer keeps its arcs into a new
    clone node, and the clone connects to the terminal with an interval
    arc.  Used to give a value variable to diagrams built over discrete
    variables only.
    """
    m = dd.num_arc_layers
    out = DiagramBuilder(m + 1, continuous_last=True)
    out.layer_kinds[:m] = list(dd.layer_kinds)
    layer_of = np.repeat(np.arange(m + 1), np.diff(dd.node_first)).tolist()
    merged = dd.merged.tolist()
    for r in range(dd.terminal):   # every row but the terminal keeps its handle
        out.new_node(layer_of[r], dd.states[r], merged[r])
    tail, head = dd.tail.tolist(), dd.head.tolist()
    label, weight = dd.label.tolist(), dd.weight.tolist()
    clone = {}
    for j in range(m):
        for i in layer_arcs(dd, j):
            if j == m - 1 and tail[i] not in clone:
                clone[tail[i]] = out.new_node(m)
            out.add_arc(j, tail[i], clone[tail[i]] if j == m - 1 else head[i],
                        label[i], weight[i])
    term = out.new_node(m + 1)
    for v in clone.values():
        out.add_arc(m, v, term, Interval(float(lo), float(hi)), slope)
    return out.build()


# -- constructors -------------------------------------------------------------


def from_paths(paths, weight_fn=None):
    """Build a diagram encoding exactly the given label sequences.

    Path elements are floats for discrete layers; the final element may
    be an (lo, hi) pair or Interval, making the last layer continuous.
    weight_fn(layer, label) supplies arc weights (interval arcs receive
    the slope); weights default to zero.  A path given twice adds no arc.
    """
    paths = [tuple(p) for p in paths]
    if not paths:
        return DiagramBuilder(0).build()
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
    dd = DiagramBuilder(m, continuous_last=continuous)
    root = dd.new_node(0)
    term = dd.new_node(m)
    trie = {(): root}
    last = set()   # (tail, label) of the last layer's arcs
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
            if j == m - 1:
                if (tail, label) in last:
                    continue
                last.add((tail, label))
            dd.add_arc(j, tail, head, label, w)
    return dd.build()


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
    dd = DiagramBuilder(n)
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
    return dd.build()


# -- export -------------------------------------------------------------------


SCHEMA_VERSION = 1


def dd_to_json(dd):
    """Versioned JSON text; node ids are the rows."""
    merged = dd.merged.tolist()
    nodes = [{"id": r,
              **({} if s is None else {"state": list(s) if isinstance(s, (tuple, list)) else s}),
              **({"merged": True} if merged[r] else {})}
             for r, s in enumerate(dd.states)]
    arcs = [{"tail": t, "head": h,
             "label": {"lo": lab[0], "hi": lab[1]} if isinstance(lab, tuple) else lab,
             "weight": w}
            for t, h, lab, w in zip(dd.tail.tolist(), dd.head.tolist(), _arc_labels(dd),
                                    dd.weight.tolist())]
    node_first, arc_first = dd.node_first.tolist(), dd.arc_first.tolist()
    doc = {
        "version": SCHEMA_VERSION,
        "layer_kinds": list(dd.layer_kinds),
        "layers": [nodes[a:b] for a, b in zip(node_first[:-1], node_first[1:])],
        "arcs": [arcs[a:b] for a, b in zip(arc_first[:-1], arc_first[1:])],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- reward propagation over unique-parent diagrams ---------------------------


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
    if m == 0 or not layer_rows(dd, m - 1):
        raise EmptyDiagramError("no nodes to propagate rewards through")
    incoming = np.bincount(dd.head, minlength=dd.node_count())
    for j in range(1, m):
        for nid in layer_rows(dd, j):
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
        for i in layer_arcs(dd, j):
            base = rewards[tail[i]]
            rewards[head[i]] = [
                base[k] + alphas[k][0].get(j, 0.0) * label[i]
                for k in range(len(alphas))
            ]
    best = None
    last = {}
    for i in layer_arcs(dd, m - 1):
        last.setdefault(tail[i], []).append(i)
    for nid in layer_rows(dd, m - 1):
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


# -- unit commitment ----------------------------------------------------------


def build_master_dd(instance, partial=(), gamma=None):
    """Exact diagram over the commitment variables plus the value layer."""
    return _compile_master(instance, partial, gamma or Interval(0.0, 0.0))


def build_dual_subproblem(instance, x, scenario):
    """Dual of the committed-only dispatch LP, built explicitly.

    Variables: demand price, reserve price, then per unit-period the
    min-output, capacity, ramp-up, ramp-down and headroom multipliers.
    Unbounded rays certify undispatchable commitments.  The rows come
    from _dual_rows and depend on the instance alone; x and the scenario
    enter only the objective.
    """
    A, senses, b = _dual_rows(instance)
    prices = _commitment_prices(_unit_columns(instance), _commitment_vector(instance, x))
    demand = np.array(scenario.demand, dtype=float)
    return LinearProgram(sense="max", c=_dual_objective(
        demand, demand + np.array(scenario.reserve), prices), A=A, senses=senses, b=b)
