"""Layer-by-layer exact refinement: the reference for ddbd.diagram's.

_refine_exact is the one-pass refinement as it stood before diagrams
became flat arrays and settled cut columns were dropped: every layer is
extended, settled and keyed on its own, with every cut column carried
to the end and the cut coefficients read from the CutRow dicts on every
call.  The production pass must return structurally identical diagrams
(node rows, arc order, label and weight bits, states, merged tags) or
raise InfeasibleDiagramError in the same cases.  The reference reads the
input one arc layer at a time, as Arc tuples, and builds its output with
DiagramBuilder, one node and one arc at a time.
"""

from collections import namedtuple

import numpy as np

from ddbd.diagram import (
    CUT_TOL,
    SPLIT_GRID,
    DiagramBuilder,
    InfeasibleDiagramError,
    Interval,
    _drop_dead_nodes,
)

Arc = namedtuple("Arc", "tail head label weight")


def layer_arcs(dd, j):
    """Arc layer j of dd in order; value-layer labels as Interval."""
    arcs = []
    for i in dd.layer_arcs(j):
        if i >= dd.value_first:
            k = i - dd.value_first
            label = Interval(float(dd.lo[k]), float(dd.hi[k]))
        else:
            label = float(dd.label[i])
        arcs.append(Arc(int(dd.tail[i]), int(dd.head[i]), label, float(dd.weight[i])))
    return arcs


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
    row = {nid: nid for nid in range(dd.node_count())}
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
    out = DiagramBuilder(m)
    out.layer_kinds = list(dd.layer_kinds)
    olds = [dd.root]
    news = [out.new_node(0, state=dd.states[dd.root], merged=dd.merged[dd.root])]
    for j in range(m):
        is_last = j == m - 1
        out_arcs = {}
        for arc in layer_arcs(dd, j):
            out_arcs.setdefault(arc.tail, []).append(arc)
        src, arcs = [], []
        for r, u in enumerate(olds):
            for arc in out_arcs.get(u, ()):
                src.append(r)
                arcs.append(arc)
        if not arcs:
            raise InfeasibleDiagramError("a cut removes every path")
        term = out.new_node(m, state=dd.states[dd.terminal],
                            merged=dd.merged[dd.terminal]) if is_last else None
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
                node = nxt[keys[c]] = out.new_node(j + 1, state=dd.states[arc.head],
                                                   merged=dd.merged[arc.head])
                first.append(c)
            out.add_arc(j, news[src[c]], node, arc.label, arc.weight)
        olds = [arcs[c].head for c in first]
        news = list(nxt.values())
        flhs, olhs = child_f[first], child_o[first]
    return _drop_dead_nodes(out.build())


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
        arcs = layer_arcs(dd, j)
        if not arcs:
            continue
        tails = [row[a.tail] for a in arcs]
        heads = [row[a.head] for a in arcs]
        step = 0.0
        if j < len(fcoef):
            step = np.array([a.label for a in arcs])[:, None] * fcoef[j]
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
