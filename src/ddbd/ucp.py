"""Two-stage stochastic unit commitment on decision diagrams.

First stage: per-period on/off schedules per generator, subject to
minimum up/down times, with fixed and start-up costs.  Second stage:
per-scenario economic dispatch under capacity, ramping, demand and
spinning-reserve constraints.  The master is compiled into a diagram
whose node states are (periods since last start-up, periods since last
shut-down), and the dispatch subproblems are solved in dual form so
that unbounded rays yield feasibility cuts and optimal points yield
expected-cost cuts, both expressed over the master variables only.
Two families of feasibility cut are written down in closed form instead,
with rays verified like an LP's (the closed-form separation of
Fischetti, Ljubic and Sinnl, Management Science 2017): committed
capacity must cover demand plus reserve in every period, and the units
on at period 0 must reach its demand from off in one start-up ramp.
Both are pooled before the first build, so no commitment the master
proposes falls short of them beyond the pool's CUT_TOL, and every
evaluation is LPs only.
The value variable's [lo, hi] interval on the diagram's last arc layer
comes from closed-form bounds on the dispatch cost (a merit-order
lower bound, every costly unit at full output as the upper bound), not
from an LP; optimality cuts tighten it path by path.

The restricted master is not compiled and then refined.  One top-down
label pass over period-major layers (layer g sets unit g % n at period
g // n) takes the whole cut pool at once: a capacity cut couples one
period across the units, so it is settled at the end of its period,
and optimality cuts are resources of Pareto labels rather than keys
that split nodes (the label dominance of resource-constrained shortest
paths, Irnich and Desaulniers 2005; in decision diagrams, Coppé,
Gillard and Schaus, INFORMS J. Computing 2024).  A label's key, the
unit states and the rounded lhs of the open feasibility cuts, depends on
no label, so the keys and the arcs between them are laid out once per
list of feasibility cuts (KeyGraph); an oracle keeps that graph across
asks, and an ask under the same feasibility cuts only moves labels.
The pass finds the x of one optimal path, in the unit-major layer order
of the exact master, and the master answers with that point: x, its
value variable and its master value, summed as the exact master's
optimal path sums them, with no diagram built.

The on/off variables are laid out unit-major: all periods of the first
generator, then the second, and so on, followed by the value layer.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from operator import add, ge, is_

import numpy as np

from .diagram import (
    CUT_TOL,
    PATH_TIE_TOL,
    SPLIT_GRID,
    CutRow,
    DiagramBuilder,
    EmptyDiagramError,
    InfeasibleDiagramError,
    Interval,
)
# replay_cuts is no longer called here; it stays importable as ucp.replay_cuts,
# which perfbench/layers.py rebinds by name
from .engine import (  # noqa: F401
    MasterOracle,
    SubproblemOracle,
    SubproblemResult,
    replay_cuts,
)
from .simplex import (
    FEAS_TOL,
    LinearProgram,
    LpRows,
    NumericalFailureError,
    solve,
    verify_rays,
)

INF = float("inf")
COEF_EPS = 1e-12


class InstanceError(Exception):
    """Malformed instance data."""


class InfeasibleInstanceError(Exception):
    """Some scenario cannot be dispatched even with every unit relaxed on."""


def _require_finite(what, values, kind=(int, float)):
    """InstanceError unless every value is a finite number of the kind;
    a bool is none."""
    for v in values:
        if type(v) is bool or not isinstance(v, kind) or not math.isfinite(v):
            noun = "integer" if kind is int else "number"
            raise InstanceError(f"{what}: {v!r} is no finite {noun}")


@dataclass(frozen=True)
class Generator:
    c_fixed: float            # $ per committed period
    c_prod: float             # $ per MW produced
    p_min: float
    p_max: float
    min_up: int
    min_down: int
    ramp_up: float
    ramp_down: float
    startup_ramp: float
    shutdown_ramp: float
    startup_costs: tuple      # cost after 1, 2, ... down periods (saturating)
    startup_cost_inf: float   # cost when the unit has never been up

    def validate(self):
        _require_finite("generator costs, outputs and ramps", (
            self.c_fixed, self.c_prod, self.p_min, self.p_max, self.ramp_up, self.ramp_down,
            self.startup_ramp, self.shutdown_ramp, *self.startup_costs, self.startup_cost_inf))
        _require_finite("minimum up/down times", (self.min_up, self.min_down), int)
        if not (0 <= self.p_min <= self.p_max):
            raise InstanceError("need 0 <= min output <= max output")
        if self.min_up < 1 or self.min_down < 1:
            raise InstanceError("minimum up/down times must be >= 1")
        if self.startup_ramp > self.ramp_up + 1e-9:
            raise InstanceError("start-up ramp above ramp-up rate is unsupported")
        if self.shutdown_ramp > self.ramp_down + 1e-9:
            raise InstanceError("shut-down ramp above ramp-down rate is unsupported")
        if not self.startup_costs:
            raise InstanceError("start-up cost table must be nonempty")
        ks = list(self.startup_costs)
        if any(b < a - 1e-9 for a, b in zip(ks, ks[1:])):
            raise InstanceError("start-up costs must be non-decreasing")
        if self.startup_cost_inf < ks[-1] - 1e-9:
            raise InstanceError("cold-start cost must top the table")

    def startup_cost(self, down_age):
        """Start-up cost after `down_age` consecutive down periods."""
        if down_age == INF:
            return self.startup_cost_inf
        k = int(down_age)
        if k < 1:
            raise ValueError("down age below one period")
        return self.startup_costs[min(k, len(self.startup_costs)) - 1]


@dataclass(frozen=True)
class Scenario:
    prob: float
    demand: tuple
    reserve: tuple


@dataclass
class UcpInstance:
    generators: list
    horizon: int
    scenarios: list

    def validate(self):
        _require_finite("horizon", (self.horizon,), int)
        if self.horizon < 1:
            raise InstanceError("horizon must be >= 1")
        if not self.generators or not self.scenarios:
            raise InstanceError("need at least one generator and one scenario")
        for gen in self.generators:
            gen.validate()
        total = 0.0
        for sc in self.scenarios:
            if len(sc.demand) != self.horizon or len(sc.reserve) != self.horizon:
                raise InstanceError("scenario series length must match the horizon")
            _require_finite("scenario data", (sc.prob, *sc.demand, *sc.reserve))
            if min(sc.demand) < 0 or min(sc.reserve) < 0:
                raise InstanceError("demand and reserve must be nonnegative")
            total += sc.prob
        if abs(total - 1.0) > 1e-9:
            raise InstanceError("scenario probabilities must sum to one")
        return self

    @property
    def num_units(self):
        return len(self.generators)

    @property
    def num_vars(self):
        return self.num_units * self.horizon

    @property
    def total_capacity(self):
        return sum(g.p_max for g in self.generators)

    def var_index(self, unit, period):
        return unit * self.horizon + period

    # -- JSON schema: {generators:[{c_f,c_g,m,M,L,l,RU,RD,SU,SD,K,K_inf}],
    #                  T, scenarios:[{prob,D,R}]} --------------------------------

    def to_json(self):
        doc = {
            "version": 1,
            "T": self.horizon,
            "generators": [
                {
                    "c_f": g.c_fixed, "c_g": g.c_prod, "m": g.p_min, "M": g.p_max,
                    "L": g.min_up, "l": g.min_down,
                    "RU": g.ramp_up, "RD": g.ramp_down,
                    "SU": g.startup_ramp, "SD": g.shutdown_ramp,
                    "K": list(g.startup_costs), "K_inf": g.startup_cost_inf,
                }
                for g in self.generators
            ],
            "scenarios": [
                {"prob": s.prob, "D": list(s.demand), "R": list(s.reserve)}
                for s in self.scenarios
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text):
        doc = json.loads(text)
        if doc.get("version") != 1:
            raise InstanceError(f"unsupported instance version {doc.get('version')}")
        try:
            gens = [
                Generator(
                    c_fixed=g["c_f"], c_prod=g["c_g"], p_min=g["m"], p_max=g["M"],
                    min_up=g["L"], min_down=g["l"], ramp_up=g["RU"], ramp_down=g["RD"],
                    startup_ramp=g["SU"], shutdown_ramp=g["SD"],
                    startup_costs=tuple(g["K"]), startup_cost_inf=g["K_inf"],
                )
                for g in doc["generators"]
            ]
            scens = [
                Scenario(prob=s["prob"], demand=tuple(s["D"]), reserve=tuple(s["R"]))
                for s in doc["scenarios"]
            ]
            return UcpInstance(generators=gens, horizon=doc["T"], scenarios=scens).validate()
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InstanceError(f"bad instance document: {exc}") from exc


@dataclass(frozen=True)
class GammaBounds:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("value bounds must be finite")
        if self.lo > self.hi:
            raise ValueError("lo > hi")


# -- master diagram compilation -------------------------------------------------------


def _transitions(gen, state, relaxed, min_up, min_down):
    """Outgoing (label, weight, next state) triples for one node state.

    States are (up_age, down_age) plus, for relaxed compilation, the
    merged down-age used for start-up pricing.  A unit is considered
    down when up_age >= down_age (both start at infinity).  min_up and
    min_down are the effective thresholds: a minimum time longer than
    the horizon never produces a binding scheduling window, so the
    caller caps it at one to match the constraint formulation.
    """
    up, down = state[0], state[1]
    eq = state[2] if relaxed else down
    out = []
    if up >= down:  # unit is down
        nxt = (up + 1, down + 1, eq + 1) if relaxed else (up + 1, down + 1)
        out.append((0.0, 0.0, nxt))
        if down >= min_down:
            started = (1, down + 1, eq + 1) if relaxed else (1, down + 1)
            out.append((1.0, gen.c_fixed + gen.startup_cost(eq), started))
    else:           # unit is up
        nxt = (up + 1, down + 1, eq + 1) if relaxed else (up + 1, down + 1)
        out.append((1.0, gen.c_fixed, nxt))
        if up >= min_up:
            stopped = (up + 1, 1, 1) if relaxed else (up + 1, 1)
            out.append((0.0, 0.0, stopped))
    return out


def effective_times(gen, horizon):
    """Binding minimum up/down thresholds over this horizon."""
    min_up = gen.min_up if gen.min_up <= horizon else 1
    min_down = gen.min_down if gen.min_down <= horizon else 1
    return min_up, min_down


def _fresh_state(relaxed):
    return (INF, INF, INF) if relaxed else (INF, INF)


def _merge_states(reach, width):
    """Width enforcement for the relaxed compiler, before any node exists.

    reach maps each child state of a layer to its cheapest root distance.
    States merge only within their up/down group.  Each group that has
    states gets one slot, and each spare slot of the width goes to the
    group with the most states left over, ties to "down".  A group ranks
    its states by (distance, state); with q slots and more than q states
    it keeps the first q - 1 and merges the rest into one state (max
    up-age, max down-age, min merged down-age), which joins a kept state
    equal to it.

    Returns (rep, merged): rep maps every state to the state of its node,
    listing the down group before the up group and in each its kept
    states by rank before its merged ones; merged holds the
    representatives to tag as merged.
    """
    groups = ([], [])   # down, up
    for s in reach:
        groups[s[0] < s[1]].append(s)
    active = [grp for grp in groups if grp]
    quota = [1] * len(active)
    for _ in range(width - len(active)):
        left = [len(grp) - q for grp, q in zip(active, quota)]
        i = max(range(len(active)), key=left.__getitem__)
        if not left[i]:
            break
        quota[i] += 1
    rep, merged = {}, set()
    for grp, q in zip(active, quota):
        ranked = sorted(grp, key=lambda s: (reach[s], s))
        keep = ranked[:q - 1] if len(ranked) > q else ranked
        rest = ranked[len(keep):]
        rep.update((s, s) for s in keep)
        if rest:
            state = (max(s[0] for s in rest), max(s[1] for s in rest),
                     min(s[2] for s in rest))
            merged.add(state)
            rep.update((s, state) for s in rest)
    return rep, merged


def _compile_master(instance, partial, gamma, width=None):
    """Shared compiler for the exact and relaxed master diagrams.

    Each layer first maps every child state to the state its node gets:
    itself in an exact layer, the fresh state at a unit boundary (the
    next unit is scheduled independently), and _merge_states' choice in
    a relaxed layer with more than `width` states, where node states
    carry the merged down-age.  It then makes the nodes and arcs in one
    pass over the moves.  Raises EmptyDiagramError when the partial
    assignment admits no completion.
    """
    relaxed = width is not None
    n, T = instance.num_units, instance.horizon
    partial = tuple(partial)
    if len(partial) > n * T:
        raise ValueError("partial assignment longer than the variable count")
    dd = DiagramBuilder(n * T + 1, continuous_last=True)
    fresh = _fresh_state(relaxed)
    cur = {fresh: dd.new_node(0, state=fresh)}
    dist = {fresh: 0.0}   # relaxed: cheapest root distance of each state in cur

    for g in range(n * T):
        unit = g // T
        gen = instance.generators[unit]
        min_up, min_down = effective_times(gen, T)
        boundary = (g + 1) % T == 0 and unit < n - 1
        moves = []  # (parent node, label, weight, child state)
        reach = {}  # relaxed: cheapest root distance of each child state
        for state, node in cur.items():
            for label, weight, nxt in _transitions(gen, state, relaxed,
                                                   min_up, min_down):
                if g < len(partial) and abs(label - partial[g]) > 1e-9:
                    continue
                moves.append((node, label, weight, nxt))
                if relaxed and dist[state] + weight < reach.get(nxt, INF):
                    reach[nxt] = dist[state] + weight
        if not moves:
            raise EmptyDiagramError("partial assignment admits no completion")
        rep, merged = {}, ()   # child state -> its node's state, when not itself
        if relaxed and boundary:
            rep = dict.fromkeys(reach, fresh)
        elif relaxed and len(reach) > width:
            rep, merged = _merge_states(reach, width)
        dist = reach
        if rep:
            dist = {}
            for s, d in reach.items():
                if d < dist.get(rep[s], INF):
                    dist[rep[s]] = d

        children = {}
        for parent, label, weight, nxt in moves:
            state = fresh if boundary else rep.get(nxt, nxt)
            if state not in children:
                children[state] = dd.new_node(g + 1, state=state,
                                              merged=state in merged)
            dd.add_arc(g, parent, children[state], label, weight)
        # after a merge the next layer reads the nodes in _merge_states' order
        cur = children if boundary or not rep else {
            s: children[s] for s in dict.fromkeys(rep.values())}

    term = dd.new_node(n * T + 1)
    for node in cur.values():
        dd.add_arc(n * T, node, term, Interval(gamma.lo, gamma.hi), 1.0)
    return dd.build()


# No solve calls the two compilers below: they are the reference that the
# restricted label pass and the relaxed bounds are checked against, and
# perfbench/layers.py rebinds build_relaxed_master_dd by name.
def build_master_dd(instance, partial=(), gamma=None):
    """Exact diagram over the commitment variables plus the value layer."""
    return _compile_master(instance, partial, gamma or GammaBounds(0.0, 0.0))


def build_relaxed_master_dd(instance, partial, gamma, width):
    if width < 1:
        raise ValueError("width must be >= 1")
    return _compile_master(instance, partial, gamma, width=width)


# -- restricted master: one period-major label pass -------------------------------------


def _capped_moves(gen, horizon):
    """One unit's moves over capped states, by state index.

    An up unit's state is (min(up, min_up), INF), a down unit's
    (INF, min(down, cap)) with cap = max(min_down, len(startup_costs)),
    and a unit that has never been up stays (INF, INF).  No later move
    or weight of _transitions reads more than that: an up unit may stop
    once up reaches min_up, a down one may start once down reaches
    min_down, at the start-up cost of its down age, which saturates at
    the table's length.  The reachable states are numbered from 0, the
    fresh state; moves[s] lists (label, weight, next state's index) from
    state s, the weights written as _transitions writes them.
    """
    min_up, min_down = effective_times(gen, horizon)
    cap = max(min_down, len(gen.startup_costs))
    index, out = {}, []
    todo = [_fresh_state(False)]
    while todo:
        state = todo.pop()
        if state in index:
            continue
        index[state] = len(index)
        up, down = state
        if up < down:
            moves = [(1.0, gen.c_fixed, (min(up + 1, min_up), INF))]
            if up >= min_up:
                moves.append((0.0, 0.0, (INF, 1)))
        else:
            moves = [(0.0, 0.0, (INF, down if down == INF else min(down + 1, cap)))]
            if down >= min_down:
                moves.append((1.0, gen.c_fixed + gen.startup_cost(down), (1, INF)))
        out.append(moves)
        todo.extend(nxt for _, _, nxt in moves)
    return tuple(tuple((lab, w, index[nxt]) for lab, w, nxt in moves) for moves in out)


def _cut_schedule(feas, order):
    """When each feasibility cut is tested, along the layer order `order`.

    A cut is signed to read lhs <= limit, its rhs plus CUT_TOL (a ">="
    cut is negated, exactly).  After layer g the lhs still to come lies
    between the suffix sums of each later layer's least and greatest
    term, min(0, a) and max(0, a).  A cut that every completion meets,
    with a margin, never opens; one that every completion breaks raises
    InfeasibleDiagramError.  Any other cut opens at its first layer with
    a nonzero coefficient, and every such layer tests a label's lhs:
    above `drop` the label goes, at or below `settle` the cut is settled
    and leaves the key.  Both keep _completion_limits' rounding margin,
    except at the cut's last nonzero coefficient, where both are the
    limit itself: there every open cut is decided as CutRow.satisfied
    decides it.

    Returns one list per layer of (cut, coefficient, drop, settle,
    opens), the cuts in list order.
    """
    N = len(order)
    layers = [[] for _ in range(N)]
    if not feas:
        return layers
    sign = np.array([1.0 if c.sense == "<=" else -1.0 for c in feas])
    rhs = np.array([c.rhs for c in feas])
    a = sign[:, None] * np.array([c.dense(N) for c in feas])[:, order]
    rest_lo, rest_hi = (np.append(np.cumsum(t[:, ::-1], axis=1)[:, ::-1],
                                  np.zeros((len(feas), 1)), axis=1)
                        for t in (np.minimum(a, 0.0), np.maximum(a, 0.0)))
    limit = sign * rhs + CUT_TOL
    margin = 2 * (N + 2) * SPLIT_GRID * (1.0 + np.abs(rhs))
    touched = a != 0.0
    some = touched.any(axis=1)
    if (rest_lo[:, 0] > limit + np.where(some, margin, 0.0)).any():
        raise InfeasibleDiagramError("a cut removes every path")
    opened = some & ~(rest_hi[:, 0] <= limit - margin)
    drop = (limit + margin)[:, None] - rest_lo[:, 1:]
    settle = (limit - margin)[:, None] - rest_hi[:, 1:]
    first = touched.argmax(axis=1)
    last = N - 1 - touched[:, ::-1].argmax(axis=1)
    ks = np.arange(len(feas))
    drop[ks, last] = settle[ks, last] = limit
    g_at, k_at = np.nonzero((touched & opened[:, None]).T)   # by layer, then cut
    for g, k, coef, up, down, opens in zip(g_at.tolist(), k_at.tolist(), a[k_at, g_at].tolist(),
                                       drop[k_at, g_at].tolist(), settle[k_at, g_at].tolist(),
                                       (first[k_at] == g_at).tolist()):
        layers[g].append((k, coef, up, down, opens))
    return layers


def _advance_cuts(flhs, lab, open_now, opening):
    """The open feasibility cuts' (cut, lhs) pairs after one layer's move.

    flhs holds the cuts open before the layer; open_now maps each of
    them that the layer tests to its (coefficient, drop, settle), and
    opening lists (cut, coefficient, drop, settle) for the cuts whose
    first nonzero coefficient is the layer's (see _cut_schedule).  A
    settled cut leaves; None when a test drops the move.
    """
    out = []
    for k, lhs in flhs:
        test = open_now.get(k)
        if test is not None:
            a, drop, settle = test
            if lab:
                lhs += a
            if lhs > drop:
                return None
            if lhs <= settle:
                continue
        out.append((k, lhs))
    for k, a, drop, settle in opening:
        lhs = a if lab else 0.0
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


class KeyGraph:
    """The label pass's keys and arcs, kept across asks of one instance and gamma.

    Keys depend on the feasibility cuts alone (_key_graph), so a caller
    that asks again under the same feasibility cuts, the same objects in
    the same order, reuses the arcs and only moves labels
    (_best_completion).  Any other list of feasibility cuts rebuilds them.
    Each unit's moves (_capped_moves), the layer order, each layer's bit
    of x and the tie margin depend on the instance and gamma alone, and
    are made once.
    """

    def __init__(self, instance, gamma):
        n, T = instance.num_units, instance.horizon
        N = n * T
        self.moves = [_capped_moves(gen, T) for gen in instance.generators]
        self.order = [(g % n) * T + g // n for g in range(N)]
        self.bits = [1 << (N - 1 - v) for v in self.order]
        # two costs closer than margin may tie in the end (PATH_TIE_TOL of any worth)
        scale = sum(T * (abs(g.c_fixed) + max(abs(g.startup_cost_inf), *map(abs, g.startup_costs)))
                    for g in instance.generators) + abs(gamma.lo) + abs(gamma.hi)
        self.margin = 2 * PATH_TIE_TOL * (1.0 + scale)
        self.feas = None
        self.layers = None

    def fit(self, feas):
        """Build the arcs under the feasibility cuts feas unless they are kept."""
        if (self.feas is not None and len(self.feas) == len(feas)
                and all(map(is_, self.feas, feas))):
            return
        self.feas = None   # a build that raises keeps nothing
        self.layers = _key_graph(self.moves, feas, self.order)
        self.feas = list(feas)


def _key_graph(moves, feas, order):
    """The keys of a period-major label pass and the arcs between them.

    moves holds each unit's _capped_moves.  Layer g sets unit g % n at
    period g // n, order[g] in unit-major order.  A key is the capped
    state of every unit and the SPLIT_GRID-rounded lhs of every open
    feasibility cut (_cut_schedule), whose values the first arc to reach
    the key supplies; a move that a feasibility test drops makes no arc.
    Keys are numbered per layer in the order arcs first reach them,
    visiting the parent keys in their own order and each parent's moves
    in _capped_moves' order.  No key depends on a label, so this is the
    order in which a label pass that keyed labels as it went would meet
    them.

    Returns one (parent, label, weight, child, width) per layer: its arcs
    in visiting order as `array` columns (parent and child key indices,
    the move's label and weight) and its number of keys.  Raises
    InfeasibleDiagramError when no key is left.
    """
    n = len(moves)
    schedule = _cut_schedule(feas, order)
    keys, lhs_of = [((0,) * n, ())], [()]
    graph = []
    for g, tests in enumerate(schedule):
        unit = g % n
        open_now = {k: t for k, *t, opens in tests if not opens}
        opening = [(k, *t) for k, *t, opens in tests if opens]
        parent, label, weight, child = array("i"), array("b"), array("d"), array("i")
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
                label.append(1 if lab else 0)
                weight.append(w)
                child.append(j)
        if not children:
            raise InfeasibleDiagramError("a cut removes every path")
        graph.append((parent, label, weight, child, len(child_lhs)))
        keys, lhs_of = children, child_lhs
    return graph


def _best_completion(graph, gamma, opt):
    """x of an optimal completion under the optimality cuts opt, unit-major, as floats.

    One top-down label pass over graph's layers (KeyGraph, _key_graph).
    A label is a prefix: its cost, the signed lhs of every optimality
    cut and x as an integer whose bits read x in unit-major order, so
    that of two prefixes of one layer the smaller integer is the
    lexicographically smaller x, whatever the common completion.  Each
    arc moves its parent key's labels to its child key, visiting arcs in
    the graph's order, and each key keeps a Pareto set (_add_label);
    with no optimality cut that is its cheapest label, and any label
    within the tie margin that has a smaller x.  This is the label
    dominance of resource-constrained shortest paths (Irnich and
    Desaulniers, 2005).

    A final label is worth cost + z, where z is the largest of gamma.lo
    and every optimality cut's bound, capped at gamma.hi; one whose bound
    tops gamma.hi by more than CUT_TOL is dropped, as _tighten drops its
    value arc.  Of the labels within PATH_TIE_TOL of the best worth, the
    one with the smallest x wins, as optimal_path breaks ties.  Raises
    InfeasibleDiagramError when no label is left.
    """
    N, margin = len(graph.order), graph.margin
    # signed so that a higher lhs is a lower bound on z
    ocoef = (np.array([np.sign(c.z_coeff) * c.dense(N) for c in opt]).T.tolist()
             if opt else [()] * N)
    sets = [[(0.0, (0.0,) * len(opt), 0)]]   # labels per key
    for v, bit, (parent, label, weight, child, width) in zip(graph.order, graph.bits,
                                                            graph.layers):
        oc = ocoef[v]
        out = [None] * width
        for i, up, w, j in zip(parent, label, weight, child):
            labels = sets[i]
            if up:
                moved = [(cost + w, tuple(map(add, olhs, oc)), xkey | bit)
                         for cost, olhs, xkey in labels]
            else:   # a down move costs nothing and adds nothing to any lhs
                moved = labels
            bucket = out[j]
            if bucket is None:   # one parent's set, moved alike, needs no test
                out[j] = list(moved)
            else:
                for entry in moved:
                    _add_label(bucket, entry, margin)
        sets = out

    bounds = [(c.rhs, c.z_coeff, np.sign(c.z_coeff)) for c in opt]
    worth = []
    for labels in sets:
        for cost, olhs, xkey in labels:
            z = max([gamma.lo] + [(rhs - s * lhs) / zc
                                  for lhs, (rhs, zc, s) in zip(olhs, bounds)])
            if z <= gamma.hi + CUT_TOL:
                worth.append((cost + min(z, gamma.hi), xkey))
    if not worth:
        raise InfeasibleDiagramError("the optimality cuts remove every path")
    best = min(w for w, _ in worth)
    tol = PATH_TIE_TOL * (1.0 + abs(best))
    xkey = min(k for w, k in worth if w <= best + tol)
    return [float(xkey >> (N - 1 - v) & 1) for v in range(N)]


def _point(graph, gamma, x, opt):
    """(x, z, w) of the exact master's path of x, to the bit as optimal_path
    reads them off that path.

    Each layer's weight is that of x's move in graph.moves, which is the
    exact master's.  z is gamma.lo raised by each optimality cut in list
    order, with each cut's lhs summed over the variables in unit-major
    order, as a replay into the exact master sums it, and capped at
    gamma.hi.  w sums the weights and then z from the last layer up,
    w_0 + (w_1 + ... + (w_(N-1) + z)), the order optimal_path sums in.
    """
    T = len(x) // len(graph.moves)
    weights = []
    for unit, moves in enumerate(graph.moves):
        state = 0
        for lab in x[unit * T:(unit + 1) * T]:
            w, state = next((w, nxt) for b, w, nxt in moves[state] if b == lab)
            weights.append(w)
    z, hi = gamma.lo, gamma.hi
    for cut in opt:
        lhs = 0.0
        for c, on in zip(cut.dense(len(x)).tolist(), x):
            if on:
                lhs += c
        bound = (cut.rhs - lhs) / cut.z_coeff
        z = bound if bound > z else z
        z = hi if hi < z else z
    w = 0.0
    for weight in reversed(weights + [z]):
        w = weight + w
    return tuple(x), z, w


# perfbench/layers.py wraps build_restricted_master_dd by name, which is why it
# keeps its name though it builds no diagram
def build_restricted_master_dd(instance, gamma, cuts=(), graph=None):
    """The restricted master's answer under the cuts: an optimum of the
    exact master's points that satisfy every cut, as (x, z, w).

    One period-major label pass (_best_completion) finds x, and _point
    reads z and w off x's path of the exact master.  Raises
    InfeasibleDiagramError when the cuts remove every path.  graph, a
    KeyGraph of this instance and gamma, keeps each unit's moves and the
    pass's keys for the feasibility cuts it last saw, so a caller that
    asks many times may pass one in.
    """
    cuts = list(cuts)
    feas = [c for c in cuts if c.z_coeff == 0.0]
    opt = [c for c in cuts if c.z_coeff != 0.0]
    if any((c.sense == "<=") == (c.z_coeff > 0) for c in opt):
        raise ValueError("an optimality cut must bound the value from below")
    if graph is None:
        graph = KeyGraph(instance, gamma)
    graph.fit(feas)
    return _point(graph, gamma, _best_completion(graph, gamma, opt), opt)


def master_cost(instance, x):
    """First-stage cost of a full assignment, summed like the arc weights."""
    total = 0.0
    for i, gen in enumerate(instance.generators):
        down_age = INF
        prev = 0.0
        for j in range(instance.horizon):
            v = x[instance.var_index(i, j)]
            if v >= 0.5:
                if prev < 0.5:
                    total += gen.c_fixed + gen.startup_cost(down_age)
                else:
                    total += gen.c_fixed
                down_age = 0
            else:
                down_age = down_age + 1 if down_age != INF else INF
            prev = v
    return total

# -- value-variable bounds --------------------------------------------------------------


def compute_gamma(instance):
    """Bounds on the expected dispatch cost, read off the instance data.

    lo is the probability-weighted merit-order cost: each period's
    demand is met from the whole fleet in order of production cost,
    every unit capped at its maximum output and units with negative
    cost run flat out.  Dropping minimum output, ramps and reserve makes
    this a relaxation of every dispatch LP.  hi runs every unit with
    positive cost at maximum output in every period; no dispatch costs
    more, because production never exceeds maximum output.

    Raises InfeasibleInstanceError when some period's demand plus
    reserve exceeds the fleet's capacity, which no commitment can serve.
    """
    merit = sorted(instance.generators, key=lambda g: g.c_prod)
    cap = instance.total_capacity
    lo = 0.0
    for sc in instance.scenarios:
        for demand, reserve in zip(sc.demand, sc.reserve):
            # the dispatch LPs accept rows within their feasibility tolerance
            if demand + reserve > cap + 1e-7 * (1.0 + cap):
                raise InfeasibleInstanceError(
                    "demand plus reserve exceeds the fleet's capacity")
            need = demand
            for gen in merit:
                out = gen.p_max if gen.c_prod < 0 else min(gen.p_max, max(need, 0.0))
                lo += sc.prob * gen.c_prod * out
                need -= out
    hi = instance.horizon * sum(max(g.c_prod, 0.0) * g.p_max for g in instance.generators)
    # lo can pass hi only by rounding, when every unit runs flat out
    return GammaBounds(min(lo, hi), hi)


# -- dispatch subproblems ----------------------------------------------------------------


def _commitment_vector(instance, x):
    x = [float(v) for v in x]
    if len(x) != instance.num_vars:
        raise ValueError("assignment length must be units * horizon")
    return x


def build_subproblem(instance, x, scenario):
    """Dispatch LP over production and headroom, in the committed-only form.

    Ramp limits reference the commitment variables directly (start and
    stop indicators are implied by consecutive commitments), so the LP
    depends on x alone.
    """
    x = _commitment_vector(instance, x)
    n, T = instance.num_units, instance.horizon
    nT = n * T
    P, PB = 0, nT
    nv = 2 * nT
    c = np.zeros(nv)
    rows, senses, rhs = [], [], []

    def idx(base, i, j):
        return base + i * T + j

    def xv(i, j):
        return x[instance.var_index(i, j)] if j >= 0 else 0.0

    def new_row():
        rows.append(np.zeros(nv))
        return rows[-1]

    for i, gen in enumerate(instance.generators):
        for j in range(T):
            c[idx(P, i, j)] = gen.c_prod
            r = new_row()   # ramp up
            r[idx(P, i, j)] = 1.0
            if j > 0:
                r[idx(P, i, j - 1)] = -1.0
            senses.append("<=")
            rhs.append((gen.ramp_up - gen.startup_ramp) * xv(i, j - 1)
                       + gen.startup_ramp * xv(i, j))
            r = new_row()   # ramp down
            r[idx(P, i, j)] = -1.0
            if j > 0:
                r[idx(P, i, j - 1)] = 1.0
            senses.append("<=")
            rhs.append((gen.ramp_down - gen.shutdown_ramp) * xv(i, j)
                       + gen.shutdown_ramp * xv(i, j - 1))
            r = new_row()   # minimum output
            r[idx(P, i, j)] = 1.0
            senses.append(">=")
            rhs.append(gen.p_min * xv(i, j))
            r = new_row()   # headroom above production
            r[idx(PB, i, j)] = 1.0
            r[idx(P, i, j)] = -1.0
            senses.append(">=")
            rhs.append(0.0)
            r = new_row()   # capacity
            r[idx(PB, i, j)] = 1.0
            senses.append("<=")
            rhs.append(gen.p_max * xv(i, j))
    for j in range(T):
        r = new_row()
        for i in range(n):
            r[idx(P, i, j)] = 1.0
        senses.append(">=")
        rhs.append(scenario.demand[j])
        r = new_row()
        for i in range(n):
            r[idx(PB, i, j)] = 1.0
        senses.append(">=")
        rhs.append(scenario.demand[j] + scenario.reserve[j])
    return LinearProgram(sense="min", c=c, A=np.array(rows), senses=senses,
                         b=np.array(rhs))


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


def _dual_objective(demand, need, prices):
    """Dual objective: the demand prices' coefficients (a scenario's
    demand), the reserve prices' (its demand plus reserve, `need`), then
    the x-dependent coefficients from _commitment_prices.  Given one row
    per scenario in each, it returns one objective per row."""
    return np.concatenate([demand, need, prices], axis=-1)


def _unit_columns(instance):
    """p_min, p_max, SU, SD, RU and RD of every unit, each an (n, 1)
    column: the per-generator constants of _commitment_prices and
    _cut_terms, built once per oracle."""
    return np.array([[g.p_min, g.p_max, g.startup_ramp, g.shutdown_ramp,
                      g.ramp_up, g.ramp_down] for g in instance.generators]).T[:, :, None]


def _commitment_prices(units, x):
    """Dual objective coefficients of the per unit-period multipliers at the
    commitment x (a float list); the headroom multipliers' are 0.  units
    is _unit_columns of the instance."""
    p_min, p_max, su, sd, ru, rd = units
    n = p_min.shape[0]
    on = np.reshape(x, (n, -1))
    before = np.hstack([np.zeros((n, 1)), on[:, :-1]])   # 0 before the horizon
    return np.concatenate([
        (p_min * on).ravel(),
        (-p_max * on).ravel(),
        ((su - ru) * before - su * on).ravel(),
        ((sd - rd) * on - sd * before).ravel(),
        np.zeros(on.size)])


def _dual_rows(instance):
    """Constraint matrix, senses and rhs of the dual dispatch LP: per
    unit-period k = i * T + j, the production column's row 2k and the
    headroom column's row 2k + 1, every row "<="."""
    n, T = instance.num_units, instance.horizon
    nT = n * T
    PSI, BETA = 0, T
    PHI, PI = 2 * T, 2 * T + nT
    GAM, DEL, ETA = 2 * T + 2 * nT, 2 * T + 3 * nT, 2 * T + 4 * nT
    k = np.arange(nT)
    j, on = k % T, k[k % T + 1 < T]   # on: the unit-periods with a next period
    A = np.zeros((nT, 2, 2 * T + 5 * nT))
    prod, head = A[:, 0], A[:, 1]
    prod[k, PSI + j] = 1.0
    prod[k, GAM + k] = -1.0
    prod[on, GAM + on + 1] = 1.0
    prod[k, DEL + k] = 1.0
    prod[on, DEL + on + 1] = -1.0
    prod[k, PHI + k] = 1.0
    prod[k, ETA + k] = -1.0
    head[k, BETA + j] = 1.0
    head[k, ETA + k] = 1.0
    head[k, PI + k] = -1.0
    rhs = np.zeros((nT, 2))
    rhs[:, 0] = np.repeat([gen.c_prod for gen in instance.generators], T)
    return A.reshape(2 * nT, -1), ["<="] * (2 * nT), rhs.ravel()


def _merit_order_basis(instance, x, scenario):
    """A start basis for the dual dispatch LP at the commitment x, one
    entry per row of _dual_rows (a variable, or -1 for the row's slack):
    the dual of the merit-order dispatch, feasible with no pivot.

    Per period t the committed units are taken in (c_prod, index) order.
    The marginal unit m is the first whose cumulative p_max reaches the
    demand d_t, or the last when capacity falls short, and the price
    lambda_t is c_m; lambda_t is 0, with no marginal unit, when no unit is
    committed, when the committed p_min already covers d_t, or when
    c_m <= 0.  Production row (i, t) has psi_t basic when i is m (value
    lambda_t), else eta_it when c_i < lambda_t (lambda_t - c_i, the
    headroom row (i, t) then having pi_it at the same value), else phi_it
    when unit i is on, else its slack (both c_i - lambda_t).  Every other
    headroom row keeps its slack (0).  So every value is >= 0, and the
    basis matrix is triangular with a +-1 diagonal, never singular.
    """
    n, T = instance.num_units, instance.horizon
    nT = n * T
    PHI, PI, ETA = 2 * T, 2 * T + nT, 2 * T + 4 * nT
    gens = instance.generators
    cost = np.array([g.c_prod for g in gens])
    p_min = np.array([g.p_min for g in gens])
    p_max = np.array([g.p_max for g in gens])
    on = np.reshape(x, (n, T)) > 0.5
    merit = np.argsort(cost, kind="stable")
    basis = np.full(2 * nT, -1)
    for t in range(T):
        units, d = merit[on[merit, t]], scenario.demand[t]
        marginal, price = -1, 0.0
        if units.size and p_min[units].sum() < d:
            reach = np.flatnonzero(np.cumsum(p_max[units]) >= d)
            m = units[reach[0]] if reach.size else units[-1]
            if cost[m] > 0:
                marginal, price = m, cost[m]
        for i in range(n):
            k = i * T + t
            if i == marginal:
                basis[2 * k] = t
            elif cost[i] < price:
                basis[2 * k], basis[2 * k + 1] = ETA + k, PI + k
            elif on[i, t]:
                basis[2 * k] = PHI + k
    return basis


def _fold(terms):
    """terms summed over the first axis in order from 0.0, bit for bit a loop of +=."""
    return np.add.accumulate(np.concatenate([np.zeros((1,) + terms.shape[1:]), terms]))[-1]


def _cut_terms(units, demand, need, values):
    """Constant and dense x-coefficients of the dual objective at `values`.

    values is one dual vector or a stack of them, priced by the scenario
    rows demand and need (demand plus reserve) that broadcast against it.
    Returns (const, coef, present), coef and present over the variable
    indices; const, a float (an array for a stack), sums from 0.0, period by
    period, demand and need times their prices.  coef at unit i, period j
    is the sum, in this order, of p_min*phi - p_max*pi, -SU*gamma and
    (SD - RD)*delta at (i, j), then (SU - RU)*gamma and -SD*delta at
    (i, j + 1).  Terms at or below COEF_EPS are left out, and present
    marks the indices where one of the terms is kept.  All entries are
    summed at once, a left-out term adding +0.0: no partial sum is -0.0,
    so that changes no bit of adding the kept terms one by one.  units is
    _unit_columns of the instance.
    """
    p_min, p_max, su, sd, ru, rd = units
    n, T = p_min.shape[-2], demand.shape[-1]
    nT = n * T
    values = np.asarray(values, dtype=float)
    lead = values.shape[:-1]
    priced = np.stack([demand * values[..., :T], need * values[..., T:2 * T]])
    const = _fold(np.moveaxis(priced, -1, 0).reshape((2 * T,) + lead))
    phi, pi, gam, dlt = np.moveaxis(
        values[..., 2 * T:2 * T + 4 * nT].reshape(lead + (4, n, T)), -3, 0)
    terms = np.zeros((5,) + lead + (n, T))   # the next period's terms are 0 at the horizon
    terms[0] = p_min * phi - p_max * pi
    terms[1] = -su * gam
    terms[2] = (sd - rd) * dlt
    terms[3, ..., :-1] = (su - ru) * gam[..., 1:]
    terms[4, ..., :-1] = -sd * dlt[..., 1:]
    kept = np.abs(terms) > COEF_EPS
    t = np.where(kept, terms, 0.0)
    total = (((t[0] + t[1]) + t[2]) + t[3]) + t[4]
    return const, total.reshape(lead + (nT,)), kept.any(axis=0).reshape(lead + (nT,))


def _capacity_ray(instance, period):
    """Dual ray for a commitment whose capacity at `period` is short.

    Reserve price 1 at the period and capacity multiplier 1 for every
    unit there, 0 elsewhere: each headroom row then reads beta - pi = 0
    and each production row 0, and along the ray the dual objective gains
    demand plus reserve minus the committed capacity at the period.
    """
    n, T = instance.num_units, instance.horizon
    ray = np.zeros(2 * T + 5 * n * T)
    ray[T + period] = 1.0
    ray[2 * T + n * T + period + T * np.arange(n)] = 1.0
    return ray


def _startup_ray(instance):
    """Dual ray for a commitment whose start-up output at period 0 is short.

    Every unit is off before the horizon, so a unit on at period 0 makes
    at most min(SU, p_max) there.  Demand price 1 at period 0 and, per
    unit, ramp-up multiplier 1 at period 0 when SU <= p_max, headroom and
    capacity multipliers 1 there otherwise, 0 elsewhere: each production
    row at period 0 then reads psi - gamma = 0 or psi - eta = 0, each
    headroom row 0 or eta - pi = 0, and along the ray the dual objective
    gains the period-0 demand minus sum_i min(SU_i, p_max_i) x_i0.
    """
    n, T = instance.num_units, instance.horizon
    nT = n * T
    ray = np.zeros(2 * T + 5 * nT)
    ray[0] = 1.0                             # demand price at period 0
    at0 = T * np.arange(n)
    ramp = np.array([g.startup_ramp <= g.p_max for g in instance.generators])
    ray[2 * T + 2 * nT + at0[ramp]] = 1.0    # ramp-up
    ray[2 * T + nT + at0[~ramp]] = 1.0       # capacity
    ray[2 * T + 4 * nT + at0[~ramp]] = 1.0   # headroom
    return ray


def _feasibility_cuts(units, demand, need, rays):
    """Each dual ray's cut over x, scaled to a largest coefficient of 1:
    rays is a stack of rays, and demand and need their scenarios' rows, as
    _cut_terms takes them; units is _unit_columns of the instance."""
    consts, coefs, present = _cut_terms(units, demand, need, rays)
    scales = np.max(np.abs(coefs), axis=1, where=present, initial=COEF_EPS)
    scales = np.where(scales <= COEF_EPS, np.maximum(np.abs(consts), 1.0), scales)
    return [CutRow(coeffs={k: coef[k] / scale for k in np.flatnonzero(kept).tolist()},
                   z_coeff=0.0, rhs=-const / scale, sense="<=")
            for const, coef, kept, scale in zip(consts, coefs, present, scales)]


def _tightest(cuts):
    """The feasibility cuts that no other cut in the list makes redundant.

    A cut is redundant when another has exactly the same coefficients
    and a smaller rhs; of equal cuts the first is kept.  Order is kept,
    and the cuts' feasible set is unchanged.
    """
    best = {}
    for cut in cuts:
        key = tuple(sorted(cut.coeffs.items()))
        if key not in best or cut.rhs < best[key].rhs:
            best[key] = cut
    kept = {id(cut) for cut in best.values()}
    return [cut for cut in cuts if id(cut) in kept]


def evaluate_subproblems(instance, x):
    """One evaluation at the commitment x by a fresh UcpSubproblemOracle.

    See UcpSubproblemOracle.dispatch; nothing is memoized or carried over.
    """
    return UcpSubproblemOracle(instance).dispatch(x)


# -- instance generation --------------------------------------------------------------


def gen_random_instance(num_units, horizon, num_scenarios, seed):
    """Deterministic random instance; see the README for the parameter ranges."""
    if num_units < 1 or horizon < 1 or num_scenarios < 1:
        raise ValueError("generator parameters must be positive")
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(num_units):
        p_max = float(rng.uniform(50.0, 300.0))
        p_min = float(rng.uniform(0.1, 0.3) * p_max)
        c_fixed = float(rng.uniform(400.0, 1000.0))
        c_prod = float(rng.uniform(5.0, 40.0))
        min_up = int(rng.integers(1, min(3, horizon) + 1))
        min_down = int(rng.integers(1, min(3, horizon) + 1))
        su = float(rng.uniform(0.9, 1.0) * p_max)
        sd = float(rng.uniform(0.9, 1.0) * p_max)
        cold = int(rng.integers(1, min(horizon, 4) + 1))
        k_max = float(rng.uniform(0.5, 2.0) * c_fixed)
        table = tuple(float(round(k_max * math.log(1.0 + k) / math.log(1.0 + cold)))
                      for k in range(1, cold + 1))
        gens.append(Generator(
            c_fixed=c_fixed, c_prod=c_prod, p_min=p_min, p_max=p_max,
            min_up=min_up, min_down=min_down,
            ramp_up=su, ramp_down=sd, startup_ramp=su, shutdown_ramp=sd,
            startup_costs=table, startup_cost_inf=float(round(k_max))))
    cap = sum(g.p_max for g in gens)
    weights = rng.uniform(1.0, 2.0, size=num_scenarios)
    probs = weights / weights.sum()
    scens = []
    for s in range(num_scenarios):
        demand = tuple(float(rng.uniform(0.75, 1.0) * cap) for _ in range(horizon))
        frac = float(rng.uniform(0.0, 0.05))
        reserve = tuple(min(frac * d, cap - d) for d in demand)
        scens.append(Scenario(prob=float(probs[s]), demand=demand, reserve=reserve))
    return UcpInstance(generators=gens, horizon=horizon, scenarios=scens).validate()


# -- engine adapters -------------------------------------------------------------------


class UcpMasterOracle(MasterOracle):
    """The master of a unit-commitment instance.

    Its best point is an optimum of exact ∩ pool, found by one label
    pass over the whole pool on every ask (build_restricted_master_dd),
    so a converged point is optimal.  The pass's keys and arcs are kept
    across asks (KeyGraph, which also holds each unit's moves) and built
    again only when the pool's feasibility cuts change; labels are not
    kept: a label dominated under one pool need not be under a larger one.
    """

    sense = "min"

    def __init__(self, instance, gamma):
        self.instance = instance
        self.gamma = gamma
        self._graph = KeyGraph(instance, gamma)

    def best_point(self, cuts):
        # no path the pool leaves proves the instance infeasible
        try:
            return build_restricted_master_dd(self.instance, self.gamma, cuts, self._graph)
        except InfeasibleDiagramError:
            return None


class UcpSubproblemOracle(SubproblemOracle):
    """Dual dispatch for every scenario, memoized per commitment.

    initial_cuts() writes the closed-form feasibility cuts, one capacity
    cut per period and the start-up cut, from rays verified in one batch,
    each against its scenario's dual LP; the engine pools them before the
    first build.
    The master then meets them to within CUT_TOL, so dispatch solves one
    dual LP per scenario and nothing else: a commitment short of them
    only within that band, or infeasible for another reason (ramping,
    minimum output), gets its cut from the LP's ray.

    The dual's rows depend on the instance alone, so they are built and
    checked once, as one read-only LpRows that every scenario LP and every
    closed-form ray check shares; so are the per-unit constants of the
    prices and cuts (_unit_columns).  An evaluation solves its scenarios'
    LPs in one chained solve call (see ddbd.simplex), through the module
    name `solve`: x and the scenario change only the objective, so each
    scenario's LP continues phase 2 from the final tableau of the one
    before it, which is still primal-feasible, and the first from the
    previous call's outcome, the only state kept between evaluations.
    Only the oracle's first LP is a cold start, and it begins at the dual
    of the merit-order dispatch at its commitment and first scenario
    (_merit_order_basis), which is feasible, so it skips phase 1 and
    needs far fewer pivots than a start from the slack basis.
    initial_cuts()'s ray checks neither use nor change the kept outcome.
    The call checks the objectives, reads off the duals and rays and
    verifies every certificate on stacked arrays, and dispatch writes
    every scenario's cut in one _cut_terms call on the stacked duals.

    Each scenario LP carries a secondary objective, the dual objective at
    the core point x0 = 0.5 on every commitment variable (priced once,
    in __init__), so it ends at the optimal dual whose cut is highest at
    x0: a Pareto-optimal cut in the sense of Magnanti and Wong (1981),
    with x0 the midpoint of the domain rather than a point known to lie
    in the core (Papadakos, 2008).  The cut is still tight at x, being
    on the optimal face, and valid, being dual-feasible; the primary
    certificate checks both.  Values do not depend on the start; where
    several optimal duals tie at x0 the cut can, and the memo keeps
    repeat visits identical (and free of LP solves).
    """

    def __init__(self, instance):
        self.instance = instance
        self._rows = LpRows(*_dual_rows(instance))
        self._units = _unit_columns(instance)
        self._demand = np.array([sc.demand for sc in instance.scenarios], dtype=float)
        self._need = np.array([np.add(sc.demand, sc.reserve) for sc in instance.scenarios])
        self._prob = np.array([sc.prob for sc in instance.scenarios])
        core = _commitment_prices(self._units, [0.5] * instance.num_vars)
        self._core = _dual_objective(self._demand, self._need,
                                     np.tile(core, (len(instance.scenarios), 1)))
        self._last = None
        self._cache = {}

    def evaluate(self, x):
        key = tuple(round(float(v)) for v in x)
        if key in self._cache:
            hit = self._cache[key]
            return SubproblemResult(kind=hit.kind, cuts=hit.cuts,
                                    value=hit.value, lp_calls=0)
        res = self.dispatch(key)
        self._cache[key] = res
        return res

    def initial_cuts(self):
        """The closed-form cuts that every dispatchable commitment satisfies.

        One capacity cut per period t in which some scenario's demand plus
        reserve exceeds FEAS_TOL, sum_i p_max_i x_it >= d_t + r_t for the
        first of the scenarios that need most at t.  Then the start-up cut,
        when the largest period-0 demand exceeds FEAS_TOL: every unit is
        off before the horizon, so sum_i min(SU_i, p_max_i) x_i0 >= d_0
        for the first scenario with that demand.  A cut that another makes
        redundant is left out (_tightest).  At the all-off commitment every
        such cut is violated, so the rays, stacked, are verified there in
        one verify_rays call, each against its own scenario's dual
        objective, and their cuts written from one _cut_terms call.
        Raises NumericalFailureError when any ray fails verification.
        """
        instance = self.instance
        periods = np.flatnonzero(self._need.max(axis=0) > FEAS_TOL)
        scenarios = self._need.argmax(axis=0)[periods].tolist()
        rays = [_capacity_ray(instance, t) for t in periods.tolist()]
        if self._demand[:, 0].max() > FEAS_TOL:
            scenarios.append(int(self._demand[:, 0].argmax()))
            rays.append(_startup_ray(instance))
        if not rays:
            return []
        rays, demand, need = np.array(rays), self._demand[scenarios], self._need[scenarios]
        prices = _commitment_prices(self._units, [0.0] * instance.num_vars)
        c = _dual_objective(demand, need, np.tile(prices, (len(rays), 1)))
        if not np.all(verify_rays(self._rows, "max", c, rays)):
            raise NumericalFailureError("closed-form ray failed self-verification")
        return _tightest(_feasibility_cuts(self._units, demand, need, rays))

    def dispatch(self, x):
        """Solve every scenario's dual dispatch problem at the commitment x.

        Returns the feasibility variant when any scenario's dual LP is
        unbounded: one normalised cut per such scenario from its LP ray,
        in scenario order, less each cut that another one makes redundant
        (_tightest).  Otherwise returns the probability-weighted expected
        cost with a single aggregated lower-bounding cut on the value
        variable, whose coefficients are listed in the order their indices
        first appear, scenario by scenario.  Every scenario's LP is solved
        in one chained solve call, and the cuts come from one _cut_terms
        call over its stacked rays or optimal duals, summed over the
        scenarios in order (_fold).  lp_calls is the number of scenarios.
        """
        instance = self.instance
        x = _commitment_vector(instance, x)
        prices = np.tile(_commitment_prices(self._units, x), (len(instance.scenarios), 1))
        objectives = _dual_objective(self._demand, self._need, prices)
        basis = None if self._last is not None else \
            _merit_order_basis(instance, x, instance.scenarios[0])
        out = solve(LinearProgram(sense="max", c=objectives, rows=self._rows,
                                  start=self._last, secondary=self._core, basis=basis))
        self._last = out
        if out.status == "infeasible":
            raise RuntimeError("dual dispatch problems reported infeasible; "
                               "the dual is always feasible")
        calls = len(out.statuses)
        short = [s for s, status in enumerate(out.statuses) if status == "unbounded"]
        if short:
            cuts = _feasibility_cuts(self._units, self._demand[short], self._need[short],
                                     out.ray[short])
            return SubproblemResult(kind="infeasible", cuts=_tightest(cuts), lp_calls=calls)
        const, coef, present = _cut_terms(self._units, self._demand, self._need, out.x)
        # an index a scenario leaves out adds exactly +0.0, which changes
        # no sum: agg_coef never holds -0.0
        sums = _fold(self._prob[:, None] * np.column_stack([out.objective, const, coef]))
        total, agg_const, agg_coef = sums[0], sums[1], sums[2:]
        # indices by the first scenario holding them; one none holds sums to 0
        order = np.argsort(present.argmax(axis=0), kind="stable")
        order = order[np.abs(agg_coef[order]) > COEF_EPS]
        cut = CutRow(coeffs=dict(zip(order.tolist(), -agg_coef[order])),
                     z_coeff=1.0, rhs=float(agg_const), sense=">=")
        return SubproblemResult(kind="optimal", cuts=[cut], value=float(total),
                                lp_calls=calls)


def ucp_solve(instance, config=None, instance_id=""):
    """Convenience wrapper: bounds, oracles, and the decomposition loop."""
    from .engine import SolveReport, dd_bd_solve

    try:
        gamma = compute_gamma(instance)
    except InfeasibleInstanceError:
        return SolveReport(status="infeasible", instance=instance_id)
    master = UcpMasterOracle(instance, gamma)
    sub = UcpSubproblemOracle(instance)
    return dd_bd_solve(master, sub, config, instance_id=instance_id)
