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
evaluation is LPs only.  A fleet short of capacity in some period is
proven infeasible by that period's capacity cut alone: the master has no
point under the seeded pool, and no LP runs.  The oracle keeps no memo
of its evaluations: the engine evaluates each commitment once.
The value variable's [lo, hi] interval on the diagram's last arc layer
comes from closed-form bounds on the dispatch cost (a merit-order
lower bound, every costly unit at full output as the upper bound), not
from an LP; optimality cuts tighten it path by path.

The restricted master is not compiled and then refined.  One top-down
label pass (diagram.label_point, the MIP master's pass too) over
period-major layers (layer g sets unit g % n at period g // n) takes the
whole cut pool at once: a capacity cut couples one period across the
units, so it is settled at the end of its period, and optimality cuts
are resources of Pareto labels rather than keys that split nodes (the
label dominance of resource-constrained shortest paths, Irnich and
Desaulniers 2005; in decision diagrams, Coppé, Gillard and Schaus,
INFORMS J. Computing 2024).  A label's key, the unit states and the
rounded lhs of the open feasibility cuts, depends on no label, so the
keys and the arcs between them are laid out once per list of feasibility
cuts (diagram.KeyGraph, here over each unit's _capped_moves:
master_key_graph); an oracle keeps that graph across asks, and an ask
under the same feasibility cuts only moves labels.  The pass finds the x
of one optimal path, in the unit-major layer order of the exact master,
and the master answers with that point: x, its value variable and its
master value, summed as the exact master's optimal path sums them, with
no diagram built.

The on/off variables are laid out unit-major: all periods of the first
generator, then the second, and so on, followed by the value layer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .diagram import (
    PATH_TIE_TOL,
    CutRow,
    DiagramBuilder,
    EmptyDiagramError,
    Interval,
    KeyGraph,
    label_point,
)
# replay_cuts is no longer called here; it stays importable as ucp.replay_cuts,
# which perfbench/layers.py binds by name (its engine.replay span)
from .engine import (  # noqa: F401
    MasterOracle,
    SubproblemOracle,
    SubproblemResult,
    dd_bd_solve,
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
            if sc.prob < 0:
                raise InstanceError("scenario probabilities must be nonnegative")
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
        if not isinstance(doc, dict):
            raise InstanceError("bad instance document: expected a JSON object")
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
        dd.add_arc(n * T, node, term, gamma, 1.0)
    return dd.build()


# No solve calls the relaxed compiler: the tests check the relaxed bounds
# with it, and perfbench/layers.py binds ucp.build_relaxed_master_dd by name
# (its ucp.compile_relaxed span).  The exact compiler, _compile_master with no
# width, is the tests' reference (tests/reference_dd.py).
def build_relaxed_master_dd(instance, partial, gamma, width):
    if width < 1:
        raise ValueError("width must be >= 1")
    return _compile_master(instance, partial, gamma, width=width)


# -- restricted master: one period-major label pass -------------------------------------


def _capped_moves(gen, horizon):
    """One unit's moves over capped states, by state index: the moves of
    _transitions, each next state capped.

    An up state caps to (min(up, min_up), INF), a down state to
    (INF, min(down, cap)) with cap = max(min_down, len(startup_costs)),
    and a unit that has never been up stays (INF, INF).  No later move
    or weight of _transitions reads more than that: an up unit may stop
    once up reaches min_up, a down one may start once down reaches
    min_down, at the start-up cost of its down age, which saturates at
    the table's length.  The reachable states are numbered depth first
    from 0, the fresh state; moves[s] lists (label, weight, next state's
    index) from state s.
    """
    min_up, min_down = effective_times(gen, horizon)
    cap = max(min_down, len(gen.startup_costs))

    def capped(up, down):
        if up < down:
            return min(up, min_up), INF
        return INF, down if down == INF else min(down, cap)

    index, out = {}, []
    todo = [_fresh_state(False)]
    while todo:
        state = todo.pop()
        if state in index:
            continue
        index[state] = len(index)
        moves = [(lab, w, capped(*nxt))
                 for lab, w, nxt in _transitions(gen, state, False, min_up, min_down)]
        out.append(moves)
        todo.extend(nxt for _, _, nxt in moves)
    return tuple(tuple((lab, w, index[nxt]) for lab, w, nxt in moves) for moves in out)


def master_key_graph(instance, gamma):
    """The restricted master's KeyGraph: a unit per generator, moving by
    _capped_moves, and period-major layers (g sets unit g % n at period g // n)."""
    n, T = instance.num_units, instance.horizon
    scale = sum(T * (abs(g.c_fixed) + max(abs(g.startup_cost_inf), *map(abs, g.startup_costs)))
                for g in instance.generators) + abs(gamma.lo) + abs(gamma.hi)
    return KeyGraph([(0.0, 1.0)] * (n * T), [(g % n) * T + g // n for g in range(n * T)],
                    lambda: [_capped_moves(gen, T) for gen in instance.generators],
                    2 * PATH_TIE_TOL * (1.0 + scale))


# perfbench/layers.py wraps build_restricted_master_dd by name, which is why it
# keeps its name though it builds no diagram
def build_restricted_master_dd(instance, gamma, cuts=(), graph=None):
    """The restricted master's answer under the cuts, as (x, z, w): an
    optimum of the exact master's points that satisfy every cut
    (label_point), or None when the cuts leave none.  graph, a
    master_key_graph of this instance and gamma, keeps the pass's keys for
    the feasibility cuts it last saw, so a caller that asks many times may
    pass one in.
    """
    if graph is None:
        graph = master_key_graph(instance, gamma)
    return label_point(graph, gamma, cuts)


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

    Returns them as the Interval that labels the value arcs, and raises
    InstanceError when either overflows a float.  The bounds hold for any
    instance.  One whose demand plus reserve exceeds the fleet's capacity
    in some period is proven infeasible by the solve: the subproblem
    oracle's seeded capacity cut for that period leaves the master no
    commitment.
    """
    merit = sorted(instance.generators, key=lambda g: g.c_prod)
    need = np.array([sc.demand for sc in instance.scenarios], dtype=float)
    out = np.empty((len(merit),) + need.shape)
    # every (scenario, period) cell takes the operations of a loop over the
    # units, and the terms are summed from 0.0 in (scenario, period, unit)
    # order, so lo keeps its bits; an overflow is the InstanceError below
    with np.errstate(over="ignore", invalid="ignore"):
        for row, gen in zip(out, merit):
            if gen.c_prod < 0:
                row.fill(gen.p_max)
            else:
                np.minimum(gen.p_max, np.maximum(need, 0.0), out=row)
            need -= row
        cost = np.multiply.outer([g.c_prod for g in merit], [sc.prob for sc in instance.scenarios])
        lo = float(_fold((cost[:, :, None] * out).transpose(1, 2, 0).ravel()))
    hi = instance.horizon * sum(max(g.c_prod, 0.0) * g.p_max for g in instance.generators)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InstanceError("the dispatch cost bounds overflow: scale the instance down")
    # lo can pass hi only by rounding, when every unit runs flat out
    return Interval(min(lo, hi), hi)


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
    before = np.zeros(on.shape)   # 0 before the horizon
    before[:, 1:] = on[:, :-1]
    prices = np.zeros((5,) + on.shape)
    np.multiply(p_min, on, out=prices[0])
    np.multiply(-p_max, on, out=prices[1])
    np.subtract((su - ru) * before, su * on, out=prices[2])
    np.subtract((sd - rd) * on, sd * before, out=prices[3])
    return prices.ravel()


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

    Per period t the committed units are taken in (c_prod, index) order,
    their p_min and p_max summed one unit at a time in that order.
    The marginal unit m is the first whose cumulative p_max reaches the
    demand d_t, or the last when capacity falls short, and the price
    lambda_t is c_m; lambda_t is 0, with no marginal unit, when no unit is
    committed, when the committed p_min already covers d_t, or when
    c_m <= 0.  Production row (i, t) has psi_t basic when i is m (value
    lambda_t), else eta_it when c_i < lambda_t (lambda_t - c_i, the
    headroom row (i, t) then having pi_it at the same value), else phi_it
    when unit i is on, else its slack (both c_i - lambda_t).  Two rules
    then write in what Bland's rule would pivot to from there:
    - start-up ramp: a unit on at period 0 with c_i < lambda_0 and
      SU < p_max makes at most SU there, as every unit is off before the
      horizon, so its ramp-up multiplier gamma_i0, priced at SU, binds in
      place of pi_i0, priced at p_max.  gamma_i0 takes production row
      (i, 0) (lambda_0 - c_i) and eta_i0 headroom row (i, 0)
      (-beta_0 = 0), with pi_i0 nonbasic.
      Later periods are left alone: there gamma or delta also enters the
      production row of the period before, whose slack can go negative.
    - reserve price: beta_t takes the headroom row of the lowest-index
      unit whose headroom row still has its slack (0, the slack's value),
      when there is one: Bland's degenerate pivot at t.
    Every other headroom row keeps its slack (0).  So every value is
    >= 0.  Taking psi's and beta's columns first (their rows hold no
    other basic column), then each unit-period's eta before the pi or
    gamma it shares a row with, the basis matrix is triangular with a
    +-1 diagonal, never singular, and its inverse is exact.
    """
    n, T = instance.num_units, instance.horizon
    nT = n * T
    PHI, PI, GAM, ETA = 2 * T, 2 * T + nT, 2 * T + 2 * nT, 2 * T + 4 * nT
    gens = instance.generators
    cost = [g.c_prod for g in gens]
    merit = sorted(range(n), key=cost.__getitem__)   # stable: ties by index
    on = [[v > 0.5 for v in x[i * T:(i + 1) * T]] for i in range(n)]
    basis = [-1] * (2 * nT)
    for t, d in enumerate(scenario.demand):
        units = [i for i in merit if on[i][t]]
        marginal, price = -1, 0.0
        if units and sum(gens[i].p_min for i in units) < d:
            reach, m = 0.0, units[-1]
            for i in units:
                reach += gens[i].p_max
                if reach >= d:
                    m = i
                    break
            if cost[m] > 0:
                marginal, price = m, cost[m]
        free = -1   # the first unit whose headroom row keeps its slack
        for i in range(n):
            k = i * T + t
            if i == marginal:
                basis[2 * k] = t
            elif cost[i] < price and t == 0 and on[i][t] and \
                    gens[i].startup_ramp < gens[i].p_max:
                basis[2 * k], basis[2 * k + 1] = GAM + k, ETA + k
            elif cost[i] < price:
                basis[2 * k], basis[2 * k + 1] = ETA + k, PI + k
            elif on[i][t]:
                basis[2 * k] = PHI + k
            if free < 0 and basis[2 * k + 1] == -1:
                free = i
        if free >= 0:
            basis[2 * (free * T + t) + 1] = T + t
    return np.array(basis)


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
    # 0.0, then each period's demand and need terms, summed in that order
    priced = np.zeros(lead + (2 * T + 1,))
    np.multiply(demand, values[..., :T], out=priced[..., 1::2])
    np.multiply(need, values[..., T:2 * T], out=priced[..., 2::2])
    # [()] turns one row's 0-d sum into a float
    const = np.add.accumulate(priced, axis=-1, out=priced)[..., -1][()]
    blocks = values[..., 2 * T:2 * T + 4 * nT].reshape(lead + (4, n, T))
    phi, pi, gam, dlt = (blocks[..., j, :, :] for j in range(4))
    terms = np.zeros((5,) + lead + (n, T))   # the next period's terms are 0 at the horizon
    np.multiply(p_min, phi, out=terms[0])
    terms[0] -= p_max * pi
    np.multiply(-su, gam, out=terms[1])
    np.multiply(sd - rd, dlt, out=terms[2])
    np.multiply(su - ru, gam[..., 1:], out=terms[3, ..., :-1])
    np.multiply(-sd, dlt[..., 1:], out=terms[4, ..., :-1])
    kept = np.abs(terms) > COEF_EPS
    terms[~kept] = 0.0
    total = terms[0] + terms[1]
    for t in terms[2:]:
        total += t
    return const, total.reshape(lead + (nT,)), kept.any(axis=0).reshape(lead + (nT,))


def _capacity_rays(instance, periods):
    """Dual rays for a commitment whose capacity is short, one per period
    in `periods`, stacked in that order.

    A period's ray has reserve price 1 at the period and capacity
    multiplier 1 for every unit there, 0 elsewhere: each headroom row then
    reads beta - pi = 0 and each production row 0, and along the ray the
    dual objective gains demand plus reserve minus the committed capacity
    at the period.  The entries are set by index arithmetic, in one
    assignment for the whole stack.
    """
    n, T = instance.num_units, instance.horizon
    periods = np.asarray(periods, dtype=int)
    rays = np.zeros((periods.size, 2 * T + 5 * n * T))
    # the reserve price's column, then every unit's capacity multiplier's
    offsets = np.concatenate([[T], 2 * T + n * T + T * np.arange(n)])
    rays[np.arange(periods.size)[:, None], periods[:, None] + offsets] = 1.0
    return rays


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
    _cut_terms takes them; units is _unit_columns of the instance.  The
    cuts' keys are Python ints and their coefficients and rhs Python
    floats, divided on the stacked arrays."""
    consts, coefs, present = _cut_terms(units, demand, need, rays)
    scales = np.max(np.abs(coefs), axis=1, where=present, initial=COEF_EPS)
    scales = np.where(scales <= COEF_EPS, np.maximum(np.abs(consts), 1.0), scales)
    rows, cols = np.nonzero(present)
    values = (coefs[rows, cols] / scales[rows]).tolist()
    cols = cols.tolist()
    ends = np.bincount(rows, minlength=len(present)).cumsum().tolist()   # each row's end in cols
    return [CutRow(coeffs=dict(zip(cols[start:end], values[start:end])),
                   z_coeff=0.0, rhs=rhs, sense="<=")
            for start, end, rhs in zip([0] + ends, ends, (-consts / scales).tolist())]


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
    gamma, the Interval of compute_gamma, bounds the value variable.  When
    the pool leaves no path, the instance is infeasible and best_point
    returns label_point's None.
    """

    sense = "min"

    def __init__(self, instance, gamma):
        self.instance = instance
        self.gamma = gamma
        self._graph = master_key_graph(instance, gamma)

    def best_point(self, cuts):
        return build_restricted_master_dd(self.instance, self.gamma, cuts, self._graph)


class UcpSubproblemOracle(SubproblemOracle):
    """Dual dispatch for every scenario at a commitment.

    initial_cuts() writes the closed-form feasibility cuts, one capacity
    cut per period and the start-up cut, from rays stacked in one array
    by index arithmetic (_capacity_rays, with _startup_ray's row last) and
    verified in one batch, each against its scenario's dual LP; the engine
    pools them before the first build.  Every cut the oracle writes,
    initial or evaluated, has Python int keys and Python float
    coefficients and rhs, never numpy scalars, so CutPool.add's key()
    rounds Python floats.
    The master then meets them to within CUT_TOL, so evaluate solves one
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
    needs far fewer pivots than a start from the slack basis.  That basis
    already holds the pivots Bland's rule would make first from the
    plain merit-order dual: each period's reserve price, brought in at 0,
    and the start-up ramp's multiplier in place of the capacity
    multiplier of each cheaper unit on at period 0; its matrix is 0/+-1
    and triangular with a +-1 diagonal, so the kernel's restate in it,
    one product with the exact basis inverse, loses nothing.
    initial_cuts()'s ray checks neither use nor change the kept outcome.
    The call reads each scenario's duals or ray off as its row finishes,
    checks every certificate once on stacked arrays, and evaluate writes
    every scenario's cut in one _cut_terms call on the stacked duals.

    Each scenario LP carries a secondary objective, the dual objective at
    the core point x0 = 0.5 on every commitment variable (priced once,
    in __init__), so it ends at the optimal dual whose cut is highest at
    x0: a Pareto-optimal cut in the sense of Magnanti and Wong (1981),
    with x0 the midpoint of the domain rather than a point known to lie
    in the core (Papadakos, 2008).  The cut is still tight at x, being
    on the optimal face, and valid, being dual-feasible; the primary
    certificate checks both.  Values do not depend on the start; where
    several optimal duals tie at x0 the cut can.
    """

    def __init__(self, instance):
        self.instance = instance
        self._rows = LpRows(*_dual_rows(instance))
        self._units = _unit_columns(instance)
        scenarios = instance.scenarios
        self._demand = np.array([sc.demand for sc in scenarios], dtype=float)
        self._need = self._demand + np.array([sc.reserve for sc in scenarios], dtype=float)
        self._prob = np.array([sc.prob for sc in scenarios])
        core = _commitment_prices(self._units, [0.5] * instance.num_vars)
        self._core = _dual_objective(self._demand, self._need,
                                     np.broadcast_to(core, (len(self._demand), core.size)))
        self._last = None

    def initial_cuts(self):
        """The closed-form cuts that every dispatchable commitment satisfies.

        One capacity cut per period t in which some scenario's demand plus
        reserve exceeds FEAS_TOL, sum_i p_max_i x_it >= d_t + r_t for the
        first of the scenarios that need most at t.  Then the start-up cut,
        when the largest period-0 demand exceeds FEAS_TOL: every unit is
        off before the horizon, so sum_i min(SU_i, p_max_i) x_i0 >= d_0
        for the first scenario with that demand.  A cut that another makes
        redundant is left out (_tightest).  At the all-off commitment every
        such cut is violated, so the rays are verified there in one
        verify_rays call, each against its own scenario's dual objective,
        and their cuts written from one _cut_terms call.  The rays are one
        array, the capacity rays set by index arithmetic (_capacity_rays)
        and the start-up ray appended as the last row; the all-off
        commitment prices no unit-period multiplier, so each ray's
        objective is its scenario's demand and need rows followed by
        zeros.  The cuts' keys are Python ints and their coefficients and
        rhs Python floats (_feasibility_cuts).
        Raises NumericalFailureError when any ray fails verification.
        """
        instance, T = self.instance, self.instance.horizon
        periods = np.flatnonzero(self._need.max(axis=0) > FEAS_TOL)
        scenarios = self._need.argmax(axis=0)[periods]
        rays = _capacity_rays(instance, periods)
        if self._demand[:, 0].max() > FEAS_TOL:
            scenarios = np.append(scenarios, self._demand[:, 0].argmax())
            rays = np.concatenate([rays, _startup_ray(instance)[None]])
        if not len(rays):
            return []
        demand, need = self._demand[scenarios], self._need[scenarios]
        # the all-off commitment prices no unit-period multiplier
        c = np.zeros(rays.shape)
        c[:, :T], c[:, T:2 * T] = demand, need
        if not np.all(verify_rays(self._rows, "max", c, rays)):
            raise NumericalFailureError("closed-form ray failed self-verification")
        return _tightest(_feasibility_cuts(self._units, demand, need, rays))

    def evaluate(self, x):
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
        prices = _commitment_prices(self._units, x)
        objectives = _dual_objective(self._demand, self._need,
                                     np.broadcast_to(prices, (len(self._demand), prices.size)))
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
        cut = CutRow(coeffs=dict(zip(order.tolist(), (-agg_coef[order]).tolist())),
                     z_coeff=1.0, rhs=float(agg_const), sense=">=")
        return SubproblemResult(kind="optimal", cuts=[cut], value=float(total),
                                lp_calls=calls)


def ucp_solve(instance, config=None):
    """Convenience wrapper: bounds, oracles, and the decomposition loop,
    which also proves a capacity shortfall infeasible (see the module)."""
    return dd_bd_solve(UcpMasterOracle(instance, compute_gamma(instance)),
                       UcpSubproblemOracle(instance), config)
