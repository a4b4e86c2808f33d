"""Independent LP references and shared inputs for the solver tests.

Brute-force vertex enumeration works for LPs whose feasible region is
a polytope (finite box bounds or enough rows to bound it).  Every
choice of n constraints taken at equality is solved; feasible solutions
are candidate vertices.  Slow on purpose: this code must stay obviously
correct, it never shares logic with the simplex implementation it
checks.

build_subproblem_original is the indicator form of the unit-commitment
dispatch LP, the reference that the committed-only form is checked
against.  scaled_instance builds the low-demand inputs, and
two_binary_mip loads the worked two-binary MIP from its fixture.
reference_gamma is ddbd.ucp.compute_gamma's merit-order bounds written
as a loop over scenarios, periods and units, the reference for its
array form.
dual_rows_by_loop is ddbd.ucp._dual_rows written row by row, the
reference for its array-indexed form.  cut_pieces_by_terms is the
term-by-term form of one row of ddbd.ucp._cut_terms, and
optimality_cut_by_scenarios folds it into the dispatch optimality cut
one scenario at a time.  verify_certificate_with_bounds is the certificate
check as it was written for variables with lower and upper bounds, read
from lp.lo and lp.hi: the reference for the x >= 0 form in ddbd.simplex.
chain_rows splits one chained ddbd.simplex.solve call into the
single-objective LPs and outcomes it stands for.
REFERENCE_KERNEL holds the ddbd.simplex._Tableau methods pivot,
ratio_test, bland and read_optimal as they were written before their
numpy calls were cut: a dense np.outer update of the touched rows, a
ratio test that divides and loops even for one eligible row, a Bland
scan that masks `banned` always, and a read-off that reads x from the
basis on every optimal row.  Patched in, they must give the same pivots
and the same bytes.
"""

import dataclasses
import itertools
import pathlib

import numpy as np

from ddbd.mip import MipProblem
from ddbd.simplex import FEAS_TOL, OPT_TOL, PIV_TOL, LinearProgram, LpOutcome
from ddbd.ucp import COEF_EPS, build_subproblem, gen_random_instance

FEAS = 1e-7


def enumerate_vertices(lp):
    rows = []
    for i in range(lp.num_rows):
        rows.append((lp.A[i], lp.b[i]))
    for j in range(lp.num_vars):
        ej = np.zeros(lp.num_vars)
        ej[j] = 1.0
        if np.isfinite(lp.lo[j]):
            rows.append((ej, lp.lo[j]))
        if np.isfinite(lp.hi[j]):
            rows.append((ej.copy(), lp.hi[j]))
    n = lp.num_vars
    vertices = []
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if is_feasible(lp, x):
            vertices.append(x)
    return vertices


def is_feasible(lp, x, tol=FEAS):
    if np.any(x < lp.lo - tol) or np.any(x > lp.hi + tol):
        return False
    res = lp.A @ x - lp.b if lp.num_rows else np.zeros(0)
    for i, s in enumerate(lp.senses):
        if s == "<=" and res[i] > tol:
            return False
        if s == ">=" and res[i] < -tol:
            return False
        if s == "=" and abs(res[i]) > tol:
            return False
    return True


def best_vertex_value(lp):
    """Optimal value over vertices, or None when no vertex is feasible.

    Only meaningful when the feasible region is bounded (then it is a
    polytope: nonempty iff it has a vertex, and linear optima sit on
    vertices).
    """
    vertices = enumerate_vertices(lp)
    if not vertices:
        return None
    values = [float(lp.c @ v) for v in vertices]
    return max(values) if lp.sense == "max" else min(values)


def build_subproblem_original(instance, x, scenario):
    """Dispatch LP in the indicator form, with start/stop flags derived
    from consecutive commitments.  Only the ramp right-hand sides differ
    from the committed-only form of build_subproblem."""
    x = [float(v) for v in x]
    lp = build_subproblem(instance, x, scenario)
    rhs = lp.b.copy()
    k = 0

    def xv(i, j):
        return x[instance.var_index(i, j)] if j >= 0 else 0.0

    for i, gen in enumerate(instance.generators):
        for j in range(instance.horizon):
            start = max(xv(i, j) - xv(i, j - 1), 0.0)
            stop = max(xv(i, j - 1) - xv(i, j), 0.0)
            rhs[k] = gen.ramp_up * xv(i, j - 1) + gen.startup_ramp * start
            rhs[k + 1] = gen.ramp_down * xv(i, j) + gen.shutdown_ramp * stop
            k += 5
    return LinearProgram(sense="min", c=lp.c, A=lp.A.copy(), senses=lp.senses, b=rhs)


# (units, periods, scenarios, seed, demand-and-reserve factor)
LOW_DEMAND = [(2, 4, 2, 0, 0.4), (3, 3, 1, 0, 0.4), (2, 4, 2, 5, 0.5)]


def scaled_instance(n, horizon, scenarios, seed, factor):
    """Generated instance with every scenario's demand and reserve scaled."""
    inst = gen_random_instance(n, horizon, scenarios, seed)
    inst.scenarios = [
        dataclasses.replace(sc, demand=tuple(d * factor for d in sc.demand),
                            reserve=tuple(r * factor for r in sc.reserve))
        for sc in inst.scenarios]
    return inst.validate()


def reference_gamma(instance):
    """(lo, hi) of compute_gamma, summed one scenario, period and unit at a time."""
    merit = sorted(instance.generators, key=lambda g: g.c_prod)
    lo = 0.0
    for sc in instance.scenarios:
        for demand in sc.demand:
            need = demand
            for gen in merit:
                out = gen.p_max if gen.c_prod < 0 else min(gen.p_max, max(need, 0.0))
                lo += sc.prob * gen.c_prod * out
                need -= out
    hi = instance.horizon * sum(max(g.c_prod, 0.0) * g.p_max for g in instance.generators)
    return min(lo, hi), hi


def two_binary_mip():
    """The 2-binary / 2-continuous worked instance used across the tests.

    max x1 + x2 + 2 y1 + y2  with  x1 + x2 >= 1,  y1 + y2 >= x1 + x2,
    0.3 y1 + 0.7 y2 <= 0.1 x1 + 0.3,  x binary, y >= 0, z_bounds [-10, 10].
    """
    path = pathlib.Path(__file__).parent / "fixtures" / "two_binary_mip.json"
    return MipProblem.from_json(path.read_text())


def dual_rows_by_loop(instance):
    """Constraint matrix, senses and rhs of the dual dispatch LP, one
    row at a time: each unit-period's production row, then its headroom row."""
    n, T = instance.num_units, instance.horizon
    nT = n * T
    PSI, BETA = 0, T
    PHI, PI = 2 * T, 2 * T + nT
    GAM, DEL, ETA = 2 * T + 2 * nT, 2 * T + 3 * nT, 2 * T + 4 * nT
    nv = 2 * T + 5 * nT
    rows, senses, rhs = [], [], []
    for i, gen in enumerate(instance.generators):
        for j in range(T):
            k = i * T + j
            r = np.zeros(nv)   # production column
            r[PSI + j] = 1.0
            r[GAM + k] = -1.0
            if j + 1 < T:
                r[GAM + k + 1] = 1.0
            r[DEL + k] = 1.0
            if j + 1 < T:
                r[DEL + k + 1] = -1.0
            r[PHI + k] = 1.0
            r[ETA + k] = -1.0
            rows.append(r)
            senses.append("<=")
            rhs.append(gen.c_prod)
            r = np.zeros(nv)   # headroom column
            r[BETA + j] = 1.0
            r[ETA + k] = 1.0
            r[PI + k] = -1.0
            rows.append(r)
            senses.append("<=")
            rhs.append(0.0)
    return np.array(rows), senses, np.array(rhs)


def cut_pieces_by_terms(instance, scenario, values):
    """ddbd.ucp._cut_terms on one row, as a loop over the terms, one dict update each:
    the reference for the vectorised version."""
    n, T = instance.num_units, instance.horizon
    nT = n * T
    PSI, BETA = 0, T
    PHI, PI = 2 * T, 2 * T + nT
    GAM, DEL = 2 * T + 2 * nT, 2 * T + 3 * nT
    const = 0.0
    for j in range(T):
        const += scenario.demand[j] * values[PSI + j]
        const += (scenario.demand[j] + scenario.reserve[j]) * values[BETA + j]
    coef = {}

    def bump(i, j, v):
        if j < 0 or abs(v) <= COEF_EPS:
            return
        k = instance.var_index(i, j)
        coef[k] = coef.get(k, 0.0) + v

    for i, gen in enumerate(instance.generators):
        for j in range(T):
            k = i * T + j
            bump(i, j, gen.p_min * values[PHI + k] - gen.p_max * values[PI + k])
            bump(i, j - 1, (gen.startup_ramp - gen.ramp_up) * values[GAM + k])
            bump(i, j, -gen.startup_ramp * values[GAM + k])
            bump(i, j, (gen.shutdown_ramp - gen.ramp_down) * values[DEL + k])
            bump(i, j - 1, -gen.shutdown_ramp * values[DEL + k])
    return const, coef


def optimality_cut_by_scenarios(instance, duals, objectives):
    """The dispatch optimality cut at the scenarios' optimal duals and
    objectives, summed one scenario at a time as a loop of +=, with the
    coefficients in a dict in the order their indices first appear.
    Returns (coefficient items, rhs, expected value)."""
    total, rhs, coef = 0.0, 0.0, {}
    for sc, y, objective in zip(instance.scenarios, duals, objectives):
        const, pieces = cut_pieces_by_terms(instance, sc, y)
        total += sc.prob * objective
        rhs += sc.prob * const
        for k in sorted(pieces):
            coef[k] = coef.get(k, 0.0) + sc.prob * pieces[k]
    return [(k, -v) for k, v in coef.items() if abs(v) > COEF_EPS], rhs, total


def verify_certificate_with_bounds(lp, outcome):
    """ddbd.simplex.verify_certificate as written for bounded variables."""
    if outcome.status == "optimal":
        return _verify_optimal(lp, outcome)
    if outcome.status == "infeasible":
        return _verify_farkas(lp, outcome.farkas)
    if outcome.status == "unbounded":
        return _verify_ray(lp, outcome.ray)
    return False


def _rows_hold(lp, res):
    return not (np.any(lp._le & (res > FEAS_TOL)) or np.any(lp._ge & (res < -FEAS_TOL))
                or np.any(lp._eq & (np.abs(res) > FEAS_TOL)))


def _verify_optimal(lp, out):
    x = out.x
    if x is None or x.size != lp.num_vars or not np.all(np.isfinite(x)):
        return False
    if np.any(x < lp.lo - FEAS_TOL) or np.any(x > lp.hi + FEAS_TOL):
        return False
    res = lp.A @ x - lp.b if lp.num_rows else np.zeros(0)
    if not _rows_hold(lp, res):
        return False
    y = out.duals
    if y is None or y.size != lp.num_rows:
        return False
    sign = 1.0 if lp.sense == "min" else -1.0
    scale = 1.0 + float(np.max(np.abs(lp.c))) if lp.c.size else 1.0
    if np.any(lp._le & (sign * y > FEAS_TOL * scale)) or \
            np.any(lp._ge & (sign * y < -FEAS_TOL * scale)):
        return False
    if np.any(~lp._eq & (np.abs(y) > FEAS_TOL * scale)
              & (np.abs(res) > 1e-5 * (1.0 + np.abs(lp.b)))):
        return False
    rc = lp.c - (lp.A.T @ y if lp.num_rows else 0.0)
    # claimed values are checked with `<=`, which a NaN fails
    if out.reduced_costs is not None and \
            not np.max(np.abs(rc - out.reduced_costs)) <= 1e-6 * scale:
        return False
    r = sign * rc
    at_lo = r > FEAS_TOL * scale
    at_hi = r < -FEAS_TOL * scale
    if np.any(at_lo & ~(np.isfinite(lp.lo) & (x <= lp.lo + 1e-6))) or \
            np.any(at_hi & ~(np.isfinite(lp.hi) & (x >= lp.hi - 1e-6))):
        return False
    dual_obj = float(y @ lp.b) if lp.num_rows else 0.0
    dual_obj += float(rc[at_lo] @ lp.lo[at_lo] + rc[at_hi] @ lp.hi[at_hi])
    obj = float(lp.c @ x)
    if not abs(obj - out.objective) <= 1e-6 * (1.0 + abs(obj)):
        return False
    return abs(obj - dual_obj) <= 1e-6 * (1.0 + abs(obj))


def _verify_farkas(lp, f):
    if f is None or f.size != lp.num_rows:
        return False
    orient = np.where(lp._ge | lp._eq, 1.0, -1.0)
    peak = float(np.max(np.abs(f))) if f.size else 0.0
    if peak <= 0.0:
        return False
    if np.any(~lp._eq & (f < -FEAS_TOL * (1.0 + peak))):
        return False
    w = (orient * f) @ lp.A
    r = float((orient * f) @ lp.b)
    wtol = 1e-9 * peak * (1.0 + float(np.max(np.abs(lp.A))) if lp.num_rows else 1.0)
    up, down = w > wtol, w < -wtol
    if not (np.all(np.isfinite(lp.hi[up])) and np.all(np.isfinite(lp.lo[down]))):
        return False
    best = float(w[up] @ lp.hi[up] + w[down] @ lp.lo[down])
    return r - best > FEAS_TOL * (1.0 + abs(r))


def _verify_ray(lp, d):
    if d is None or d.size != lp.num_vars or not np.all(np.isfinite(d)):
        return False
    if np.max(np.abs(d)) <= FEAS_TOL:
        return False
    res = lp.A @ d if lp.num_rows else np.zeros(0)
    if not _rows_hold(lp, res):
        return False
    if np.any(np.isfinite(lp.lo) & (d < -FEAS_TOL)) or \
            np.any(np.isfinite(lp.hi) & (d > FEAS_TOL)):
        return False
    gain = float(lp.c @ d)
    return gain > FEAS_TOL if lp.sense == "max" else gain < -FEAS_TOL


# the outcome fields each status has
STATUS_FIELDS = {"optimal": ("x", "duals", "reduced_costs", "objective"),
                 "unbounded": ("ray",), "infeasible": ("farkas",)}


def chain_rows(lp, out):
    """A chained LP (c of shape (S, n)) and its outcome as one (LP,
    outcome) pair per objective.  Row s's LP has objective c[s] and
    secondary[s] over lp's rows, and starts from lp's start and basis at
    row 0 and from row s - 1's outcome after it; its outcome holds row s
    of each field its status has, as solve returns them for one LP."""
    pairs, start, basis = [], lp.start, lp.basis
    for s, status in enumerate(out.statuses):
        row = dataclasses.replace(lp, c=lp.c[s], start=start, basis=basis,
                                  secondary=None if lp.secondary is None else lp.secondary[s])
        fields = {name: getattr(out, name)[s] for name in STATUS_FIELDS[status]}
        if status == "optimal":
            fields["objective"] = float(fields["objective"])
        start, basis = LpOutcome(status=status, pivots=int(out.pivots[s]), **fields), None
        pairs.append((row, start))
    return pairs


def reference_pivot(self, rowi, colj):
    """_Tableau.pivot: the touched rows less np.outer(col, pivot row)."""
    T = self.T
    self.pivots += 1
    T[rowi] = T[rowi] / T[rowi, colj]
    col = T[:, colj].copy()
    col[rowi] = 0.0
    nz = np.flatnonzero(col)
    T[nz] -= np.outer(col[nz], T[rowi])
    T[:, colj] = 0.0
    T[rowi, colj] = 1.0
    self.basis[rowi] = colj


def reference_ratio_test(self, entering):
    """_Tableau.ratio_test: every eligible row's ratio, scanned in row order."""
    T, basis = self.T, self.basis
    col = T[:, entering]
    eligible = np.flatnonzero(col > PIV_TOL)
    best_ratio, leave = None, -1
    for i, ratio in zip(eligible.tolist(), (T[eligible, -1] / col[eligible]).tolist()):
        if best_ratio is None or ratio < best_ratio - 1e-12 or \
                (abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leave]):
            best_ratio, leave = ratio, i
    return leave


def reference_bland(self, red, banned):
    """_Tableau.bland, masking `banned` even when it is empty."""
    improving = red < -OPT_TOL
    improving[self.basis] = False
    improving[banned] = False
    for entering in np.flatnonzero(improving).tolist():
        leave = self.ratio_test(entering)
        if leave >= 0:
            return entering, leave
        if -red[entering] > FEAS_TOL * np.max(
                np.abs(self.ray_along(entering)[:self.n]), initial=0.0):
            return entering, -1
    return -1, -1


def reference_read_optimal(self, cost, x=None):
    """_Tableau.read_optimal, reading x from the basis whether or not it is given."""
    values = np.zeros(self.T.shape[1] - 1)
    values[self.basis] = self.T[:, -1]
    return values[:self.n] + 0.0, cost[self.basis] @ self.T[:, self.reader] * self.flip


REFERENCE_KERNEL = {"pivot": reference_pivot, "ratio_test": reference_ratio_test,
                    "bland": reference_bland, "read_optimal": reference_read_optimal}
