"""Independent LP references and shared inputs for the solver tests.

Brute-force vertex enumeration works for LPs whose feasible region is
a polytope (finite box bounds or enough rows to bound it).  Every
choice of n constraints taken at equality is solved; feasible solutions
are candidate vertices.  Slow on purpose: this code must stay obviously
correct, it never shares logic with the simplex implementation it
checks.

build_subproblem_original is the indicator form of the unit-commitment
dispatch LP, the reference that the committed-only form is checked
against.  scaled_instance builds the low-demand inputs.
cut_pieces_by_terms is the term-by-term form of ddbd.ucp._cut_pieces.
"""

import dataclasses
import itertools

import numpy as np

from ddbd.simplex import LinearProgram
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


def cut_pieces_by_terms(instance, scenario, values):
    """ddbd.ucp._cut_pieces as a loop over the terms, one dict update each:
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
