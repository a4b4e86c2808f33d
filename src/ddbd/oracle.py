"""Reference solvers for the unit-commitment application.

Both answer with the engine's SolveReport, as ucp_solve does.
brute_force_solve enumerates every commitment and hands its dispatch LPs
to scipy/HiGHS, not the in-house simplex, with no pruning: the ground
truth the decomposition solver is tested against.  naive_bd_solve is the
classical decomposition: the engine's loop and subproblem oracle (whose
LPs go to the in-house simplex) over a master that enumerates every
commitment in place of the decision diagram.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from .diagram import CUT_TOL, PATH_TIE_TOL
from .engine import MasterOracle, SolveReport, dd_bd_solve
from .ucp import (
    UcpSubproblemOracle,
    build_subproblem,
    compute_gamma,
    master_cost,
)

ENUMERATION_CAP = 24  # commitment bits


class TooLargeError(Exception):
    pass


def scipy_lp_min(lp):
    """Minimise one of our LinearProgram objects, over x >= 0 as every
    LP is, with scipy's HiGHS.

    Returns (status, value) with status in optimal/infeasible/unbounded.
    scipy is imported here, so only the brute force loads it.
    """
    from scipy.optimize import linprog

    if lp.sense != "min":
        raise ValueError("reference route only minimises")
    # >= rows negated into A_ub, which keeps every inequality in its order
    sign = np.where(lp.rows.ge, -1.0, 1.0)
    a, b, eq = sign[:, None] * lp.A, sign * lp.b, lp.rows.eq
    res = linprog(lp.c, A_ub=a[~eq], b_ub=b[~eq], A_eq=a[eq], b_eq=b[eq],
                  bounds=(0, None), method="highs")
    if res.status == 0:
        return "optimal", float(res.fun)
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    raise RuntimeError(f"reference LP solve failed: {res.message}")


def unit_schedules(gen, horizon):
    """Feasible on/off sequences for one unit starting from the off state.

    Start/stop flags are implied by consecutive commitments; a window of
    `min_up` periods after a start must stay on, and symmetrically for
    stops.
    """
    out = []
    for bits in itertools.product((0, 1), repeat=horizon):
        starts = [max(b - p, 0) for p, b in zip((0,) + bits, bits)]
        stops = [max(p - b, 0) for p, b in zip((0,) + bits, bits)]
        ok = True
        for j in range(gen.min_up - 1, horizon):
            if sum(starts[j - gen.min_up + 1:j + 1]) > bits[j]:
                ok = False
                break
        if ok:
            for j in range(gen.min_down - 1, horizon):
                if sum(stops[j - gen.min_down + 1:j + 1]) > 1 - bits[j]:
                    ok = False
                    break
        if ok:
            out.append(bits)
    return out


def feasible_assignments(instance):
    """All commitments satisfying the scheduling rules, unit-major order."""
    per_unit = [unit_schedules(gen, instance.horizon)
                for gen in instance.generators]
    return [tuple(itertools.chain.from_iterable(combo))
            for combo in itertools.product(*per_unit)]


def stage2_expected_cost(instance, x):
    """Probability-weighted dispatch cost, or None when any scenario fails."""
    total = 0.0
    for sc in instance.scenarios:
        status, value = scipy_lp_min(build_subproblem(instance, x, sc))
        if status != "optimal":
            return None
        total += sc.prob * value
    return total


def brute_force_solve(instance):
    """Exact optimum by enumerating every feasible commitment; on ties
    within 1e-12 the smaller x wins."""
    if instance.num_vars > ENUMERATION_CAP:
        raise TooLargeError(f"{instance.num_vars} commitment bits exceed the "
                            f"enumeration cap of {ENUMERATION_CAP}")
    t0 = time.perf_counter()
    report = SolveReport(status="infeasible")
    for x in feasible_assignments(instance):
        stage2 = stage2_expected_cost(instance, x)
        if stage2 is None:
            continue
        cost = master_cost(instance, x) + stage2
        if report.value is None or cost < report.value - 1e-12 or \
                (abs(cost - report.value) <= 1e-12 and x < report.x):
            report = SolveReport(status="optimal", x=x, z=stage2, value=cost)
    report.wall_time = time.perf_counter() - t0
    return report


class EnumeratedMaster(MasterOracle):
    """A unit-commitment master that scans every feasible commitment,
    listed once in increasing x with its first-stage cost, under the pool
    as the label pass (diagram._best_completion) reads it: z starts at
    gamma.lo, each optimality cut raises it, a point whose z tops gamma.hi
    by more than CUT_TOL goes and z is capped there; of the points within
    PATH_TIE_TOL of the cheapest w = cost + z, the first wins."""

    sense = "min"

    def __init__(self, instance, gamma):
        self.gamma = gamma
        self._x = feasible_assignments(instance)
        self._points = np.array(self._x, dtype=float).reshape(len(self._x), instance.num_vars)
        self._cost = np.array([master_cost(instance, x) for x in self._x])

    def best_point(self, cuts):
        points, lo, hi = self._points, self.gamma.lo, self.gamma.hi
        keep = np.ones(len(points), dtype=bool)
        z = np.full(len(points), lo)
        for cut in cuts:
            lhs = points @ cut.dense(points.shape[1])
            if cut.z_coeff == 0.0:
                keep &= cut.satisfied(lhs)
            else:
                z = np.maximum(z, (cut.rhs - lhs) / cut.z_coeff)
        keep &= z <= hi + CUT_TOL
        if not keep.any():
            return None
        z = np.minimum(z, hi)
        w = np.where(keep, self._cost + z, np.inf)
        best = w.min()
        i = int(np.argmax(w <= best + PATH_TIE_TOL * (1.0 + abs(best))))
        return self._x[i], float(z[i]), float(w[i])


def naive_bd_solve(instance):
    """Classical decomposition: dd_bd_solve over EnumeratedMaster, a
    mid-weight cross-check between brute force and the diagram solver."""
    if instance.num_vars > ENUMERATION_CAP:
        raise TooLargeError("master enumeration too large")
    return dd_bd_solve(EnumeratedMaster(instance, compute_gamma(instance)),
                       UcpSubproblemOracle(instance))
