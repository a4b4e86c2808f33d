"""Brute-force reference solvers for the unit-commitment application.

Everything here trades speed for being obviously correct: commitments
are enumerated outright, dispatch LPs are handed to an off-the-shelf
solver (scipy/HiGHS) rather than to the in-house simplex, and no
pruning is attempted.  These results are the ground truth the
decomposition solver is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .ucp import (
    InfeasibleInstanceError,
    UcpSubproblemOracle,
    build_subproblem,
    compute_gamma,
    evaluate_subproblems,
    master_cost,
)

ENUMERATION_CAP = 24  # commitment bits


class TooLargeError(Exception):
    pass


@dataclass
class OracleResult:
    best_x: tuple = None
    best_cost: float = None
    table: dict = field(default_factory=dict)  # x -> (feasible, total cost or None)

    @property
    def status(self):
        return "optimal" if self.best_x is not None else "infeasible"


def scipy_lp_min(lp):
    """Minimise one of our LinearProgram objects with scipy's HiGHS.

    Returns (status, value) with status in optimal/infeasible/unbounded.
    """
    if lp.sense != "min":
        raise ValueError("reference route only minimises")
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for i, s in enumerate(lp.senses):
        if s == "<=":
            a_ub.append(lp.A[i])
            b_ub.append(lp.b[i])
        elif s == ">=":
            a_ub.append(-lp.A[i])
            b_ub.append(-lp.b[i])
        else:
            a_eq.append(lp.A[i])
            b_eq.append(lp.b[i])
    bounds = [(l if np.isfinite(l) else None, h if np.isfinite(h) else None)
              for l, h in zip(lp.lo, lp.hi)]
    res = linprog(lp.c,
                  A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(a_eq) if a_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None,
                  bounds=bounds, method="highs")
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
    """Exact optimum by enumerating every feasible commitment."""
    if instance.num_vars > ENUMERATION_CAP:
        raise TooLargeError(f"{instance.num_vars} commitment bits exceed the "
                            f"enumeration cap of {ENUMERATION_CAP}")
    result = OracleResult()
    for x in feasible_assignments(instance):
        stage2 = stage2_expected_cost(instance, x)
        if stage2 is None:
            result.table[x] = (False, None)
            continue
        cost = master_cost(instance, x) + stage2
        result.table[x] = (True, cost)
        if result.best_cost is None or cost < result.best_cost - 1e-12 or \
                (abs(cost - result.best_cost) <= 1e-12 and x < result.best_x):
            result.best_cost = cost
            result.best_x = x
    return result


def dump_table_csv(result, path):
    with open(path, "w") as fh:
        fh.write("assignment,feasible,cost\n")
        for x in sorted(result.table):
            feasible, cost = result.table[x]
            bits = "".join(str(int(v)) for v in x)
            fh.write(f"{bits},{int(feasible)},"
                     f"{'' if cost is None else f'{cost:.9g}'}\n")


@dataclass
class NaiveBdResult:
    status: str
    best_x: tuple = None
    value: float = None
    feasibility_cuts: int = 0
    optimality_cuts: int = 0


def naive_bd_solve(instance, max_iterations=10_000):
    """Classical decomposition with the master solved by enumeration.

    Shares the cut machinery with the diagram solver, the seeded
    closed-form cuts of UcpSubproblemOracle.initial_cuts() included, but
    replaces the diagram master by a scan over all feasible commitments,
    making it a mid-weight cross-check between brute force and the real
    solver.
    """
    if instance.num_vars > ENUMERATION_CAP:
        raise TooLargeError("master enumeration too large")
    try:
        gamma = compute_gamma(instance)
    except InfeasibleInstanceError:
        return NaiveBdResult(status="infeasible")
    candidates = feasible_assignments(instance)
    feas_cuts, opt_cuts = UcpSubproblemOracle(instance).initial_cuts(), []
    seen = {cut.key() for cut in feas_cuts}

    def master_value(x):
        for cut in feas_cuts:
            lhs = sum(c * x[k] for k, c in cut.coeffs.items())
            if not cut.satisfied(lhs):
                return None
        z = gamma.lo
        for cut in opt_cuts:
            bound = cut.rhs - sum(c * x[k] for k, c in cut.coeffs.items())
            z = max(z, bound / cut.z_coeff)
        return master_cost(instance, x) + z, z

    for _ in range(max_iterations):
        best = None
        for x in candidates:
            got = master_value(x)
            if got is None:
                continue
            value, z = got
            if best is None or value < best[0] - 1e-12 or \
                    (abs(value - best[0]) <= 1e-12 and x < best[1]):
                best = (value, x, z)
        if best is None:
            return NaiveBdResult(status="infeasible",
                                 feasibility_cuts=len(feas_cuts),
                                 optimality_cuts=len(opt_cuts))
        value, x, z = best
        res = evaluate_subproblems(instance, x)
        for cut in res.cuts:
            key = cut.key()
            if key in seen:
                continue
            seen.add(key)
            (feas_cuts if cut.kind == "feasibility" else opt_cuts).append(cut)
        if res.kind == "optimal" and res.value <= z + 1e-6:
            return NaiveBdResult(status="optimal", best_x=x, value=value,
                                 feasibility_cuts=len(feas_cuts),
                                 optimality_cuts=len(opt_cuts))
    raise RuntimeError("classical decomposition failed to converge")
