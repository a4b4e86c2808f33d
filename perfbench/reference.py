"""Reference optima for the benchmark instances, and the answer check.

No reference value passes through ddbd's simplex.  Each optimum comes
from an extensive-form MILP solved by scipy's HiGHS, and where the
commitment fits ``ENUMERATION_CAP`` also from an enumeration of every
feasible commitment, each re-priced with scipy.  The two must agree.
The enumeration visits commitments in order of first-stage cost plus a
merit-order lower bound on the dispatch cost (ramps, minimum output and
reserve dropped), and stops once that bound reaches the best cost
found, so it is exact.

At run time an answer is checked by re-pricing the reported commitment
with ``master_cost`` plus ``stage2_expected_cost`` (HiGHS) and
comparing it with the stored optimum.

Regenerate ``reference.json`` from the repository root with

    PYTHONPATH=src python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
REL_TOL = 1e-6


class StaleReferenceError(Exception):
    """The generated instance no longer matches the stored reference."""


def fingerprint(instance):
    return hashlib.sha256(instance.to_json().encode()).hexdigest()[:16]


def load():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["instances"]


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def check(instance, report, ref):
    """None when the report matches the reference, else the reason."""
    # ddbd.oracle imports scipy; it is loaded only after the timed passes
    # so that it does not count in peak_rss_mb
    from ddbd.oracle import stage2_expected_cost, unit_schedules
    from ddbd.ucp import master_cost

    if ref is None or ref["fingerprint"] != fingerprint(instance):
        raise StaleReferenceError(
            "instance differs from the one the reference was computed for; "
            "regenerate perfbench/reference.json")
    if report.status != ref["status"]:
        return f"status {report.status}, reference {ref['status']}"
    if ref["status"] != "optimal":
        return None
    x = tuple(int(round(v)) for v in report.x)
    if any(abs(v - r) > 1e-9 for v, r in zip(report.x, x)):
        return "reported commitment is not binary"
    T = instance.horizon
    for i, gen in enumerate(instance.generators):
        if x[i * T:(i + 1) * T] not in set(unit_schedules(gen, T)):
            return f"unit {i} breaks its minimum up/down times"
    stage2 = stage2_expected_cost(instance, x)
    if stage2 is None:
        return "reported commitment cannot be dispatched"
    cost = master_cost(instance, x) + stage2
    if not _close(cost, ref["value"]):
        return f"re-priced cost {cost:.9g}, reference {ref['value']:.9g}"
    if not _close(report.value, ref["value"]):
        return f"reported value {report.value:.9g}, reference {ref['value']:.9g}"
    return None


# -- computing the references ---------------------------------------------------------


def _affine_rhs(instance, scenario):
    """Dispatch LP rows as A p (sense) b0 + B x; build_subproblem's rhs is affine in x."""
    from ddbd.ucp import build_subproblem

    nT = instance.num_vars
    base = build_subproblem(instance, [0.0] * nT, scenario)
    B = np.empty((base.num_rows, nT))
    for k in range(nT):
        e = [0.0] * nT
        e[k] = 1.0
        B[:, k] = build_subproblem(instance, e, scenario).b - base.b
    return base, B


def milp_optimum(instance):
    """(x, objective) of the extensive form, or None when infeasible."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    n, T = instance.num_units, instance.horizon
    nT = n * T
    X, U, W, S = 0, nT, 2 * nT, 3 * nT          # on, start, stop, start-up cost
    lps = [_affine_rhs(instance, sc) for sc in instance.scenarios]
    npv = lps[0][0].num_vars
    nv = 4 * nT + npv * len(lps)
    cost = np.zeros(nv)
    lo = np.zeros(nv)
    hi = np.full(nv, np.inf)
    hi[:3 * nT] = 1.0
    integrality = np.zeros(nv)
    integrality[:3 * nT] = 1
    rows, rlo, rhi = [], [], []

    def row(coefs, lb, ub):
        rows.append(coefs)
        rlo.append(lb)
        rhi.append(ub)

    for i, gen in enumerate(instance.generators):
        for j in range(T):
            k = i * T + j
            cost[X + k] = gen.c_fixed
            cost[S + k] = 1.0
            link = {X + k: 1.0, U + k: -1.0, W + k: 1.0}
            if j > 0:
                link[X + k - 1] = -1.0
            row(link, 0.0, 0.0)
            row({U + k: 1.0, W + k: 1.0}, -np.inf, 1.0)
            # start-up cost: table entry t when down for t periods, K_inf if never up
            steps = list(enumerate(gen.startup_costs, 1)) + [(j + 1, gen.startup_cost_inf)]
            for t, price in steps:
                r = {X + k: price, S + k: -1.0}
                for back in range(1, min(t, j) + 1):
                    r[X + k - back] = -price
                row(r, -np.inf, 0.0)
        for j in range(gen.min_up - 1, T):
            r = {U + i * T + jj: 1.0 for jj in range(j - gen.min_up + 1, j + 1)}
            r[X + i * T + j] = -1.0
            row(r, -np.inf, 0.0)
        for j in range(gen.min_down - 1, T):
            r = {W + i * T + jj: 1.0 for jj in range(j - gen.min_down + 1, j + 1)}
            r[X + i * T + j] = 1.0
            row(r, -np.inf, 1.0)
    dense = []
    for s, (sc, (lp, B)) in enumerate(zip(instance.scenarios, lps)):
        off = 4 * nT + s * npv
        cost[off:off + npv] = sc.prob * lp.c
        lo[off:off + npv] = lp.lo
        hi[off:off + npv] = lp.hi
        for r in range(lp.num_rows):
            dense.append((off, lp.A[r], B[r]))
            b = lp.b[r]
            sense = lp.senses[r]
            rlo.append(-np.inf if sense == "<=" else b)
            rhi.append(np.inf if sense == ">=" else b)
    A = lil_matrix((len(rows) + len(dense), nv))
    for r, coefs in enumerate(rows):
        for c, v in coefs.items():
            A[r, c] = v
    for r, (off, a, b) in enumerate(dense, len(rows)):
        A[r, off:off + npv] = a
        A[r, X:X + nT] = -b
    res = milp(cost, constraints=LinearConstraint(A.tocsr(), rlo, rhi),
               integrality=integrality, bounds=Bounds(lo, hi),
               options={"mip_rel_gap": 1e-9})
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"reference MILP failed: {res.message}")
    return tuple(int(round(v)) for v in res.x[:nT]), float(res.fun)


def enumerated_optimum(instance):
    """(x, cost) by bound-ordered enumeration of every feasible commitment."""
    from ddbd.oracle import stage2_expected_cost, unit_schedules
    from ddbd.ucp import UcpInstance, master_cost

    T = instance.horizon
    gens = instance.generators
    scheds = [np.array(unit_schedules(g, T), dtype=float) for g in gens]
    unit_cost = [np.array([master_cost(UcpInstance([g], T, instance.scenarios), s)
                           for s in sch]) for g, sch in zip(gens, scheds)]
    idx = np.stack([a.ravel() for a in
                    np.meshgrid(*[np.arange(len(s)) for s in scheds], indexing="ij")],
                   axis=1)
    first = sum(unit_cost[i][idx[:, i]] for i in range(len(gens)))
    need = np.max([np.add(sc.demand, sc.reserve) for sc in instance.scenarios], axis=0)
    cap = sum(g.p_max * scheds[i][idx[:, i]] for i, g in enumerate(gens))
    ok = np.all(cap >= need - 1e-9, axis=1)
    idx, first = idx[ok], first[ok]
    bound = np.zeros(len(idx))
    for sc in instance.scenarios:
        for j in range(T):
            left = np.full(len(idx), sc.demand[j])
            for i in sorted(range(len(gens)), key=lambda i: gens[i].c_prod):
                take = np.minimum(gens[i].p_max * scheds[i][idx[:, i], j], left)
                bound += sc.prob * gens[i].c_prod * take
                left -= take
    key = first + bound
    best = None
    for r in np.argsort(key, kind="stable"):
        if best is not None and key[r] >= best[1] * (1 - 1e-12):
            break
        x = tuple(int(v) for v in np.concatenate(
            [scheds[i][idx[r, i]] for i in range(len(gens))]))
        stage2 = stage2_expected_cost(instance, x)
        if stage2 is None:
            continue
        total = master_cost(instance, x) + stage2
        if best is None or total < best[1]:
            best = (x, total)
    return best


def reference_entry(instance):
    from ddbd.oracle import ENUMERATION_CAP, stage2_expected_cost
    from ddbd.ucp import master_cost

    entry = {"fingerprint": fingerprint(instance), "status": "infeasible",
             "value": None, "x": None, "methods": ["milp"]}
    found = milp_optimum(instance)
    if found is not None:
        x, fun = found
        value = master_cost(instance, x) + stage2_expected_cost(instance, x)
        if not _close(value, fun):
            raise RuntimeError(f"MILP objective {fun} but re-priced {value}")
        entry.update(status="optimal", value=value, x=list(x))
    if instance.num_vars <= ENUMERATION_CAP:
        enum = enumerated_optimum(instance)
        got = None if enum is None else enum[1]
        if (got is None) != (entry["value"] is None) or \
                (got is not None and not _close(got, entry["value"])):
            raise RuntimeError(f"enumeration {got} disagrees with MILP {entry['value']}")
        entry["methods"].append("enumeration")
    return entry


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    from workloads import WORKLOADS, make_instance

    out = {}
    for wl in WORKLOADS.values():
        for spec in wl.specs:
            out[spec.id] = reference_entry(make_instance(spec))
            e = out[spec.id]
            print(spec.id, e["status"], e["value"], "+".join(e["methods"]), flush=True)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump({"note": "regenerate with: PYTHONPATH=src python3 perfbench/reference.py",
                   "instances": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
