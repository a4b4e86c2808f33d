"""Benders oracles for small bounded mixed-integer linear programs.

A problem is max/min a.x + b.y subject to rows over (x, y), with x
integer over finite domains and y >= 0 continuous.  Rows touching only
x become master constraints; the rest form the slave LP whose dual
yields the cuts.  The master diagram enumerates the x domain, so this
adapter is meant for desk-size problems and for exercising the engine
against hand-checked cases.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .diagram import CutRow, InfeasibleDiagramError, append_value_layer, from_paths
from .engine import MasterOracle, SubproblemOracle, SubproblemResult, replay_cuts
from .simplex import LinearProgram, solve

COEF_EPS = 1e-12


@dataclass
class MipProblem:
    sense: str                      # "max" or "min"
    x_obj: list                     # objective coefficients on x
    y_obj: list                     # objective coefficients on y
    rows: list                      # (ax: list, by: list, sense, rhs)
    x_domains: list                 # finite label lists per x variable
    z_bounds: tuple                 # valid bounds on the subproblem value

    def master_rows(self):
        return [r for r in self.rows if all(abs(v) <= COEF_EPS for v in r[1])]

    def slave_rows(self):
        return [r for r in self.rows if any(abs(v) > COEF_EPS for v in r[1])]

    @staticmethod
    def from_json(text):
        doc = json.loads(text)
        if doc.get("version") != 1:
            raise ValueError("unsupported problem schema version")
        rows = [(r["ax"], r["by"], r["sense"], float(r["rhs"])) for r in doc["rows"]]
        return MipProblem(sense=doc["sense"], x_obj=doc["x_obj"], y_obj=doc["y_obj"],
                          rows=rows, x_domains=doc["x_domains"],
                          z_bounds=tuple(doc["z_bounds"]))

    def to_json(self):
        doc = {
            "version": 1,
            "sense": self.sense,
            "x_obj": list(self.x_obj),
            "y_obj": list(self.y_obj),
            "rows": [{"ax": list(ax), "by": list(by), "sense": s, "rhs": rhs}
                     for ax, by, s, rhs in self.rows],
            "x_domains": [list(d) for d in self.x_domains],
            "z_bounds": list(self.z_bounds),
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _row_holds(ax, sense, rhs, x, tol=1e-9):
    lhs = float(np.dot(ax, x))
    if sense == "<=":
        return lhs <= rhs + tol
    if sense == ">=":
        return lhs >= rhs - tol
    return abs(lhs - rhs) <= tol

class MipMasterOracle(MasterOracle):
    """Exact enumeration of the x domain as a diagram; width is ignored.

    Restricted and relaxed diagrams coincide with the exact one, so the
    engine takes the exact-node shortcut and never branches.
    """

    def __init__(self, problem):
        self.problem = problem
        self.sense = problem.sense
        self._masters = problem.master_rows()

    def _feasible_points(self, partial):
        pts = []
        for x in itertools.product(*self.problem.x_domains):
            if any(abs(x[i] - v) > 1e-9 for i, v in enumerate(partial)):
                continue
            if all(_row_holds(ax, s, rhs, x) for ax, _, s, rhs in self._masters):
                pts.append(tuple(float(v) for v in x))
        return pts

    def build_exact_dd(self, partial, cuts):
        pts = self._feasible_points(partial)
        if not pts:
            return None
        coeffs = self.problem.x_obj
        dd = from_paths(pts, weight_fn=lambda j, lab: coeffs[j] * lab)
        dd = append_value_layer(dd, *self.problem.z_bounds)
        try:
            return replay_cuts(dd, cuts)
        except InfeasibleDiagramError:
            return None

    def build_restricted_dd(self, partial, cuts, width):
        return self.build_exact_dd(partial, cuts), True

    def build_relaxed_dd(self, partial, cuts, width):
        return self.build_exact_dd(partial, cuts)


class MipSubproblemOracle(SubproblemOracle):
    """Dual-form slave LP; optimal points give value cuts, rays give
    feasibility cuts.

    Only the dual's objective depends on x, so each LP starts phase 2 from
    the final basis of the one before, the only state carried between
    LPs (see UcpSubproblemOracle).
    """

    def __init__(self, problem):
        if problem.sense != "max":
            raise ValueError("the generic adapter currently covers max problems")
        self.problem = problem
        rows = problem.slave_rows()
        # normalise slave rows to  B y <= c - A x  (flip >= rows)
        self.A = []
        self.B = []
        self.c = []
        for ax, by, s, rhs in rows:
            if s == "=":
                variants = [(1.0,), (-1.0,)]
            elif s == "<=":
                variants = [(1.0,)]
            else:
                variants = [(-1.0,)]
            for (sgn,) in variants:
                self.A.append([sgn * v for v in ax])
                self.B.append([sgn * v for v in by])
                self.c.append(sgn * rhs)
        self.A = np.array(self.A, dtype=float)
        self.B = np.array(self.B, dtype=float)
        self.c = np.array(self.c, dtype=float)
        self.b_obj = np.array(problem.y_obj, dtype=float)
        self._basis = None

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        rhs = self.c - self.A @ x
        k = self.B.shape[0]
        dual = LinearProgram(sense="min", c=rhs, A=self.B.T,
                             senses=[">="] * self.B.shape[1], b=self.b_obj,
                             lo=np.zeros(k), start_basis=self._basis)
        out = solve(dual)
        self._basis = out.basis
        if out.status == "optimal":
            u = out.x
            cut = CutRow(coeffs=_dense_to_sparse(u @ self.A), z_coeff=1.0,
                         rhs=float(u @ self.c), sense="<=")
            return SubproblemResult(kind="optimal", cuts=[cut],
                                    value=float(out.objective), lp_calls=1)
        if out.status == "unbounded":
            u = out.ray
            coeffs = u @ self.A
            rhs_cut = float(u @ self.c)
            scale = max(np.max(np.abs(coeffs)), COEF_EPS)
            cut = CutRow(coeffs=_dense_to_sparse(coeffs / scale), z_coeff=0.0,
                         rhs=rhs_cut / scale, sense="<=")
            return SubproblemResult(kind="infeasible", cuts=[cut], lp_calls=1)
        raise RuntimeError("dual slave is infeasible: the problem is unbounded")


def _dense_to_sparse(vec):
    return {j: float(v) for j, v in enumerate(vec) if abs(v) > COEF_EPS}


def example_two_binary_problem(big_m=10.0):
    """The 2-binary / 2-continuous worked instance used across the tests.

    max x1 + x2 + 2 y1 + y2  with  x1 + x2 >= 1,  y1 + y2 >= x1 + x2,
    0.3 y1 + 0.7 y2 <= 0.1 x1 + 0.3,  x binary, y >= 0.
    """
    return MipProblem(
        sense="max",
        x_obj=[1.0, 1.0],
        y_obj=[2.0, 1.0],
        rows=[
            ([1.0, 1.0], [0.0, 0.0], ">=", 1.0),
            ([-1.0, -1.0], [1.0, 1.0], ">=", 0.0),
            ([-0.1, 0.0], [0.3, 0.7], "<=", 0.3),
        ],
        x_domains=[[0.0, 1.0], [0.0, 1.0]],
        z_bounds=(-big_m, big_m),
    )
