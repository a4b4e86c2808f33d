"""Benders oracles for bounded mixed-integer linear programs.

A problem is max/min a.x + b.y subject to rows over (x, y), with x
integer over finite domains and y >= 0 continuous.  Rows touching only
x become master constraints; the rest form the slave LP whose dual
yields the cuts.  The master answers by the label pass that the
unit-commitment master runs (diagram.KeyGraph, label_point), over the
chain of the variables with one move per domain value: the master rows
and the pool's feasibility cuts split its keys by their rounded lhs, so
its size follows the rows' distinct partial sums rather than the number
of feasible points, and optimality cuts ride on its labels.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .diagram import PATH_TIE_TOL, CutRow, Interval, KeyGraph, label_point
from .engine import MasterOracle, SubproblemOracle, SubproblemResult
from .simplex import FEAS_TOL, LinearProgram, LpRows, solve

COEF_EPS = 1e-12


class UnboundedProblemError(Exception):
    """The slave LP is unbounded (or infeasible) for every x: the dual
    slave has no feasible point, and that does not depend on x."""


class ValueBoundsError(Exception):
    """An optimal slave value lies outside z_bounds: the stated bounds do not hold."""


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

    def validate(self):
        """Raise ValueError unless the senses and lengths fit together and
        every number is finite."""
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be min or max, not {self.sense!r}")
        n = len(self.x_domains)
        if len(self.x_obj) != n:
            raise ValueError("x_obj must have one entry per x domain")
        for ax, by, sense, _ in self.rows:
            if sense not in ("<=", ">=", "="):
                raise ValueError(f"row sense must be <=, >= or =, not {sense!r}")
            if len(ax) != n or len(by) != len(self.y_obj):
                raise ValueError("row ax must match x_domains and by must match y_obj")
        if not all(map(math.isfinite, [*self.x_obj, *self.y_obj, *self.z_bounds,
                                       *(v for d in self.x_domains for v in d),
                                       *(v for r in self.rows for v in (*r[0], *r[1], r[3]))])):
            raise ValueError("every objective, row, domain and z_bounds number must be finite")
        if len(self.z_bounds) != 2 or self.z_bounds[0] > self.z_bounds[1]:
            raise ValueError("z_bounds must be two finite numbers lo <= hi")
        return self

    @staticmethod
    def from_json(text):
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("bad problem document: expected a JSON object")
        if doc.get("version") != 1:
            raise ValueError("unsupported problem schema version")
        try:
            rows = [(_numbers(r["ax"]), _numbers(r["by"]), r["sense"],
                     _numbers([r["rhs"]])[0]) for r in doc["rows"]]
            return MipProblem(sense=doc["sense"], x_obj=_numbers(doc["x_obj"]),
                              y_obj=_numbers(doc["y_obj"]), rows=rows,
                              x_domains=[_numbers(d) for d in doc["x_domains"]],
                              z_bounds=tuple(_numbers(doc["z_bounds"]))).validate()
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"bad problem document: {exc}") from exc


def _numbers(values):
    """A JSON list of finite numbers as floats; ValueError otherwise."""
    if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in values):
        raise ValueError(f"expected a list of finite numbers, got {values!r}")
    return [float(v) for v in values]


class MipMasterOracle(MasterOracle):
    """The unit-commitment master's label pass over one unit, the chain:
    state j moves to j + 1 by one move per distinct domain value v of x_j,
    weighted x_obj[j] * v.  The master rows, feasibility cuts made once
    ("=" as "<=" and ">="), lead every ask's feasibility list, so the keys
    are built again only when the pool's feasibility cuts grow.  A max
    problem is asked as the min of its negation (weights, value bounds
    and each optimality cut's z_coeff negated), and z and w negated back.
    """

    def __init__(self, problem):
        self.problem = problem.validate()
        self.sense = problem.sense
        self._rows = [CutRow(coeffs=_dense_to_sparse(ax), rhs=float(rhs), sense=s)
                      for ax, _, sense, rhs in problem.master_rows()
                      for s in (("<=", ">=") if sense == "=" else (sense,))]
        self._flip = -1.0 if self.sense == "max" else 1.0
        lo, hi = map(float, problem.z_bounds)
        self._bounds = Interval(-hi, -lo) if self._flip < 0 else Interval(lo, hi)
        labels = [sorted({float(v) + 0.0 for v in d}) for d in problem.x_domains]
        weights = [self._flip * c for c in problem.x_obj]
        scale = sum(abs(c) * max(map(abs, labs), default=0.0)
                    for c, labs in zip(weights, labels)) + abs(lo) + abs(hi)
        # an empty domain leaves no point, and no graph to ask
        self._graph = None if not all(labels) else KeyGraph(
            labels, range(len(labels)),
            lambda: [tuple(tuple((v, c * v, j + 1) for v in labs)
                           for j, (c, labs) in enumerate(zip(weights, labels)))],
            2 * PATH_TIE_TOL * (1.0 + scale))

    def best_point(self, cuts):
        if self._graph is None:
            return None
        opt = [c for c in cuts if c.z_coeff != 0.0]
        if self._flip < 0:
            opt = [dataclasses.replace(c, z_coeff=-c.z_coeff) for c in opt]
        point = label_point(self._graph, self._bounds,
                            self._rows + [c for c in cuts if c.z_coeff == 0.0] + opt)
        if point is None or self._flip > 0:
            return point
        x, z, w = point
        # + 0.0 folds the -0.0 that negating a zero makes
        return x, -z + 0.0, -w + 0.0


class MipSubproblemOracle(SubproblemOracle):
    """Dual-form slave LP; optimal points give value cuts, rays give
    feasibility cuts.

    Only the dual's objective depends on x, so its rows are checked once
    (one LpRows for every LP) and each LP is started from the outcome of
    the one before, the only state kept between LPs: phase 2 continues
    from its final tableau (see UcpSubproblemOracle).
    """

    def __init__(self, problem):
        self.problem = problem.validate()
        # a min slave is the max of -y_obj: the sign flips the dual's
        # objective rows, the value and the value coefficient of its cut
        self.sign = 1.0 if problem.sense == "max" else -1.0
        # normalise slave rows to  B y <= c - A x  (flip >= rows, split = rows)
        rows = [(sgn, ax, by, rhs) for ax, by, s, rhs in problem.slave_rows()
                for sgn in {"<=": (1.0,), ">=": (-1.0,), "=": (1.0, -1.0)}[s]]
        self.A = np.array([[sgn * v for v in ax] for sgn, ax, _, _ in rows], dtype=float)
        self.B = np.array([[sgn * v for v in by] for sgn, _, by, _ in rows], dtype=float)
        self.c = np.array([sgn * rhs for sgn, _, _, rhs in rows], dtype=float)
        self.b_obj = self.sign * np.array(problem.y_obj, dtype=float)
        if self.c.size:
            self._rows = LpRows(self.B.T, [">="] * self.B.shape[1], self.b_obj)
        self._last = None

    def evaluate(self, x):
        if not self.c.size:
            # no slave rows (as when there is no y): y = 0 is optimal, and
            # the value 0 for every x, unless some y earns without limit
            if np.any(self.b_obj > COEF_EPS):
                raise UnboundedProblemError("the slave has no rows: the problem is unbounded")
            return SubproblemResult(kind="optimal", value=self._within_bounds(0.0, x), cuts=[
                CutRow(coeffs={}, z_coeff=self.sign, rhs=0.0, sense="<=")])
        x = np.asarray(x, dtype=float)
        rhs = self.c - self.A @ x
        dual = LinearProgram(sense="min", c=rhs, rows=self._rows, start=self._last)
        out = solve(dual)
        self._last = out
        if out.status == "optimal":
            u = out.x
            cut = CutRow(coeffs=_dense_to_sparse(u @ self.A), z_coeff=self.sign,
                         rhs=float(u @ self.c), sense="<=")
            value = self._within_bounds(self.sign * float(out.objective), x)
            return SubproblemResult(kind="optimal", cuts=[cut], value=value, lp_calls=1)
        if out.status == "unbounded":
            u = out.ray
            coeffs = u @ self.A
            rhs_cut = float(u @ self.c)
            scale = max(np.max(np.abs(coeffs)), COEF_EPS)
            cut = CutRow(coeffs=_dense_to_sparse(coeffs / scale), z_coeff=0.0,
                         rhs=rhs_cut / scale, sense="<=")
            return SubproblemResult(kind="infeasible", cuts=[cut], lp_calls=1)
        raise UnboundedProblemError("dual slave is infeasible: the problem is unbounded")

    def _within_bounds(self, value, x):
        """value, unless it lies outside z_bounds by more than FEAS_TOL (relative)."""
        lo, hi = self.problem.z_bounds
        tol = FEAS_TOL * (1.0 + abs(value))
        if not lo - tol <= value <= hi + tol:
            raise ValueBoundsError(f"the slave value {value:.9g} at x = {tuple(map(float, x))} "
                                   f"lies outside z_bounds [{lo:g}, {hi:g}]")
        return value


def _dense_to_sparse(vec):
    return {j: float(v) for j, v in enumerate(vec) if abs(v) > COEF_EPS}
