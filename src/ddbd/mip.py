"""Benders oracles for bounded mixed-integer linear programs.

A problem is max/min a.x + b.y subject to rows over (x, y), with x
integer over finite domains and y >= 0 continuous.  Rows touching only
x become master constraints; the rest form the slave LP whose dual
yields the cuts.  The master diagram is compiled by refinement: a chain
with one arc per domain value is cut by the master rows, as pooled cuts
are, so its size follows the rows' distinct partial sums rather than the
number of feasible points.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .diagram import CutRow, DiagramBuilder, InfeasibleDiagramError, Interval, to_dot
from .engine import MasterOracle, SubproblemOracle, SubproblemResult, diagram_point, replay_cuts
from .simplex import LinearProgram, LpRows, solve

COEF_EPS = 1e-12


class UnboundedProblemError(Exception):
    """The slave LP is unbounded (or infeasible) for every x: the dual
    slave has no feasible point, and that does not depend on x."""


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
        """Raise ValueError unless the senses and lengths fit together."""
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
        if len(self.z_bounds) != 2 or self.z_bounds[0] > self.z_bounds[1]:
            raise ValueError("z_bounds must be two finite numbers lo <= hi")
        return self

    @staticmethod
    def from_json(text):
        doc = json.loads(text)
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


def _numbers(values):
    """A JSON list of finite numbers as floats; ValueError otherwise."""
    if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in values):
        raise ValueError(f"expected a list of finite numbers, got {values!r}")
    return [float(v) for v in values]


class MipMasterOracle(MasterOracle):
    """Exact master diagram compiled by refinement.

    A chain with one node per layer carries an arc for each distinct
    domain value, weighted by its objective term, and ends in the
    [z_lo, z_hi] value arc.  The master rows, made feasibility cuts once
    ("=" as a "<=" and a ">=" row), are replayed into it when the oracle
    is made; each ask replays only the pool, and its best point is the
    optimal path of that exact diagram.  Given dot_dir, the oracle makes
    that directory and writes each ask's diagram there as Graphviz text,
    0000_restricted.dot, 0001_restricted.dot and so on; an ask that
    leaves no diagram writes none.
    """

    def __init__(self, problem, dot_dir=None):
        self.problem = problem
        self.sense = problem.sense
        self._rows = [CutRow(coeffs=_dense_to_sparse(ax), rhs=float(rhs), sense=s)
                      for ax, _, sense, rhs in problem.master_rows()
                      for s in (("<=", ">=") if sense == "=" else (sense,))]
        self._master = self._compile()
        self._dot_dir, self._dots = dot_dir, 0
        if dot_dir:
            os.makedirs(dot_dir, exist_ok=True)

    def _compile(self):
        """The chain refined by the master rows, or None when no point is left."""
        n = len(self.problem.x_domains)
        dd = DiagramBuilder(n + 1, continuous_last=True)
        node = dd.new_node(0)
        for j, domain in enumerate(self.problem.x_domains):
            head = dd.new_node(j + 1)
            if not domain:
                return None
            for v in dict.fromkeys(float(v) for v in domain):
                dd.add_arc(j, node, head, v, self.problem.x_obj[j] * v)
            node = head
        lo, hi = self.problem.z_bounds
        dd.add_arc(n, node, dd.new_node(n + 1), Interval(float(lo), float(hi)), 1.0)
        try:
            return replay_cuts(dd.build(), self._rows)
        except InfeasibleDiagramError:
            return None

    def build_exact_dd(self, cuts):
        try:
            return None if self._master is None else replay_cuts(self._master, cuts)
        except InfeasibleDiagramError:
            return None

    def best_point(self, cuts):
        dd = self.build_exact_dd(cuts)
        if dd is not None and self._dot_dir:
            path = os.path.join(self._dot_dir, f"{self._dots:04d}_restricted.dot")
            with open(path, "w") as fh:
                fh.write(to_dot(dd))
            self._dots += 1
        return diagram_point(dd, self.sense)


class MipSubproblemOracle(SubproblemOracle):
    """Dual-form slave LP; optimal points give value cuts, rays give
    feasibility cuts.

    Only the dual's objective depends on x, so its rows are checked once
    (one LpRows for every LP) and each LP is started from the outcome of
    the one before, the only state kept between LPs: phase 2 continues
    from its final tableau (see UcpSubproblemOracle).
    """

    def __init__(self, problem):
        self.problem = problem
        # a min slave is the max of -y_obj: the sign flips the dual's
        # objective rows, the value and the value coefficient of its cut
        self.sign = 1.0 if problem.sense == "max" else -1.0
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
            return SubproblemResult(kind="optimal", value=0.0, cuts=[
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
            return SubproblemResult(kind="optimal", cuts=[cut],
                                    value=self.sign * float(out.objective), lp_calls=1)
        if out.status == "unbounded":
            u = out.ray
            coeffs = u @ self.A
            rhs_cut = float(u @ self.c)
            scale = max(np.max(np.abs(coeffs)), COEF_EPS)
            cut = CutRow(coeffs=_dense_to_sparse(coeffs / scale), z_coeff=0.0,
                         rhs=rhs_cut / scale, sense="<=")
            return SubproblemResult(kind="infeasible", cuts=[cut], lp_calls=1)
        raise UnboundedProblemError("dual slave is infeasible: the problem is unbounded")


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
