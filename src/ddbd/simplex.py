"""Dense two-phase simplex with certified outcomes.

The solver classifies every well-formed LP as Optimal (primal point,
row duals, reduced costs), Infeasible (nonnegative row multipliers
whose aggregate is unsatisfiable over the variable box), or Unbounded
(an improving recession direction).  Certificates are re-checked
before being returned; a solve that cannot produce a certificate that
passes verification raises NumericalFailureError instead of guessing.

Pivoting uses Bland's rule with a hard pivot cap, trading speed for a
finite-termination guarantee; problems here are small and dense.  An
improving column that no row bounds is returned as a ray only when the
ray gains more than the verifier's FEAS_TOL; a flatter one is passed
over, so an LP that is unbounded only within tolerance ends optimal
within tolerance instead of failing verification.

Warm start: every outcome carries its final kernel basis and pivot
count.  An LP whose start_basis is such a basis, taken from an LP with
the same rows, senses, rhs and bounds (only the objective may differ),
is refactorized once in that basis (one dense solve with the basis
columns) and goes straight to phase 2; the basis is still
primal-feasible because the constraints are unchanged.  A start basis
that is missing, malformed, singular or infeasible is ignored and the
solve starts from the slack/artificial basis as usual.  Certificates
are checked the same way either way.  The module keeps no state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-7   # primal feasibility / certificate slack
OPT_TOL = 1e-9    # reduced-cost threshold for entering columns
PIV_TOL = 1e-9    # smallest admissible pivot element
INF = float("inf")


class NumericalFailureError(Exception):
    """The pivot cap was hit or a certificate failed self-verification."""


@dataclass
class LinearProgram:
    sense: str                 # "min" or "max"
    c: np.ndarray
    A: np.ndarray              # shape (m, n); may be empty (0, n)
    senses: list               # per-row "<=", ">=", "="
    b: np.ndarray
    lo: np.ndarray = None
    hi: np.ndarray = None
    start_basis: np.ndarray = None   # LpOutcome.basis of an LP with these rows

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        self.A = np.asarray(self.A, dtype=float).reshape(-1, n)
        self.b = np.asarray(self.b, dtype=float)
        self.senses = list(self.senses)
        if self.lo is None:
            self.lo = np.zeros(n)
        if self.hi is None:
            self.hi = np.full(n, INF)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if len(self.senses) != self.A.shape[0] or self.b.size != self.A.shape[0]:
            raise ValueError("row count mismatch")
        if self.lo.size != n or self.hi.size != n:
            raise ValueError("bound size mismatch")
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.A))
                and np.all(np.isfinite(self.b))):
            raise ValueError("objective, matrix and rhs entries must be finite")
        if np.any(self.lo > self.hi):
            raise ValueError("lo > hi")

    @property
    def num_vars(self):
        return self.c.size

    @property
    def num_rows(self):
        return self.A.shape[0]


@dataclass
class LpOutcome:
    status: str                       # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray = None
    duals: np.ndarray = None          # per original row
    reduced_costs: np.ndarray = None
    objective: float = None
    farkas: np.ndarray = None         # >= 0 on inequality rows, see verify
    ray: np.ndarray = None            # improving recession direction
    basis: np.ndarray = None          # final kernel basis, one column per row
    pivots: int = 0                   # tableau pivots, both phases


# -- public entry points -----------------------------------------------------------


def solve(lp):
    """Classify the LP with a certificate; never returns an unverified answer."""
    outcome = _solve_impl(lp)
    if not verify_certificate(lp, outcome):
        raise NumericalFailureError(
            f"{outcome.status} certificate failed self-verification")
    return outcome


def verify_certificate(lp, outcome):
    """Re-check the outcome against the LP data alone; returns False on doubt."""
    if outcome.status == "optimal":
        return _verify_optimal(lp, outcome)
    if outcome.status == "infeasible":
        return _verify_farkas(lp, outcome.farkas)
    if outcome.status == "unbounded":
        return _verify_ray(lp, outcome.ray)
    return False


def _row_senses(lp):
    senses = np.array(lp.senses, dtype=object)
    return senses == "<=", senses == ">=", senses == "="


def _rows_hold(lp, res):
    """Each row's residual (lhs - rhs) is within FEAS_TOL on its feasible side."""
    le, ge, eq = _row_senses(lp)
    return not (np.any(le & (res > FEAS_TOL)) or np.any(ge & (res < -FEAS_TOL))
                or np.any(eq & (np.abs(res) > FEAS_TOL)))


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
    le, ge, eq = _row_senses(lp)
    if np.any(le & (sign * y > FEAS_TOL * scale)) or \
            np.any(ge & (sign * y < -FEAS_TOL * scale)):
        return False
    # complementary slackness: active dual implies (near-)tight row
    if np.any(~eq & (np.abs(y) > FEAS_TOL * scale)
              & (np.abs(res) > 1e-5 * (1.0 + np.abs(lp.b)))):
        return False
    rc = lp.c - (lp.A.T @ y if lp.num_rows else 0.0)
    if out.reduced_costs is not None and np.max(np.abs(rc - out.reduced_costs)) > 1e-6 * scale:
        return False
    r = sign * rc
    at_lo = r > FEAS_TOL * scale         # variable must sit at its lower bound
    at_hi = r < -FEAS_TOL * scale        # at its upper bound
    if np.any(at_lo & ~(np.isfinite(lp.lo) & (x <= lp.lo + 1e-6))) or \
            np.any(at_hi & ~(np.isfinite(lp.hi) & (x >= lp.hi - 1e-6))):
        return False
    dual_obj = float(y @ lp.b) if lp.num_rows else 0.0
    dual_obj += float(rc[at_lo] @ lp.lo[at_lo] + rc[at_hi] @ lp.hi[at_hi])
    obj = float(lp.c @ x)
    if abs(obj - out.objective) > 1e-6 * (1.0 + abs(obj)):
        return False
    return abs(obj - dual_obj) <= 1e-6 * (1.0 + abs(obj))


def _verify_farkas(lp, f):
    if f is None or f.size != lp.num_rows:
        return False
    _, ge, eq = _row_senses(lp)
    orient = np.where(ge | eq, 1.0, -1.0)
    peak = float(np.max(np.abs(f))) if f.size else 0.0
    if peak <= 0.0:
        return False
    if np.any(~eq & (f < -FEAS_TOL * (1.0 + peak))):
        return False
    w = (orient * f) @ lp.A
    r = float((orient * f) @ lp.b)
    # Aggregation noise: entries of w that should be exactly zero come out
    # at rounding level; treat them as zero when deciding boundedness.
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


# -- variable transformation --------------------------------------------------------


@dataclass
class _Transform:
    """Affine map x = shift + M u onto nonnegative kernel variables.

    Kernel column k is sign[k] times original variable var[k] (after the
    shift): a variable with a finite lower bound, or only a finite upper
    bound, takes one column, a free variable two.  A variable with both
    bounds finite also adds a `<=` row on its column.
    """

    var: np.ndarray
    sign: np.ndarray
    shift: np.ndarray

    def to_x(self, u, base):
        """base plus M u, summed column by column in kernel order."""
        x = base.copy()
        np.add.at(x, self.var, self.sign * u)
        return x


def _transform(lp):
    lo_fin, hi_fin = np.isfinite(lp.lo), np.isfinite(lp.hi)
    free = ~lo_fin & ~hi_fin
    var = np.repeat(np.arange(lp.num_vars), np.where(free, 2, 1))
    first = np.searchsorted(var, np.arange(lp.num_vars))   # each var's first column
    sign = np.ones(var.size)
    sign[first[~lo_fin & hi_fin]] = -1.0
    sign[first[free] + 1] = -1.0
    shift = np.where(lo_fin, lp.lo, np.where(hi_fin, lp.hi, 0.0))
    boxed = np.flatnonzero(lo_fin & hi_fin)
    m, nb = lp.num_rows, boxed.size
    A = np.zeros((m + nb, var.size))
    A[:m] += sign * lp.A[:, var]
    A[m + np.arange(nb), first[boxed]] = 1.0
    b = np.concatenate([lp.b - (lp.A @ shift if m else np.zeros(0)),
                        lp.hi[boxed] - lp.lo[boxed]])
    senses = list(lp.senses) + ["<="] * nb
    cmin = lp.c if lp.sense == "min" else -lp.c
    return _Transform(var=var, sign=sign, shift=shift), sign * cmin[var], A, senses, b


# -- kernel -------------------------------------------------------------------------


def _solve_impl(lp):
    t, c, A, senses, b = _transform(lp)
    status, u, y_kernel, ray_u, basis, pivots = _kernel(c, A, senses, b, lp.start_basis)
    m = lp.num_rows
    if status == "infeasible":
        # violation-orientation multipliers for the original rows
        f = np.where(_row_senses(lp)[0], -1.0, 1.0) * y_kernel[:m]
        peak = float(np.max(np.abs(f))) if m else 0.0
        if peak > 0:
            f = f / peak
        return LpOutcome(status="infeasible", farkas=f, basis=basis, pivots=pivots)
    if status == "unbounded":
        d = t.to_x(ray_u, np.zeros(lp.num_vars))
        peak = np.max(np.abs(d))
        if peak > 0:
            d = d / peak
        return LpOutcome(status="unbounded", ray=d, basis=basis, pivots=pivots)
    x = t.to_x(u, t.shift)
    y = y_kernel[:m].copy()
    if lp.sense == "max":
        y = -y
    rc = lp.c - (lp.A.T @ y if m else 0.0)
    return LpOutcome(status="optimal", x=x, duals=y, reduced_costs=rc,
                     objective=float(lp.c @ x), basis=basis, pivots=pivots)


def _refactorize(T, start, art_cols):
    """The tableau T restated in the basis `start`, or None.

    None when `start` cannot begin phase 2: it is missing, has the wrong
    length, repeats or leaves the column range, names an artificial
    column, is singular, or gives non-finite or infeasible (below
    -FEAS_TOL) basic values.  Basic columns are set to the exact identity
    and basic values in [-FEAS_TOL, 0) to 0.
    """
    m = T.shape[0]
    if start is None or m == 0:
        return None
    start = np.asarray(start)
    if start.shape != (m,) or start.dtype.kind not in "iu":
        return None
    cols = start.tolist()
    if len(set(cols)) != m or min(cols) < 0 or max(cols) >= T.shape[1] - 1 \
            or art_cols.intersection(cols):
        return None
    try:
        W = np.linalg.solve(T[:, start], T)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(W)) or np.any(W[:, -1] < -FEAS_TOL):
        return None
    W[:, start] = np.eye(m)
    np.maximum(W[:, -1], 0.0, out=W[:, -1])
    return W


def _kernel(c, A, senses, b, start):
    """min c.u  s.t.  A u (senses) b,  u >= 0.

    Returns (status, u, row duals, ray, final basis, pivots)
    where duals are stated for the rows as given (not the internally
    sign-flipped copies).  The tableau's columns are u, then one slack
    per inequality row, then one artificial per `>=` or `=` row (after
    rows with b < 0 are negated); a basis lists one column per row.
    When `start` passes _refactorize, phase 1 is skipped and phase 2
    begins from it; otherwise from the slack/artificial basis.
    """
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    senses = list(senses)
    flip = np.ones(m)
    for i in range(m):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0
            flip[i] = -1.0
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    slack_of = {}
    art_of = {}
    ncols = n
    for i, s in enumerate(senses):
        if s == "<=":
            slack_of[i] = ncols
            ncols += 1
        elif s == ">=":
            slack_of[i] = ncols
            ncols += 1
    for i, s in enumerate(senses):
        if s in (">=", "="):
            art_of[i] = ncols
            ncols += 1

    T = np.zeros((m, ncols + 1))
    T[:, :n] = A
    T[:, -1] = b
    basis = np.empty(m, dtype=int)
    for i, s in enumerate(senses):
        if s == "<=":
            T[i, slack_of[i]] = 1.0
            basis[i] = slack_of[i]
        else:
            if s == ">=":
                T[i, slack_of[i]] = -1.0
            T[i, art_of[i]] = 1.0
            basis[i] = art_of[i]
    art_cols = set(art_of.values())
    reader = {i: (art_of[i] if i in art_of else slack_of[i]) for i in range(m)}
    cap = 10 * (m + ncols) ** 2
    pivot_count = 0

    def pivot(rowi, colj):
        nonlocal pivot_count
        pivot_count += 1
        T[rowi] = T[rowi] / T[rowi, colj]
        col = T[:, colj].copy()
        col[rowi] = 0.0
        T[:] -= np.outer(col, T[rowi])
        T[:, colj] = 0.0
        T[rowi, colj] = 1.0
        basis[rowi] = colj

    def ray_along(entering):
        """1 on the entering column, minus its tableau column on the basic ones."""
        ray = np.zeros(ncols)
        ray[entering] = 1.0
        ray[basis] = -T[:, entering]
        return ray

    def ratio_test(entering):
        """Bland's leaving row for the entering column, or -1 when none bounds it."""
        col = T[:, entering]
        eligible = np.flatnonzero(col > PIV_TOL)
        best_ratio, leave = None, -1
        for i, ratio in zip(eligible.tolist(), (T[eligible, -1] / col[eligible]).tolist()):
            if best_ratio is None or ratio < best_ratio - 1e-12 or \
                    (abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leave]):
                best_ratio, leave = ratio, i
        return leave

    def run(cost, banned):
        """Bland iterations until optimal or unbounded; returns entering col or -1.

        An improving column that no row bounds gives a ray.  The ray is
        returned only when it gains more than FEAS_TOL per unit of its
        largest entry, the gain verify_certificate asks of it; a flatter
        one is within tolerance of not improving, so Bland passes on to
        the next improving column, and with none left the basis is
        optimal within tolerance.
        """
        pivots = 0
        banned = np.array(sorted(banned), dtype=int)
        while True:
            cb = cost[basis]
            red = cost - cb @ T[:, :-1]
            # Bland: the first non-basic, non-banned column that improves
            improving = red < -OPT_TOL
            improving[basis] = False
            improving[banned] = False
            for entering in np.flatnonzero(improving).tolist():
                leave = ratio_test(entering)
                if leave >= 0:
                    break
                if -red[entering] > FEAS_TOL * np.max(np.abs(ray_along(entering)[:n]), initial=0.0):
                    return entering  # unbounded along this column
            else:
                return -1
            pivot(leave, entering)
            pivots += 1
            if pivots > cap:
                raise NumericalFailureError("pivot cap exceeded")

    warm = _refactorize(T, start, art_cols)
    if warm is not None:
        T, basis = warm, np.array(start, dtype=int)
        row_origin = list(range(m))
    # Phase 1: drive artificials to zero.
    elif art_cols:
        cost1 = np.zeros(ncols)
        for j in art_cols:
            cost1[j] = 1.0
        if run(cost1, banned=frozenset()) != -1:
            raise NumericalFailureError("phase-1 unbounded; inconsistent tableau")
        cb1 = cost1[basis]
        phase1_obj = float(cb1 @ T[:, -1])
        if phase1_obj > FEAS_TOL:
            y = np.array([float(cb1 @ T[:, reader[i]]) for i in range(m)])
            return "infeasible", None, y * flip, None, basis.copy(), pivot_count
        # drive remaining artificials out of the basis
        dead_rows = []
        for i in range(m):
            if basis[i] in art_cols:
                target = -1
                for j in range(ncols):
                    if j not in art_cols and abs(T[i, j]) > 1e-9:
                        target = j
                        break
                if target >= 0:
                    pivot(i, target)
                else:
                    dead_rows.append(i)
        if dead_rows:
            keep = [i for i in range(m) if i not in dead_rows]
            T = T[keep]
            basis = basis[keep]
            row_origin = keep
        else:
            row_origin = list(range(m))
    else:
        row_origin = list(range(m))

    # Phase 2 on the real objective.
    cost2 = np.zeros(ncols)
    cost2[:n] = c
    entering = run(cost2, banned=art_cols)
    if entering != -1:
        return "unbounded", None, None, ray_along(entering)[:n], basis.copy(), pivot_count

    u = np.zeros(ncols)
    for i in range(T.shape[0]):
        u[basis[i]] = T[i, -1]
    cb = cost2[basis]
    y = np.zeros(m)
    for orig in row_origin:
        y[orig] = float(cb @ T[:, reader[orig]])
    return "optimal", u[:n], y * flip, None, basis.copy(), pivot_count
