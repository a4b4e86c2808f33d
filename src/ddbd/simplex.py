"""Dense two-phase simplex with certified outcomes.

The solver classifies every well-formed LP as Optimal (primal point,
row duals, reduced costs), Infeasible (nonnegative row multipliers
whose aggregate is unsatisfiable over the variable box), or Unbounded
(an improving recession direction).  Certificates are re-checked
before being returned; a solve that cannot produce a certificate that
passes verification raises NumericalFailureError instead of guessing.

Pivoting uses Bland's rule with a hard pivot cap, trading speed for a
finite-termination guarantee.  The tableau has dense storage, with
updates that touch only the rows a pivot changes and reduced costs
carried between pivots; every exit (optimal, or a ray) is decided on
reduced costs priced afresh from the tableau.  An improving column that
no row bounds is returned as a ray only when the ray gains more than the
verifier's FEAS_TOL; a flatter one is passed over, so an LP that is
unbounded only within tolerance ends optimal within tolerance instead
of failing verification.

Secondary objective: an LP may carry `secondary`, a second objective of
the same sense and length as `c`, to choose among its optimal vertices.
When phase 2 ends optimal, Bland's loop goes on with the secondary cost,
the artificials and every column whose fresh primary reduced cost is
above OPT_TOL banned, so only columns of the optimal face can enter and
every basis it passes stays optimal.  That run is skipped when no open
nonbasic column improves the secondary cost, and where it finds a ray
the basis it stopped at is kept.  The primary reduced costs are then
priced afresh, and the primary loop resumes should any improve.  These
tie pivots count in `pivots` and against the pivot cap.  The outcome's
certificate, duals and objective are the primary's, checked as always;
the kept tableau is the final one.

Warm start: every outcome carries its pivot count, and an optimal or
unbounded one also keeps, privately, its final kernel state: the
tableau in its final basis, the LP's rows (its LpRows) and the variable
transform.  An LP whose `start` is such an outcome, of an LP with the
same rows (only the objective and its sense may differ), continues
phase 2 from a copy of that tableau, which is still primal-feasible
because the constraints are unchanged; the transform, the tableau
set-up and phase 1 are skipped.  Rows are the same when the two LPs
share one LpRows: it is checked once, when made, and read-only, so LPs
built over it need no check of their rows and no comparison.  LPs given
their own A, senses, b, lo and hi get a fresh LpRows each, holding
copies, and warm-start only when those equal the kept rows by value.
Any other start (none, an infeasible outcome, or one over other rows)
is a cold start from the slack/artificial basis.  Certificates are
checked the same way either way.  An outcome references neither its LP
nor that LP's start, so a chain of warm solves keeps alive only the
outcomes its caller keeps.  The module keeps no state.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-7   # primal feasibility / certificate slack
OPT_TOL = 1e-9    # reduced-cost threshold for entering columns
PIV_TOL = 1e-9    # smallest admissible pivot element
INF = float("inf")


class NumericalFailureError(Exception):
    """The pivot cap was hit or a certificate failed self-verification."""


class LpRows:
    """An LP's rows and variable bounds, checked once and then read-only.

    A, b, lo and hi are the object's own float arrays (copies of what it
    was given), marked read-only, and senses is a tuple, so LPs that share
    one LpRows share its checks and can never see it change.  lo and hi
    default to 0 and +inf; they may be infinite but not NaN.
    """

    def __init__(self, A, senses, b, lo=None, hi=None, num_vars=None):
        A = np.array(A, dtype=float)
        n = A.shape[-1] if num_vars is None else num_vars
        self.A = A.reshape(-1, n)
        self.b = np.array(b, dtype=float)
        self.senses = tuple(senses)
        self.lo = np.zeros(n) if lo is None else np.array(lo, dtype=float)
        self.hi = np.full(n, INF) if hi is None else np.array(hi, dtype=float)
        if len(self.senses) != self.A.shape[0] or self.b.size != self.A.shape[0]:
            raise ValueError("row count mismatch")
        if self.lo.size != n or self.hi.size != n:
            raise ValueError("bound size mismatch")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise ValueError("matrix and rhs entries must be finite")
        if np.any(np.isnan(self.lo)) or np.any(np.isnan(self.hi)):
            raise ValueError("bounds must not be NaN")
        if np.any(self.lo > self.hi):
            raise ValueError("lo > hi")
        senses = np.array(self.senses, dtype=object)
        self.le, self.ge, self.eq = senses == "<=", senses == ">=", senses == "="
        if not np.all(self.le | self.ge | self.eq):
            raise ValueError("row senses must be '<=', '>=' or '='")
        for a in (self.A, self.b, self.lo, self.hi, self.le, self.ge, self.eq):
            a.flags.writeable = False

    @property
    def num_vars(self):
        return self.A.shape[1]

    def same_as(self, other):
        """The same rows: this object, or equal senses, A, b, lo and hi."""
        return self is other or (
            self.senses == other.senses and np.array_equal(self.A, other.A)
            and np.array_equal(self.b, other.b) and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi))


@dataclass
class LinearProgram:
    """One LP: an objective over rows given either as A, senses, b, lo
    and hi (checked and copied into a fresh LpRows) or as `rows`, an
    LpRows that several LPs share; A, senses, b, lo and hi then read it."""

    sense: str                 # "min" or "max"
    c: np.ndarray
    A: np.ndarray = None       # shape (m, n); may be empty (0, n)
    senses: list = None        # per-row "<=", ">=", "="
    b: np.ndarray = None
    lo: np.ndarray = None
    hi: np.ndarray = None
    start: LpOutcome = None    # an earlier outcome; warm when its rows equal these
    rows: LpRows = None
    secondary: np.ndarray = None   # tie-break objective on the optimal face, same sense

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        given = (self.A, self.senses, self.b, self.lo, self.hi)
        if self.rows is None:
            if self.A is None or self.senses is None or self.b is None:
                raise TypeError("an LP needs A, senses and b, or rows")
            self.rows = LpRows(*given, num_vars=self.c.size)
        else:
            # dataclasses.replace passes the rows' own arrays back in with them
            own = (self.rows.A, self.rows.senses, self.rows.b, self.rows.lo, self.rows.hi)
            if any(g is not None and g is not r for g, r in zip(given, own)):
                raise ValueError("give rows, or A, senses, b, lo and hi, not both")
            if self.rows.num_vars != self.c.size:
                raise ValueError("bound size mismatch")
        rows = self.rows
        self.A, self.senses, self.b, self.lo, self.hi = \
            rows.A, rows.senses, rows.b, rows.lo, rows.hi
        self._le, self._ge, self._eq = rows.le, rows.ge, rows.eq
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("objective entries must be finite")
        if self.secondary is not None:
            self.secondary = np.asarray(self.secondary, dtype=float)
            if self.secondary.shape != self.c.shape:
                raise ValueError("secondary objective size mismatch")
            if not np.all(np.isfinite(self.secondary)):
                raise ValueError("secondary objective entries must be finite")
        if self.start is not None and not isinstance(self.start, LpOutcome):
            raise TypeError("start must be an LpOutcome or None")

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
    pivots: int = 0                   # tableau pivots, both phases
    _tableau: _Tableau = field(default=None, repr=False, compare=False)  # warm-start state


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


def _rows_hold(lp, res):
    """Each row's residual (lhs - rhs) is within FEAS_TOL on its feasible side."""
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
    # complementary slackness: active dual implies (near-)tight row
    if np.any(~lp._eq & (np.abs(y) > FEAS_TOL * scale)
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
    orient = np.where(lp._ge | lp._eq, 1.0, -1.0)
    peak = float(np.max(np.abs(f))) if f.size else 0.0
    if peak <= 0.0:
        return False
    if np.any(~lp._eq & (f < -FEAS_TOL * (1.0 + peak))):
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
    return _Transform(var=var, sign=sign, shift=shift), A, senses, b


# -- kernel -------------------------------------------------------------------------


def _solve_impl(lp):
    kept = lp.start._tableau if lp.start is not None else None
    if kept is not None and lp.rows.same_as(kept.rows):
        tab = kept.copy()
    else:
        tab, y = _cold_start(lp)
        if y is not None:
            # violation-orientation multipliers for the original rows
            f = np.where(lp._le, -1.0, 1.0) * y[:lp.num_rows]
            peak = float(np.max(np.abs(f))) if lp.num_rows else 0.0
            if peak > 0:
                f = f / peak
            return LpOutcome(status="infeasible", farkas=f, pivots=tab.pivots)
    t, n = tab.t, tab.n
    cost = tab.kernel_cost(lp.c, lp.sense)
    since = tab.pivots
    entering, red = tab.run(cost, tab.art, since)
    if entering == -1 and lp.secondary is not None:
        entering = tab.settle_face(cost, red, lp.secondary, lp.sense, since)
    if entering != -1:
        d = t.to_x(tab.ray_along(entering)[:n], np.zeros(lp.num_vars))
        peak = np.max(np.abs(d))
        if peak > 0:
            d = d / peak
        return LpOutcome(status="unbounded", ray=d, pivots=tab.pivots, _tableau=tab)
    u = np.zeros(cost.size)
    u[tab.basis] = tab.T[:, -1]
    x = t.to_x(u[:n], t.shift)
    y = np.zeros(tab.flip.size)
    y[tab.origin] = cost[tab.basis] @ tab.T[:, tab.reader]
    y = (y * tab.flip)[:lp.num_rows]
    if lp.sense == "max":
        y = -y
    rc = lp.c - (lp.A.T @ y if lp.num_rows else 0.0)
    return LpOutcome(status="optimal", x=x, duals=y, reduced_costs=rc,
                     objective=float(lp.c @ x), pivots=tab.pivots, _tableau=tab)


class _Tableau:
    """Kernel state of  min c.u  s.t.  A u (senses) b,  u >= 0,  in one basis.

    T's columns are u (the first n), then one slack per inequality row,
    then one artificial (`art`) per `>=` or `=` row, after rows with
    b < 0 are negated (`flip`), then the rhs; `basis` lists each row's
    basic column.  Row i of T is kernel row origin[i] (phase 1 drops
    redundant rows), whose dual is read from its slack or artificial
    column, reader[i].
    `t` maps u back to x, and `rows` is the LP's LpRows, compared before
    a warm start.
    """

    def __init__(self, T, basis, reader, flip, art, n, t, rows):
        self.T, self.basis, self.reader = T, basis, reader
        self.origin = np.arange(basis.size)
        self.flip, self.art, self.n, self.t, self.rows = flip, art, n, t, rows
        self.cap = 10 * (basis.size + T.shape[1] - 1) ** 2
        self.pivots = 0

    def copy(self):
        """The same state with its own T and basis and no pivots counted."""
        twin = copy.copy(self)
        twin.T, twin.basis, twin.pivots = self.T.copy(), self.basis.copy(), 0
        return twin

    def pivot(self, rowi, colj):
        """Make colj basic in row rowi.

        Only the rows whose colj entry is nonzero are updated: any other
        row would lose 0 * (pivot row), so it is left as it is.
        """
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

    def kernel_cost(self, c, sense):
        """The minimised kernel cost of objective c under `sense`: 0 past u."""
        cost = np.zeros(self.T.shape[1] - 1)
        cost[:self.n] = self.t.sign * (c if sense == "min" else -c)[self.t.var]
        return cost

    def reduced_costs(self, cost):
        """cost - cost[basis] @ T, priced afresh from the tableau."""
        return cost - cost[self.basis] @ self.T[:, :-1]

    def ray_along(self, entering):
        """1 on the entering column, minus its tableau column on the basic ones."""
        ray = np.zeros(self.T.shape[1] - 1)
        ray[entering] = 1.0
        ray[self.basis] = -self.T[:, entering]
        return ray

    def ratio_test(self, entering):
        """Bland's leaving row for the entering column, or -1 when none bounds it."""
        T, basis = self.T, self.basis
        col = T[:, entering]
        eligible = np.flatnonzero(col > PIV_TOL)
        best_ratio, leave = None, -1
        for i, ratio in zip(eligible.tolist(), (T[eligible, -1] / col[eligible]).tolist()):
            if best_ratio is None or ratio < best_ratio - 1e-12 or \
                    (abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leave]):
                best_ratio, leave = ratio, i
        return leave

    def bland(self, red, banned):
        """Bland's choice under reduced costs `red`: (entering, leaving row),
        (entering, -1) when entering gives a ray, or (-1, -1) when optimal."""
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

    def run(self, cost, banned, since=None):
        """Bland iterations until optimal or unbounded.

        Returns (entering, red): entering is -1 when optimal, else the
        column that gives a ray; red is the fresh reduced costs the exit
        was decided on.  The pivot cap counts the pivots made since the
        tableau's count was `since` (default: this call's start).

        Reduced costs are priced once and then carried through each
        pivot.  An exit is taken only on fresh ones: when the carried
        costs show no pivot to make, they are priced afresh and Bland
        chooses again.

        An improving column that no row bounds gives a ray.  The ray is
        returned only when it gains more than FEAS_TOL per unit of its
        largest entry, the gain verify_certificate asks of it; a flatter
        one is within tolerance of not improving, so Bland passes on to
        the next improving column, and with none left the basis is
        optimal within tolerance.
        """
        since = self.pivots if since is None else since
        red, fresh = self.reduced_costs(cost), True
        while True:
            entering, leave = self.bland(red, banned)
            if leave < 0:
                if fresh:
                    return entering, red  # -1: optimal; else a ray along entering
                red, fresh = self.reduced_costs(cost), True
                continue
            self.pivot(leave, entering)
            red -= red[entering] * self.T[leave, :-1]
            fresh = False
            if self.pivots - since > self.cap:
                raise NumericalFailureError("pivot cap exceeded")

    def settle_face(self, cost, red, secondary, sense, since):
        """From an optimal basis, move along the optimal face to a vertex
        that is best for the objective `secondary` under `sense`; returns
        the entering column as run does.

        red is cost's fresh reduced costs at the optimal basis.  Every
        column whose reduced cost is above OPT_TOL stays nonbasic at 0, so
        Bland's loop on the secondary cost, with those and the artificials
        banned, pivots only among optimal bases.  It is skipped when no
        open nonbasic column improves that cost (at once when none is
        open: the optimum is then unique); if it ends on a ray, the basis
        it stopped at is still optimal and is kept.  After any tie pivot,
        cost's reduced costs are priced afresh, and should tolerance drift
        have made any improving, cost's loop resumes.  All pivots count
        against one cap from `since`.
        """
        open_ = red <= OPT_TOL
        open_[self.art] = False
        # basic columns price at exactly 0 and no artificial is basic, so
        # when only they are open, no nonbasic column is
        if np.count_nonzero(open_) == self.basis.size:
            return -1
        banned = np.flatnonzero(~open_)
        open_[self.basis] = False
        cols = np.flatnonzero(open_)
        second = self.kernel_cost(secondary, sense)
        if not np.any(second[cols] - second[self.basis] @ self.T[:, cols] < -OPT_TOL):
            return -1
        made = self.pivots
        self.run(second, banned, since)
        if self.pivots == made:
            return -1   # no tie pivot: still the optimal basis priced above
        return self.run(cost, self.art, since)[0]


def _cold_start(lp):
    """The LP's tableau in the slack/artificial basis, taken through phase 1.

    Returns (tableau, None) with a primal-feasible basis, or (tableau,
    y) when phase 1 proves the LP infeasible, where y holds the phase-1
    row multipliers stated for the kernel rows as given (not the
    sign-flipped copies).
    """
    t, A, senses, b = _transform(lp)
    m, n = A.shape
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
        if s in ("<=", ">="):
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
    art = np.array(sorted(art_of.values()), dtype=int)
    reader = np.array([art_of[i] if i in art_of else slack_of[i] for i in range(m)],
                      dtype=int)
    tab = _Tableau(T, basis, reader, flip, art, n, t, lp.rows)
    if not art.size:
        return tab, None

    # Phase 1: drive artificials to zero.
    cost1 = np.zeros(ncols)
    cost1[art] = 1.0
    if tab.run(cost1, banned=np.array([], dtype=int))[0] != -1:
        raise NumericalFailureError("phase-1 unbounded; inconsistent tableau")
    cb1 = cost1[tab.basis]
    if float(cb1 @ tab.T[:, -1]) > FEAS_TOL:
        return tab, (cb1 @ tab.T[:, reader]) * flip
    # drive remaining artificials out of the basis
    art_cols = set(art_of.values())
    dead_rows = []
    for i in range(m):
        if tab.basis[i] in art_cols:
            target = -1
            for j in range(ncols):
                if j not in art_cols and abs(tab.T[i, j]) > 1e-9:
                    target = j
                    break
            if target >= 0:
                tab.pivot(i, target)
            else:
                dead_rows.append(i)
    if dead_rows:
        keep = np.array([i for i in range(m) if i not in dead_rows], dtype=int)
        tab.T, tab.basis = tab.T[keep], tab.basis[keep]
        tab.origin, tab.reader = keep, reader[keep]
    return tab, None
