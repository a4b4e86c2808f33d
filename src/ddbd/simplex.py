"""Dense two-phase simplex with certified outcomes.

Every LP has one form: rows A x (senses) b over x >= 0, any other
bound being a row.  The solver classifies every well-formed LP as
Optimal (primal point, row duals, reduced costs), Infeasible (nonnegative
row multipliers whose aggregate no x >= 0 satisfies), or Unbounded (an
improving recession direction).  Certificates are re-checked before
being returned; a solve that cannot produce a certificate that
passes verification raises NumericalFailureError instead of guessing.
The checks assume x >= 0 and nothing else.  Each is written for a
stack of certificates over one LpRows, one verdict per row, and one LP's
certificate is its one-row case: verify_rays checks a stack of rays at
once, and the optimal and Farkas checks are stacked likewise.

Pivoting uses Bland's rule with a hard pivot cap, trading speed for a
finite-termination guarantee.  The tableau has dense storage; at the
sizes this package solves, a pivot costs numpy calls, not flops, so each
step makes few of them.  Bland's scan masks `banned` columns only when
there are any; the ratio test divides only when two or more rows are
eligible (one eligible row leaves with no division); the pivot divides
the pivot row once and updates only the rows whose entering-column entry
is nonzero, by the products np.outer would give; and the reduced costs
are carried to the next basis by one row update.  Every exit (optimal,
or a ray) is decided on reduced costs priced afresh from the tableau.
None of this changes a pivot or a bit of the outcome: tests/reference_lp.py
keeps the former pivot, ratio test, scan and read-off, and the tests
patch them in and compare bytes.  An improving column that
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
tableau in its final basis and the LP's rows (its LpRows).  An LP whose
`start` is such an outcome, of an LP over the same LpRows object (only
the objective and its sense may differ), continues phase 2 from a copy
of that tableau, which is still primal-feasible because the constraints
are unchanged; the tableau set-up and phase 1 are skipped.  An LpRows is
checked once, when made, and read-only, so LPs built over it need no
check of their rows, and rows are matched by identity alone.  An LP
given its own A, senses and b gets a fresh LpRows, holding copies, so it
starts cold; LPs built over its `rows` can continue from its outcome.  Any
other start (none, an infeasible outcome, or one over other rows, even
rows equal by value) is a cold start.

Cold start: the slack/artificial tableau, rows with b < 0 negated, taken
through phase 1.  An LP may instead give `basis`, one entry per row: the
variable basic in that row, or -1 for the row's own slack.  A cold start
then skips phase 1 and restates the tableau in that basis by one
product with the basis inverse, B^-1 T (basic columns set to the exact
identity, basic values in [-FEAS_TOL, 0) to 0), before phase 2; a
singular basis, or one whose values fall below -FEAS_TOL, raises
NumericalFailureError.  A kept tableau from `start` takes precedence
over `basis`.

Chains: an LP's c may stack S objectives over its rows, as an (S, n)
array, with `secondary` of the same shape (LPs that share rows and differ
only in the objective, as the scenario subproblems of a stochastic
program do; the bunching of Wets's L-shaped method).  One solve call then
solves them in order: row s continues from row s - 1's final tableau,
exactly as an LP whose `start` is row s - 1's outcome would, and the
first row starts from `start` or `basis`, or cold.  Phase 1 depends only
on the rows, so it runs at most once, and when it proves the rows
infeasible every row is.  The kernel costs of all S rows are one (S,
cols) array, made once.  Each row's x, duals and objective, or ray, is
read off as the row finishes, keeping O(n + m) a row; a row that makes
no pivot after an optimal row has that row's basis and rhs, so it takes
that row's x and reads only its duals.  The objective checks, reduced
costs and certificate checks are paid once for the chain, on stacked
arrays.  Rows are not pivoted in lockstep: each continues from the last,
which needs far fewer pivots.  A single LP is the chain's one-row case,
through the same kernel and checks; the outcome's fields gain a leading
axis only for an (S, n) c (see LpOutcome).

Certificates are checked the same way from every start.  An outcome
references neither its LP nor that LP's start, so a chain of warm solves
keeps alive only the outcomes its caller keeps.  The module keeps no
state.
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


_SENSE_KIND = {"<=": 0, ">=": 1, "=": 2}   # a row sense's index among the masks le, ge, eq


class LpRows:
    """An LP's rows A, senses and b over x >= 0, checked once and then read-only.

    A (one row per sense, num_vars columns; [] is no rows) and b are the
    object's own float arrays (copies of what it was given), marked
    read-only, and senses is a tuple, so LPs that share one LpRows share
    its checks and can never see it change.  lo and hi are 0 and +inf.
    """

    def __init__(self, A, senses, b, num_vars=None):
        self.A = np.array(A, dtype=float)
        self.b = np.array(b, dtype=float)
        self.senses = tuple(senses)
        n = self.A.shape[-1] if num_vars is None else num_vars
        if self.A.shape == (0,):
            self.A = self.A.reshape(0, n)
        if self.A.shape != (len(self.senses), n):
            raise ValueError(f"A is {self.A.shape}, not {len(self.senses)} rows by {n}")
        if self.b.shape != (len(self.senses),):
            raise ValueError("row count mismatch")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise ValueError("matrix and rhs entries must be finite")
        self.lo, self.hi = np.zeros(n), np.full(n, INF)
        kinds = np.array([_SENSE_KIND.get(s, -1) if isinstance(s, str) else -1
                          for s in self.senses], dtype=int)
        if np.any(kinds < 0):
            raise ValueError("row senses must be '<=', '>=' or '='")
        self.le, self.ge, self.eq = kinds == 0, kinds == 1, kinds == 2
        for a in (self.A, self.b, self.lo, self.hi, self.le, self.ge, self.eq):
            a.flags.writeable = False

    @property
    def num_vars(self):
        return self.A.shape[1]


@dataclass
class LinearProgram:
    """One LP, or a chain of LPs that share their rows: an objective over
    x >= 0 (c of length n), or a stack of S objectives (c of shape (S, n))
    solved in order, and rows given either as A, senses and b (checked and
    copied into a fresh LpRows) or as `rows`, an LpRows that several LPs
    share; A, senses, b, lo and hi then read it.  `start` warm-starts only
    over the same LpRows object, so LPs that should continue from each
    other's outcomes share `rows`.  `basis`, one entry per row (a
    variable's index, or -1 for the row's own slack, which an `=` row
    lacks), is where a cold start begins phase 2; it is checked here and
    kept as a read-only int array.  In a chain, `start` and `basis` are
    the first objective's, and `secondary` has c's shape."""

    sense: str                 # "min" or "max"
    c: np.ndarray
    A: np.ndarray = None       # shape (m, n); may be empty (0, n)
    senses: list = None        # per-row "<=", ">=", "="
    b: np.ndarray = None
    start: LpOutcome = None    # an earlier outcome; warm when its LP had these rows
    rows: LpRows = None
    secondary: np.ndarray = None   # tie-break objective on the optimal face, same sense
    basis: np.ndarray = None       # a cold start's: per row, a variable or -1 (its slack)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.ndim not in (1, 2) or self.c.ndim == 2 and not self.c.shape[0]:
            raise ValueError("c must be one objective or a nonempty stack of them")
        given = (self.A, self.senses, self.b)
        if self.rows is None:
            if self.A is None or self.senses is None or self.b is None:
                raise TypeError("an LP needs A, senses and b, or rows")
            self.rows = LpRows(*given, num_vars=self.num_vars)
        else:
            # dataclasses.replace passes the rows' own arrays back in with them
            own = (self.rows.A, self.rows.senses, self.rows.b)
            if any(g is not None and g is not r for g, r in zip(given, own)):
                raise ValueError("give rows, or A, senses and b, not both")
            if self.rows.num_vars != self.num_vars:
                raise ValueError("objective size mismatch")
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
        if self.basis is not None:
            self.basis = _checked_basis(self.basis, rows)

    @property
    def num_vars(self):
        return self.c.shape[-1]

    @property
    def num_rows(self):
        return self.A.shape[0]


def _checked_basis(basis, rows):
    """basis as a read-only int array, or ValueError when it is not one
    entry per row, each a variable or -1 (the row's slack; not on an `=`
    row), with no variable twice."""
    basis = np.array(basis)
    m = rows.b.size
    if basis.shape != (m,) or (m and basis.dtype.kind not in "iu"):
        raise ValueError(f"a basis needs one integer entry per row, {m} in all")
    basis = basis.astype(int)
    if np.any(basis < -1) or np.any(basis >= rows.num_vars):
        raise ValueError("basis entries must be a variable's index or -1")
    named = basis[basis >= 0].tolist()
    if len(set(named)) != len(named):
        raise ValueError("a basis names each variable at most once")
    if np.any(rows.eq & (basis == -1)):
        raise ValueError("an '=' row has no slack to be basic")
    basis.flags.writeable = False
    return basis


@dataclass
class LpOutcome:
    """An LP's certified outcome.  A chain's outcome holds every row's:
    statuses lists them, and status is "infeasible" when they are (then
    every row is), else "unbounded" when any row is, else "optimal".  Its
    other fields gain a leading axis, one entry per row written as it
    finishes, NaN on a row whose status lacks it (x, duals, reduced costs
    and objective are an optimal row's, ray an unbounded row's, farkas an
    infeasible row's); a field that no row has is None.  The kept tableau
    is the last row's."""

    status: str                       # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray = None
    duals: np.ndarray = None          # per original row
    reduced_costs: np.ndarray = None
    objective: float = None
    farkas: np.ndarray = None         # >= 0 on inequality rows, see verify
    ray: np.ndarray = None            # improving recession direction
    pivots: int = 0                   # tableau pivots, both phases
    statuses: tuple = None            # a chain's, one per row
    _tableau: _Tableau = field(default=None, repr=False, compare=False)  # warm-start state


def _chain_status(statuses):
    if "infeasible" in statuses:
        return "infeasible"
    return "unbounded" if "unbounded" in statuses else "optimal"


# -- public entry points -----------------------------------------------------------


def solve(lp):
    """Classify the LP, or every LP of a chain, with a certificate; never
    returns an unverified answer, and raises when any row's fails."""
    outcome = _solve_impl(lp)
    if not verify_certificate(lp, outcome):
        raise NumericalFailureError(
            f"{outcome.status} certificate failed self-verification")
    return outcome


def verify_certificate(lp, outcome):
    """Re-check the outcome against the LP data alone; returns False on
    doubt, and for a chain when any row's certificate fails."""
    return bool(np.all(_row_verdicts(lp, outcome)))


def _row_verdicts(lp, out):
    """Whether each row's certificate in out holds for lp; one LP is one
    row.  A field of the wrong size fails every row that reads it."""
    chain = lp.c.ndim == 2
    c = np.atleast_2d(lp.c)
    S, n, m = c.shape[0], lp.num_vars, lp.num_rows
    statuses = np.array(out.statuses if chain else (out.status,), dtype=object)
    if statuses.shape != (S,) or chain and out.status != _chain_status(out.statuses):
        return np.zeros(S, dtype=bool)

    def stacked(name, width):
        v = getattr(out, name)
        v = None if v is None else np.asarray(v, dtype=float)
        return v.reshape(S, width) if v is not None and v.size == S * width else None

    ok = np.zeros(S, dtype=bool)
    rows = statuses == "optimal"
    if rows.any():
        x, y, obj = stacked("x", n), stacked("duals", m), stacked("objective", 1)
        rc = stacked("reduced_costs", n)
        if not (x is None or y is None or obj is None
                or rc is None and out.reduced_costs is not None):
            ok[rows] = _verify_optimal(lp, c[rows], x[rows], y[rows],
                                       None if rc is None else rc[rows], obj[rows, 0])
    rows = statuses == "unbounded"
    d = stacked("ray", n)
    if rows.any() and d is not None:
        ok[rows] = verify_rays(lp.rows, lp.sense, c[rows], d[rows])
    rows = statuses == "infeasible"
    f = stacked("farkas", m)
    if rows.any() and f is not None:
        ok[rows] = _verify_farkas(lp.rows, f[rows])
    return ok


def _rows_hold(rows, res):
    """Whether each row's residual (lhs - rhs) is within FEAS_TOL on its
    feasible side; one verdict per residual vector when res stacks them."""
    return ~((~rows.ge & (res > FEAS_TOL)) | (~rows.le & (res < -FEAS_TOL))).any(axis=-1)


def _verify_optimal(lp, c, x, y, reduced_costs, objective):
    """Per row of the stacks c, x, y, reduced costs (or None) and
    objective: whether x and y are primal and dual feasible for lp's rows
    under objective c, complementary, with the reduced costs and
    objective they imply, and of equal value."""
    rows = lp.rows
    primal = (np.isfinite(x) & (x >= -FEAS_TOL)).all(axis=1)
    x = np.where(primal[:, None], x, 0.0)   # a row that fails here computes nothing more
    res = x @ rows.A.T - rows.b
    sign = 1.0 if lp.sense == "min" else -1.0
    scale = 1.0 + np.abs(c).max(axis=1, initial=0.0)
    tol = FEAS_TOL * scale[:, None]
    ok = primal & _rows_hold(rows, res)
    ok &= ~((rows.le & (sign * y > tol)) | (rows.ge & (sign * y < -tol))).any(axis=1)
    # complementary slackness: active dual implies (near-)tight row
    ok &= ~(~rows.eq & (np.abs(y) > tol)
            & (np.abs(res) > 1e-5 * (1.0 + np.abs(rows.b)))).any(axis=1)
    rc = c - y @ rows.A
    # the two checks of claimed values read `<=`, which a NaN fails
    if reduced_costs is not None:
        ok &= np.abs(rc - reduced_costs).max(axis=1, initial=0.0) <= 1e-6 * scale
    # over x >= 0 a variable priced above tolerance must sit at 0, and none
    # may price below -tolerance: no variable has an upper bound to sit at
    r = sign * rc
    ok &= ~(((r > tol) & (x > 1e-6)) | (r < -tol)).any(axis=1)
    dual_obj = y @ rows.b
    obj = np.sum(c * x, axis=1)
    ok &= np.abs(obj - objective) <= 1e-6 * (1.0 + np.abs(obj))
    return ok & (np.abs(obj - dual_obj) <= 1e-6 * (1.0 + np.abs(obj)))


def _verify_farkas(rows, f):
    """Per row of the stack f: whether it is a Farkas certificate that no
    x >= 0 meets the LpRows rows."""
    orient = np.where(rows.ge | rows.eq, 1.0, -1.0)
    peak = np.abs(f).max(axis=1, initial=0.0)
    ok = ~(peak <= 0.0) & ~(~rows.eq & (f < -FEAS_TOL * (1.0 + peak[:, None]))).any(axis=1)
    w = (orient * f) @ rows.A
    r = (orient * f) @ rows.b
    # Aggregation noise: entries of w that should be exactly zero come out
    # at rounding level; treat them as zero when deciding boundedness.
    wtol = 1e-9 * peak * (1.0 + np.abs(rows.A).max(initial=0.0))
    # over x >= 0, w x is unbounded above if an entry of w is positive, else at most 0
    ok &= ~(w > wtol[:, None]).any(axis=1)
    return ok & (r > FEAS_TOL * (1.0 + np.abs(r)))


def verify_rays(rows, sense, c, rays):
    """Whether each row d of `rays` is an improving ray of the LP over the
    LpRows `rows` under `sense` with objective the same row of c (or c, if
    1-D): finite, above FEAS_TOL in some entry and below -FEAS_TOL in none,
    with A d on each row's feasible side and a gain above FEAS_TOL."""
    rays = np.asarray(rays, dtype=float)
    # a ray with an entry that is not finite is zeroed, so the size test rejects it
    d = np.where(np.all(np.isfinite(rays), axis=1, keepdims=True), rays, 0.0)
    gain = np.sum(c * d, axis=1)
    return ((np.max(np.abs(d), axis=1, initial=0.0) > FEAS_TOL)
            & np.all(d >= -FEAS_TOL, axis=1) & _rows_hold(rows, d @ rows.A.T)
            & ((gain if sense == "max" else -gain) > FEAS_TOL))


# -- kernel -------------------------------------------------------------------------


def _solve_impl(lp):
    """Every row's outcome, row s continuing from row s - 1's final
    tableau; the first from lp's start or basis, or from phase 1, whose
    verdict of infeasible holds for every row."""
    c = np.atleast_2d(lp.c)
    S, n = c.shape
    kept = lp.start._tableau if lp.start is not None else None
    if kept is not None and lp.rows is kept.rows:
        tab = kept.copy()
    else:
        tab, y = _cold_start(lp)
        if y is not None:
            # violation-orientation multipliers for the LP's rows
            f = np.where(lp._le, -1.0, 1.0) * y
            peak = float(np.max(np.abs(f))) if lp.num_rows else 0.0
            if peak > 0:
                f = f / peak
            return _outcome(lp, ["infeasible"] * S, [tab.pivots] * S, farkas=np.tile(f, (S, 1)))
    costs = tab.kernel_cost(c, lp.sense)
    second_costs = None if lp.secondary is None else \
        tab.kernel_cost(np.atleast_2d(lp.secondary), lp.sense)
    statuses, pivots = [], []
    # each row's fields, written as it finishes; NaN where its status lacks them
    x, ray = np.full((S, n), np.nan), np.full((S, n), np.nan)
    y, objective = np.full((S, lp.num_rows), np.nan), np.full(S, np.nan)
    for s in range(S):
        cost = costs[s]
        since = tab.pivots
        entering, red = tab.run(cost, tab.art, since)
        if entering == -1 and second_costs is not None:
            entering = tab.settle_face(cost, red, second_costs[s], since)
        if entering != -1:
            statuses.append("unbounded")
            d = tab.ray_along(entering)[:n] + 0.0   # + 0.0 turns -0.0 into 0.0
            peak = np.max(np.abs(d))
            ray[s] = d / peak if peak > 0 else d
        else:
            # with no pivot since an optimal row, the basis and rhs, so x, are that row's
            same = s and not tab.pivots and statuses[-1] == "optimal"
            statuses.append("optimal")
            x[s], y[s] = tab.read_optimal(cost, x[s - 1] if same else None)
            objective[s] = float(c[s] @ x[s])
        pivots.append(tab.pivots)
        tab.pivots = 0
    fields = {}
    if "unbounded" in statuses:
        fields["ray"] = ray
    if "optimal" in statuses:
        if lp.sense == "max":
            y = -y
        fields.update(x=x, duals=y, reduced_costs=c - (lp.A.T @ y[:, :, None])[:, :, 0],
                      objective=objective)
    return _outcome(lp, statuses, pivots, tab, **fields)


def _outcome(lp, statuses, pivots, tab=None, **fields):
    """lp's outcome from each row's status and pivots, the last row's
    tableau, and each field with one row per LP; one LP's is its row's."""
    if lp.c.ndim == 1:
        row = {name: v[0] for name, v in fields.items()}
        if "objective" in row:
            row["objective"] = float(row["objective"])
        return LpOutcome(statuses[0], pivots=pivots[0], _tableau=tab, **row)
    return LpOutcome(_chain_status(statuses), pivots=np.array(pivots),
                     statuses=tuple(statuses), _tableau=tab, **fields)


class _Tableau:
    """Kernel state of  min c.x  s.t.  A x (senses) b,  x >= 0,  in one basis.

    T's columns are x (the first n), then one slack per inequality row,
    then one artificial (`art`) per `>=` or `=` row, after rows with
    b < 0 are negated (`flip`), then the rhs; `basis` lists each row's
    basic column, whose tableau column is exactly the unit vector of
    that row.  Kernel row i's dual is read from its slack or artificial
    column, reader[i].  Phase 1 drops from T the rows it finds
    redundant, each with its artificial basic at 0 and priced 0, but not
    their columns, so reader keeps every row.  `rows` is the LP's LpRows,
    which a warm start must share.

    One Bland step (run -> bland -> ratio_test -> pivot, then the
    carried reduced costs) reads m x cols entries only where the pivot
    updates the rows it touches; its other numpy calls take one row or
    one column.  A chained row that makes no pivot is one fresh pricing
    (an m-by-cols product), one scan, the face check and the read-off of
    its duals (an m-by-m product).
    """

    def __init__(self, T, basis, reader, flip, art, n, rows):
        self.T, self.basis, self.reader = T, basis, reader
        self.flip, self.art, self.n, self.rows = flip, art, n, rows
        self.cap = 10 * (basis.size + T.shape[1] - 1) ** 2
        self.pivots = 0

    def copy(self):
        """The same state with its own T and basis and no pivots counted."""
        twin = copy.copy(self)
        twin.T, twin.basis, twin.pivots = self.T.copy(), self.basis.copy(), 0
        return twin

    def pivot(self, rowi, colj):
        """Make colj basic in row rowi.

        The pivot row is divided once.  Only the other rows whose colj
        entry is nonzero are updated, each less its entry times the
        divided row (the products np.outer would give): any other row
        would lose 0 * (pivot row), so it is left as it is.
        """
        T = self.T
        self.pivots += 1
        prow = T[rowi] / T[rowi, colj]
        T[rowi, colj] = 0.0   # the pivot row is not among the rows it updates
        col = T[:, colj]
        nz = col.nonzero()[0]
        rows = T.take(nz, axis=0)
        rows -= col.take(nz)[:, None] * prow   # the products np.outer would give
        T[nz] = rows
        T[rowi] = prow
        T[:, colj] = 0.0
        T[rowi, colj] = 1.0
        self.basis[rowi] = colj

    def restate(self, cols):
        """Make cols[i] basic in row i by one product with the basis
        inverse, B^-1 T, setting the basic columns to the exact identity
        and basic values in [-FEAS_TOL, 0) to 0; NumericalFailureError
        when that basis is singular or its values fall below -FEAS_TOL.

        For a 0/+-1 basis that is triangular with a +-1 diagonal once its
        columns are ordered, B^-1 is exact, so the product is as exact as
        the dense solve np.linalg.solve(B, T) it replaces."""
        try:
            T = np.linalg.inv(self.T[:, cols]) @ self.T
        except np.linalg.LinAlgError:
            raise NumericalFailureError("start basis is singular") from None
        if not np.all(np.isfinite(T)):
            raise NumericalFailureError("start basis is singular")
        if np.any(T[:, -1] < -FEAS_TOL):
            raise NumericalFailureError("start basis is infeasible")
        T[:, cols] = np.eye(cols.size)
        np.maximum(T[:, -1], 0.0, out=T[:, -1])
        self.T, self.basis = T, cols

    def kernel_cost(self, c, sense):
        """The minimised kernel cost of objective c under `sense`: 0 past x;
        one row per objective when c stacks them."""
        cost = np.zeros(c.shape[:-1] + (self.T.shape[1] - 1,))
        cost[..., :self.n] = c if sense == "min" else -c
        return cost

    def read_optimal(self, cost, x=None):
        """An optimal basis's x, over the LP's variables, and its duals
        under cost, per original row before the sense's sign; x, when
        given, is taken as the vertex, as it is when read at this basis."""
        if x is None:
            values = np.zeros(self.T.shape[1] - 1)   # of every kernel column
            values[self.basis] = self.T[:, -1]
            x = values[:self.n] + 0.0
        return x, cost[self.basis] @ self.T[:, self.reader] * self.flip

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
        """Bland's leaving row for the entering column, or -1 when none bounds it:
        the eligible row (entry above PIV_TOL) of least ratio, scanned in
        row order, a ratio within 1e-12 of the best so far winning when
        its basic column is lower.  One eligible row is returned with no
        division, as the scan would return it."""
        T, basis = self.T, self.basis
        col = T[:, entering]
        eligible = (col > PIV_TOL).nonzero()[0]
        if eligible.size < 2:   # the loop below returns the one row, or -1
            return int(eligible[0]) if eligible.size else -1
        best_ratio, leave = None, -1
        ratios = T[:, -1].take(eligible) / col.take(eligible)
        for i, ratio in zip(eligible.tolist(), ratios.tolist()):
            if best_ratio is None or ratio < best_ratio - 1e-12 or \
                    (abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leave]):
                best_ratio, leave = ratio, i
        return leave

    def bland(self, red, banned):
        """Bland's choice under reduced costs `red`: (entering, leaving row),
        (entering, -1) when entering gives a ray, or (-1, -1) when optimal."""
        improving = red < -OPT_TOL
        improving[self.basis] = False
        if banned.size:
            improving[banned] = False
        for entering in improving.nonzero()[0].tolist():
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

    def settle_face(self, cost, red, second, since):
        """From an optimal basis, move along the optimal face to a vertex
        that is best for the kernel cost `second`; returns the entering
        column as run does.

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
        if self.art.size:
            open_[self.art] = False
        # basic columns price at exactly 0 and no artificial is basic, so
        # when only they are open, no nonbasic column is
        if np.count_nonzero(open_) == self.basis.size:
            return -1
        banned = np.flatnonzero(~open_)
        open_[self.basis] = False
        cols = np.flatnonzero(open_)
        if not np.any(second[cols] - second[self.basis] @ self.T[:, cols] < -OPT_TOL):
            return -1
        made = self.pivots
        self.run(second, banned, since)
        if self.pivots == made:
            return -1   # no tie pivot: still the optimal basis priced above
        return self.run(cost, self.art, since)[0]


def _cold_start(lp):
    """The LP's tableau in the slack/artificial basis, taken through phase 1,
    or restated in the LP's `basis` when it gives one.

    Returns (tableau, None) with a primal-feasible basis, or (tableau,
    y) when phase 1 proves the LP infeasible, where y holds the phase-1
    row multipliers stated for the LP's rows as given (not the
    sign-flipped copies).
    """
    A, b = lp.A.copy(), lp.b.copy()
    m, n = A.shape
    neg = b < 0
    flip = np.where(neg, -1.0, 1.0)
    A[neg] *= -1.0
    b[neg] *= -1.0
    # senses after the flip: a negated row swaps "<=" and ">="
    le, ge = np.where(neg, lp._ge, lp._le), np.where(neg, lp._le, lp._ge)

    # one slack per inequality row, then one artificial per ">=" or "=" row,
    # each numbered in row order
    slack_rows, art_rows = np.flatnonzero(le | ge), np.flatnonzero(ge | lp._eq)
    slack_of = np.full(m, -1)
    slack_of[slack_rows] = n + np.arange(slack_rows.size)
    art = n + slack_rows.size + np.arange(art_rows.size)
    ncols = n + slack_rows.size + art_rows.size

    T = np.zeros((m, ncols + 1))
    T[:, :n] = A
    T[:, -1] = b
    T[slack_rows, slack_of[slack_rows]] = np.where(le[slack_rows], 1.0, -1.0)
    T[art_rows, art] = 1.0
    reader = slack_of.copy()
    reader[art_rows] = art
    basis = np.where(le, slack_of, reader)
    tab = _Tableau(T, basis, reader, flip, art, n, lp.rows)
    if lp.basis is not None and m:
        tab.restate(np.where(lp.basis >= 0, lp.basis, slack_of))
        return tab, None
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
    # drive remaining artificials out of the basis, each into the first
    # column before the artificials (the last columns) it can pivot on; a
    # row with none is redundant and is dropped
    dead_rows = []
    for i in range(m):
        if tab.basis[i] >= art[0]:
            cols = np.flatnonzero(np.abs(tab.T[i, :art[0]]) > 1e-9)
            if cols.size:
                tab.pivot(i, cols[0])
            else:
                dead_rows.append(i)
    if dead_rows:
        tab.T, tab.basis = np.delete(tab.T, dead_rows, 0), np.delete(tab.basis, dead_rows)
    return tab, None
