import dataclasses
import pathlib
import sys
import weakref

import numpy as np
import pytest

from ddbd import simplex
from ddbd.oracle import scipy_lp_min
from ddbd.simplex import (
    LinearProgram,
    LpOutcome,
    LpRows,
    NumericalFailureError,
    solve,
    verify_certificate,
)
from reference_lp import (
    REFERENCE_KERNEL,
    best_vertex_value,
    chain_rows,
    enumerate_vertices,
    reference_ratio_test,
)


def make_lp(sense, c, rows, senses, b):
    c = np.asarray(c, dtype=float)
    return LinearProgram(sense=sense, c=c,
                         A=np.asarray(rows, dtype=float).reshape(len(senses), c.size),
                         senses=senses, b=np.asarray(b, dtype=float))


# -- hand-checked cases ---------------------------------------------------------


def test_trivial_max_zero():
    lp = make_lp("max", [0.0], [[1.0]], [">="], [0.0])
    out = solve(lp)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(0.0)
    assert out.x[0] == pytest.approx(0.0)


def test_two_var_dual_subproblem_at_0_1():
    # min -p1 + 0.3 p2  st  -p1 + 0.3 p2 >= 2, -p1 + 0.7 p2 >= 1, p >= 0
    lp = make_lp("min", [-1.0, 0.3],
                 [[-1.0, 0.3], [-1.0, 0.7]], [">=", ">="], [2.0, 1.0])
    out = solve(lp)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(2.0, abs=1e-9)
    assert out.x[0] == pytest.approx(0.0, abs=1e-9)
    assert out.x[1] == pytest.approx(20.0 / 3.0, abs=1e-9)


def test_infeasible_with_farkas():
    # y1 + y2 >= 2 and 0.3 y1 + 0.7 y2 <= 0.4 cannot both hold with y >= 0
    lp = make_lp("max", [2.0, 1.0],
                 [[1.0, 1.0], [0.3, 0.7]], [">=", "<="], [2.0, 0.4])
    out = solve(lp)
    assert out.status == "infeasible"
    assert verify_certificate(lp, out)
    # ray proportional to (1, 10/3): second multiplier / first = 10/3
    assert out.farkas[0] > 1e-9
    assert out.farkas[1] / out.farkas[0] == pytest.approx(10.0 / 3.0, abs=1e-6)


def test_unbounded_with_ray():
    lp = make_lp("max", [1.0, 0.0], [[-1.0, 1.0]], ["<="], [1.0])
    out = solve(lp)
    assert out.status == "unbounded"
    assert verify_certificate(lp, out)
    assert out.ray[0] > 0


def test_ray_too_flat_to_certify_is_passed_over():
    # x1 improves the objective by only 0.5 * FEAS_TOL along a ray, below
    # what verify_certificate takes; Bland passes over it, not bans it
    flat = make_lp("max", [0.5e-7, 0.0], [[-1.0, 1.0]], ["<="], [1.0])
    out = solve(flat)
    assert out.status == "optimal" and out.objective == pytest.approx(0.0, abs=1e-12)
    # once x2 is basic, x1 has a steep ray
    steep_later = make_lp("max", [0.5e-7, 1.0], [[-1.0, 1.0]], ["<="], [1.0])
    out = solve(steep_later)
    assert out.status == "unbounded"
    assert out.ray == pytest.approx([1.0, 1.0])


def test_equality_rows_and_boxes():
    # the box x <= 1 as rows
    lp = make_lp("min", [1.0, 2.0, 0.0],
                 [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                 ["=", "<=", "<=", "<="], [2.0, 1.0, 1.0, 1.0])
    out = solve(lp)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(1.0)  # x = (1, 0, 1)


def test_a_redundant_equality_row_is_dropped_after_phase_one():
    # x0 + x1 = 1 twice: one artificial stays basic at 0 in a row with no
    # other column to pivot on, and the tableau handed on drops that row
    lp = make_lp("min", [1.0, 2.0], [[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]],
                 ["=", "=", ">="], [1.0, 1.0, 0.0])
    out = solve(lp)
    assert out._tableau.T.shape[0] == 2
    assert out.status == "optimal" and verify_certificate(lp, out)
    assert out.x.tolist() == [1.0, 0.0]
    assert out.duals.tolist() == [1.0, 0.0, 0.0]
    assert out.objective == 1.0


# -- certificate rejection -------------------------------------------------------


@pytest.mark.parametrize("sense", ["<", "=<", ""])
def test_an_unknown_row_sense_is_rejected(sense):
    with pytest.raises(ValueError, match="row senses"):
        LinearProgram(sense="min", c=[1.0], A=[[1.0]], senses=[sense], b=[1.0])


@pytest.mark.parametrize("A, senses, num_vars", [
    (np.ones((4, 3)), ["<=", "<="], 6),    # was read as 2 rows by 6
    (np.ones((2, 3)), ["<=", "<=", "<="], 2),   # was read as 3 rows by 2
    (np.ones(3), ["<="], 3),
], ids=["4x3-as-2x6", "2x3-as-3x2", "1-d"])
def test_a_matrix_of_the_wrong_shape_is_rejected(A, senses, num_vars):
    b = np.zeros(len(senses))
    with pytest.raises(ValueError, match="rows by"):
        LinearProgram(sense="min", c=np.ones(num_vars), A=A, senses=senses, b=b)
    with pytest.raises(ValueError, match="rows by"):
        LpRows(A, senses, b, num_vars=num_vars)


def test_an_empty_matrix_is_no_rows():
    out = solve(LinearProgram(sense="min", c=[1.0, 2.0], A=[], senses=[], b=[]))
    assert out.status == "optimal" and out.x.tolist() == [0.0, 0.0]


def test_verify_rejects_bad_farkas_sign():
    lp = make_lp("max", [1.0], [[1.0]], ["<="], [1.0])
    fake = LpOutcome(status="infeasible", farkas=np.array([-1.0]))
    assert not verify_certificate(lp, fake)


def test_verify_rejects_zero_ray():
    lp = make_lp("max", [1.0], [[-1.0]], ["<="], [1.0])
    fake = LpOutcome(status="unbounded", ray=np.array([0.0]))
    assert not verify_certificate(lp, fake)


def test_verify_recomputes_optimal_residuals():
    lp = make_lp("min", [-1.0, 0.3],
                 [[-1.0, 0.3], [-1.0, 0.7]], [">=", ">="], [2.0, 1.0])
    out = solve(lp)
    assert verify_certificate(lp, out)
    tampered = LpOutcome(status="optimal", x=out.x + 1.0, duals=out.duals,
                         reduced_costs=out.reduced_costs, objective=out.objective)
    assert not verify_certificate(lp, tampered)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
def test_verifiers_reject_a_non_finite_objective_or_reduced_cost(bad):
    from reference_lp import verify_certificate_with_bounds

    lp = make_lp("min", [1.0, 2.0], [[1.0, 1.0]], [">="], [1.0])
    out = solve(lp)
    assert verify_certificate(lp, out) and verify_certificate_with_bounds(lp, out)
    for k in range(lp.num_vars):
        rc = out.reduced_costs.copy()
        rc[k] = bad
        for cert in (dataclasses.replace(out, objective=bad),
                     dataclasses.replace(out, reduced_costs=rc)):
            assert not verify_certificate(lp, cert)
            assert not verify_certificate_with_bounds(lp, cert)


# -- randomized cross-check against vertex enumeration -----------------------------


def random_lp(rng, nmax=6, mmax=8, force_feasible=False):
    """A random LP whose last n rows are its box, x_j <= hi_j."""
    n = rng.integers(1, nmax + 1)
    m = rng.integers(1, mmax + 1)
    A = np.round(rng.uniform(-3, 3, size=(m, n)), 2)
    senses = [rng.choice(["<=", ">=", "="]) if rng.random() < 0.15
              else rng.choice(["<=", ">="]) for _ in range(m)]
    if force_feasible:
        x0 = np.round(rng.uniform(0, 2, size=n), 2)
        slackness = rng.uniform(0.0, 1.5, size=m)
        b = A @ x0
        for i, s in enumerate(senses):
            if s == "<=":
                b[i] += slackness[i]
            elif s == ">=":
                b[i] -= slackness[i]
    else:
        b = np.round(rng.uniform(-3, 3, size=m), 2)
    c = np.round(rng.uniform(-2, 2, size=n), 2)
    hi = np.round(rng.uniform(1, 6, size=n), 2)
    sense = "min" if rng.random() < 0.5 else "max"
    return make_lp(sense, c, np.vstack([A, np.eye(n)]), senses + ["<="] * n,
                   np.append(b, hi))


def test_strong_duality_on_random_boxed_lps():
    rng = np.random.default_rng(42)
    solved = 0
    while solved < 200:
        lp = random_lp(rng, force_feasible=(solved % 2 == 0))
        ref = best_vertex_value(lp)
        out = solve(lp)
        if ref is None:
            assert out.status == "infeasible"
            assert verify_certificate(lp, out)
        else:
            assert out.status == "optimal"
            assert abs(out.objective - ref) <= 1e-6 * (1.0 + abs(ref))
            assert verify_certificate(lp, out)
        solved += 1


def test_larger_feasible_lps_match_reference():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, m = 5, 12
        A = np.round(rng.uniform(-2, 2, size=(m, n)), 2)
        x0 = np.round(rng.uniform(0, 1.5, size=n), 2)
        b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
        c = np.round(rng.uniform(-2, 2, size=n), 2)
        lp = make_lp("min", c, np.vstack([A, np.eye(n)]), ["<="] * (m + n),
                     np.append(b, np.full(n, 4.0)))
        out = solve(lp)
        ref = best_vertex_value(lp)
        assert out.status == "optimal"
        assert abs(out.objective - ref) <= 1e-6 * (1.0 + abs(ref))


def test_farkas_soundness_random():
    rng = np.random.default_rng(99)
    found = 0
    while found < 30:
        lp = random_lp(rng)
        out = solve(lp)
        if out.status != "infeasible":
            continue
        found += 1
        # the aggregated row must exclude every vertex of the generator's box
        orient = np.array([1.0 if s in (">=", "=") else -1.0 for s in lp.senses])
        w = (orient * out.farkas) @ lp.A
        r = float((orient * out.farkas) @ lp.b)
        hi = lp.b[-lp.num_vars:]
        for _ in range(50):
            pick = rng.integers(0, 2, size=lp.num_vars)
            x = np.where(pick == 0, 0.0, hi)
            assert float(w @ x) < r - 1e-9


def tampered_certificates(lp, out, rng):
    """out with its certificate (and an optimal outcome's duals) moved in
    one entry by steps from well inside to far past the tolerances,
    negated and shrunk to a sliver; an optimal outcome also with a shifted
    objective and with unchecked reduced costs and noisy duals, and with
    a NaN or infinite objective or reduced cost; then a random ray and a
    random infeasibility aggregate of the LP's size."""
    names = {"optimal": ["x", "duals"], "infeasible": ["farkas"], "unbounded": ["ray"]}
    changed = []
    for name in names[out.status]:
        v = getattr(out, name)
        for step in (1e-8, -1e-8, 1e-7, -1e-7, 1e-6, -1e-6, 1e-5, -1e-5, 1e-2, -1e-2):
            if v.size:
                w = v.copy()
                w[rng.integers(v.size)] += step
                changed.append(dataclasses.replace(out, **{name: w}))
        changed += [dataclasses.replace(out, **{name: -v}),
                    dataclasses.replace(out, **{name: v * 1e-8})]
    if out.status == "optimal":
        changed += [dataclasses.replace(out, objective=out.objective + 1e-5),
                    dataclasses.replace(out, reduced_costs=None,
                                        duals=out.duals + 1e-6 * rng.normal(size=out.duals.size))]
        for bad in (np.nan, np.inf, -np.inf):
            changed.append(dataclasses.replace(out, objective=bad))
            if out.reduced_costs.size:
                rc = out.reduced_costs.copy()
                rc[-1] = bad
                changed.append(dataclasses.replace(out, reduced_costs=rc))
    return changed + [LpOutcome(status="unbounded", ray=np.abs(rng.normal(size=lp.num_vars))),
                      LpOutcome(status="infeasible", farkas=np.abs(rng.normal(size=lp.num_rows)))]


def test_x_ge_0_verifiers_give_the_bounded_forms_verdicts_on_criterion_10_lps():
    from reference_lp import verify_certificate_with_bounds

    # criterion 10's LPs, and each again without its box rows, so that
    # some are unbounded; every certificate honest and tampered
    rng, tamper = np.random.default_rng(1234), np.random.default_rng(77)
    verdicts = {}
    for solved in range(200):
        boxed = random_lp(rng, force_feasible=(solved % 2 == 0))
        n = boxed.num_vars
        unboxed = make_lp(boxed.sense, boxed.c, boxed.A[:-n], boxed.senses[:-n], boxed.b[:-n])
        for lp in (boxed, unboxed):
            out = solve(lp)
            for cert in [out] + tampered_certificates(lp, out, tamper):
                verdict = verify_certificate(lp, cert)
                assert verdict == verify_certificate_with_bounds(lp, cert), (solved, cert)
                verdicts[cert.status, verdict] = verdicts.get((cert.status, verdict), 0) + 1
    assert len(verdicts) == 6 and min(verdicts.values()) >= 50, verdicts


def test_determinism():
    rng = np.random.default_rng(5)
    lp = random_lp(rng, force_feasible=True)
    out1 = solve(lp)
    out2 = solve(lp)
    assert out1.status == out2.status
    assert np.array_equal(out1.x, out2.x)
    assert np.array_equal(out1.duals, out2.duals)


# -- certificate tolerance boundaries --------------------------------------------
#
# Each case builds a valid certificate with one checked quantity set to t
# and every other checked quantity far from its threshold.  The check must
# reject t just past its tolerance and accept t just inside it.

FEAS_TOL = 1e-7   # the certificate slack, stated here independently of the solver


def assert_boundary(holds, tol, lower_is_bad=False):
    """holds(t) is False 1% past tol and True 1% inside it."""
    past, inside = (0.99, 1.01) if lower_is_bad else (1.01, 0.99)
    assert not holds(past * tol)
    assert holds(inside * tol)


def optimal_outcome(lp, x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return LpOutcome(status="optimal", x=x, duals=y, reduced_costs=lp.c - lp.A.T @ y,
                     objective=float(lp.c @ x))


def farkas_holds(lp, f):
    return verify_certificate(lp, LpOutcome(status="infeasible", farkas=np.array(f)))


def ray_holds(lp, d):
    return verify_certificate(lp, LpOutcome(status="unbounded", ray=np.array(d)))


@pytest.mark.parametrize("sense,row_sense,step", [
    ("min", ">=", -1.0), ("max", "<=", 1.0), ("min", "=", -1.0), ("min", "=", 1.0)])
def test_optimal_primal_residual_boundary(sense, row_sense, step):
    # the row x1 (row_sense) 1 is tight at x1 = 1 with dual 1; x1 moves t off it
    lp = make_lp(sense, [1.0], [[1.0]], [row_sense], [1.0])
    assert verify_certificate(lp, optimal_outcome(lp, [1.0], [1.0]))
    assert_boundary(lambda t: verify_certificate(
        lp, optimal_outcome(lp, [1.0 + step * t], [1.0])), FEAS_TOL)


def test_optimal_dual_sign_boundary():
    scale = 2.0   # 1 + max |c|
    # min x1: x1 >= 1 and x1 - x2 <= 1 are tight at (1, 0); the "<=" row's
    # dual takes the wrong sign t and the ">=" row's dual absorbs it
    lp = make_lp("min", [1.0, 0.0], [[1.0, 0.0], [1.0, -1.0]], [">=", "<="], [1.0, 1.0])
    assert_boundary(lambda t: verify_certificate(
        lp, optimal_outcome(lp, [1.0, 0.0], [1.0 - t, t])), FEAS_TOL * scale)
    # min x1: x1 >= 1 and x1 + x2 >= 1 are tight at (1, 0); the second
    # ">=" row's dual takes the wrong sign -t
    lp = make_lp("min", [1.0, 0.0], [[1.0, 0.0], [1.0, 1.0]], [">=", ">="], [1.0, 1.0])
    assert_boundary(lambda t: verify_certificate(
        lp, optimal_outcome(lp, [1.0, 0.0], [1.0 + t, -t])), FEAS_TOL * scale)


def test_optimal_complementary_slackness_boundary():
    scale = 2.0
    # the slack row x1 <= 3 carries a dual of size t
    lp = make_lp("min", [1.0], [[1.0], [1.0]], [">=", "<="], [1.0, 3.0])
    assert_boundary(lambda t: verify_certificate(
        lp, optimal_outcome(lp, [1.0], [1.0 + t, -t])), FEAS_TOL * scale)

    # a row with dual -1e-6 is t away from tight: x1 <= 1 + t at x1 = 1
    def slack_by(t):
        lp = make_lp("min", [1.0], [[1.0], [1.0]], [">=", "<="], [1.0, 1.0 + t])
        return verify_certificate(lp, optimal_outcome(lp, [1.0], [1.0 + 1e-6, -1e-6]))
    assert_boundary(slack_by, 1e-5 * 2.0 / (1.0 - 1e-5))   # t <= 1e-5 (1 + |1 + t|)


def test_optimal_duality_gap_boundary():
    # x1 = 1 + t stays feasible for x1 >= 1 while the dual objective stays 1
    lp = make_lp("min", [1.0], [[1.0]], [">="], [1.0])
    assert_boundary(lambda t: verify_certificate(
        lp, optimal_outcome(lp, [1.0 + t], [1.0])), 2e-6 / (1.0 - 1e-6))


def test_farkas_sign_boundary():
    # x1 >= 2 and x1 <= 1 conflict; an idle third row takes multiplier -t
    lp = make_lp("max", [1.0], [[1.0], [1.0], [0.0]], [">=", "<=", "<="], [2.0, 1.0, 0.0])
    assert farkas_holds(lp, [1.0, 1.0, 0.0])
    assert_boundary(lambda t: farkas_holds(lp, [1.0, 1.0, -t]),
                    FEAS_TOL * 2.0)   # FEAS_TOL (1 + peak)


def test_farkas_margin_boundary():
    # r - best must exceed FEAS_TOL (1 + |r|); the rows aggregate to w = 0,
    # so best is 0 and r = t
    # x1 >= 1 + t with the row x1 <= 1
    assert_boundary(lambda t: farkas_holds(
        make_lp("max", [1.0], [[1.0], [1.0]], [">=", "<="], [1.0 + t, 1.0]), [1.0, 1.0]),
        FEAS_TOL / (1.0 - FEAS_TOL), lower_is_bad=True)
    # x1 <= 1 - t with the row x1 >= 1
    assert_boundary(lambda t: farkas_holds(
        make_lp("max", [1.0], [[1.0], [1.0]], ["<=", ">="], [1.0 - t, 1.0]), [1.0, 1.0]),
        FEAS_TOL / (1.0 - FEAS_TOL), lower_is_bad=True)


def test_ray_row_residual_boundary():
    # max x1 st -x1 + x2 <= 1 (and = 1): d = (1, 1 + t) leaves the recession cone
    for row_sense in ("<=", "="):
        lp = make_lp("max", [1.0, 0.0], [[-1.0, 1.0]], [row_sense], [1.0])
        assert_boundary(lambda t: ray_holds(lp, [1.0, 1.0 + t]), FEAS_TOL)
    lp = make_lp("max", [1.0, 0.0], [[1.0, -1.0]], [">="], [-1.0])
    assert_boundary(lambda t: ray_holds(lp, [1.0, 1.0 + t]), FEAS_TOL)


def test_ray_bound_sign_boundary():
    # max x1 st -x1 <= 1; x2 >= 0 (then also the row x2 <= 0) and d moves it the wrong way
    lp = make_lp("max", [1.0, 0.0], [[-1.0, 0.0]], ["<="], [1.0])
    assert_boundary(lambda t: ray_holds(lp, [1.0, -t]), FEAS_TOL)
    lp = make_lp("max", [1.0, 0.0], [[-1.0, 0.0], [0.0, 1.0]], ["<=", "<="], [1.0, 0.0])
    assert_boundary(lambda t: ray_holds(lp, [1.0, t]), FEAS_TOL)


def test_ray_gain_boundary():
    # along d = (1, 0) the objective changes by t
    for sense, sign in (("max", 1.0), ("min", -1.0)):
        lp_at = lambda t: make_lp(sense, [sign * t, 0.0], [[-1.0, 0.0]], ["<="], [1.0])  # noqa: E731
        assert_boundary(lambda t: ray_holds(lp_at(t), [1.0, 0.0]), FEAS_TOL,
                        lower_is_bad=True)


# -- warm start -----------------------------------------------------------------


def start_data(**changes):
    """The warm-start tests' rows as LpRows arguments, with `changes` in
    place of some of them.  Kernel columns: x1, x2, x3, the slacks of rows
    0 and 1, then the artificial of the ">=" row 0, so a cold start needs
    phase 1."""
    data = dict(A=np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]]), senses=[">=", "<="],
                b=np.array([1.0, 2.0]))
    data.update(changes)
    return data


def start_rows(**changes):
    """start_data's rows as a new LpRows."""
    return LpRows(**start_data(**changes))


# a warm start needs the very LpRows of its start's LP, so LPs share this one
START_ROWS = start_rows()


def start_lp(c=(1.0, 2.0, 3.0), start=None, rows=START_ROWS):
    return LinearProgram(sense="min", c=np.array(c), start=start, rows=rows)


def same_outcome(a, b):
    """Equal status, vectors bit for bit, objective and pivots."""
    def bits(v):
        return None if v is None else np.asarray(v).tobytes()
    return (a.status, bits(a.x), bits(a.ray), bits(a.duals), bits(a.farkas),
            repr(a.objective), a.pivots) == \
        (b.status, bits(b.x), bits(b.ray), bits(b.duals), bits(b.farkas),
         repr(b.objective), b.pivots)


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("c, changes", [
    ((1.0, 2.0, 3.0), dict(A=np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -2.0]]))),
    ((1.0, 2.0, 3.0, 1.0), dict(A=np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 0.0]]))),
    ((1.0, 2.0, 3.0), dict(b=np.array([1.0, 3.0]))),
    ((1.0, 2.0, 3.0), dict(senses=[">=", "="])),
    ((1.0, 2.0, 3.0), dict()),
], ids=["A", "A-shape", "b", "sense", "equal-values"])
def test_a_start_over_other_rows_is_a_cold_start(c, changes, monkeypatch):
    start = solve(start_lp())
    assert start.status == "optimal"
    # another LpRows, even one equal to START_ROWS by value, starts cold
    rows = start_rows(**changes)
    colds = count_calls(monkeypatch, simplex, "_cold_start")
    out = solve(start_lp(c, start=start, rows=rows))
    assert len(colds) == 1
    assert same_outcome(out, solve(start_lp(c, rows=rows)))


def test_a_warm_start_skips_the_transform_and_phase_one(monkeypatch):
    cold = solve(start_lp())
    assert cold.status == "optimal" and cold.pivots > 0
    colds = count_calls(monkeypatch, simplex, "_cold_start")
    dense_solves = count_calls(monkeypatch, np.linalg, "solve")
    again = solve(start_lp(start=cold))
    assert again.pivots == 0 and again.objective == cold.objective
    # another objective over the same rows: the kept basis is still feasible
    c = (3.0, 2.0, 1.0)
    warm = solve(start_lp(c, start=cold))
    assert colds == [] and dense_solves == []
    ref = solve(start_lp(c))
    assert len(colds) == 1
    assert warm.status == ref.status == "optimal"
    assert warm.objective == pytest.approx(ref.objective, rel=1e-12)
    assert warm.pivots < ref.pivots


def test_one_lp_solved_twice_from_one_start_gives_one_outcome():
    cold = solve(start_lp())
    for c in ((1.0, 2.0, 3.0), (1.0, 2.0, 4.0), (3.0, 2.0, 1.0), (-1.0, 0.0, 0.0)):
        first = solve(start_lp(c, start=cold))
        assert same_outcome(first, solve(start_lp(c, start=cold)))
        # and a warm start from the outcome of a warm start
        assert same_outcome(solve(start_lp(start=first)), solve(start_lp(start=first)))
    assert first.status == "unbounded" and first.pivots > 0


def test_an_infeasible_outcome_hands_on_no_state(monkeypatch):
    rows = start_rows(b=np.array([3.0, -2.0]), senses=[">=", ">="],
                      A=np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]))
    infeasible = solve(start_lp(rows=rows))
    assert infeasible.status == "infeasible"
    colds = count_calls(monkeypatch, simplex, "_cold_start")
    out = solve(start_lp((3.0, 2.0, 1.0), start=infeasible, rows=rows))
    assert len(colds) == 1
    assert same_outcome(out, solve(start_lp((3.0, 2.0, 1.0), rows=rows)))


def test_a_start_that_is_not_an_outcome_is_rejected():
    cold = solve(start_lp())
    with pytest.raises(TypeError):
        start_lp(start=np.array([0, 4]))
    with pytest.raises(TypeError):
        start_lp(start=cold.x)


def test_lps_over_one_lp_rows_warm_start_with_no_row_check(monkeypatch):
    rows = start_rows()
    cold = solve(LinearProgram(sense="min", c=np.array([1.0, 2.0, 3.0]), rows=rows))
    checks = count_calls(monkeypatch, np, "array_equal")
    finite = count_calls(monkeypatch, np, "isfinite")
    colds = count_calls(monkeypatch, simplex, "_cold_start")
    lp = LinearProgram(sense="min", c=np.array([3.0, 2.0, 1.0]), rows=rows, start=cold)
    assert checks == [] and len(finite) == 1   # the objective's check only
    warm = solve(lp)
    assert checks == [] and colds == []
    # the same outcome as a warm start over another LpRows of these values
    assert same_outcome(warm, solve(start_lp((3.0, 2.0, 1.0), start=solve(start_lp()))))


@pytest.mark.parametrize("changes", [dict(b=np.array([1.0, 3.0]))], ids=["b"])
def test_a_start_over_other_row_values_is_cold_with_shared_rows(changes, monkeypatch):
    start = solve(start_lp())
    other = start_rows(**changes)
    colds = count_calls(monkeypatch, simplex, "_cold_start")
    out = solve(start_lp(start=start, rows=other))
    assert len(colds) == 1
    assert same_outcome(out, solve(start_lp(rows=other)))


def given_arrays_lp(c=(1.0, 2.0, 3.0), start=None, **changes):
    """start_lp's LP given its rows as arrays, so it makes its own LpRows."""
    return LinearProgram(sense="min", c=np.array(c), start=start, **start_data(**changes))


def test_an_lp_keeps_its_own_copy_of_rows_its_caller_changes_in_place(monkeypatch):
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]])
    b = np.array([1.0, 2.0])
    first = given_arrays_lp(A=A, b=b)
    cold = solve(first)
    A[1, 2], b[1] = -2.0, 3.0   # the caller's arrays stay writeable
    assert first.A[1, 2] == -1.0 and first.b[1] == 2.0
    colds = count_calls(monkeypatch, simplex, "_cold_start")
    out = solve(given_arrays_lp(A=A, b=b, start=cold))
    assert len(colds) == 1
    assert same_outcome(out, solve(given_arrays_lp(A=A.copy(), b=b.copy())))
    # the LP's own LpRows is what its outcome warm-starts
    again = solve(start_lp(start=cold, rows=first.rows))
    assert len(colds) == 2 and again.pivots == 0


def test_an_lps_rows_are_read_only():
    lp = given_arrays_lp()
    for a in (lp.A, lp.b, lp.lo, lp.hi, lp.rows.A):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    assert lp.lo.tolist() == [0.0] * 3 and lp.hi.tolist() == [np.inf] * 3
    assert isinstance(lp.senses, tuple)
    shared = LinearProgram(sense="max", c=np.ones(3), rows=lp.rows)
    assert shared.rows is lp.rows and shared.A is lp.A
    with pytest.raises(ValueError, match="not both"):
        LinearProgram(sense="max", c=np.ones(3), A=np.ones((2, 3)), rows=lp.rows)
    with pytest.raises(ValueError, match="objective size"):
        LinearProgram(sense="max", c=np.ones(2), rows=lp.rows)


def test_a_dropped_outcome_is_collected_over_a_chain_of_warm_solves():
    # no outcome references its LP or that LP's start, so the kept tableaus
    # are freed as soon as the caller drops their outcome, with no cycle
    rng = np.random.default_rng(3)
    out = solve(start_lp())
    dropped = []
    for _ in range(20):
        dropped.append(weakref.ref(out))
        c = rng.uniform(0.1, 3.0, size=3)
        out = solve(start_lp(c, start=out))
    assert out.status == "optimal"
    assert all(ref() is None for ref in dropped)
    # the chain was warm: its last objective, repeated, takes no pivot
    assert solve(start_lp(c, start=out)).pivots == 0


def test_warm_chains_do_not_drift_from_a_fresh_factorization():
    # rows: A x <= b (slack 1) and x1 + ... + xn >= 1 (slack -1, artificial),
    # so the kernel tableau is [A | slacks | artificial | b]
    rng = np.random.default_rng(11)
    n, m = 8, 10
    A = np.vstack([np.round(rng.uniform(-1.0, 3.0, size=(m - 1, n)), 2), np.ones(n)])
    b = np.append(A[:-1] @ rng.uniform(0.2, 1.0, size=n) + rng.uniform(0.5, 2.0, size=m - 1),
                  1.0)
    senses = ["<="] * (m - 1) + [">="]
    T0 = np.hstack([A, np.diag([1.0] * (m - 1) + [-1.0]), np.eye(m)[:, -1:], b[:, None]])
    rows = LpRows(A, senses, b)

    def lp(c, start=None):
        return LinearProgram(sense="min", c=c, rows=rows, start=start)

    out = solve(lp(rng.uniform(-1.0, 1.0, size=n)))
    warm_pivots = 0
    for _ in range(200):
        c = rng.uniform(-1.0, 1.0, size=n)
        out = solve(lp(c, start=out))
        warm_pivots += out.pivots
        ref = solve(lp(c))
        assert out.status == ref.status == "optimal"
        assert abs(out.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
        tab = out._tableau
        assert tab.T.shape[0] == m   # phase 1 dropped no row
        fresh = np.linalg.solve(T0[:, tab.basis], T0)
        assert np.max(np.abs(tab.T - fresh)) <= 1e-9
    assert warm_pivots > 0
    # the chain was warm: its last objective, repeated, takes no pivot
    assert solve(lp(c, start=out)).pivots == 0


# -- start basis ------------------------------------------------------------------


def flipped_lp(basis=None):
    """min x1 + 2 x2 with x1 + x2 >= 2 and x1 - x2 <= 1, both given negated
    (b < 0, so the kernel flips them back and a cold start needs phase 1),
    and x1 + x2 <= 4; optimal at (1.5, 0.5) in the basis [0, 1, -1]."""
    lp = make_lp("min", [1.0, 2.0], [[-1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]],
                 ["<=", ">=", "<="], [-2.0, -1.0, 4.0])
    return dataclasses.replace(lp, basis=basis)


def test_a_start_basis_on_flipped_rows_makes_no_phase_one_pivot(monkeypatch):
    cold = solve(flipped_lp())
    assert cold.status == "optimal" and cold.pivots > 0
    runs = count_calls(monkeypatch, simplex._Tableau, "run")
    at_optimum = solve(flipped_lp([0, 1, -1]))
    assert len(runs) == 1 and at_optimum.pivots == 0   # phase 2 alone
    # from a feasible basis that is not optimal, only phase 2 pivots
    runs.clear()
    above = solve(flipped_lp([1, -1, -1]))   # x2 = 2, objective 4
    assert len(runs) == 1 and above.pivots > 0
    for out in (at_optimum, above):
        assert out.status == "optimal"
        assert out.objective == pytest.approx(cold.objective, rel=1e-12)
        assert np.allclose(out.duals, cold.duals, rtol=0.0, atol=1e-12)


def row_basis(lp, tab):
    """The final kernel basis of an outcome as LinearProgram.basis entries,
    or None when an artificial is basic or phase 1 dropped a row."""
    m, n = lp.num_rows, lp.num_vars
    ineq = [i for i, s in enumerate(lp.senses) if s != "="]
    if tab.basis.size != m or np.any(tab.basis >= n + len(ineq)):
        return None
    basis = np.full(m, -1)
    own = {ineq[j - n] for j in tab.basis.tolist() if j >= n}
    free = (i for i in range(m) if i not in own)
    for j in tab.basis[tab.basis < n].tolist():
        basis[next(free)] = j
    return basis


def test_an_optimal_start_basis_needs_no_pivot_on_random_lps():
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(150):
        lp = random_lp(rng, force_feasible=True)
        cold = solve(lp)
        basis = row_basis(lp, cold._tableau) if cold.status == "optimal" else None
        if basis is None:
            continue
        out = solve(dataclasses.replace(lp, basis=basis))
        assert out.status == "optimal" and out.pivots == 0
        assert out.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
        checked += 1
    assert checked > 100


def test_a_kept_tableau_takes_precedence_over_a_start_basis(monkeypatch):
    cold = solve(start_lp())
    dense_solves = count_calls(monkeypatch, np.linalg, "solve")
    lp = dataclasses.replace(start_lp((3.0, 2.0, 1.0), start=cold), basis=[1, -1])
    assert same_outcome(solve(lp), solve(start_lp((3.0, 2.0, 1.0), start=cold)))
    assert dense_solves == []


@pytest.mark.parametrize("basis", [[0], [0, 1, 2], [[0, 1]], [0, 3], [0, -2], [1, 1],
                                   [-1, 0], [0.0, 1.0]],
                         ids=["short", "long", "shape", "past-n", "below-1", "repeat",
                              "slack-on-eq", "float"])
def test_a_malformed_start_basis_is_rejected(basis):
    # three variables, and an "=" row, which has no slack, then a "<=" row
    lp = make_lp("min", [1.0, 1.0, 1.0], [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], ["=", "<="],
                 [1.0, 2.0])
    with pytest.raises(ValueError):
        dataclasses.replace(lp, basis=basis)


def test_a_start_basis_is_kept_as_a_read_only_copy():
    given = [2, -1]
    lp = make_lp("min", [1.0, 1.0, 1.0], [[1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], ["=", "<="],
                 [1.0, 2.0])
    lp = dataclasses.replace(lp, basis=given)
    given[0] = 0
    assert lp.basis.tolist() == [2, -1] and not lp.basis.flags.writeable


@pytest.mark.parametrize("basis", [[1, -1], [0, -1]], ids=["singular", "infeasible"])
def test_a_singular_or_infeasible_start_basis_raises(basis):
    # x2 has no entry in row 0, so [1, -1] is singular; x1 = 1 in row 0
    # leaves row 1 (x1 - x2 <= 0.5) a slack of -0.5
    lp = make_lp("min", [1.0, 1.0], [[1.0, 0.0], [1.0, -1.0]], ["<=", "<="], [1.0, 0.5])
    with pytest.raises(NumericalFailureError):
        solve(dataclasses.replace(lp, basis=basis))


# -- the pivot's arithmetic ------------------------------------------------------


def dense_pivot(self, rowi, colj):
    """The kernel's pivot as one dense rank-1 update of every tableau row."""
    T = self.T
    self.pivots += 1
    T[rowi] = T[rowi] / T[rowi, colj]
    col = T[:, colj].copy()
    col[rowi] = 0.0
    T -= np.outer(col, T[rowi])
    T[:, colj] = 0.0
    T[rowi, colj] = 1.0
    self.basis[rowi] = colj


def kernel_lp(rng):
    """A small LP with sparse rows of every sense; feasible around a point
    (degenerate when slack is zero) or with a random rhs, and with some
    variables boxed by rows x_j <= hi_j, so it may be infeasible or unbounded."""
    n, m = rng.integers(1, 7), rng.integers(1, 9)
    A = np.round(rng.uniform(-3, 3, size=(m, n)), 1) * (rng.random((m, n)) < 0.6)
    senses = list(rng.choice(["<=", ">=", "="], size=m, p=[0.5, 0.35, 0.15]))
    if rng.random() < 0.6:
        x0 = np.round(rng.uniform(0, 2, size=n), 1)
        slack = np.where(rng.random(m) < 0.5, 0.0, np.round(rng.uniform(0, 1.5, size=m), 1))
        orient = np.select([np.array(senses) == "<=", np.array(senses) == ">="], [1.0, -1.0], 0.0)
        b = A @ x0 + orient * slack
    else:
        b = np.round(rng.uniform(-3, 3, size=m), 1)
    boxed = np.flatnonzero(rng.random(n) < 0.5)
    A = np.vstack([A, np.eye(n)[boxed]])
    senses += ["<="] * boxed.size
    b = np.append(b, np.round(rng.uniform(1, 6, size=boxed.size), 1))
    c = np.round(rng.uniform(-2, 2, size=n), 1)
    return LinearProgram(sense=str(rng.choice(["min", "max"])), c=c, A=A, senses=senses, b=b)


def kernel_chains(seed, count):
    """`count` LPs, each followed by a warm chain of three more objectives."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lp = kernel_lp(rng)
        yield lp, [rng.uniform(-2, 2, size=lp.num_vars) for _ in range(3)]


def solve_chain(lp, objectives):
    """The LP's outcome, then each objective's over its rows, warm from the
    one before."""
    outs = [solve(lp)]
    for c in objectives:
        outs.append(solve(LinearProgram(sense=lp.sense, c=c, rows=lp.rows, start=outs[-1])))
    return outs


def chain_colds(outs):
    """The cold starts a chain makes: its first LP, and each LP after an
    infeasible outcome, which hands on no tableau."""
    return 1 + sum(out.status == "infeasible" for out in outs[:-1])


def test_touched_row_pivots_give_the_dense_update(monkeypatch):
    def fields(out):
        return (out.status, out.x, out.duals, out.farkas, out.ray, out.objective, out.pivots)

    def equal(a, b):
        return all(np.array_equal(u, v) for u, v in zip(fields(a), fields(b)))

    degenerate = []

    def watched_dense(self, rowi, colj):
        degenerate.append(self.T[rowi, -1] == 0.0)
        dense_pivot(self, rowi, colj)

    seen, phase_one = set(), 0
    colds = count_calls(monkeypatch, simplex, "_cold_start")
    for lp, objectives in kernel_chains(2024, 200):
        colds.clear()
        outs = solve_chain(lp, objectives)
        assert len(colds) == chain_colds(outs)
        with monkeypatch.context() as patch:
            patch.setattr(simplex._Tableau, "pivot", watched_dense)
            refs = solve_chain(lp, objectives)
        assert all(equal(out, ref) for out, ref in zip(outs, refs))
        seen.update(out.status for out in outs)
        phase_one += not all(s == "<=" for s in lp.senses)
    assert seen == {"optimal", "infeasible", "unbounded"}
    assert phase_one > 50 and sum(degenerate) > 20


def test_carried_reduced_costs_track_fresh_ones_and_exits_are_fresh(monkeypatch):
    events, costs = [], []
    real = {name: getattr(simplex._Tableau, name)
            for name in ("run", "reduced_costs", "bland", "pivot")}

    def run(self, cost, banned, since=None):
        costs.append(cost)
        entering, red = real["run"](self, cost, banned, since)
        events.append(("exit", entering, self, banned, red))
        return entering, red

    def priced(self, cost):
        red = real["reduced_costs"](self, cost)
        events.append(("fresh", red.copy()))
        return red

    def bland(self, red, banned):
        # every Bland choice, on fresh or carried reduced costs, sees
        # values within rounding of the tableau's own
        cost = costs[-1]
        fresh = cost - cost[self.basis] @ self.T[:, :-1]
        assert np.max(np.abs(red - fresh)) <= 1e-9 * (1.0 + np.max(np.abs(cost)))
        events.append(("bland",))
        return real["bland"](self, red, banned)

    def pivot(self, rowi, colj):
        events.append(("pivot",))
        real["pivot"](self, rowi, colj)

    for name, spy in (("run", run), ("reduced_costs", priced), ("bland", bland),
                      ("pivot", pivot)):
        monkeypatch.setattr(simplex._Tableau, name, spy)
    colds = count_calls(monkeypatch, simplex, "_cold_start")
    for lp, objectives in kernel_chains(7, 100):
        colds.clear()
        outs = solve_chain(lp, objectives)
        assert len(colds) == chain_colds(outs)
    exits = [k for k, e in enumerate(events) if e[0] == "exit"]
    for k in exits:
        # the exit is decided on reduced costs priced after the last pivot
        assert [e[0] for e in events[k - 2:k]] == ["fresh", "bland"]
        _, entering, tab, banned, returned = events[k]
        red = events[k - 2][1]
        assert np.array_equal(returned, red)   # run hands back the exit's costs
        if entering >= 0:
            assert red[entering] < -simplex.OPT_TOL
            assert tab.ratio_test(entering) == -1
        else:
            improving = red < -simplex.OPT_TOL
            improving[tab.basis] = False
            improving[banned] = False
            assert all(tab.ratio_test(j) == -1 for j in np.flatnonzero(improving))
    # carried costs that showed no pivot to make, priced afresh before the exit
    repriced = sum(a[0] == "bland" and b[0] == "fresh" for a, b in zip(events, events[1:]))
    assert len(exits) > 300 and repriced > 100


def outcome_bytes(out):
    """An outcome's statuses, every field and per-row pivot count as
    bytes, and the tableau and basis it hands on."""
    fields = [out.status, out.statuses]
    for name in ("x", "duals", "reduced_costs", "objective", "farkas", "ray", "pivots"):
        v = getattr(out, name)
        fields.append(None if v is None else np.asarray(v).tobytes())
    tab = out._tableau
    return fields + ([None] if tab is None else [tab.T.tobytes(), tab.basis.tobytes()])


def solve_both(lp, monkeypatch):
    """lp's outcome from the kernel, and from the reference kernel patched in."""
    out = solve(lp)
    with monkeypatch.context() as patch:
        for name, method in REFERENCE_KERNEL.items():
            patch.setattr(simplex._Tableau, name, method)
        return out, solve(lp)


def test_the_kernel_gives_the_reference_kernels_bytes_on_chains(monkeypatch):
    # chains of four objectives over kernel_chains' rows: cold (phase 1
    # when a row is `>=` or `=`) or warm, each with a secondary that
    # moves along optimal faces where the objectives' small integers tie
    tie_pivots = []
    real_settle = simplex._Tableau.settle_face

    def settle(self, *args):
        made = self.pivots
        result = real_settle(self, *args)
        tie_pivots.append(self.pivots - made)
        return result

    monkeypatch.setattr(simplex._Tableau, "settle_face", settle)
    rng = np.random.default_rng(45)
    seen, phase_one = set(), 0
    for lp, _ in kernel_chains(45, 300):
        start = solve(lp) if rng.random() < 0.3 else None
        out, ref = solve_both(chain_over(lp, rng, start=start), monkeypatch)
        assert outcome_bytes(out) == outcome_bytes(ref)
        seen.update(out.statuses)
        # an artificial for each `=` row and each row that is `>=` once b >= 0
        senses = np.array(lp.senses)
        art = (senses == "=") | np.where(lp.b < 0, senses == "<=", senses == ">=")
        phase_one += start is None and art.any()
    assert seen == {"optimal", "infeasible", "unbounded"}
    assert phase_one > 100 and sum(p > 0 for p in tie_pivots) > 20


def test_the_kernel_gives_the_reference_kernels_bytes_on_the_benchmark_lps(monkeypatch):
    # every chained dispatch LP of the benchmark's 30 instances, each
    # solved again from the same start by both kernels
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS, make_instance

    from ddbd import ucp

    lps, real = [], ucp.solve

    def recording(lp):
        lps.append(lp)
        return real(lp)

    monkeypatch.setattr(ucp, "solve", recording)
    for workload in WORKLOADS.values():
        for spec in workload.specs:
            ucp.ucp_solve(make_instance(spec))
    monkeypatch.setattr(ucp, "solve", real)
    rows = pivots = 0
    for lp in lps:
        out, ref = solve_both(lp, monkeypatch)
        assert outcome_bytes(out) == outcome_bytes(ref)
        rows, pivots = rows + len(out.statuses), pivots + int(np.sum(out.pivots))
    assert len(lps) > 30 and rows > 150 and pivots > 300


def ratio_tableau(col, rhs, basis):
    """A tableau with only what ratio_test reads: the entering column 0,
    the rhs and each row's basic column."""
    T = np.zeros((len(col), 2))
    T[:, 0], T[:, -1] = col, rhs
    return simplex._Tableau(T, np.asarray(basis), None, None, np.array([], dtype=int), 1, None)


def ratio_case(rng, ratios):
    """A tableau whose eligible rows have about these ratios, in row
    order, among rows that are not eligible, with basic columns in random
    order; and the eligible rows."""
    m = len(ratios) + int(rng.integers(0, 4))
    rows = np.sort(rng.choice(m, size=len(ratios), replace=False))
    col = rng.choice([0.0, -1.0, 1e-10, simplex.PIV_TOL], size=m)
    col[rows] = np.where(rng.random(len(ratios)) < 0.5, 2.0 ** rng.integers(-2, 3, len(ratios)),
                         rng.uniform(0.1, 10.0, len(ratios)))
    rhs = rng.uniform(0.0, 5.0, size=m)
    rhs[rows] = np.asarray(ratios) * col[rows]
    return ratio_tableau(col, rhs, rng.permutation(3 * m)[:m] + 1), rows


def picked_ratio(tab, row):
    return tab.T[row, -1] / tab.T[row, 0]


def test_the_ratio_test_picks_the_reference_row_on_ties():
    rng = np.random.default_rng(1012)
    not_lowest = drifted = 0
    for _ in range(400):
        # eligible ratios that tie within 1e-12, with rounding noise
        base = rng.uniform(0.0, 10.0)
        tab, rows = ratio_case(rng, base + rng.uniform(-1e-12, 1e-12, rng.integers(2, 7)))
        leave = tab.ratio_test(0)
        assert leave == reference_ratio_test(tab, 0)
        lowest = min(rows, key=lambda i: picked_ratio(tab, i))
        not_lowest += picked_ratio(tab, leave) > picked_ratio(tab, lowest)
        # a chain of ties 0.9e-12 apart, each tie won by a lower basic
        # column, drifts upward past 1e-12 from the lowest ratio
        k = int(rng.integers(3, 8))
        tab, rows = ratio_case(rng, base + 0.9e-12 * np.arange(k))
        tab.basis[rows] = np.sort(tab.basis[rows])[::-1]
        leave = tab.ratio_test(0)
        assert leave == reference_ratio_test(tab, 0)
        drifted += picked_ratio(tab, leave) - picked_ratio(tab, rows[0]) > 1e-12
    assert not_lowest > 50 and drifted > 300


def test_the_ratio_test_picks_the_reference_row_where_1e_12_is_below_one_ulp():
    rng = np.random.default_rng(1_000_000)
    steps = 0
    for _ in range(300):
        base = rng.uniform(0.5e6, 2e6)
        ulps = rng.integers(0, 3, size=rng.integers(2, 7))
        ratios = base + ulps * np.spacing(base)
        assert np.spacing(base) > 1e-12
        tab, rows = ratio_case(rng, ratios)
        tab.T[rows, 0] = 1.0   # exact ratios: only equal ones tie
        tab.T[rows, -1] = ratios
        leave = tab.ratio_test(0)
        assert leave == reference_ratio_test(tab, 0)
        assert picked_ratio(tab, leave) == ratios.min()
        steps += len(set(ulps.tolist())) > 1
    assert steps > 100


def test_the_ratio_test_returns_the_one_eligible_row_or_none():
    rng = np.random.default_rng(1)
    for _ in range(200):
        tab, rows = ratio_case(rng, rng.uniform(0.0, 1e6, size=1))
        assert tab.ratio_test(0) == reference_ratio_test(tab, 0) == rows[0]
        tab.T[rows, 0] = rng.choice([0.0, -2.0, simplex.PIV_TOL])
        assert tab.ratio_test(0) == reference_ratio_test(tab, 0) == -1


# -- a secondary objective on the optimal face ----------------------------------


def tied_lp(rng):
    """A boxed LP, feasible around a point unless its box cuts that point
    off, whose objective has small integer entries, so its optimal face
    is often more than a point."""
    lp = random_lp(rng, nmax=4, mmax=6, force_feasible=True)
    c = rng.integers(-1, 2, size=lp.num_vars).astype(float)
    return dataclasses.replace(lp, c=c)


def with_secondary(lp, secondary):
    return dataclasses.replace(lp, secondary=secondary)


def sign(lp):
    return 1.0 if lp.sense == "max" else -1.0


def test_a_secondary_objective_keeps_the_primary_and_is_best_on_the_face():
    rng = np.random.default_rng(2026)
    moved = 0
    for _ in range(150):
        lp = tied_lp(rng)
        secondary = np.round(rng.uniform(-2, 2, size=lp.num_vars), 2)
        plain, tied = solve(lp), solve(with_secondary(lp, secondary))
        assert plain.status == tied.status
        if plain.status != "optimal":
            continue
        assert verify_certificate(lp, tied)
        assert abs(tied.objective - plain.objective) <= 1e-6 * (1.0 + abs(plain.objective))
        # as good for the secondary as the plain vertex, and as any optimal vertex
        gain = sign(lp) * (secondary @ tied.x - secondary @ plain.x)
        assert gain >= -1e-6
        face = [v for v in enumerate_vertices(lp)
                if abs(lp.c @ v - plain.objective) <= 1e-7 * (1.0 + abs(plain.objective))]
        best = max(sign(lp) * (secondary @ v) for v in face)
        assert sign(lp) * (secondary @ tied.x) == pytest.approx(best, rel=1e-6, abs=1e-6)
        moved += gain > 1e-6
    assert moved > 20


def test_a_secondary_unbounded_on_the_face_stops_at_an_optimal_basis(monkeypatch):
    # min x0 over x0, x1 >= 0: the face x0 = 0 runs off along x1, which
    # the secondary objective rewards
    lp = make_lp("min", [1.0, 0.0], [[1.0, -1.0]], ["<="], [1.0])
    out = solve(with_secondary(lp, [0.0, -1.0]))
    assert out.status == "optimal" and out.objective == pytest.approx(0.0)
    assert verify_certificate(lp, out)
    # the same on random LPs with boxed and unbounded variables: record
    # whether each secondary run (the first run inside settle_face) ends on a ray
    entered, rays = [], []
    real_run, real_settle = simplex._Tableau.run, simplex._Tableau.settle_face

    def run(self, *args, **kwargs):
        result = real_run(self, *args, **kwargs)
        if entered:
            entered[-1].append(result[0])
        return result

    def settle(self, *args):
        entered.append([])
        try:
            return real_settle(self, *args)
        finally:
            runs = entered.pop()
            rays.append(bool(runs) and runs[0] != -1)

    monkeypatch.setattr(simplex._Tableau, "run", run)
    monkeypatch.setattr(simplex._Tableau, "settle_face", settle)
    rng = np.random.default_rng(8)
    for lp, _ in kernel_chains(31, 300):
        lp = dataclasses.replace(lp, c=rng.integers(-1, 2, size=lp.num_vars).astype(float))
        plain = solve(lp)
        if plain.status != "optimal":
            continue
        out = solve(with_secondary(lp, rng.uniform(-2, 2, size=lp.num_vars)))
        assert out.status == "optimal" and verify_certificate(lp, out)
        assert abs(out.objective - plain.objective) <= 1e-6 * (1.0 + abs(plain.objective))
    assert sum(rays) > 5


def test_a_unique_optimum_makes_no_tie_pivots():
    # min x0 + x1 with x0 + 2 x1 >= 2 and 2 x0 + x1 >= 2: optimal at (2/3, 2/3) alone
    lp = make_lp("min", [1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]], [">=", ">="], [2.0, 2.0])
    plain = solve(lp)
    for secondary in ([1.0, -1.0], [-1.0, 1.0], [-5.0, -5.0]):
        tied = solve(with_secondary(lp, secondary))
        assert tied.pivots == plain.pivots
        assert np.array_equal(tied.x, plain.x)
    rng = np.random.default_rng(5)
    unique = 0
    for _ in range(100):
        lp = random_lp(rng, force_feasible=True)
        plain = solve(lp)
        if plain.status != "optimal":
            continue
        tab = plain._tableau
        red = tab.reduced_costs(tab.kernel_cost(lp.c, lp.sense))
        open_ = red <= simplex.OPT_TOL
        open_[tab.basis] = False
        open_[tab.art] = False
        if open_.any():
            continue
        unique += 1
        tied = solve(with_secondary(lp, rng.uniform(-2, 2, size=lp.num_vars)))
        assert tied.pivots == plain.pivots and np.array_equal(tied.x, plain.x)
    assert unique > 50


@pytest.mark.parametrize("secondary", [[1.0], [1.0, 2.0, 3.0], [1.0, np.nan],
                                       [np.inf, 0.0]])
def test_a_bad_secondary_objective_is_rejected(secondary):
    with pytest.raises(ValueError):
        LinearProgram(sense="min", c=[1.0, 1.0], A=[[1.0, 1.0]], senses=[">="], b=[1.0],
                      secondary=secondary)


# -- one call over a chain of objectives ------------------------------------------


def chain_over(lp, rng, size=4, start=None):
    """`size` objectives over lp's rows, as one chained LP, each with a
    secondary; the objectives' small integer entries often tie, so the
    secondaries move along optimal faces."""
    shape = (size, lp.num_vars)
    return LinearProgram(sense=lp.sense, c=rng.integers(-2, 3, size=shape).astype(float),
                         rows=lp.rows, secondary=rng.uniform(-2, 2, size=shape), start=start)


def chain_outcome(outs):
    """Single-objective outcomes stacked as one chained call's, NaN where
    a row lacks a field.  A chained call's reduced costs are checked for
    every optimal row or for none, and a NaN one fails its row, so they
    are left out when an optimal row lacks them."""
    statuses = tuple(out.status for out in outs)
    status = ("infeasible" if "infeasible" in statuses else
              "unbounded" if "unbounded" in statuses else "optimal")
    fields = {}
    for name in ("x", "duals", "reduced_costs", "objective", "ray", "farkas"):
        got = [getattr(out, name) for out in outs]
        if name == "reduced_costs" and any(v is None and out.status == "optimal"
                                           for v, out in zip(got, outs)):
            continue
        if any(v is not None for v in got):
            shape = np.shape(next(v for v in got if v is not None))
            fields[name] = np.array([np.full(shape, np.nan) if v is None else v for v in got])
    return LpOutcome(status, statuses=statuses, pivots=np.array([o.pivots for o in outs]),
                     **fields)


def test_a_chained_call_gives_each_row_what_a_chain_of_single_solves_gives():
    rng = np.random.default_rng(404)
    seen = {}
    for lp, _ in kernel_chains(41, 250):
        start = solve(lp) if rng.random() < 0.5 else None
        chain = chain_over(lp, rng, start=start)
        out = solve(chain)
        prev = start
        for s, (row_lp, row) in enumerate(chain_rows(chain, out)):
            single = solve(LinearProgram(sense=lp.sense, c=chain.c[s], rows=lp.rows,
                                         secondary=chain.secondary[s], start=prev))
            assert same_outcome(row, single), s
            assert np.asarray(row.reduced_costs).tobytes() == \
                np.asarray(single.reduced_costs).tobytes()
            prev = single
        # the chain hands on the last row's tableau
        if out.status == "infeasible":
            assert out._tableau is None and prev._tableau is None
        else:
            assert np.array_equal(out._tableau.basis, prev._tableau.basis)
            assert out._tableau.T.tobytes() == prev._tableau.T.tobytes()
        kind = out.status if len(set(out.statuses)) == 1 else "mixed"
        seen[kind, start is not None] = seen.get((kind, start is not None), 0) + 1
    assert len(seen) == 8 and min(seen.values()) >= 3, seen


def test_an_infeasible_chain_is_infeasible_in_every_row_after_one_phase_one(monkeypatch):
    rows = start_rows(b=np.array([3.0, -2.0]), senses=[">=", ">="],
                      A=np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]))
    single = solve(start_lp(rows=rows))
    assert single.status == "infeasible" and single.pivots > 0
    colds = count_calls(monkeypatch, simplex, "_cold_start")
    out = solve(chain_over(start_lp(rows=rows), np.random.default_rng(0), size=3))
    assert len(colds) == 1
    assert (out.status, out.statuses, out.pivots.tolist()) == \
        ("infeasible", ("infeasible",) * 3, [single.pivots] * 3)
    assert all(f.tobytes() == single.farkas.tobytes() for f in out.farkas)
    assert out.x is None and out.ray is None and out._tableau is None


def optimal_and_unbounded_chain():
    """A chain over START_ROWS whose row 1 is unbounded, and its outcome."""
    lp = LinearProgram(sense="min", c=np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 0.0],
                                                 [3.0, 2.0, 1.0]]), rows=START_ROWS)
    out = solve(lp)
    assert out.statuses == ("optimal", "unbounded", "optimal")
    assert out.status == "unbounded" and verify_certificate(lp, out)
    return lp, out


def tamper_row(out, name, row, change):
    v = getattr(out, name).copy()
    v[row] = change(v[row])
    return dataclasses.replace(out, **{name: v})


@pytest.mark.parametrize("tamper", [
    lambda out: tamper_row(out, "objective", 2, lambda v: v + 1e-3),
    lambda out: tamper_row(out, "objective", 2, lambda v: np.nan),
    lambda out: tamper_row(out, "objective", 0, lambda v: np.inf),
    lambda out: tamper_row(out, "objective", 2, lambda v: -np.inf),
    lambda out: tamper_row(out, "reduced_costs", 0, lambda v: np.r_[v[:-1], np.nan]),
    lambda out: tamper_row(out, "reduced_costs", 2, lambda v: np.r_[np.inf, v[1:]]),
    lambda out: tamper_row(out, "reduced_costs", 0, lambda v: np.r_[-np.inf, v[1:]]),
    lambda out: tamper_row(out, "x", 0, lambda v: v + 1e-3),
    lambda out: tamper_row(out, "duals", 2, lambda v: -v),
    lambda out: tamper_row(out, "ray", 1, lambda v: -v),
    lambda out: dataclasses.replace(out, status="optimal"),
    lambda out: dataclasses.replace(out, statuses=("optimal", "optimal", "optimal")),
], ids=["objective", "objective_nan", "objective_inf", "objective_minus_inf",
        "reduced_cost_nan", "reduced_cost_inf", "reduced_cost_minus_inf",
        "x", "duals", "ray", "status", "statuses"])
def test_one_tampered_row_fails_the_whole_chained_call(tamper, monkeypatch):
    lp, out = optimal_and_unbounded_chain()
    assert not verify_certificate(lp, tamper(out))
    real = simplex._solve_impl
    monkeypatch.setattr(simplex, "_solve_impl", lambda lp: tamper(real(lp)))
    with pytest.raises(NumericalFailureError):
        solve(lp)


def test_the_chained_verifier_gives_the_bounded_forms_verdicts_row_by_row():
    from reference_lp import verify_certificate_with_bounds

    # chains over criterion 10's rows, with and without their box rows;
    # one row's certificate at a time honest or tampered, the others honest
    rng, tamper = np.random.default_rng(4321), np.random.default_rng(78)
    verdicts = {}
    for solved in range(40):
        boxed = random_lp(rng, force_feasible=(solved % 2 == 0))
        n = boxed.num_vars
        unboxed = make_lp(boxed.sense, boxed.c, boxed.A[:-n], boxed.senses[:-n], boxed.b[:-n])
        for lp in (boxed, unboxed):
            chain = dataclasses.replace(
                lp, c=np.vstack([lp.c, np.round(rng.uniform(-2, 2, size=(2, n)), 2)]))
            pairs = chain_rows(chain, solve(chain))
            for s, (row_lp, row) in enumerate(pairs):
                for cert in [row] + tampered_certificates(row_lp, row, tamper):
                    outs = [cert if k == s else honest for k, (_, honest) in enumerate(pairs)]
                    verdict = verify_certificate(chain, chain_outcome(outs))
                    assert verdict == verify_certificate_with_bounds(row_lp, cert), (solved, s)
                    verdicts[cert.status, verdict] = verdicts.get((cert.status, verdict), 0) + 1
    assert len(verdicts) == 6 and min(verdicts.values()) >= 30, verdicts
