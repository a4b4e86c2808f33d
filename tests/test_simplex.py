import numpy as np
import pytest

from ddbd.simplex import (
    LinearProgram,
    LpOutcome,
    format_lp_text,
    parse_lp_text,
    solve,
    verify_certificate,
)
from reference_lp import best_vertex_value


def make_lp(sense, c, rows, senses, b, lo=None, hi=None):
    c = np.asarray(c, dtype=float)
    return LinearProgram(sense=sense, c=c,
                         A=np.asarray(rows, dtype=float).reshape(len(senses), c.size),
                         senses=senses, b=np.asarray(b, dtype=float), lo=lo, hi=hi)


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
    lp = make_lp("min", [1.0, 2.0, 0.0],
                 [[1.0, 1.0, 1.0]], ["="], [2.0],
                 lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0])
    out = solve(lp)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(1.0)  # x = (1, 0, 1)


def test_free_variable():
    lp = make_lp("min", [1.0], [[1.0]], [">="], [-5.0],
                 lo=[-np.inf], hi=[np.inf])
    out = solve(lp)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(-5.0)


# -- certificate rejection -------------------------------------------------------


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


# -- randomized cross-check against vertex enumeration -----------------------------


def random_lp(rng, nmax=6, mmax=8, force_feasible=False):
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
    return make_lp(sense, c, A, senses, b, lo=np.zeros(n), hi=hi)


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
        lp = make_lp("min", c, A, ["<="] * m, b, lo=np.zeros(n), hi=np.full(n, 4.0))
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
        # the aggregated row must exclude every vertex of the box relaxation
        orient = np.array([1.0 if s in (">=", "=") else -1.0 for s in lp.senses])
        w = (orient * out.farkas) @ lp.A
        r = float((orient * out.farkas) @ lp.b)
        for _ in range(50):
            pick = rng.integers(0, 2, size=lp.num_vars)
            x = np.where(pick == 0, lp.lo, lp.hi)
            assert float(w @ x) < r - 1e-9


def test_determinism():
    rng = np.random.default_rng(5)
    lp = random_lp(rng, force_feasible=True)
    out1 = solve(lp)
    out2 = solve(lp)
    assert out1.status == out2.status
    assert np.array_equal(out1.x, out2.x)
    assert np.array_equal(out1.duals, out2.duals)


# -- text fixtures -----------------------------------------------------------------


def test_text_fixture_round_trip():
    text = """# sample
min
obj -1 0.3
row -1 0.3 >= 2
row -1 0.7 >= 1
bounds 0 inf
bounds 0 inf
"""
    lp = parse_lp_text(text)
    out = solve(lp)
    assert out.objective == pytest.approx(2.0)
    again = parse_lp_text(format_lp_text(lp))
    assert solve(again).objective == pytest.approx(2.0)


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
    # r - best must exceed FEAS_TOL (1 + |r|)
    # x1 >= 1 + t over x1 in [0, 1]: r = 1 + t, best = 1 from the upper bound
    assert_boundary(lambda t: farkas_holds(
        make_lp("max", [1.0], [[1.0]], [">="], [1.0 + t], lo=[0.0], hi=[1.0]), [1.0]),
        FEAS_TOL * 2.0 / (1.0 - FEAS_TOL), lower_is_bad=True)
    # x1 <= 1 - t over x1 in [1, inf): r = t - 1, best = -1 from the lower bound
    assert_boundary(lambda t: farkas_holds(
        make_lp("max", [1.0], [[1.0]], ["<="], [1.0 - t], lo=[1.0]), [1.0]),
        FEAS_TOL * 2.0 / (1.0 + FEAS_TOL), lower_is_bad=True)


def test_ray_row_residual_boundary():
    # max x1 st -x1 + x2 <= 1 (and = 1): d = (1, 1 + t) leaves the recession cone
    for row_sense in ("<=", "="):
        lp = make_lp("max", [1.0, 0.0], [[-1.0, 1.0]], [row_sense], [1.0])
        assert_boundary(lambda t: ray_holds(lp, [1.0, 1.0 + t]), FEAS_TOL)
    lp = make_lp("max", [1.0, 0.0], [[1.0, -1.0]], [">="], [-1.0])
    assert_boundary(lambda t: ray_holds(lp, [1.0, 1.0 + t]), FEAS_TOL)


def test_ray_bound_sign_boundary():
    # max x1 st -x1 <= 1; x2 is bounded below (then above) and d moves it the wrong way
    lp = make_lp("max", [1.0, 0.0], [[-1.0, 0.0]], ["<="], [1.0])
    assert_boundary(lambda t: ray_holds(lp, [1.0, -t]), FEAS_TOL)
    lp = make_lp("max", [1.0, 0.0], [[-1.0, 0.0]], ["<="], [1.0],
                 lo=[0.0, -np.inf], hi=[np.inf, 0.0])
    assert_boundary(lambda t: ray_holds(lp, [1.0, t]), FEAS_TOL)


def test_ray_gain_boundary():
    # along d = (1, 0) the objective changes by t
    for sense, sign in (("max", 1.0), ("min", -1.0)):
        lp_at = lambda t: make_lp(sense, [sign * t, 0.0], [[-1.0, 0.0]], ["<="], [1.0])  # noqa: E731
        assert_boundary(lambda t: ray_holds(lp_at(t), [1.0, 0.0]), FEAS_TOL,
                        lower_is_bad=True)


# -- start basis ----------------------------------------------------------------


def start_basis_lp(c=(1.0, 2.0, 3.0), start=None):
    # kernel columns: x1, x2, x3, the slacks of rows 0 and 1 (3, 4), then
    # the artificial of the ">=" row 0 (5); x1 and x2 share a column
    return LinearProgram(sense="min", c=np.array(c),
                         A=np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]]),
                         senses=[">=", "<="], b=np.array([1.0, 2.0]), start_basis=start)


@pytest.mark.parametrize("start", [
    [0, 1],            # singular: x1 and x2 share a column
    [3, 4],            # infeasible: the ">=" row's slack would be -1
    [4], [0, 4, 3],    # wrong length
    [5, 4],            # the artificial column
    [4, 4], [0, 9],    # repeated, out of range
    np.array([0.0, 4.0]),
])
def test_bad_start_basis_falls_back_to_the_cold_start(start):
    cold = solve(start_basis_lp())
    assert cold.status == "optimal" and cold.pivots > 0
    out = solve(start_basis_lp(start=start))
    assert out.status == cold.status
    assert out.pivots == cold.pivots
    assert np.array_equal(out.x, cold.x) and np.array_equal(out.duals, cold.duals)
    assert list(out.basis) == list(cold.basis)


def test_start_basis_skips_phase_one():
    cold = solve(start_basis_lp())
    again = solve(start_basis_lp(start=cold.basis))
    assert again.pivots == 0
    assert again.objective == cold.objective
    # another objective over the same rows: the old basis is still feasible
    c = (3.0, 2.0, 1.0)
    warm = solve(start_basis_lp(c, start=cold.basis))
    ref = solve(start_basis_lp(c))
    assert warm.status == ref.status == "optimal"
    assert warm.objective == pytest.approx(ref.objective, rel=1e-12)
    assert warm.pivots < ref.pivots


def same_outcome(a, b):
    """Equal status, vectors bit for bit, objective, basis and pivots."""
    def bits(v):
        return None if v is None else np.asarray(v).tobytes()
    return (a.status, bits(a.x), bits(a.ray), bits(a.duals), bits(a.farkas),
            repr(a.objective), bits(a.basis), a.pivots) == \
        (b.status, bits(b.x), bits(b.ray), bits(b.duals), bits(b.farkas),
         repr(b.objective), bits(b.basis), b.pivots)


def count_dense_solves(monkeypatch):
    calls = []
    real = np.linalg.solve

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


def test_a_valid_start_basis_costs_one_dense_solve(monkeypatch):
    cold = solve(start_basis_lp())
    solves = count_dense_solves(monkeypatch)

    # a cold start, and start bases rejected before refactorizing, solve nothing
    assert same_outcome(solve(start_basis_lp()), cold)
    for start in ([4], [5, 4], [4, 4], [0, 9], np.array([0.0, 4.0])):
        assert same_outcome(solve(start_basis_lp(start=start)), cold)
    assert len(solves) == 0

    # a valid start basis is refactorized once per LP, whether phase 2
    # stays there or pivots away, and the same LP gives the same outcome
    for c in ((1.0, 2.0, 3.0), (1.0, 2.0, 4.0), (3.0, 2.0, 1.0)):
        solves.clear()
        first = solve(start_basis_lp(c, start=cold.basis))
        assert len(solves) == 1
        assert same_outcome(first, solve(start_basis_lp(c, start=cold.basis)))
        assert len(solves) == 2
    assert first.pivots > 0
