"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
pass lines.  Expected values come from hand-checked worked cases or
from independent brute-force references computed in-process; tolerances
are fixed here and nowhere else.
"""

import itertools
import pathlib
import time

import numpy as np

from ddbd.cli import main as cli_main
from ddbd.diagram import (
    EmptyDiagramError,
    InfeasibleDiagramError,
    Interval,
    optimal_path,
    refine_with_cut,
)
from ddbd.engine import CutPool, EngineConfig, dd_bd_solve, replay_cuts
from ddbd.mip import MipMasterOracle, MipSubproblemOracle
from ddbd.oracle import brute_force_solve, scipy_lp_min, unit_schedules
from ddbd.simplex import solve, verify_certificate
from ddbd.ucp import (
    Generator,
    Scenario,
    UcpInstance,
    build_relaxed_master_dd,
    build_restricted_master_dd,
    UcpMasterOracle,
    UcpSubproblemOracle,
    build_subproblem,
    compute_gamma,
    gen_random_instance,
    master_cost,
    master_key_graph,
    ucp_solve,
)
from reference_dd import (
    append_value_layer,
    build_master_dd,
    cost_tuple_reward,
    dd_to_json,
    enumerate_solutions,
    from_boxes,
    from_paths,
    layer_arcs,
)
from reference_lp import build_subproblem_original, two_binary_mip

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS — {detail}")


class RecordingSub:
    def __init__(self, inner):
        self.inner = inner
        self.pool = CutPool()

    def evaluate(self, x):
        res = self.inner.evaluate(x)
        for cut in res.cuts:
            self.pool.add(cut)
        return res

    def initial_cuts(self):
        cuts = self.inner.initial_cuts()
        for cut in cuts:
            self.pool.add(cut)
        return cuts


def test_criterion_1_worked_mip_end_to_end():
    problem = two_binary_mip()
    master = MipMasterOracle(problem)
    sub = RecordingSub(MipSubproblemOracle(problem))
    t0 = time.perf_counter()
    rep = dd_bd_solve(master, sub, EngineConfig())
    elapsed = time.perf_counter() - t0
    assert rep.status == "optimal"
    assert abs(rep.value - 11.0 / 3.0) <= 1e-6
    assert tuple(rep.x) == (1.0, 0.0)
    assert abs(rep.z - 8.0 / 3.0) <= 1e-6
    assert rep.feasibility_cuts == 1
    assert rep.optimality_cuts == 1
    feas = [c for c in sub.pool.cuts if c.kind == "feasibility"]
    opt = [c for c in sub.pool.cuts if c.kind == "optimality"]
    assert len(feas) == 1 and len(opt) == 1
    # feasibility cut normalised to (2/3) x1 + x2 <= 1 (0.66... in print)
    assert abs(feas[0].coeffs[0] - 2.0 / 3.0) <= 1e-6
    assert abs(feas[0].coeffs[1] - 1.0) <= 1e-6
    assert abs(feas[0].rhs - 1.0) <= 1e-6
    # optimality cut z <= (2/3) x1 + 2
    assert opt[0].z_coeff == 1.0 and opt[0].sense == "<="
    assert abs(opt[0].coeffs[0] + 2.0 / 3.0) <= 1e-6
    assert abs(opt[0].rhs - 2.0) <= 1e-6
    assert elapsed < 0.1
    report(1, f"value {rep.value:.6f} at {rep.x}, 1+1 cuts, {elapsed * 1e3:.1f} ms")


def test_criterion_2_reward_propagation_worked_case():
    from ddbd.diagram import CutRow, DiagramBuilder

    dd = DiagramBuilder(2)
    r = dd.new_node(0)
    u0 = dd.new_node(1)
    u1 = dd.new_node(1)
    t = dd.new_node(2)
    dd.add_arc(0, r, u0, 0.0, 0.0)
    dd.add_arc(0, r, u1, 1.0, 0.0)
    dd.add_arc(1, u0, t, 0.0, 0.0)
    dd.add_arc(1, u1, t, 0.0, 0.0)
    dd = dd.build()
    cuts = [CutRow(coeffs={0: -3.0, 1: -2.0}, z_coeff=1.0, rhs=0.0, sense="<="),
            CutRow(coeffs={0: 3.0, 1: 5.0}, z_coeff=1.0, rhs=3.0, sense="<=")]
    reward = cost_tuple_reward(dd, cuts)
    assert reward == 0.0
    aug = append_value_layer(dd, -100.0, 100.0)
    for cut in cuts:
        aug = refine_with_cut(aug, [cut])
    _, value = optimal_path(aug, "max")
    assert value == reward
    report(2, f"reward {reward} equals refine-then-longest-path exactly")


GOLDEN_GENERATOR = Generator(
    c_fixed=100.0, c_prod=5.0, p_min=10.0, p_max=50.0,
    min_up=2, min_down=1, ramp_up=50.0, ramp_down=50.0,
    startup_ramp=50.0, shutdown_ramp=50.0,
    startup_costs=(30.0, 50.0), startup_cost_inf=70.0)


def test_criterion_3_golden_master_diagram():
    inst = UcpInstance(generators=[GOLDEN_GENERATOR], horizon=2,
                       scenarios=[Scenario(1.0, (0.0, 0.0), (0.0, 0.0))]).validate()
    dd = build_master_dd(inst, gamma=Interval(-25.0, 25.0))
    xs = sorted({sol[:-1] for sol in enumerate_solutions(dd)})
    assert xs == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    first_start = [i for i in layer_arcs(dd, 0) if dd.label[i] == 1.0]
    assert len(first_start) == 1
    assert dd.weight[first_start[0]] == GOLDEN_GENERATOR.c_fixed + \
        GOLDEN_GENERATOR.startup_cost_inf
    golden = (FIXTURES / "golden_two_period_master.json").read_bytes()
    assert dd_to_json(dd).encode() == golden
    report(3, f"{dd.node_count()} nodes, byte-identical serialization")


def test_criterion_4_oracle_agreement_sweep():
    t0 = time.perf_counter()
    checked = 0
    statuses = {"optimal": 0, "infeasible": 0}
    for n, horizon, scen in itertools.product((1, 2, 3), (2, 3, 4), (1, 2, 3)):
        for k in range(4):
            seed = 1000 * n + 100 * horizon + 10 * scen + k
            inst = gen_random_instance(n, horizon, scen, seed=seed)
            brute = brute_force_solve(inst)
            rep = ucp_solve(inst, EngineConfig())
            assert rep.status == brute.status, f"seed {seed}"
            if brute.status == "optimal":
                tol = 1e-6 * (1.0 + abs(brute.value))
                assert abs(rep.value - brute.value) <= tol, \
                    f"seed {seed}: {rep.value} vs {brute.value}"
            statuses[rep.status] += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 108
    assert elapsed < 300.0
    report(4, f"{checked} instances agree ({statuses['optimal']} optimal, "
              f"{statuses['infeasible']} infeasible) in {elapsed:.1f} s")


def test_criterion_5_ramp_reformulation_equivalence():
    rng = np.random.default_rng(2024)
    agree_opt = 0
    agree_inf = 0
    for _ in range(500):
        n = int(rng.integers(1, 3))
        horizon = int(rng.integers(2, 4))
        inst = gen_random_instance(n, horizon, 1, seed=int(rng.integers(0, 10 ** 6)))
        x = tuple(float(rng.integers(0, 2)) for _ in range(inst.num_vars))
        sc = inst.scenarios[0]
        reformed = solve(build_subproblem(inst, x, sc))
        status_ref, value_ref = scipy_lp_min(build_subproblem_original(inst, x, sc))
        if status_ref == "optimal":
            assert reformed.status == "optimal"
            assert abs(reformed.objective - value_ref) <= 1e-6 * (1.0 + abs(value_ref))
            agree_opt += 1
        else:
            assert reformed.status == "infeasible"
            agree_inf += 1
    report(5, f"500 pairs agree ({agree_opt} dispatchable, {agree_inf} not)")


class SandwichMaster:
    """Checks relaxed <= exact = best point values at every ask, and the
    relaxed bound against the optimum.  The master's best point is an
    optimum of exact ∩ pool, so its value equals the exact one, and it
    is None exactly when exact ∩ pool is empty.  The relaxed side is the
    width-2 relaxed master refined by the cuts, which the solve itself
    never builds."""

    def __init__(self, inner, optimum):
        self.inner = inner
        self.sense = inner.sense
        self.optimum = optimum
        self.checked = 0

    def best_point(self, cuts):
        point = self.inner.best_point(cuts)
        inst, gamma = self.inner.instance, self.inner.gamma
        try:
            exact = replay_cuts(build_master_dd(inst, (), gamma), cuts)
            _, exact_val = optimal_path(exact, "min")
        except (EmptyDiagramError, InfeasibleDiagramError):
            assert point is None, "best point of an empty master"
            return point
        tol = 1e-6 * (1.0 + abs(exact_val))
        # every exact path survives the relaxed refinement, so it cannot empty
        relaxed = replay_cuts(build_relaxed_master_dd(inst, (), gamma, 2), cuts)
        _, relax_val = optimal_path(relaxed, "min")
        assert relax_val <= exact_val + tol, \
            f"relaxed bound {relax_val} cuts off exact value {exact_val}"
        if self.optimum is not None:
            assert relax_val <= self.optimum + 1e-6, \
                f"relaxed bound {relax_val} excludes the optimum {self.optimum}"
        assert point is not None, "no best point of a master with points"
        restr_val = point[2]
        assert abs(restr_val - exact_val) <= tol, \
            f"best point value {restr_val} is not the exact value {exact_val}"
        self.checked += 1
        return point


class OptimumSub:
    """Checks that no evaluated commitment costs less than the optimum."""

    def __init__(self, inner, optimum):
        self.inner = inner
        self.optimum = optimum

    def evaluate(self, x):
        res = self.inner.evaluate(x)
        if res.kind == "optimal" and self.optimum is not None:
            cost = master_cost(self.inner.instance, x) + res.value
            assert cost >= self.optimum - 1e-6, \
                f"commitment cost {cost} beats the known optimum {self.optimum}"
        return res

    def initial_cuts(self):
        return self.inner.initial_cuts()


def test_criterion_6_bound_sandwich_everywhere():
    checked = 0
    sandwiches = 0
    builds = 0
    for seed in range(100):
        n = 1 + seed % 2
        horizon = 2 + seed % 3
        scen = 1 + seed % 2
        inst = gen_random_instance(n, horizon, scen, seed=5000 + seed)
        gamma = Interval(0.0, 0.0)
        exact = build_master_dd(inst, gamma=gamma)
        _, exact_val = optimal_path(exact, "min")
        _, _, restr_val = build_restricted_master_dd(inst, gamma)
        assert abs(restr_val - exact_val) <= 1e-9 * (1.0 + abs(exact_val)), f"seed {seed}"
        for width in (1, 2, 3):
            relaxed = build_relaxed_master_dd(inst, (), gamma, width)
            _, relax_val = optimal_path(relaxed, "min")
            assert relax_val <= exact_val + 1e-9, f"seed {seed} width {width}"
            sandwiches += 1
        # per-node checks inside the solver, against the true optimum
        brute = brute_force_solve(inst)
        master = SandwichMaster(UcpMasterOracle(inst, compute_gamma(inst)), brute.value)
        sub = OptimumSub(UcpSubproblemOracle(inst), brute.value)
        rep = dd_bd_solve(master, sub, EngineConfig())
        assert rep.status == brute.status
        builds += master.checked
        checked += 1
    report(6, f"{checked} instances, {sandwiches} static sandwiches, "
              f"{builds} solver builds checked, zero violations")


def key_graph_paths(graph):
    """(x, summed weight) of every path of a fitted KeyGraph, read off its
    layers' parent, label, weight and child columns; layer g sets variable
    graph.order[g], and the weights are summed from the first layer on."""
    reach = {0: [((), 0.0)]}   # per key of the last layer read: (labels, weight)
    for parent, label, weight, child, _ in graph.layers:
        nxt = {}
        for i, lab, w, j in zip(parent, label, weight, child):
            for labs, total in reach.get(i, ()):
                nxt.setdefault(j, []).append((labs + (lab,), total + w))
        reach = nxt
    paths = []
    for found in reach.values():
        for labs, total in found:
            x = [None] * len(labs)
            for v, lab in zip(graph.order, labs):
                x[v] = lab
            paths.append((tuple(x), total))
    return paths


def test_criterion_7_schedule_bijection():
    """The restricted master's own key graph, fitted with no cuts, has one
    path per feasible schedule, weighing exactly its first-stage cost."""
    combos = 0
    for min_up, min_down in itertools.product((1, 2, 3), repeat=2):
        for horizon in (2, 3, 4):
            gen = Generator(c_fixed=100.0, c_prod=5.0, p_min=10.0, p_max=50.0,
                            min_up=min_up, min_down=min_down,
                            ramp_up=50.0, ramp_down=50.0,
                            startup_ramp=50.0, shutdown_ramp=50.0,
                            startup_costs=(30.0, 50.0), startup_cost_inf=70.0)
            inst = UcpInstance(generators=[gen], horizon=horizon,
                               scenarios=[Scenario(1.0, (0.0,) * horizon,
                                                   (0.0,) * horizon)]).validate()
            graph = master_key_graph(inst, Interval(0.0, 0.0))
            graph.fit([])
            paths = key_graph_paths(graph)
            want = sorted(tuple(float(b) for b in bits)
                          for bits in unit_schedules(gen, horizon))
            assert sorted(x for x, _ in paths) == want, (min_up, min_down, horizon)
            for x, weight in paths:
                assert weight == master_cost(inst, x), (min_up, min_down, horizon, x)
            combos += 1
    report(7, f"{combos} (min_up, min_down, horizon) combinations, "
              f"paths and costs match exactly")


def test_criterion_8_decomposition_fixtures(capsys):
    code = cli_main(["verify-decomposition", str(FIXTURES / "example_boxes.json")])
    out = capsys.readouterr().out
    assert code == 0 and "FAIL" not in out
    code = cli_main(["verify-decomposition",
                     str(FIXTURES / "extreme_points_only.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "equivalence[neg_square_x2]: FAIL" in out
    report(8, "box fixture passes; extreme-point fixture fails the "
              "concave-objective equivalence")


def test_criterion_9_width_and_equivalence_of_encodings():
    points = [(0.0, 0.0), (0.0, 2.0), (1.0, 2.0), (2.0, 0.0), (2.0, 1.0)]
    d1 = from_paths(points)
    d2 = from_boxes([((0.0, 0.0), (1.0, 2.0)), ((2.0, 0.0), (2.0, 1.0))])
    assert d1.width == 3
    assert d2.width == 2
    sols1 = enumerate_solutions(d1)
    sols2 = enumerate_solutions(d2)
    rng = np.random.default_rng(77)
    for _ in range(50):
        A = rng.uniform(-1.0, 1.0, size=(2, 2))
        b = rng.uniform(-2.0, 2.0, size=2)
        lin = rng.uniform(-1.0, 1.0, size=2)

        def f(p):
            v = A @ np.asarray(p) - b
            return float(v @ v + lin @ np.asarray(p))

        m1 = max(f(p) for p in sols1)
        m2 = max(f(p) for p in sols2)
        assert abs(m1 - m2) <= 1e-7 * (1.0 + abs(m1))
    report(9, f"widths {d1.width} vs {d2.width}; 50 convex quadratics agree")


def test_criterion_10_lp_kernel_vs_vertex_enumeration():
    from reference_lp import best_vertex_value
    from test_simplex import random_lp

    rng = np.random.default_rng(1234)
    optimal, infeasible = 0, 0
    solved = 0
    while solved < 200:
        lp = random_lp(rng, force_feasible=(solved % 2 == 0))
        out = solve(lp)
        ref = best_vertex_value(lp)
        if ref is None:
            assert out.status == "infeasible"
            assert out.farkas is not None
            assert verify_certificate(lp, out)
            infeasible += 1
        else:
            assert out.status == "optimal"
            assert abs(out.objective - ref) <= 1e-6 * (1.0 + abs(ref))
            optimal += 1
        solved += 1
    report(10, f"200 LPs vs vertex enumeration ({optimal} optimal, "
               f"{infeasible} certified infeasible)")
