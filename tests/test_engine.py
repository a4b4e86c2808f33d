import json
import math
import random

import pytest

from ddbd.diagram import (
    CutRow,
    DecisionDiagram,
    append_value_layer,
    from_paths,
    merge_nodes,
    optimal_path,
    refine_with_cut,
)
from ddbd.engine import (
    CutPool,
    EngineConfig,
    PropertyViolationError,
    SolveReport,
    cost_tuple_reward,
    dd_bd_solve,
    exact_cutset,
)
from ddbd.mip import (
    MipMasterOracle,
    MipProblem,
    MipSubproblemOracle,
    example_two_binary_problem,
)


# -- cut pool ---------------------------------------------------------------------


def test_cut_pool_deduplicates_on_rounded_coefficients():
    pool = CutPool()
    a = CutRow(coeffs={0: 2.0 / 3.0, 1: 1.0}, rhs=1.0, sense="<=")
    b = CutRow(coeffs={0: 2.0 / 3.0 + 1e-12, 1: 1.0}, rhs=1.0, sense="<=")
    assert pool.add(a)
    assert not pool.add(b)
    assert pool.count("feasibility") == 1


# -- exact cutset -----------------------------------------------------------------


def test_exact_cutset_unmerged_is_last_layer_before_terminal():
    dd = from_paths([(0.0, 1.0), (1.0, 0.0)])
    idx, nodes = exact_cutset(dd)
    assert idx == len(dd.layers) - 2
    assert set(nodes) == set(dd.layers[idx])


def test_exact_cutset_stops_before_first_merge():
    dd = from_paths([(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
    merged = merge_nodes(dd, 2, list(dd.layers[2])[:2])
    idx, _ = exact_cutset(merged)
    assert idx == 1


def test_exact_cutset_root_only_when_layer_one_merged():
    dd = from_paths([(0.0, 0.0), (1.0, 1.0)])
    merged = merge_nodes(dd, 1, list(dd.layers[1]))
    idx, nodes = exact_cutset(merged)
    assert idx == 0
    assert nodes == [merged.root]


# -- cost tuple reward -------------------------------------------------------------


def non_reduced_two_point_dd():
    """Distinct paths (0,0) and (1,0); every internal node has one parent."""
    dd = DecisionDiagram(2)
    r = dd.new_node(0)
    u0 = dd.new_node(1)
    u1 = dd.new_node(1)
    t = dd.new_node(2)
    dd.add_arc(0, r, u0, 0.0, 0.0)
    dd.add_arc(0, r, u1, 1.0, 0.0)
    dd.add_arc(1, u0, t, 0.0, 0.0)
    dd.add_arc(1, u1, t, 0.0, 0.0)
    return dd


def crossing_value_cuts():
    return [
        CutRow(coeffs={0: -3.0, 1: -2.0}, z_coeff=1.0, rhs=0.0, sense="<="),
        CutRow(coeffs={0: 3.0, 1: 5.0}, z_coeff=1.0, rhs=3.0, sense="<="),
    ]


def test_cost_tuple_reward_worked_case():
    assert cost_tuple_reward(non_reduced_two_point_dd(), crossing_value_cuts()) == pytest.approx(0.0)


def test_cost_tuple_reward_single_cut_constant():
    dd = from_paths([(1.0, 0.0)])
    cut = CutRow(coeffs={}, z_coeff=1.0, rhs=5.0, sense="<=")
    assert cost_tuple_reward(dd, cut and [cut]) == pytest.approx(5.0)


def test_cost_tuple_requires_unique_incoming():
    bad = DecisionDiagram(2)
    r = bad.new_node(0)
    u = bad.new_node(1)
    t = bad.new_node(2)
    bad.add_arc(0, r, u, 0.0, 0.0)
    bad.add_arc(0, r, u, 1.0, 0.0)
    bad.add_arc(1, u, t, 0.0, 0.0)
    with pytest.raises(PropertyViolationError):
        cost_tuple_reward(bad, crossing_value_cuts())


def non_reduced_from_paths(paths):
    """Tree-shaped diagram: shared prefixes up to the second-last label,
    then one leaf per path so the terminal sees a unique arc per node."""
    n = len(paths[0])
    dd = DecisionDiagram(n)
    trie = {(): dd.new_node(0)}
    term = dd.new_node(n)
    for p in paths:
        for k in range(n - 2):
            if p[:k + 1] not in trie:
                trie[p[:k + 1]] = dd.new_node(k + 1)
                dd.add_arc(k, trie[p[:k]], trie[p[:k + 1]], p[k], 0.0)
        leaf = dd.new_node(n - 1)
        tail = trie[p[:n - 2]] if n >= 2 else trie[()]
        dd.add_arc(n - 2, tail, leaf, p[n - 2], 0.0)
        dd.add_arc(n - 1, leaf, term, p[n - 1], 0.0)
    return dd


def test_cost_tuple_equals_refine_then_longest_path():
    rng = random.Random(17)
    for trial in range(30):
        # random non-reduced diagram over 3 binary variables
        paths = sorted({tuple(float(rng.randint(0, 1)) for _ in range(3))
                        for _ in range(rng.randint(1, 8))})
        dd = non_reduced_from_paths(paths)
        cuts = []
        for _ in range(rng.randint(1, 3)):
            coeffs = {j: float(rng.randint(-4, 4)) for j in range(3)}
            cuts.append(CutRow(coeffs={j: -v for j, v in coeffs.items()},
                               z_coeff=1.0, rhs=float(rng.randint(-3, 6)),
                               sense="<="))
        reward = cost_tuple_reward(dd, cuts)
        big = 1e3
        aug = append_value_layer(dd, -big, big)
        for cut in cuts:
            aug = refine_with_cut(aug, [cut])
        _, value = optimal_path(aug, "max")
        assert value == pytest.approx(reward, abs=1e-9), f"trial {trial}"


# -- worked end-to-end case ---------------------------------------------------------


def test_worked_mip_end_to_end():
    problem = example_two_binary_problem()
    master = MipMasterOracle(problem)
    sub = MipSubproblemOracle(problem)
    report = dd_bd_solve(master, sub, EngineConfig(width=2), instance_id="worked")
    assert report.status == "optimal"
    assert report.value == pytest.approx(11.0 / 3.0, abs=1e-6)
    assert tuple(report.x) == (1.0, 0.0)
    assert report.z == pytest.approx(8.0 / 3.0, abs=1e-6)
    assert report.feasibility_cuts == 1
    assert report.optimality_cuts == 1


def test_worked_mip_cut_shapes():
    problem = example_two_binary_problem()
    sub = MipSubproblemOracle(problem)
    res = sub.evaluate((1.0, 1.0))
    assert res.kind == "infeasible"
    cut = res.cuts[0]
    # normalised so the largest coefficient is one
    assert cut.coeffs[1] == pytest.approx(1.0, abs=1e-9)
    assert cut.coeffs[0] == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert cut.rhs == pytest.approx(1.0, abs=1e-6)

    res = sub.evaluate((0.0, 1.0))
    assert res.kind == "optimal"
    assert res.value == pytest.approx(2.0, abs=1e-9)
    cut = res.cuts[0]
    assert cut.z_coeff == 1.0
    assert cut.coeffs.get(0, 0.0) == pytest.approx(-2.0 / 3.0, abs=1e-6)
    assert cut.rhs == pytest.approx(2.0, abs=1e-6)


def test_degenerate_benders_equals_longest_path():
    # binary problem with a slave fixing the value variable to zero
    problem = MipProblem(
        sense="max",
        x_obj=[2.0, -1.0, 0.5],
        y_obj=[0.0],
        rows=[([0.0, 0.0, 0.0], [1.0], "<=", 0.0)],   # y1 <= 0
        x_domains=[[0.0, 1.0]] * 3,
        z_bounds=(0.0, 0.0),
    )
    master = MipMasterOracle(problem)
    sub = MipSubproblemOracle(problem)
    report = dd_bd_solve(master, sub, EngineConfig())
    dd = master.build_exact_dd((), [])
    _, value = optimal_path(dd, "max")
    assert report.value == pytest.approx(value, abs=1e-9)
    assert report.value == pytest.approx(2.5)


def test_infeasible_master_reports_infeasible():
    problem = MipProblem(
        sense="max",
        x_obj=[1.0],
        y_obj=[0.0],
        rows=[([1.0], [0.0], ">=", 2.0),     # master row impossible for binaries
              ([0.0], [1.0], "<=", 1.0)],
        x_domains=[[0.0, 1.0]],
        z_bounds=(0.0, 0.0),
    )
    report = dd_bd_solve(MipMasterOracle(problem), MipSubproblemOracle(problem),
                         EngineConfig())
    assert report.status == "infeasible"


def test_report_serialization_round_trip():
    report = SolveReport(status="optimal", x=(1.0, 0.0), z=2.5, value=3.5,
                         feasibility_cuts=1, optimality_cuts=2, branches=3,
                         lp_calls=7, wall_time=0.125, instance="t")
    text = report.to_json()
    assert '"value": 3.5' in text
    row = report.csv_row()
    assert row.startswith("t,optimal,3.5,")
    assert len(row.split(",")) == len(SolveReport.CSV_HEADER.split(","))


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_report_json_is_strict_without_an_incumbent():
    report = SolveReport(status="time_limit", gap=math.inf, instance="t")
    assert strict_json(report.to_json())["gap"] is None
    assert report.gap == math.inf
    finite = SolveReport(status="time_limit", value=3.5, gap=0.25, instance="t")
    assert strict_json(finite.to_json())["gap"] == 0.25


@pytest.mark.parametrize("width", [0, -1])
def test_engine_config_rejects_a_width_below_one(width):
    with pytest.raises(ValueError, match="width"):
        EngineConfig(width=width)


def test_time_limit_reports_gap():
    problem = example_two_binary_problem()
    report = dd_bd_solve(MipMasterOracle(problem), MipSubproblemOracle(problem),
                         EngineConfig(time_limit=0.0))
    assert report.status == "time_limit"


def test_stalled_refinement_is_an_oracle_error():
    from ddbd.engine import EngineError, SubproblemOracle, SubproblemResult

    problem = example_two_binary_problem()

    class StallingSub(SubproblemOracle):
        def evaluate(self, x):
            # a vacuous cut that never separates anything
            return SubproblemResult(kind="infeasible",
                                    cuts=[CutRow(coeffs={0: 0.0}, rhs=1.0,
                                                 sense="<=")],
                                    lp_calls=0)

    with pytest.raises(EngineError):
        dd_bd_solve(MipMasterOracle(problem), StallingSub(), EngineConfig())


def test_shortcut_and_relaxed_cut_configs_agree_on_random_instances():
    from ddbd.engine import dd_bd_solve as solve_loop
    from ddbd.ucp import (UcpMasterOracle, UcpSubproblemOracle, compute_gamma,
                          gen_random_instance)
    from ddbd.ucp import InfeasibleInstanceError

    configs = [
        EngineConfig(width=2),
        EngineConfig(width=2, relaxed_cuts=False),
        EngineConfig(width=1, relaxed_cuts=False),
    ]
    compared = 0
    seed = 0
    while compared < 50:
        seed += 1
        n = 1 + seed % 2
        horizon = 2 + seed % 2
        inst = gen_random_instance(n, horizon, 1, seed=31_000 + seed)
        try:
            gamma = compute_gamma(inst)
        except InfeasibleInstanceError:
            continue
        master = UcpMasterOracle(inst, gamma)
        reports = [solve_loop(master, UcpSubproblemOracle(inst), cfg)
                   for cfg in configs]
        statuses = {r.status for r in reports}
        assert len(statuses) == 1, f"seed {seed}: {statuses}"
        if reports[0].status == "optimal":
            base = reports[0].value
            for r in reports[1:]:
                assert abs(r.value - base) <= 1e-6 * (1.0 + abs(base)), f"seed {seed}"
        compared += 1


def test_time_limit_after_incumbent_keeps_best_and_gap():
    import time as clock

    from ddbd.ucp import UcpMasterOracle, UcpSubproblemOracle, compute_gamma
    from ddbd.ucp import gen_random_instance

    inst = gen_random_instance(2, 3, 1, seed=31_001)
    gamma = compute_gamma(inst)
    master = UcpMasterOracle(inst, gamma)
    calls = []

    class SlowSub(UcpSubproblemOracle):
        def evaluate(self, x):
            calls.append(tuple(x))
            clock.sleep(0.03)
            return super().evaluate(x)

    report = dd_bd_solve(master, SlowSub(inst),
                         EngineConfig(width=1, time_limit=0.05))
    assert report.status == "time_limit"
    assert calls, "the subproblem should have been reached before the limit"
    # either no incumbent yet (infinite gap) or an incumbent with a gap
    if report.x is not None:
        assert report.gap is not None and report.gap >= 0.0


def test_time_limit_gap_bounds_the_optimum_wherever_the_clock_runs_out(monkeypatch):
    import types

    from ddbd import engine
    from ddbd.ucp import ucp_solve
    from reference_lp import scaled_instance

    inst = scaled_instance(2, 4, 2, 0, 0.4)
    optimum = ucp_solve(inst).value
    checked = 0
    for expiry in range(2, 500):
        readings = []

        def clock():
            # the solve's own readings: 0 s until the expiry-th, then 100 s
            readings.append(1)
            return 0.0 if len(readings) < expiry else 100.0

        monkeypatch.setattr(engine, "time", types.SimpleNamespace(perf_counter=clock))
        report = ucp_solve(inst, EngineConfig(time_limit=1.0))
        if report.status == "optimal":
            break
        assert report.status == "time_limit"
        if report.gap is not None and math.isfinite(report.gap):
            # min sense: the reported bound value - gap may not pass the optimum
            assert report.value - report.gap <= optimum + 1e-9 * abs(optimum), expiry
            checked += 1
    else:
        raise AssertionError("the solve never finished")
    assert report.value == optimum and checked >= 2
