import pytest

from ddbd.diagram import enumerate_solutions
from ddbd.engine import EngineConfig
from ddbd.oracle import (
    TooLargeError,
    brute_force_solve,
    dump_table_csv,
    feasible_assignments,
    naive_bd_solve,
)
from ddbd.ucp import (
    Generator,
    Scenario,
    UcpInstance,
    build_master_dd,
    gen_random_instance,
    ucp_solve,
)
from reference_lp import LOW_DEMAND, scaled_instance


def zero_demand_instance(horizon=2):
    gen = Generator(c_fixed=100.0, c_prod=5.0, p_min=10.0, p_max=50.0,
                    min_up=1, min_down=1, ramp_up=50.0, ramp_down=50.0,
                    startup_ramp=50.0, shutdown_ramp=50.0,
                    startup_costs=(30.0,), startup_cost_inf=40.0)
    return UcpInstance(generators=[gen], horizon=horizon,
                       scenarios=[Scenario(1.0, (0.0,) * horizon, (0.0,) * horizon)]
                       ).validate()


def test_zero_demand_all_off_is_optimal():
    inst = zero_demand_instance()
    result = brute_force_solve(inst)
    assert result.status == "optimal"
    assert result.best_x == (0, 0)
    assert result.best_cost == pytest.approx(0.0)


def test_table_rows_are_reproducible():
    inst = gen_random_instance(2, 2, 2, seed=1)
    first = brute_force_solve(inst)
    second = brute_force_solve(inst)
    assert first.table == second.table
    assert first.best_x == second.best_x


def test_enumeration_guard():
    inst = gen_random_instance(7, 4, 1, seed=0)
    with pytest.raises(TooLargeError):
        brute_force_solve(inst)


def test_feasibility_agrees_with_master_diagram():
    for seed in range(6):
        inst = gen_random_instance(1, 4, 1, seed=seed)
        dd = build_master_dd(inst)
        paths = {tuple(int(v) for v in sol[:-1]) for sol in enumerate_solutions(dd)}
        assert paths == set(feasible_assignments(inst))


def test_dump_table_csv(tmp_path):
    inst = zero_demand_instance()
    result = brute_force_solve(inst)
    path = tmp_path / "table.csv"
    dump_table_csv(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "assignment,feasible,cost"
    assert len(lines) == 1 + len(result.table)


def test_naive_bd_matches_brute_force():
    for seed in (0, 1, 2, 3):
        inst = gen_random_instance(2, 2, 2, seed=seed)
        brute = brute_force_solve(inst)
        naive = naive_bd_solve(inst)
        assert naive.status == brute.status
        if brute.status == "optimal":
            assert naive.value == pytest.approx(brute.best_cost, rel=1e-6, abs=1e-6)


def test_dd_bd_matches_brute_force_small():
    from ddbd.ucp import master_cost

    cases = [(f"s{seed}", gen_random_instance(2, 3, 2, seed=seed)) for seed in range(6)]
    cases += [(f"low{params}", scaled_instance(*params)) for params in LOW_DEMAND]
    for name, inst in cases:
        brute = brute_force_solve(inst)
        report = ucp_solve(inst, EngineConfig(width=2), instance_id=name)
        assert report.status == brute.status, name
        if brute.status == "optimal":
            assert report.value == pytest.approx(brute.best_cost, rel=1e-6, abs=1e-6), \
                name
            # the reported value re-evaluates from its own (x, z) pair
            redo = master_cost(inst, report.x) + report.z
            assert abs(report.value - redo) <= 1e-6 * (1.0 + abs(redo))


def test_dd_bd_width_independence():
    inst = gen_random_instance(2, 3, 2, seed=11)
    small = ucp_solve(inst, EngineConfig(width=1))
    large = ucp_solve(inst, EngineConfig(width=1_000_000))
    assert small.status == large.status
    if small.status == "optimal":
        assert small.value == pytest.approx(large.value, rel=1e-6, abs=1e-6)


LOW_BAND = [(n, horizon, scenarios, 1000 * n + 100 * horizon + 10 * scenarios, factor)
            for n in (1, 2, 3) for horizon in (2, 3, 4) for scenarios in (1, 2)
            for factor in (0.4, 0.6)]


@pytest.mark.parametrize("spec", LOW_BAND, ids=["x".join(map(str, s[:3])) + f"-d{s[4]:g}"
                                                for s in LOW_BAND])
def test_dd_bd_matches_brute_force_at_low_demand(spec):
    # at low demand most commitments are dispatchable, so optimality cuts,
    # not capacity cuts, decide the search
    inst = scaled_instance(*spec)
    brute = brute_force_solve(inst)
    report = ucp_solve(inst, EngineConfig(width=2))
    assert report.status == brute.status
    if brute.status == "optimal":
        assert report.value == pytest.approx(brute.best_cost, rel=1e-6, abs=1e-6)
