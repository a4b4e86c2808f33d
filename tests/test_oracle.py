import types

import pytest

from ddbd.engine import dd_bd_solve
from ddbd.oracle import (
    EnumeratedMaster,
    TooLargeError,
    brute_force_solve,
    feasible_assignments,
    naive_bd_solve,
)
from ddbd.ucp import (
    Generator,
    Scenario,
    UcpInstance,
    UcpMasterOracle,
    UcpSubproblemOracle,
    compute_gamma,
    gen_random_instance,
    master_cost,
    ucp_solve,
)
from reference_dd import build_master_dd, enumerate_solutions
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
    assert result.x == (0, 0)
    assert result.value == pytest.approx(0.0)
    assert master_cost(inst, result.x) + result.z == result.value


def test_brute_force_times_its_own_call(monkeypatch):
    import ddbd.oracle as oracle

    ticks = iter([3.0, 3.75])
    monkeypatch.setattr(oracle, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    assert brute_force_solve(zero_demand_instance()).wall_time == 0.75


def test_brute_force_is_reproducible():
    inst = gen_random_instance(2, 2, 2, seed=1)
    first = brute_force_solve(inst)
    second = brute_force_solve(inst)
    assert first.x == second.x
    assert first.value == second.value


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


def test_naive_bd_matches_brute_force():
    # at LOW_DEMAND optimality cuts, not capacity cuts, decide the search
    cases = [gen_random_instance(2, 2, 2, seed=seed) for seed in (0, 1, 2, 3)]
    cases += [scaled_instance(*params) for params in LOW_DEMAND]
    for inst in cases:
        brute = brute_force_solve(inst)
        naive = naive_bd_solve(inst)
        assert naive.status == brute.status
        if brute.status == "optimal":
            assert naive.value == pytest.approx(brute.value, rel=1e-6, abs=1e-6)


def harvested_pool(inst, gamma):
    """The cut pool of a real solve of inst, in the order it grew."""
    asked = []

    class Recording(UcpMasterOracle):
        def best_point(self, cuts):
            asked.append(cuts)
            return super().best_point(cuts)

    dd_bd_solve(Recording(inst, gamma), UcpSubproblemOracle(inst))
    return list(asked[-1])


def test_enumerated_master_matches_the_label_pass():
    cases = [gen_random_instance(2, 3, 2, seed=seed) for seed in range(6)]
    cases += [scaled_instance(*params) for params in LOW_DEMAND]
    optimality_cuts = 0
    for inst in cases:
        gamma = compute_gamma(inst)
        pool = harvested_pool(inst, gamma)
        optimality_cuts += sum(cut.kind == "optimality" for cut in pool)
        scan, label = EnumeratedMaster(inst, gamma), UcpMasterOracle(inst, gamma)
        for k in range(len(pool) + 1):
            got, want = scan.best_point(pool[:k]), label.best_point(pool[:k])
            assert (got is None) == (want is None), k
            if want is not None:
                assert got[2] == pytest.approx(want[2], rel=1e-9), k
    assert optimality_cuts > 0


def test_dd_bd_matches_brute_force_small():
    cases = [(f"s{seed}", gen_random_instance(2, 3, 2, seed=seed)) for seed in range(6)]
    cases += [(f"low{params}", scaled_instance(*params)) for params in LOW_DEMAND]
    for name, inst in cases:
        brute = brute_force_solve(inst)
        report = ucp_solve(inst)
        assert report.status == brute.status, name
        if brute.status == "optimal":
            assert report.value == pytest.approx(brute.value, rel=1e-6, abs=1e-6), \
                name
            # the reported value re-evaluates from its own (x, z) pair
            redo = master_cost(inst, report.x) + report.z
            assert abs(report.value - redo) <= 1e-6 * (1.0 + abs(redo))


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
    report = ucp_solve(inst)
    assert report.status == brute.status
    if brute.status == "optimal":
        assert report.value == pytest.approx(brute.value, rel=1e-6, abs=1e-6)
