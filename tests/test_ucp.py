import dataclasses
import hashlib
import itertools
import operator
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

from ddbd.diagram import (
    CUT_TOL,
    SPLIT_GRID,
    CutRow,
    EmptyDiagramError,
    InfeasibleDiagramError,
    Interval,
    dd_to_json,
    enumerate_solutions,
    optimal_path,
    path_weight,
    reduce_interval_arcs,
    refine_with_cut,
)
from ddbd.engine import dd_bd_solve, replay_cuts
from ddbd.oracle import brute_force_solve, naive_bd_solve, scipy_lp_min, unit_schedules
import ddbd.diagram as diagram_module
import ddbd.simplex as simplex_module
import ddbd.ucp as ucp_module
from ddbd.simplex import FEAS_TOL, LpOutcome, NumericalFailureError, solve, verify_certificate
from ddbd.ucp import (
    INF,
    Generator,
    InstanceError,
    Scenario,
    UcpInstance,
    UcpMasterOracle,
    UcpSubproblemOracle,
    _merge_states,
    build_dual_subproblem,
    build_master_dd,
    build_relaxed_master_dd,
    build_restricted_master_dd,
    build_subproblem,
    compute_gamma,
    gen_random_instance,
    master_cost,
    ucp_solve,
)
from reference_lp import (
    LOW_DEMAND,
    build_subproblem_original,
    chain_rows,
    cut_pieces_by_terms,
    dual_rows_by_loop,
    scaled_instance,
)


def simple_generator(min_up=1, min_down=1, c_fixed=100.0, c_prod=5.0,
                     p_min=10.0, p_max=50.0, ramp=None, table=(30.0, 50.0),
                     cold=80.0):
    ramp = p_max if ramp is None else ramp
    return Generator(c_fixed=c_fixed, c_prod=c_prod, p_min=p_min, p_max=p_max,
                     min_up=min_up, min_down=min_down,
                     ramp_up=ramp, ramp_down=ramp,
                     startup_ramp=ramp, shutdown_ramp=ramp,
                     startup_costs=table, startup_cost_inf=cold)


def single_unit_instance(gen, horizon, demand=None, reserve=None):
    demand = demand or tuple(0.0 for _ in range(horizon))
    reserve = reserve or tuple(0.0 for _ in range(horizon))
    return UcpInstance(generators=[gen], horizon=horizon,
                       scenarios=[Scenario(1.0, tuple(demand), tuple(reserve))]
                       ).validate()


def x_paths(dd):
    return sorted({sol[:-1] for sol in enumerate_solutions(dd)})


# -- master diagram ----------------------------------------------------------------


def test_two_period_master_structure():
    inst = single_unit_instance(simple_generator(min_up=2, min_down=1), 2)
    dd = build_master_dd(inst, gamma=Interval(-25.0, 25.0))
    assert x_paths(dd) == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    assert dd.node_count() == 7
    gen = inst.generators[0]
    first_start = [i for i in dd.layer_arcs(0) if dd.label[i] == 1.0]
    assert len(first_start) == 1
    assert dd.weight[first_start[0]] == gen.c_fixed + gen.startup_cost_inf
    # every schedule appears with both value-interval endpoints
    values = {}
    for sol in enumerate_solutions(dd):
        values.setdefault(sol[:-1], set()).add(sol[-1])
    assert all(v == {-25.0, 25.0} for v in values.values())


def test_one_period_master():
    inst = single_unit_instance(simple_generator(), 1)
    dd = build_master_dd(inst)
    gen = inst.generators[0]
    weights = sorted(path_weight(dd, sol, "min")
                     for sol in enumerate_solutions(dd))
    assert weights == [0.0, gen.c_fixed + gen.startup_cost_inf]


@pytest.mark.parametrize("min_up,min_down", list(itertools.product([1, 2, 3], repeat=2)))
@pytest.mark.parametrize("horizon", [2, 3, 4])
def test_master_paths_match_schedule_rules(min_up, min_down, horizon):
    gen = simple_generator(min_up=min_up, min_down=min_down)
    inst = single_unit_instance(gen, horizon)
    dd = build_master_dd(inst)  # zero-width value interval: one path per x
    got = x_paths(dd)
    want = sorted(tuple(float(b) for b in bits)
                  for bits in unit_schedules(gen, horizon))
    assert got == want
    # path lengths equal the recomputed first-stage cost, exactly
    for sol in enumerate_solutions(dd):
        assert path_weight(dd, sol, "min") == master_cost(inst, sol[:-1])


def test_multi_unit_master_is_product_of_units():
    gens = [simple_generator(min_up=2), simple_generator(min_down=2, c_fixed=77.0)]
    inst = UcpInstance(generators=gens, horizon=2,
                       scenarios=[Scenario(1.0, (0.0, 0.0), (0.0, 0.0))]).validate()
    dd = build_master_dd(inst)
    got = x_paths(dd)
    want = sorted(tuple(map(float, a + b))
                  for a in unit_schedules(gens[0], 2)
                  for b in unit_schedules(gens[1], 2))
    assert got == want
    for sol in enumerate_solutions(dd):
        assert path_weight(dd, sol, "min") == master_cost(inst, sol[:-1])


def test_partial_assignment_restricts_and_can_empty():
    gen = simple_generator(min_up=3)
    inst = single_unit_instance(gen, 3)
    dd = build_master_dd(inst, partial=(1.0,))
    assert x_paths(dd) == [(1.0, 1.0, 1.0)]
    with pytest.raises(EmptyDiagramError):
        build_master_dd(inst, partial=(1.0, 0.0))


def test_memoryless_state_property():
    gen = simple_generator(min_up=2, min_down=2)
    horizon = 5

    def replay_state(bits):
        up, down = INF, INF
        for b in bits:
            if up >= down:  # down
                up, down = ((1, down + 1) if b else (up + 1, down + 1))
            else:
                up, down = ((up + 1, down + 1) if b else (up + 1, 1))
        return up, down

    schedules = unit_schedules(gen, horizon)
    for k in (2, 3):
        completions = {}
        for bits in schedules:
            state = replay_state(bits[:k])
            completions.setdefault(state, {}).setdefault(bits[:k], set()).add(bits[k:])
        for state, by_prefix in completions.items():
            suffix_sets = list(by_prefix.values())
            assert all(s == suffix_sets[0] for s in suffix_sets), state


# -- relaxed / restricted compilation ------------------------------------------------


def test_relaxed_without_width_pressure_equals_exact():
    gen = simple_generator(min_up=2, min_down=2)
    inst = single_unit_instance(gen, 4)
    gamma = Interval(-5.0, 5.0)
    exact = build_master_dd(inst, gamma=gamma)
    relaxed = build_relaxed_master_dd(inst, (), gamma, width=10 ** 6)
    assert not relaxed.merged.any()
    assert sorted(enumerate_solutions(relaxed)) == sorted(enumerate_solutions(exact))
    # merged-age mirrors the down-age when nothing merges
    for state in relaxed.states:
        if state is not None and len(state) == 3:
            assert state[2] == state[1]


def canonical_master(dd):
    """Node count, then the arcs in order with tail and head numbered by
    first appearance and labels and weights as float.hex, then each
    numbered node's state and merged tag.  Ids and the order of nodes
    within a layer do not show."""
    num = {}

    def hexed(i):
        if i >= dd.value_first:
            k = i - dd.value_first
            return (float(dd.lo[k]).hex(), float(dd.hi[k]).hex())
        return float(dd.label[i]).hex()

    arcs = [(j, num.setdefault(int(dd.tail[i]), len(num)),
             num.setdefault(int(dd.head[i]), len(num)), hexed(i), float(dd.weight[i]).hex())
            for j in range(dd.num_arc_layers) for i in dd.layer_arcs(j)]
    nodes = [(dd.states[r], bool(dd.merged[r])) for r in num]
    return repr((dd.node_count(), arcs, nodes))


# sha256 of canonical_master for (seed, partial, width) of
# gen_random_instance(3, 4, 1, seed) with value bounds [0, 1]; width None is
# the exact master.  Recorded when relaxed layers were merged after their
# nodes were built.
PINNED_MASTERS = {
    (0, (), None):
        "66b515789433814f117692a7aff54e66bf613b7d503c4f067697b6cc6b9f8310",
    (0, (), 1):
        "7ca7c77911fc5bf01e9522d8a5a16aeed3581e0143d3b0bfc8216adbc26caae0",
    (0, (), 2):
        "7ca7c77911fc5bf01e9522d8a5a16aeed3581e0143d3b0bfc8216adbc26caae0",
    (0, (), 3):
        "52fe38eab59714b788736fa7a914e24c4ddda7b3d7bf47bc8769fa38a89d7265",
    (0, (1.0,), None):
        "7268bc33a53d72fa24d2866f9aa34d54ea8f3450a27b8a1029c5a59c772b55e5",
    (0, (1.0,), 1):
        "353c689a8a6d3415beec4ad4e56a1bd7e6fceee02015a4559a1120c2c4bf780a",
    (0, (1.0,), 2):
        "9406de8162fdad229f004ee5e94baeca8f3b3aacac84a5b151d49f9dfd734b9d",
    (0, (1.0,), 3):
        "30736fc426c682327c1c99aeef8f106c531723d320d84778c1977313c188957d",
    (0, (0.0, 1.0, 1.0, 1.0, 0.0), None):
        "61fa2358610d7ff86d0e89c5441363668ce6eb7835cc669b8ab5269e499884c5",
    (0, (0.0, 1.0, 1.0, 1.0, 0.0), 1):
        "d7f2234cee2b04eb236083908883349492971150b0f50521bfa02cf67037ae9b",
    (0, (0.0, 1.0, 1.0, 1.0, 0.0), 2):
        "d7f2234cee2b04eb236083908883349492971150b0f50521bfa02cf67037ae9b",
    (0, (0.0, 1.0, 1.0, 1.0, 0.0), 3):
        "f7e05ed0dea4b533811dc6812aa1834c19bc5029f985cb0d4ccc85e51b3a4d37",
    (1, (), None):
        "daa6da4136cd36b918719c51031ba94283188750c16beadf19d6e85831929159",
    (1, (), 1):
        "f996179b716699357e23e2e16532f97ce5aea6faaccae1d98a16eb08fbb32ea5",
    (1, (), 2):
        "f996179b716699357e23e2e16532f97ce5aea6faaccae1d98a16eb08fbb32ea5",
    (1, (), 3):
        "73960ac1d9b9ba91ac8dbb9fb866564a04043224dac09bfb9687717bc0a86caa",
    (1, (1.0,), None):
        "f0b255a437479fd92dd46c89b28f059c8667a80835eee77d227f16b46b430d4b",
    (1, (1.0,), 1):
        "1b9867e1d10a06582a20a1d4b9e339d6b0b579d266bd1d3720d1942151fdc8fd",
    (1, (1.0,), 2):
        "2eb7c2200d31d3934590aa5f8b0ed84d7763a88d4b80b5bce894e847ad63600f",
    (1, (1.0,), 3):
        "b6bfd1666346e49604870de14f915bbd340dab66fb31761ff1973a7063fc4434",
    (1, (0.0, 1.0, 1.0, 1.0, 0.0), None):
        "f818339b0586250be1347026cfdb27c7410f4800c3621fdf83cdb6773604d398",
    (1, (0.0, 1.0, 1.0, 1.0, 0.0), 1):
        "625529dc52a11646e0bbbdf256777b0dbaea6d8a271b77da58758c5a6077c698",
    (1, (0.0, 1.0, 1.0, 1.0, 0.0), 2):
        "625529dc52a11646e0bbbdf256777b0dbaea6d8a271b77da58758c5a6077c698",
    (1, (0.0, 1.0, 1.0, 1.0, 0.0), 3):
        "99003887d36dcde0dd00d8da8f20b18c67569d240c1f7413bbb13ad4becb606d",
}


def test_compiled_masters_match_their_recorded_hashes():
    got, merged = {}, 0
    for seed, partial, width in PINNED_MASTERS:
        inst = gen_random_instance(3, 4, 1, seed)
        gamma = Interval(0.0, 1.0)
        dd = (build_master_dd(inst, partial, gamma) if width is None
              else build_relaxed_master_dd(inst, partial, gamma, width))
        merged += bool(dd.merged.any())
        got[seed, partial, width] = hashlib.sha256(canonical_master(dd).encode()).hexdigest()
    assert got == PINNED_MASTERS
    assert merged == 18


def test_merge_states_folds_a_merge_equal_to_a_kept_state_into_it():
    reach = {(5, 3, 1): 0.0, (5, 2, 1): 1.0, (4, 3, 2): 2.0}
    rep, merged = _merge_states(reach, 2)
    assert rep == dict.fromkeys(reach, (5, 3, 1))
    assert merged == {(5, 3, 1)}


@pytest.mark.parametrize("reach", [
    {(3, 1, 1): 5.0, (1, 2, 2): 0.0},
    {(1, 2, 2): 0.0, (3, 1, 1): 5.0},
])
def test_merge_states_lists_the_down_group_first(reach):
    rep, merged = _merge_states(reach, 1)
    assert list(rep.items()) == [((3, 1, 1), (3, 1, 1)), ((1, 2, 2), (1, 2, 2))]
    assert not merged


def test_relaxed_keeps_exact_paths_with_no_greater_weight():
    gen = simple_generator(min_up=2, min_down=2)
    inst = single_unit_instance(gen, 5)
    exact = build_master_dd(inst)
    relaxed = build_relaxed_master_dd(inst, (), Interval(0.0, 0.0), width=2)
    exact_sols = enumerate_solutions(exact)
    relaxed_x = {sol[:-1] for sol in enumerate_solutions(relaxed)}
    for sol in exact_sols:
        assert sol[:-1] in relaxed_x
        assert path_weight(relaxed, sol, "min") <= path_weight(exact, sol, "min") + 1e-9


def test_relaxed_shortest_path_is_a_lower_bound():
    for seed in range(20):
        inst = gen_random_instance(1, 5, 1, seed=seed)
        gamma = Interval(0.0, 0.0)
        exact = build_master_dd(inst, gamma=gamma)
        _, exact_val = optimal_path(exact, "min")
        for width in (1, 2, 3):
            relaxed = build_relaxed_master_dd(inst, (), gamma, width)
            assert relaxed.width <= max(width, 2) + 1
            _, relax_val = optimal_path(relaxed, "min")
            assert relax_val <= exact_val + 1e-9


def test_restricted_is_subset_and_respects_rules():
    gen = simple_generator(min_up=2, min_down=2)
    inst = single_unit_instance(gen, 3)
    gamma = Interval(0.0, 0.0)
    exact = build_master_dd(inst, gamma=gamma)
    feasible = {tuple(float(b) for b in bits) for bits in unit_schedules(gen, 3)}
    # the point of one path of the exact master, however wide the master
    # is, at its optimum
    assert exact.width > 1
    x, z, w = build_restricted_master_dd(inst, gamma)
    assert x in feasible
    assert optimal_path(exact, "min") == (list(x) + [z], w)


def harvested_pool(inst, rng, feasibility=6, optimality=4):
    """Cuts the subproblem oracle returns at random commitments."""
    oracle = UcpSubproblemOracle(inst)
    pool = []
    while sum(c.z_coeff == 0.0 for c in pool) < feasibility or \
            sum(c.z_coeff != 0.0 for c in pool) < optimality:
        x = tuple(float(rng.random() < 0.7) for _ in range(inst.num_vars))
        pool.extend(oracle.evaluate(x).cuts)
    return pool


def test_replays_leave_masters_as_they_were():
    # array slices are views: a replay that wrote into its input would
    # change the master under the next replay, silently
    rng = np.random.default_rng(3)
    for args in [(2, 4, 2, 0, 0.4), (3, 3, 1, 0, 0.4)]:
        inst = scaled_instance(*args)
        gamma = compute_gamma(inst)
        pool = harvested_pool(inst, rng)
        for master in (build_master_dd(inst, (), gamma),
                       build_relaxed_master_dd(inst, (), gamma, 2)):
            before = dd_to_json(master)
            for op in (lambda: refine_with_cut(master, pool), lambda: replay_cuts(master, pool),
                       lambda: optimal_path(master, "min"), lambda: enumerate_solutions(master),
                       lambda: reduce_interval_arcs(master, range(master.num_arc_layers))):
                try:
                    op()
                except InfeasibleDiagramError:
                    pass
                assert dd_to_json(master) == before, args


def fixing_cuts(partial):
    """The partial assignment as cuts: x_v <= 0 or x_v >= 1 per fixed variable."""
    return [CutRow(coeffs={v: 1.0}, rhs=p, sense=">=" if p else "<=")
            for v, p in enumerate(partial)]


def assert_build_matches_the_refined_master(inst, partial, gamma, cuts, where):
    """build_restricted_master_dd, given the partial assignment as cuts
    (fixing_cuts) ahead of `cuts`, gives the x, z and value, to the bit,
    of optimal_path over the exact master of the partial refined by the
    cuts, and None where that master is empty or emptied.  Returns "ok",
    "empty" or "emptied"."""
    fixed = fixing_cuts(partial) + list(cuts)
    try:
        want = optimal_path(replay_cuts(build_master_dd(inst, partial, gamma), cuts), "min")
    except (EmptyDiagramError, InfeasibleDiagramError) as exc:
        assert build_restricted_master_dd(inst, gamma, fixed) is None, where
        return "empty" if isinstance(exc, EmptyDiagramError) else "emptied"
    x, z, w = build_restricted_master_dd(inst, gamma, fixed)
    assert list(x) + [z] == want[0] and w.hex() == want[1].hex(), (where, (x, z, w), want)
    assert x[:len(partial)] == tuple(partial), where
    return "ok"


def test_restricted_master_keeps_an_optimum_of_exact_and_cuts():
    # an optimal path of exact ∩ cuts, with its x and value to the bit
    rng = np.random.default_rng(23)
    seen = {"ok": 0, "emptied": 0}
    for args in [(2, 4, 2, 0, 0.4), (2, 4, 2, 5, 0.5), (1, 6, 2, 3, 0.8)]:
        inst = scaled_instance(*args)
        gamma = compute_gamma(inst)
        pool = harvested_pool(inst, rng)
        paths = enumerate_solutions(build_master_dd(inst, (), gamma))
        partials = sorted({tuple(p[:k]) for p in paths for k in (0, 1, 3)})
        for trial in range(12):
            partial = partials[rng.integers(len(partials))]
            cuts = [pool[i] for i in rng.choice(len(pool), rng.integers(1, len(pool) + 1),
                                                replace=False)]
            seen[assert_build_matches_the_refined_master(
                inst, partial, gamma, cuts, f"{args} {partial}")] += 1
    assert seen["ok"] >= 20 and seen["emptied"] < seen["ok"], seen


def test_label_pass_matches_the_refined_exact_master_on_random_partials():
    # random partial assignments, many with no completion, under random
    # subsets of harvested pools and of cuts with either sense
    rng = np.random.default_rng(5)
    seen = {"ok": 0, "empty": 0, "emptied": 0}
    for args in [(2, 4, 2, 0, 0.4), (2, 4, 2, 5, 0.5), (1, 6, 2, 3, 0.8), (3, 3, 1, 0, 0.4),
                 (2, 5, 2, 1, 0.6), (3, 4, 1, 4, 0.7), (3, 4, 2, 1, 0.6)]:
        inst = scaled_instance(*args)
        gamma = compute_gamma(inst)
        n = inst.num_vars
        pool = harvested_pool(inst, rng) + [
            CutRow(coeffs={int(j): 1.0 for j in rng.choice(n, 3, replace=False)},
                   rhs=2.0, sense=">="),
            CutRow(coeffs={int(j): 1.0 for j in rng.choice(n, 4, replace=False)},
                   rhs=1.0, sense="<=")]
        for trial in range(30):
            partial = tuple(float(rng.random() < 0.5) for _ in range(rng.integers(0, n)))
            cuts = [pool[i] for i in rng.choice(len(pool), rng.integers(0, len(pool) + 1),
                                                replace=False)]
            seen[assert_build_matches_the_refined_master(
                inst, partial, gamma, cuts, f"{args} {partial} {len(cuts)} cuts")] += 1
    assert min(seen.values()) >= 30, seen


def test_capped_states_keep_every_move_and_weight():
    # a capped state forgets only ages that no later move or weight reads
    for min_up, min_down, table in [(1, 1, (5.0,)), (2, 3, (5.0, 9.0)), (3, 1, (1.0, 2.0, 3.0)),
                                    (2, 2, (4.0, 4.0, 6.0, 8.0))]:
        gen = simple_generator(min_up=min_up, min_down=min_down, table=table, cold=10.0)
        horizon = 6
        inst = single_unit_instance(gen, horizon)
        moves = ucp_module._capped_moves(gen, horizon)   # state 0 is the fresh one
        for bits in unit_schedules(gen, horizon):
            state, cost = 0, 0.0
            for b in bits:
                (w, state), = [(w, nxt) for lab, w, nxt in moves[state] if lab == b]
                cost += w
            assert cost == master_cost(inst, tuple(map(float, bits)))
        # and no schedule that breaks the rules has a path
        frontier = [((), 0)]
        for _ in range(horizon):
            frontier = [(p + (lab,), nxt) for p, s in frontier for lab, _, nxt in moves[s]]
        paths = {tuple(int(b) for b in p) for p, _ in frontier}
        assert paths == {tuple(bits) for bits in unit_schedules(gen, horizon)}


def test_capped_moves_of_one_generator_are_pinned():
    # states by depth-first index: 0 never up, 1 and 2 up for one and for
    # two or more periods, 3 to 5 down for one, two, and three or more.
    # The never-up state keeps itself and its cold start (100 + 10); from
    # state 5 a start pays the table's last cost, 9
    gen = simple_generator(min_up=2, min_down=3, table=(5.0, 9.0), cold=10.0)
    assert ucp_module._capped_moves(gen, 6) == (
        ((0.0, 0.0, 0), (1.0, 110.0, 1)),
        ((1.0, 100.0, 2),),
        ((1.0, 100.0, 2), (0.0, 0.0, 3)),
        ((0.0, 0.0, 4),),
        ((0.0, 0.0, 5),),
        ((0.0, 0.0, 5), (1.0, 109.0, 1)))


def test_oracle_reports_a_node_the_pool_empties_as_infeasible_and_exact():
    inst = scaled_instance(2, 4, 2, 0, 0.4)
    oracle = UcpMasterOracle(inst, compute_gamma(inst))
    # x_0 <= 0 and x_0 >= 1: each cut leaves paths, together none
    pool = [CutRow(coeffs={0: 1.0}, rhs=0.0, sense="<="),
            CutRow(coeffs={0: 1.0}, rhs=1.0, sense=">=")]
    for cuts in ([pool[0]], [pool[1]]):
        assert oracle.best_point(cuts) is not None
    assert oracle.best_point(pool) is None
    # so are cuts that only the unit's rules make exclusive: down after
    # one period up, against a two-period minimum up time
    unit = UcpMasterOracle(single_unit_instance(simple_generator(min_up=2), 4),
                           Interval(0.0, 0.0))
    assert unit.best_point(fixing_cuts((1.0,))) is not None
    assert unit.best_point(fixing_cuts((1.0, 0.0))) is None


def test_the_master_oracle_builds_each_units_moves_once(monkeypatch):
    inst = scaled_instance(3, 6, 3, 0, 0.8)
    gamma = compute_gamma(inst)
    pools = [[], [CutRow(coeffs={0: 1.0}, rhs=1.0, sense=">=")]]
    # each pool's point from a build that writes the moves afresh
    points = [build_restricted_master_dd(inst, gamma, cuts) for cuts in pools]
    built, compiled = [], []
    real_moves, real_build = ucp_module._capped_moves, ucp_module.build_restricted_master_dd

    def compile_counted(*args, **kwargs):
        compiled.append(1)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(ucp_module, "_capped_moves",
                        lambda *args: built.append(1) or real_moves(*args))
    monkeypatch.setattr(ucp_module, "build_restricted_master_dd", compile_counted)
    oracle = UcpMasterOracle(inst, gamma)
    for cuts, point in zip(pools, points):
        assert oracle.best_point(cuts) == point
    # each ask goes through the module's name, and none rebuilds the moves
    assert len(compiled) == 2 and len(built) == inst.num_units


def test_a_key_keeps_the_feasibility_lhs_of_the_first_arc_to_reach_it():
    # one unit with min_up = 1 over 3 periods and the cut
    # 3e-10 x0 + x2 <= rhs, where rhs + CUT_TOL = 1 + 1.5e-10 (to rounding).
    # The prefixes (0, 1) and (1, 1) reach one key: the unit is up, and
    # their lhs, 0 and 3e-10, round to one SPLIT_GRID cell.  (0, 1) gets
    # there first, so the key's lhs is 0, and at the cut's last coefficient
    # the up move from it passes at lhs 1; from the last arc's lhs, 3e-10,
    # it would be dropped.  A comparison with the refined exact master
    # cannot see this: that master keeps uncapped up-ages (1 and 2 here),
    # so it never merges the two prefixes.
    inst = single_unit_instance(simple_generator(min_up=1), 3)
    cut = CutRow(coeffs={0: 3e-10, 2: 1.0}, rhs=1.0 + 1.5e-10 - CUT_TOL, sense="<=")
    graph = ucp_module.master_key_graph(inst, Interval(0.0, 0.0))
    graph.fit([cut])
    arcs = [list(zip(parent, label, child)) for parent, label, _, child, _ in graph.layers]
    # (parent key, label, child key); key 1 of layer 1 is the merged one
    assert arcs[1] == [(0, 0, 0), (0, 1, 1), (1, 1, 1), (1, 0, 2)]
    assert arcs[2] == [(0, 0, 0), (0, 1, 1), (1, 1, 1), (1, 0, 2), (2, 0, 3)]


def count_key_graph_builds(monkeypatch):
    """Calls of diagram._cut_schedule, which runs once per key graph built."""
    calls = []
    real = diagram_module._cut_schedule
    monkeypatch.setattr(diagram_module, "_cut_schedule",
                        lambda *args: calls.append(1) or real(*args))
    return calls


def same_answer(got, want):
    # repr tells every two floats apart, -0.0 from 0.0 included
    return repr(got) == repr(want)


def fresh_answer(inst, gamma, cuts):
    """The oracle's answer from a build that keeps nothing."""
    return build_restricted_master_dd(inst, gamma, cuts)


def test_the_kept_key_graph_gives_every_ask_a_fresh_builds_answer(monkeypatch):
    # one oracle asked along a growing pool, then along lists whose
    # feasibility cuts change: one appended mid-sequence, one swapped for
    # an equal copy, and the same cuts in another order.  Only the
    # feasibility cuts, the same objects in the same order, keep the graph
    rng = np.random.default_rng(17)
    seen_optimal = 0
    for args in [(2, 4, 2, 0, 0.4), (3, 4, 2, 1, 0.6), (3, 3, 1, 0, 0.4)]:
        inst = scaled_instance(*args)
        gamma = compute_gamma(inst)
        pool = UcpSubproblemOracle(inst).initial_cuts() + harvested_pool(inst, rng)
        feas = [c for c in pool if c.z_coeff == 0.0]
        opt = [c for c in pool if c.z_coeff != 0.0]
        twin = dataclasses.replace(feas[1])
        assert twin == feas[1] and twin is not feas[1]
        asks = [(feas[:2], True), (feas[:2] + opt[:1], False), (opt[:3] + feas[:2], False),
                (feas[:3] + opt[:3], True), (opt[:1] + feas[:3] + opt[1:4], False),
                ([feas[0], twin, feas[2]] + opt[:4], True), ([feas[0], twin, feas[2]], False),
                ([feas[2], feas[0], twin] + opt, True), (feas + opt, True), (opt, True)]
        want = [fresh_answer(inst, gamma, cuts) for cuts, _ in asks]
        builds = count_key_graph_builds(monkeypatch)
        oracle = UcpMasterOracle(inst, gamma)
        for k, ((cuts, rebuilds), answer) in enumerate(zip(asks, want)):
            before = len(builds)
            assert same_answer(oracle.best_point(cuts), answer), (args, k)
            assert len(builds) - before == rebuilds, (args, k)
            seen_optimal += answer is not None
        monkeypatch.undo()
    assert seen_optimal >= 20


def test_a_solve_asks_like_fresh_builds_and_builds_one_graph_per_feasibility_set(monkeypatch):
    # every ask of real solves, checked against a build that keeps nothing
    real = ucp_module.build_restricted_master_dd
    kept, count = [], {"asks": 0, "sets": 0}   # sets: distinct feasibility lists in a row

    def checked(inst, gamma, cuts, *rest):
        cuts = list(cuts)
        feas = [c for c in cuts if c.z_coeff == 0.0]
        if not kept or len(feas) != len(kept) or not all(map(operator.is_, feas, kept)):
            count["sets"] += 1
        kept[:] = feas
        count["asks"] += 1
        got = real(inst, gamma, cuts, *rest)
        assert same_answer(got, fresh_answer(inst, gamma, cuts))
        return got

    monkeypatch.setattr(ucp_module, "build_restricted_master_dd", checked)
    for args in [(3, 6, 3, 0, 0.8), (3, 4, 2, 1, 0.6), (4, 6, 3, 4, 0.8)]:
        kept.clear()
        count.update(asks=0, sets=0)
        builds = count_key_graph_builds(monkeypatch)
        assert ucp_solve(scaled_instance(*args)).status == "optimal"
        # the fresh builds keep nothing: one graph each
        assert len(builds) == count["asks"] + count["sets"], (args, count)
        assert count["asks"] > count["sets"], (args, count)


def test_a_cached_ask_keeps_every_check_of_the_label_pass(monkeypatch):
    inst = scaled_instance(3, 4, 2, 1, 0.6)
    gamma = compute_gamma(inst)
    pool = UcpSubproblemOracle(inst).initial_cuts() + harvested_pool(
        inst, np.random.default_rng(29))
    want = fresh_answer(inst, gamma, pool)
    assert want is not None
    builds = count_key_graph_builds(monkeypatch)
    oracle = UcpMasterOracle(inst, gamma)
    assert same_answer(oracle.best_point(pool), want)
    # an optimality cut that bounds the value from above
    upper = CutRow(coeffs={0: 1.0}, z_coeff=1.0, rhs=0.0, sense="<=")
    with pytest.raises(ValueError):
        oracle.best_point(pool + [upper])
    # an optimality cut above gamma.hi leaves no path
    beyond = CutRow(coeffs={}, z_coeff=1.0, rhs=gamma.hi + 1.0, sense=">=")
    assert oracle.best_point(pool + [beyond]) is None
    assert same_answer(oracle.best_point(pool), want)
    assert len(builds) == 1
    # feasibility cuts that together leave no path build no graph to keep
    clash = pool + fixing_cuts((1.0,)) + [CutRow(coeffs={0: 1.0}, rhs=0.0, sense="<=")]
    for _ in range(2):
        assert oracle.best_point(clash) is None
    assert len(builds) == 3
    assert same_answer(oracle.best_point(pool), want)
    assert len(builds) == 4


def test_cut_keys_equal_the_two_pass_formula_on_harvested_cuts():
    # CutRow.key rounds each coefficient once; the formula it replaced
    # rounded it twice, once to drop zeros and once for the value
    def two_pass_key(cut):
        items = tuple(sorted((j, round(c / SPLIT_GRID)) for j, c in cut.coeffs.items()
                             if round(c / SPLIT_GRID) != 0))
        return (cut.sense, round(cut.z_coeff / SPLIT_GRID), items, round(cut.rhs / SPLIT_GRID))

    rng = np.random.default_rng(31)
    cuts = []
    for args in [(2, 4, 2, 0, 0.4), (3, 4, 2, 1, 0.6), (3, 6, 3, 0, 0.8)]:
        inst = scaled_instance(*args)
        cuts += UcpSubproblemOracle(inst).initial_cuts() + harvested_pool(inst, rng)
    # and each again with coefficients shrunk to about the grid, so that
    # some round to zero and drop out of the key
    cuts += [dataclasses.replace(c, coeffs={j: v * SPLIT_GRID / max(map(abs, c.coeffs.values()))
                                            for j, v in c.coeffs.items()})
             for c in cuts if c.coeffs]
    assert all(cut.key() == two_pass_key(cut) for cut in cuts)
    assert any(round(v / SPLIT_GRID) == 0 for c in cuts for v in c.coeffs.values())


def test_ucp_solve_closes_at_the_root():
    # both branched at width 2 while restricted diagrams were cut to the
    # width; a converged restricted loop over exact ∩ pool solves the root.
    # The first pin moved by one ulp (from ...513) when each oracle's first
    # dispatch LP began at the merit-order basis: that LP reaches its
    # optimal vertex through another tableau, so its dual values round
    # differently; the brute-force check below still holds it to 1e-9
    for args, optimum in [((3, 4, 2, 1, 0.6), 31765.555004250517),
                          ((3, 4, 1, 4, 0.7), 39027.205105283065)]:
        inst = scaled_instance(*args)
        report = ucp_solve(inst)
        assert (report.status, report.nodes, report.branches) == ("optimal", 1, 0), args
        assert report.value == optimum, args
        brute = brute_force_solve(inst)
        assert report.x == brute.x, args
        assert report.value == pytest.approx(brute.value, rel=1e-9), args


def test_frontier_instances_solve_at_the_milp_optimum():
    # with restricted masters refined by node splitting, the first ran out
    # of memory and the second took seconds and half a gigabyte; HiGHS
    # solves the extensive form for the reference optimum
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    from reference import milp_optimum

    for args in [(5, 8, 4, 0, 0.6), (5, 12, 4, 0, 0.8)]:
        inst = scaled_instance(*args)
        report = ucp_solve(inst)
        assert (report.status, report.branches) == ("optimal", 0), args
        _, optimum = milp_optimum(inst)
        assert report.value == pytest.approx(optimum, rel=1e-6), args
        value = UcpSubproblemOracle(inst).evaluate(report.x).value
        assert master_cost(inst, report.x) + value == pytest.approx(optimum, rel=1e-6), args


# -- value bounds ------------------------------------------------------------------


def test_gamma_tiny_example():
    gen = simple_generator(c_fixed=0.0, c_prod=1.0, p_min=0.0, p_max=10.0,
                           table=(0.0,), cold=0.0)
    inst = single_unit_instance(gen, 1)
    gamma = compute_gamma(inst)
    assert gamma.lo == pytest.approx(0.0, abs=1e-9)
    assert gamma.hi == pytest.approx(10.0, abs=1e-7)


def test_gamma_zero_production_cost():
    gen = simple_generator(c_prod=0.0)
    inst = single_unit_instance(gen, 2, demand=(20.0, 20.0))
    gamma = compute_gamma(inst)
    assert gamma.lo == pytest.approx(0.0, abs=1e-9)
    assert gamma.hi == pytest.approx(0.0, abs=1e-9)


def test_gamma_merit_order_and_capacity():
    gens = [simple_generator(c_prod=5.0, p_max=50.0, p_min=0.0),
            simple_generator(c_prod=-2.0, p_max=10.0, p_min=0.0),
            simple_generator(c_prod=3.0, p_max=20.0, p_min=0.0)]

    def fleet(demand, reserve=0.0):
        return UcpInstance(generators=gens, horizon=1,
                           scenarios=[Scenario(1.0, (demand,), (reserve,))]).validate()

    # the negative-cost unit runs flat out, the cheaper positive one covers the rest
    gamma = compute_gamma(fleet(25.0))
    assert gamma.lo == pytest.approx(-2.0 * 10.0 + 3.0 * 15.0)
    assert gamma.hi == pytest.approx(3.0 * 20.0 + 5.0 * 50.0)
    assert compute_gamma(fleet(0.0)).lo == pytest.approx(-20.0)
    # demand plus reserve at capacity needs every unit on
    inst = fleet(60.0, 20.0)
    brute = brute_force_solve(inst)
    assert brute.x == (1.0, 1.0, 1.0)
    for report in (ucp_solve(inst), naive_bd_solve(inst)):
        assert report.status == "optimal" and report.x == brute.x
        assert report.value == pytest.approx(brute.value, rel=1e-9)
    # one unit over capacity: the seeded capacity cut leaves the master no
    # point, so the solve proves infeasibility with no LP
    inst = fleet(60.0, 21.0)
    assert brute_force_solve(inst).status == "infeasible"
    for report in (ucp_solve(inst), naive_bd_solve(inst)):
        assert report.status == "infeasible" and report.x is None
        assert (report.lp_calls, report.nodes) == (0, 1)
        assert report.feasibility_cuts >= 1 and report.wall_time > 0.0


def test_gamma_at_full_output_survives_probability_rounding():
    # validate() accepts probabilities that sum to one within 1e-9
    gen = simple_generator(p_min=0.0)
    inst = UcpInstance(generators=[gen], horizon=1,
                       scenarios=[Scenario(0.5, (50.0,), (0.0,)),
                                  Scenario(0.5 + 5e-10, (50.0,), (0.0,))]).validate()
    gamma = compute_gamma(inst)
    assert gamma.lo == gamma.hi == pytest.approx(5.0 * 50.0)


def test_gamma_that_overflows_a_float_is_an_instance_error():
    # every number is finite, but the bound T * c_prod * p_max is not
    gen = simple_generator(p_min=0.0, p_max=1e308)
    inst = single_unit_instance(gen, 2, demand=(20.0, 30.0))
    with pytest.raises(InstanceError, match="overflow"):
        compute_gamma(inst)


def test_gamma_brackets_true_second_stage_cost():
    from ddbd.oracle import feasible_assignments, stage2_expected_cost

    negative = single_unit_instance(simple_generator(c_prod=-3.0), 3,
                                    demand=(20.0, 30.0, 10.0))
    instances = [gen_random_instance(2, 3, 2, seed=seed) for seed in (3, 4, 5)]
    instances += [scaled_instance(*params) for params in LOW_DEMAND] + [negative]
    for inst in instances:
        gamma = compute_gamma(inst)
        for x in feasible_assignments(inst):
            cost = stage2_expected_cost(inst, x)
            if cost is None:
                continue
            assert gamma.lo - 1e-6 <= cost <= gamma.hi + 1e-6


# -- dispatch subproblems ------------------------------------------------------------


def test_ramp_rhs_at_startup_is_the_startup_ramp():
    gen = simple_generator(ramp=30.0, p_min=5.0)
    inst = single_unit_instance(gen, 2, demand=(0.0, 0.0))
    lp = build_subproblem(inst, (0.0, 1.0), inst.scenarios[0])
    # first ramp-up row of period 2: rhs = startup ramp
    assert lp.b[5] == pytest.approx(gen.startup_ramp)


def test_all_off_commitment_is_infeasible_iff_demand_positive():
    gen = simple_generator()
    inst = single_unit_instance(gen, 2, demand=(10.0, 0.0))
    status, _ = scipy_lp_min(build_subproblem(inst, (0.0, 0.0), inst.scenarios[0]))
    assert status == "infeasible"
    inst0 = single_unit_instance(gen, 2)
    status, value = scipy_lp_min(build_subproblem(inst0, (0.0, 0.0), inst0.scenarios[0]))
    assert status == "optimal"
    assert value == pytest.approx(0.0)


def test_reformed_and_indicator_forms_agree():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 60:
        inst = gen_random_instance(int(rng.integers(1, 3)), int(rng.integers(2, 4)),
                                   1, seed=int(rng.integers(0, 10 ** 6)))
        x = tuple(float(rng.integers(0, 2)) for _ in range(inst.num_vars))
        sc = inst.scenarios[0]
        s1, v1 = scipy_lp_min(build_subproblem(inst, x, sc))
        s2, v2 = scipy_lp_min(build_subproblem_original(inst, x, sc))
        assert s1 == s2
        if s1 == "optimal":
            assert abs(v1 - v2) <= 1e-6 * (1.0 + abs(v1))
        checked += 1


def test_dual_rows_are_the_row_by_row_loops():
    rng = np.random.default_rng(61)
    instances = [gen_random_instance(int(rng.integers(1, 6)), int(rng.integers(1, 9)), 2,
                                     seed=int(rng.integers(0, 10 ** 6))) for _ in range(20)]
    negative = single_unit_instance(simple_generator(c_prod=-3.0), 3)
    for inst in instances + [negative]:
        A, senses, b = ucp_module._dual_rows(inst)
        ref_A, ref_senses, ref_b = dual_rows_by_loop(inst)
        assert A.tobytes() == ref_A.tobytes() and A.shape == ref_A.shape
        assert senses == ref_senses and b.tobytes() == ref_b.tobytes()


def test_dual_matches_primal_value_and_unboundedness():
    rng = np.random.default_rng(23)
    seen_infeasible = 0
    seen_optimal = 0
    trials = 0
    while (seen_infeasible < 5 or seen_optimal < 5) and trials < 200:
        trials += 1
        inst = gen_random_instance(2, 2, 1, seed=int(rng.integers(0, 10 ** 6)))
        x = tuple(float(rng.integers(0, 2)) for _ in range(inst.num_vars))
        sc = inst.scenarios[0]
        primal_status, primal_value = scipy_lp_min(build_subproblem(inst, x, sc))
        dual = solve(build_dual_subproblem(inst, x, sc))
        if primal_status == "optimal":
            seen_optimal += 1
            assert dual.status == "optimal"
            assert dual.objective == pytest.approx(primal_value, rel=1e-6, abs=1e-6)
        else:
            seen_infeasible += 1
            assert dual.status == "unbounded"
    assert seen_infeasible >= 5 and seen_optimal >= 5


def test_zero_demand_gives_zero_value_cut():
    """At zero demand the all-off commitment costs 0, and so does its cut
    there.  The cut used to have every coefficient 0, the vertex Bland's
    rule reached first; among the optimal duals evaluate now takes the one
    best at the commitment midpoint, whose cut charges each committed
    period, so it is checked for value, tightness and validity instead."""
    from ddbd.oracle import stage2_expected_cost

    gen = simple_generator()
    inst = single_unit_instance(gen, 2)
    res = UcpSubproblemOracle(inst).evaluate((0.0, 0.0))
    assert res.kind == "optimal"
    assert res.value == pytest.approx(0.0)
    cut = res.cuts[0]
    assert cut.z_coeff == 1.0 and cut.sense == ">="

    def bound(x):   # the least z the cut allows at x
        return cut.rhs - sum(c * x[k] for k, c in cut.coeffs.items())

    assert bound((0, 0)) == pytest.approx(0.0, abs=1e-9)
    for x in itertools.product((0, 1), repeat=2):
        assert bound(x) <= stage2_expected_cost(inst, x) + 1e-6, x


def test_cuts_are_valid_for_every_feasible_commitment():
    from ddbd.oracle import feasible_assignments, stage2_expected_cost

    inst = gen_random_instance(2, 2, 2, seed=8)
    truth = {}
    for x in feasible_assignments(inst):
        truth[x] = stage2_expected_cost(inst, x)
    probes = list(truth)[:6]
    for probe in probes:
        res = UcpSubproblemOracle(inst).evaluate(probe)
        for cut in res.cuts:
            for x, z in truth.items():
                if z is None:
                    continue
                lhs = sum(c * x[k] for k, c in cut.coeffs.items()) + cut.z_coeff * z
                assert cut.satisfied(lhs, tol=1e-6), (probe, cut, x, z)


def test_optimality_cuts_are_valid_tight_and_pareto_at_the_midpoint(monkeypatch):
    """Every optimality cut evaluate returns holds at every feasible
    commitment (checked against HiGHS), is tight at its own commitment x̂,
    and at the midpoint x0 = 0.5 is at least the cut from the same LPs
    solved without a secondary objective (Magnanti-Wong)."""
    from ddbd.oracle import feasible_assignments, stage2_expected_cost

    real = ucp_module.solve

    def plain(lp):
        return real(dataclasses.replace(lp, secondary=None))

    def bound(cut, x):   # the least z the cut allows at x
        return cut.rhs - sum(c * x[k] for k, c in cut.coeffs.items())

    checked = stronger = 0
    for inst in (scaled_instance(2, 3, 2, 4, 0.5), scaled_instance(2, 4, 2, 0, 0.4),
                 scaled_instance(3, 2, 2, 3, 0.5)):
        truth = {x: stage2_expected_cost(inst, x) for x in feasible_assignments(inst)}
        midpoint = [0.5] * inst.num_vars
        for x_hat, value in truth.items():
            if value is None:
                continue
            res = UcpSubproblemOracle(inst).evaluate(x_hat)
            with monkeypatch.context() as patch:
                patch.setattr(ucp_module, "solve", plain)
                ref = UcpSubproblemOracle(inst).evaluate(x_hat)
            assert res.kind == ref.kind == "optimal"
            (cut,), (ref_cut,) = res.cuts, ref.cuts
            assert bound(cut, x_hat) == pytest.approx(value, rel=1e-6, abs=1e-6)
            for x, z in truth.items():
                if z is not None:
                    assert bound(cut, x) <= z + 1e-6 * (1.0 + abs(z)), (x_hat, x)
            core, ref_core = bound(cut, midpoint), bound(ref_cut, midpoint)
            assert core >= ref_core - 1e-6 * (1.0 + abs(ref_core)), x_hat
            checked += 1
            stronger += core > ref_core + 1e-6 * (1.0 + abs(ref_core))
    assert checked > 40 and stronger > checked // 2


def feasibility_cut(inst, sc, ray):
    [cut] = ucp_module._feasibility_cuts(ucp_module._unit_columns(inst), np.array(sc.demand),
                                         np.add(sc.demand, sc.reserve), np.array([ray]))
    return cut


def record_dual_solves(monkeypatch):
    """Every (lp, outcome) pair the ucp module solves from now on, one per
    objective of each chained call (reference_lp.chain_rows)."""
    calls = []

    def recording(lp):
        out = solve(lp)
        calls.extend(chain_rows(lp, out))
        return out

    monkeypatch.setattr(ucp_module, "solve", recording)
    return calls


def test_warm_started_evaluation_takes_fewer_pivots(monkeypatch):
    # at demand x0.7 the second commitment is dispatchable in every scenario
    inst = scaled_instance(3, 6, 16, 0, 0.7)
    calls = record_dual_solves(monkeypatch)
    oracle = UcpSubproblemOracle(inst)
    oracle.evaluate((1.0,) * inst.num_vars)
    calls.clear()
    x = [1.0] * inst.num_vars
    x[inst.var_index(2, 0)] = x[inst.var_index(2, 1)] = 0.0
    oracle.evaluate(x)
    assert len(calls) == 16
    assert all(lp.start is not None for lp, _ in calls)
    cold = [solve(dataclasses.replace(lp, start=None)) for lp, _ in calls]
    assert sum(out.pivots for _, out in calls) < sum(out.pivots for out in cold)
    for (_, warm), ref in zip(calls, cold):
        assert warm.status == ref.status
        if ref.status == "optimal":
            assert warm.objective == pytest.approx(ref.objective, rel=1e-6)


def test_an_evaluation_at_many_scenarios_keeps_no_square_block_per_scenario():
    # a chained call reads each row off as it finishes, O(n + m) a row; an
    # m x m dual reader kept per scenario would take about 40 MB here
    inst = scaled_instance(6, 8, 256, 0, 0.8)
    oracle = UcpSubproblemOracle(inst)
    tracemalloc.start()
    try:
        res = oracle.evaluate((1.0,) * inst.num_vars)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.kind == "optimal" and res.lp_calls == 256
    assert peak < 16e6


def test_warm_started_oracle_matches_cold_solves_and_the_primal(monkeypatch):
    from ddbd.oracle import feasible_assignments, stage2_expected_cost

    # the negative production cost makes a dual row's rhs negative, so the
    # cold start needs phase 1
    negative = single_unit_instance(simple_generator(c_prod=-3.0), 3,
                                    demand=(20.0, 30.0, 10.0))
    instances = [gen_random_instance(2, 3, 2, seed=seed) for seed in (1, 2, 3)]
    instances += [scaled_instance(*params) for params in LOW_DEMAND] + [negative]
    calls = record_dual_solves(monkeypatch)
    rng = np.random.default_rng(4)
    warm_starts = 0
    for inst in instances:
        truth = {x: stage2_expected_cost(inst, x) for x in feasible_assignments(inst)}
        oracle = UcpSubproblemOracle(inst)
        for _ in range(6):
            x = tuple(float(v) for v in rng.random(inst.num_vars) < 0.8)   # mostly on
            calls.clear()
            res = oracle.evaluate(x)
            for lp, out in calls:
                # pair each LP with its scenario by objective
                sc = next(sc for sc in inst.scenarios
                          if np.array_equal(build_dual_subproblem(inst, x, sc).c, lp.c))
                warm_starts += lp.start is not None
                cold = solve(build_dual_subproblem(inst, x, sc))
                status, value = scipy_lp_min(build_subproblem(inst, x, sc))
                assert out.status == cold.status
                assert out.status == ("optimal" if status == "optimal" else "unbounded")
                if status == "optimal":
                    assert out.objective == pytest.approx(cold.objective, rel=1e-6, abs=1e-6)
                    assert out.objective == pytest.approx(value, rel=1e-6, abs=1e-6)
            for cut in res.cuts:
                for xt, z in truth.items():
                    if z is None:
                        continue
                    lhs = sum(c * xt[k] for k, c in cut.coeffs.items()) + cut.z_coeff * z
                    assert cut.satisfied(lhs, tol=1e-6), (x, cut, xt, z)
    assert warm_starts > 0


def merit_order_cases():
    """(instance, commitment, scenario index) over random instances, some
    units' production costs made negative and demand scaled from x0.05 (the
    committed minimum output often covers it) to x1.0, at the all-off and
    all-on commitments and at random ones."""
    rng = np.random.default_rng(12)
    for seed in range(24):
        inst = scaled_instance(int(rng.integers(1, 5)), int(rng.integers(1, 5)), 2, seed,
                               float(rng.choice([0.05, 0.3, 0.7, 1.0])))
        inst.generators = [dataclasses.replace(g, c_prod=-g.c_prod)
                           if rng.random() < 0.3 else g for g in inst.generators]
        nv = inst.num_vars
        for x in ([0.0] * nv, [1.0] * nv, *(rng.random((4, nv)) < 0.6).astype(float).tolist()):
            for s in range(len(inst.scenarios)):
                yield inst, tuple(x), s


def test_the_merit_order_basis_starts_every_dispatch_lp_where_a_cold_start_ends():
    """The merit-order basis is a feasible start for every scenario's dual
    LP (restating the tableau in it raises otherwise), and its outcome
    matches a cold solve's in status and objective, and in the cut's value
    at the midpoint x0 = 0.5: optimal faces need not be unique, so values
    are compared, not cut bits."""
    seen = dict(zero_price=0, priced=0, negative=0, all_off=0, all_on=0, optimal=0)
    for inst, x, s in merit_order_cases():
        oracle = UcpSubproblemOracle(inst)
        sc = inst.scenarios[s]
        basis = ucp_module._merit_order_basis(inst, x, sc)
        lp = dataclasses.replace(build_dual_subproblem(inst, x, sc), secondary=oracle._core[s])
        started, cold = solve(dataclasses.replace(lp, basis=basis)), solve(lp)
        assert started.status == cold.status
        if cold.status == "optimal":
            assert started.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            core, ref_core = oracle._core[s] @ started.x, oracle._core[s] @ cold.x
            assert core == pytest.approx(ref_core, rel=1e-9, abs=1e-9)
            seen["optimal"] += 1
        # psi_t, variable t, is basic exactly when period t has a price
        priced = np.isin(np.arange(inst.horizon), basis).sum()
        seen["priced"] += priced
        seen["zero_price"] += inst.horizon - priced
        seen["negative"] += any(g.c_prod < 0 for g in inst.generators)
        seen["all_off"] += not any(x)
        seen["all_on"] += all(x)
    assert min(seen.values()) > 20, seen


def test_only_the_oracles_first_lp_starts_from_the_merit_order_basis(monkeypatch):
    inst = scaled_instance(3, 6, 16, 0, 0.9)
    calls = record_dual_solves(monkeypatch)
    oracle = UcpSubproblemOracle(inst)
    x = (1.0,) * inst.num_vars
    oracle.evaluate(x)
    oracle.evaluate((0.0,) * 3 + (1.0,) * (inst.num_vars - 3))
    assert len(calls) == 32
    first, out = calls[0]
    assert first.start is None and np.array_equal(
        first.basis, ucp_module._merit_order_basis(inst, x, inst.scenarios[0]))
    assert all(lp.basis is None and lp.start is not None for lp, _ in calls[1:])
    assert out.pivots < solve(dataclasses.replace(first, basis=None)).pivots


def test_the_merit_order_basis_writes_in_the_reserve_and_start_up_pivots(monkeypatch):
    """beta_t is basic in the lowest headroom row of period t that would
    keep its slack, when one does, and gamma_i0 of every unit on at period
    0, cheaper than its price and with SU < p_max takes pi_i0's place; no
    other beta or gamma is basic.  On 3x6x16 s0 x0.9 that leaves Bland's
    rule nothing to do: the oracle's first LP makes no pivot."""
    seen = dict(beta=0, no_beta=0, gamma=0)
    for inst, x, s in merit_order_cases():
        n, T = inst.num_units, inst.horizon
        GAM, ETA = 2 * T + 2 * n * T, 2 * T + 4 * n * T
        basis = ucp_module._merit_order_basis(inst, x, inst.scenarios[s])
        cost = [g.c_prod for g in inst.generators]
        head = basis[1::2].reshape(n, T)   # headroom row (i, t) is row 2(i T + t) + 1
        for t in range(T):
            rows = head[:, t]
            beta = np.flatnonzero(rows == T + t)
            if beta.size:
                # every lower unit's headroom row holds a basic variable of its own
                assert beta.size == 1 and np.all(rows[:beta[0]] != -1)
                seen["beta"] += 1
            else:
                assert np.all(rows != -1) and T + t not in basis
                seen["no_beta"] += 1
        at0 = np.flatnonzero(basis == 0)   # psi_0 is basic in the marginal unit's row
        price = cost[at0[0] // 2 // T] if at0.size else 0.0
        for i, g in enumerate(inst.generators):
            k = i * T
            ramped = x[k] > 0.5 and cost[i] < price and g.startup_ramp < g.p_max
            assert (GAM + k in basis) == ramped
            if ramped:
                assert basis[2 * k] == GAM + k and basis[2 * k + 1] == ETA + k
                seen["gamma"] += 1
        assert not any(GAM + i * T + t in basis for i in range(n) for t in range(1, T))
    assert min(seen.values()) > 20, seen

    inst = scaled_instance(3, 6, 16, 0, 0.9)
    calls = record_dual_solves(monkeypatch)
    UcpSubproblemOracle(inst).evaluate((1.0,) * inst.num_vars)
    first, out = calls[0]
    assert first.basis is not None and out.status == "optimal" and out.pivots == 0


def test_restating_the_merit_order_basis_matches_a_dense_solve_bit_for_bit(monkeypatch):
    """The start basis is 0/+-1 and triangular with a +-1 diagonal, so its
    inverse is exact and B^-1 T is np.linalg.solve(B, T) to the last bit,
    once the solve's -0.0 entries are written as 0.0."""
    restated = []
    real = simplex_module._Tableau.restate

    def spying(tab, cols):
        ref = np.linalg.solve(tab.T[:, cols], tab.T) + 0.0
        ref[:, cols] = np.eye(cols.size)
        np.maximum(ref[:, -1], 0.0, out=ref[:, -1])
        real(tab, cols)
        restated.append((ref, tab.T.copy()))   # before pivots change it

    monkeypatch.setattr(simplex_module._Tableau, "restate", spying)
    for inst, x, s in merit_order_cases():
        sc = inst.scenarios[s]
        basis = ucp_module._merit_order_basis(inst, x, sc)
        solve(dataclasses.replace(build_dual_subproblem(inst, x, sc), basis=basis))
    assert len(restated) == 288
    assert all(ref.tobytes() == got.tobytes() for ref, got in restated)


def first_short_period(inst, x, sc):
    """The first period whose demand plus reserve tops the committed
    capacity by more than FEAS_TOL, or None."""
    for t in range(inst.horizon):
        capacity = sum(g.p_max * x[inst.var_index(i, t)]
                       for i, g in enumerate(inst.generators))
        if sc.demand[t] + sc.reserve[t] - capacity > FEAS_TOL:
            return t
    return None


def startup_short(inst, x, sc):
    """Whether the period-0 demand tops, by more than FEAS_TOL, what the
    units on at period 0 can make there from off: min(SU, p_max) each."""
    reach = sum(min(g.startup_ramp, g.p_max) * x[inst.var_index(i, 0)]
                for i, g in enumerate(inst.generators))
    return sc.demand[0] - reach > FEAS_TOL


def startup_cut(inst):
    """The start-up cut of the first scenario with the largest period-0 demand."""
    sc = max(inst.scenarios, key=lambda sc: sc.demand[0])
    return feasibility_cut(inst, sc, ucp_module._startup_ray(inst))


def startup_short_instance():
    """Units of 50 and 40 MW that start up to 20 and 25 MW: 46 and 48 MW
    at period 0 are within capacity but beyond any start-up."""
    gens = [simple_generator(p_min=10.0, p_max=50.0, ramp=20.0),
            simple_generator(p_min=10.0, p_max=40.0, ramp=25.0)]
    return UcpInstance(generators=gens, horizon=2,
                       scenarios=[Scenario(0.5, (46.0, 40.0), (5.0, 5.0)),
                                  Scenario(0.5, (48.0, 40.0), (0.0, 5.0))]).validate()


def test_closed_form_capacity_cut_equals_the_cold_lp_ray_cut():
    rng = np.random.default_rng(31)
    instances = [gen_random_instance(int(rng.integers(1, 4)), int(rng.integers(2, 6)),
                                     int(rng.integers(1, 4)), seed=int(seed))
                 for seed in rng.integers(0, 10 ** 6, size=12)]
    instances += [scaled_instance(*params) for params in LOW_DEMAND]
    compared = set()
    for inst in instances:
        for _ in range(15):
            x = tuple(float(v) for v in rng.random(inst.num_vars) < 0.7)
            for sc in inst.scenarios:
                t = first_short_period(inst, x, sc)
                if t is None:
                    continue
                lp = build_dual_subproblem(inst, x, sc)
                cold = solve(lp)
                assert cold.status == "unbounded"
                # the closed-form ray at the first short period certifies
                # x against the cold LP, and gives that LP ray's cut
                [ray] = ucp_module._capacity_rays(inst, [t])
                assert verify_certificate(lp, LpOutcome(status="unbounded", ray=ray))
                assert feasibility_cut(inst, sc, ray) == feasibility_cut(inst, sc, cold.ray)
                compared.add((id(inst), x, t))
    assert len(compared) >= 100


# every initial_cuts() row, recorded when each capacity ray was written on
# its own; stacking the rays must change no bit: (keys in order,
# coefficients, rhs), as hex.  The start-up cut proves the first instance
# infeasible at the root
INITIAL_CUTS = {
    (3, 6, 3, 1, 1.0): [
        ([0, 6, 12],
         "-0x1.0000000000000p+0 -0x1.475ba8840d775p-2 -0x1.b1ced2fbb5cf1p-1",
         "-0x1.155f29cf6f22bp+1"),
        ([1, 7, 13],
         "-0x1.0000000000000p+0 -0x1.475ba8840d775p-2 -0x1.b1ced2fbb5cf1p-1",
         "-0x1.152e41cebf00fp+1"),
        ([2, 8, 14],
         "-0x1.0000000000000p+0 -0x1.475ba8840d775p-2 -0x1.b1ced2fbb5cf1p-1",
         "-0x1.faa9ef48a2de5p+0"),
        ([3, 9, 15],
         "-0x1.0000000000000p+0 -0x1.475ba8840d775p-2 -0x1.b1ced2fbb5cf1p-1",
         "-0x1.06c99e7a430ffp+1"),
        ([4, 10, 16],
         "-0x1.0000000000000p+0 -0x1.475ba8840d775p-2 -0x1.b1ced2fbb5cf1p-1",
         "-0x1.11e5cd963d47ep+1"),
        ([5, 11, 17],
         "-0x1.0000000000000p+0 -0x1.475ba8840d775p-2 -0x1.b1ced2fbb5cf1p-1",
         "-0x1.1312ba48f10a4p+1"),
        ([0, 6, 12],
         "-0x1.0000000000000p+0 -0x1.432f4d545d5a1p-2 -0x1.b4a7e754d9fd7p-1",
         "-0x1.2421ff0349304p+1"),
    ],
    (4, 6, 3, 0, 0.8): [
        ([0, 6, 12, 18],
         "-0x1.65ef9564c2d70p-1 -0x1.e56d1c0f11b88p-1 -0x1.3d181386858e9p-1 -0x1.0000000000000p+0",
         "-0x1.4abec35642388p+1"),
        ([1, 7, 13, 19],
         "-0x1.65ef9564c2d70p-1 -0x1.e56d1c0f11b88p-1 -0x1.3d181386858e9p-1 -0x1.0000000000000p+0",
         "-0x1.4e7dc0feded2dp+1"),
        ([2, 8, 14, 20],
         "-0x1.65ef9564c2d70p-1 -0x1.e56d1c0f11b88p-1 -0x1.3d181386858e9p-1 -0x1.0000000000000p+0",
         "-0x1.1d8846ff4116bp+1"),
        ([3, 9, 15, 21],
         "-0x1.65ef9564c2d70p-1 -0x1.e56d1c0f11b88p-1 -0x1.3d181386858e9p-1 -0x1.0000000000000p+0",
         "-0x1.3ae7a5b60925dp+1"),
        ([4, 10, 16, 22],
         "-0x1.65ef9564c2d70p-1 -0x1.e56d1c0f11b88p-1 -0x1.3d181386858e9p-1 -0x1.0000000000000p+0",
         "-0x1.1a7a342e28e02p+1"),
        ([5, 11, 17, 23],
         "-0x1.65ef9564c2d70p-1 -0x1.e56d1c0f11b88p-1 -0x1.3d181386858e9p-1 -0x1.0000000000000p+0",
         "-0x1.4d1c0cda834b4p+1"),
        ([0, 6, 12, 18],
         "-0x1.79e7f7304227fp-1 -0x1.f70af8030adf5p-1 -0x1.469baa0774bb3p-1 -0x1.0000000000000p+0",
         "-0x1.5a6b366f06242p+1"),
    ],
    (3, 6, 16, 0, 0.9): [
        ([0, 6, 12],
         "-0x1.7987ca78fff5dp-1 -0x1.0000000000000p+0 -0x1.4e73ea610f6aep-1",
         "-0x1.13656f1776a8fp+1"),
        ([1, 7, 13],
         "-0x1.7987ca78fff5dp-1 -0x1.0000000000000p+0 -0x1.4e73ea610f6aep-1",
         "-0x1.13656f1776a8fp+1"),
        ([2, 8, 14],
         "-0x1.7987ca78fff5dp-1 -0x1.0000000000000p+0 -0x1.4e73ea610f6aep-1",
         "-0x1.13656f1776a8fp+1"),
        ([3, 9, 15],
         "-0x1.7987ca78fff5dp-1 -0x1.0000000000000p+0 -0x1.4e73ea610f6aep-1",
         "-0x1.13656f1776a8fp+1"),
        ([4, 10, 16],
         "-0x1.7987ca78fff5dp-1 -0x1.0000000000000p+0 -0x1.4e73ea610f6aep-1",
         "-0x1.13656f1776a8fp+1"),
        ([5, 11, 17],
         "-0x1.7987ca78fff5dp-1 -0x1.0000000000000p+0 -0x1.4e73ea610f6aep-1",
         "-0x1.13656f1776a8fp+1"),
        ([0, 6, 12],
         "-0x1.80a29552403b2p-1 -0x1.0000000000000p+0 -0x1.4c6c72e7c7ddbp-1",
         "-0x1.1ab38877dadf2p+1"),
    ],
}


@pytest.mark.parametrize("spec", list(INITIAL_CUTS),
                         ids=["3x6x3-s1-d1", "4x6x3-s0-d0.8", "3x6x16-s0-d0.9"])
def test_initial_cuts_repeat_the_recorded_rows_bit_for_bit(spec):
    cuts = UcpSubproblemOracle(scaled_instance(*spec)).initial_cuts()
    got = [(list(cut.coeffs), " ".join(v.hex() for v in cut.coeffs.values()), cut.rhs.hex())
           for cut in cuts]
    assert got == INITIAL_CUTS[spec]
    assert all((cut.sense, cut.z_coeff) == ("<=", 0.0) for cut in cuts)


def test_every_cut_the_oracle_writes_holds_python_numbers():
    # initial cuts, and cuts from evaluations that are optimal and that
    # are short (LP rays): int keys, float coefficients, float rhs and z
    # coefficient, never numpy scalars
    rng = np.random.default_rng(41)
    kinds = set()
    for spec in [(3, 6, 3, 0, 1.0), (4, 6, 3, 0, 0.8), (3, 6, 16, 0, 0.9), (2, 4, 2, 5, 0.5)]:
        inst = scaled_instance(*spec)
        oracle = UcpSubproblemOracle(inst)
        cuts = oracle.initial_cuts()
        for _ in range(6):
            res = oracle.evaluate(tuple(float(v) for v in rng.random(inst.num_vars) < 0.8))
            kinds.add(res.kind)
            cuts += res.cuts
        for cut in cuts:
            assert {type(k) for k in cut.coeffs} <= {int}, cut
            assert {type(v) for v in cut.coeffs.values()} <= {float}, cut
            assert (type(cut.rhs), type(cut.z_coeff)) == (float, float), cut
    assert kinds == {"optimal", "infeasible"}


def test_initial_cuts_keep_the_tightest_period_0_rows_with_no_lp_call(monkeypatch):
    inst = scaled_instance(3, 6, 16, 0, 0.9)
    calls = record_dual_solves(monkeypatch)
    cuts = UcpSubproblemOracle(inst).initial_cuts()
    assert calls == []
    # of the 16 scenarios' capacity cuts at period 0, all on one row, the
    # tightest is the one kept; so is the tightest of the 16 start-up
    # cuts, the largest period-0 demand's
    scale = max(g.p_max for g in inst.generators)
    need = max(sc.demand[0] + sc.reserve[0] for sc in inst.scenarios)
    cut, startup = cuts[0], cuts[-1]
    assert cut.coeffs == {inst.var_index(i, 0): -g.p_max / scale
                          for i, g in enumerate(inst.generators)}
    assert cut.rhs == pytest.approx(-need / scale, rel=1e-15)
    reach = [min(g.startup_ramp, g.p_max) for g in inst.generators]
    assert startup.coeffs == pytest.approx({inst.var_index(i, 0): -r / max(reach)
                                            for i, r in enumerate(reach)}, rel=1e-15)
    assert startup.rhs == pytest.approx(-max(sc.demand[0] for sc in inst.scenarios)
                                        / max(reach), rel=1e-15)


def tamper_capacity_rays(monkeypatch):
    """Make every closed-form ray drop unit 1's capacity multiplier."""
    closed_form = ucp_module._capacity_rays

    def tampered(instance, periods):
        rays = closed_form(instance, periods)
        periods = np.asarray(periods, dtype=int)
        rays[np.arange(periods.size), 2 * instance.horizon + instance.num_vars
             + instance.var_index(1, periods)] = 0.0
        return rays

    monkeypatch.setattr(ucp_module, "_capacity_rays", tampered)


def seeding_instances():
    """Small generated instances at demand x0.4 to x1.0."""
    rng = np.random.default_rng(53)
    return [scaled_instance(int(rng.integers(1, 4)), int(rng.integers(2, 4)),
                            int(rng.integers(1, 4)), int(seed), float(factor))
            for seed, factor in zip(rng.integers(0, 10 ** 6, size=10),
                                    np.linspace(0.4, 1.0, 10))]


def cut_period(inst, cut):
    [period] = {k % inst.horizon for k in cut.coeffs}
    return period


def test_initial_cuts_hold_at_every_dispatchable_commitment():
    from ddbd.oracle import feasible_assignments, stage2_expected_cost

    checked = 0
    for inst in seeding_instances():
        cuts = UcpSubproblemOracle(inst).initial_cuts()
        # generated demand is positive, so every period gets its capacity
        # cut, and period 0 the start-up cut after them; a lone unit's two
        # period-0 cuts share a row, and only the tighter is kept
        periods = [cut_period(inst, cut) for cut in cuts]
        if inst.num_units > 1:
            assert periods == list(range(inst.horizon)) + [0]
        else:
            assert sorted(periods) == list(range(inst.horizon))
        for x in feasible_assignments(inst):
            if stage2_expected_cost(inst, x) is None:
                continue
            for cut in cuts:
                lhs = sum(c * x[k] for k, c in cut.coeffs.items())
                assert cut.satisfied(lhs, tol=1e-6), (x, cut)
            checked += 1
    assert checked >= 50


def test_initial_cuts_are_the_cuts_dispatch_returns_first_short(monkeypatch):
    calls = record_dual_solves(monkeypatch)
    compared = 0
    for inst in seeding_instances() + [startup_short_instance()]:
        seeded = UcpSubproblemOracle(inst).initial_cuts()
        for t in range(inst.horizon):
            # every unit on before t and off from t: t is every scenario's
            # first short period, and a seeded cut already cuts x off
            x = tuple(float(j < t) for _ in range(inst.num_units) for j in range(inst.horizon))
            assert any(cuts_off(cut, x) for cut in seeded), (t, x)
            calls.clear()
            res = UcpSubproblemOracle(inst).evaluate(x)
            assert (res.kind, res.lp_calls, len(calls)) == \
                ("infeasible", len(inst.scenarios), len(inst.scenarios)), (t, x)
            # the LP rays give one cut, the capacity cut at t, which the
            # seeded cuts make redundant (for a lone unit at period 0, the
            # start-up cut on its row is the tighter)
            [cut] = res.cuts
            assert cut_period(inst, cut) == t and cuts_off(cut, x), (t, x)
            assert ucp_module._tightest(seeded + [cut]) == seeded, (t, x)
            compared += 1
    assert compared >= 20


class RecordingSubproblem(UcpSubproblemOracle):
    """The ucp oracle, keeping every commitment it is asked to evaluate."""

    def __init__(self, instance):
        super().__init__(instance)
        self.asked = []

    def evaluate(self, x):
        self.asked.append(tuple(x))
        return super().evaluate(x)


def test_no_evaluated_commitment_is_short_beyond_the_seeded_cuts_band():
    # the master meets each seeded cut to within CUT_TOL on its row,
    # normalised to a largest coefficient of 1; so no commitment that is
    # evaluated is short of capacity or of period-0 start-up output by
    # more than CUT_TOL times that row's largest coefficient, in MW, and
    # evaluate need not look for such shortfalls; a solve evaluates each
    # commitment once, so it takes 50 generated instances to reach 50
    rng = np.random.default_rng(59)
    generated = [gen_random_instance(int(rng.integers(1, 5)), int(rng.integers(2, 6)),
                                     int(rng.integers(1, 4)), seed=int(seed))
                 for seed in rng.integers(0, 10 ** 6, size=50)]
    evaluated = 0
    for inst in seeding_instances() + [startup_short_instance()] + generated:
        sub = RecordingSubproblem(inst)
        dd_bd_solve(UcpMasterOracle(inst, compute_gamma(inst)), sub)
        p_max = np.array([g.p_max for g in inst.generators])
        reach = np.minimum([g.startup_ramp for g in inst.generators], p_max)
        for x in sub.asked:
            on = np.reshape(x, (inst.num_units, inst.horizon))
            for sc in inst.scenarios:
                short = np.add(sc.demand, sc.reserve) - p_max @ on
                assert short.max() <= CUT_TOL * p_max.max(), (x, short)
                assert sc.demand[0] - reach @ on[:, 0] <= CUT_TOL * reach.max(), x
            evaluated += 1
    assert evaluated >= 50


def test_initial_cuts_raise_when_a_ray_fails_verification(monkeypatch):
    inst = scaled_instance(3, 6, 16, 0, 0.9)
    tamper_capacity_rays(monkeypatch)
    with pytest.raises(NumericalFailureError):
        UcpSubproblemOracle(inst).initial_cuts()


def test_startup_short_instance_is_infeasible_without_an_lp(monkeypatch):
    inst = startup_short_instance()
    calls = record_dual_solves(monkeypatch)
    on = (1.0,) * inst.num_vars
    assert all(first_short_period(inst, on, sc) is None for sc in inst.scenarios)
    cut = UcpSubproblemOracle(inst).initial_cuts()[-1]
    assert cut.key() == startup_cut(inst).key() and cuts_off(cut, on)
    assert cut.coeffs == {inst.var_index(0, 0): -0.8, inst.var_index(1, 0): -1.0}
    assert cut.rhs == pytest.approx(-48.0 / 25.0, rel=1e-15)
    report = ucp_solve(inst)
    assert (report.status, report.lp_calls, len(calls)) == ("infeasible", 0, 0)
    assert brute_force_solve(inst).x is None


def test_startup_ray_takes_the_capacity_multipliers_above_maximum_output():
    from ddbd.oracle import feasible_assignments, stage2_expected_cost

    # start-up ramp below, at and above maximum output: the last unit's
    # period-0 output is capped by p_max, so its coefficient is p_max
    gens = [dataclasses.replace(simple_generator(p_max=p_max, ramp=ramp), startup_ramp=su)
            for p_max, ramp, su in [(50.0, 40.0, 30.0), (40.0, 40.0, 40.0), (40.0, 60.0, 60.0)]]
    inst = UcpInstance(generators=gens, horizon=2,
                       scenarios=[Scenario(0.6, (95.0, 60.0), (0.0, 0.0)),
                                  Scenario(0.4, (100.0, 60.0), (0.0, 0.0))]).validate()
    n, T = inst.num_units, inst.horizon
    ray = ucp_module._startup_ray(inst)
    gamma, pi, eta = (ray[2 * T + k * n * T:2 * T + (k + 1) * n * T] for k in (2, 1, 4))
    at0 = [inst.var_index(i, 0) for i in range(n)]
    assert (gamma[at0].tolist(), pi[at0].tolist(), eta[at0].tolist()) == \
        ([1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    assert ray.sum() == 5.0 and ray[0] == 1.0
    *_, cut = UcpSubproblemOracle(inst).initial_cuts()
    assert cut.coeffs == {at0[0]: -30.0 / 40.0, at0[1]: -1.0, at0[2]: -1.0}
    assert cut.rhs == pytest.approx(-100.0 / 40.0, rel=1e-15)
    # the ray certifies every commitment the cut cuts off, against a cold
    # dual LP built from scratch, and the cut keeps every dispatchable one
    for x in feasible_assignments(inst):
        lhs = sum(c * x[k] for k, c in cut.coeffs.items())
        for sc in inst.scenarios:
            lp = build_dual_subproblem(inst, x, sc)
            assert verify_certificate(lp, LpOutcome(status="unbounded", ray=ray)) == \
                startup_short(inst, x, sc), x
        if stage2_expected_cost(inst, x) is not None:
            assert cut.satisfied(lhs), x


def tamper_startup_rays(monkeypatch):
    """Make every closed-form start-up ray drop unit 1's ramp-up multiplier."""
    closed_form = ucp_module._startup_ray

    def tampered(instance):
        ray = closed_form(instance)
        ray[2 * instance.horizon + 2 * instance.num_vars + instance.var_index(1, 0)] = 0.0
        return ray

    monkeypatch.setattr(ucp_module, "_startup_ray", tampered)


def test_startup_ray_that_fails_verification_raises(monkeypatch):
    inst = startup_short_instance()
    tamper_startup_rays(monkeypatch)
    with pytest.raises(NumericalFailureError):
        UcpSubproblemOracle(inst).initial_cuts()


def tamper_last_capacity_ray(monkeypatch):
    """Make only the last period's closed-form capacity ray drop unit 1's
    capacity multiplier: a bad ray between good ones in initial_cuts()."""
    closed_form = ucp_module._capacity_rays

    def tampered(instance, periods):
        rays = closed_form(instance, periods)
        last = instance.horizon - 1
        rays[np.asarray(periods) == last,
             2 * instance.horizon + instance.num_vars + instance.var_index(1, last)] = 0.0
        return rays

    monkeypatch.setattr(ucp_module, "_capacity_rays", tampered)


@pytest.mark.parametrize("tamper", [tamper_last_capacity_ray, tamper_startup_rays])
def test_initial_cuts_raise_when_one_ray_of_the_batch_fails(monkeypatch, tamper):
    inst = scaled_instance(3, 6, 16, 0, 0.9)
    assert len(UcpSubproblemOracle(inst).initial_cuts()) == inst.horizon + 1
    tamper(monkeypatch)
    with pytest.raises(NumericalFailureError):
        UcpSubproblemOracle(inst).initial_cuts()


def test_batched_ray_check_matches_the_per_ray_certificate_check():
    # closed-form rays at random commitments, each priced by a random
    # scenario, some nudged by about FEAS_TOL in one entry: rays that
    # certify and rays that do not, checked in one batch per instance
    from ddbd.simplex import LinearProgram, verify_rays

    rng = np.random.default_rng(83)
    verdicts = []
    for seed in range(12):
        inst = scaled_instance(int(rng.integers(1, 4)), int(rng.integers(2, 5)),
                               int(rng.integers(1, 4)), seed, float(rng.uniform(0.4, 1.0)))
        oracle = UcpSubproblemOracle(inst)
        units, rows = ucp_module._unit_columns(inst), oracle._rows
        c, rays = [], []
        for _ in range(6):
            x = [float(v) for v in rng.random(inst.num_vars) < 0.7]
            prices = ucp_module._commitment_prices(units, x)
            for ray in list(ucp_module._capacity_rays(inst, range(inst.horizon))) + \
                    [ucp_module._startup_ray(inst)]:
                s = int(rng.integers(len(inst.scenarios)))
                c.append(ucp_module._dual_objective(oracle._demand[s], oracle._need[s], prices))
                if rng.random() < 0.3:
                    ray = ray.copy()
                    ray[rng.integers(ray.size)] += rng.choice([-2.0, -0.5, 0.5, 2.0]) * FEAS_TOL
                rays.append(ray)
        sense = "max" if seed % 2 else "min"
        c = np.array(c) if sense == "max" else -np.array(c)
        batch = verify_rays(rows, sense, c, np.array(rays))
        for objective, ray, verdict in zip(c, rays, batch.tolist()):
            lp = LinearProgram(sense=sense, c=objective, rows=rows)
            assert verdict == verify_certificate(lp, LpOutcome(status="unbounded", ray=ray))
            verdicts.append(verdict)
    assert len(verdicts) >= 200 and min(verdicts.count(True), verdicts.count(False)) >= 50


@pytest.mark.parametrize("shortfall,feasible", [(0.5 * FEAS_TOL, 1), (2.0 * FEAS_TOL, 0)])
def test_shortfall_within_tolerance_goes_to_the_lp(monkeypatch, shortfall, feasible):
    gen = simple_generator(p_min=10.0, p_max=50.0)
    inst = single_unit_instance(gen, 2, demand=(40.0, 20.0), reserve=(10.0 + shortfall, 0.0))
    calls = record_dual_solves(monkeypatch)
    res = UcpSubproblemOracle(inst).evaluate((1.0, 1.0))
    # the LP decides either way: a ray gaining within FEAS_TOL is passed over
    assert (res.kind, res.lp_calls, len(calls)) == \
        ("optimal" if feasible else "infeasible", 1, 1)
    if feasible:
        status, value = scipy_lp_min(build_subproblem(inst, (1.0, 1.0), inst.scenarios[0]))
        assert status == "optimal"
        assert res.value == pytest.approx(value, rel=1e-9)


def cuts_off(cut, x):
    return not cut.satisfied(sum(c * x[k] for k, c in cut.coeffs.items()))


def test_capacity_short_and_ramp_infeasible_scenarios_both_give_cuts(monkeypatch):
    from ddbd.oracle import feasible_assignments, stage2_expected_cost

    # both periods on: period 1 can reach 20 + 20 = 40 MW by ramping, short
    # of 45 MW in the first scenario; the second asks for more than 50 MW
    gen = simple_generator(p_min=10.0, p_max=50.0, ramp=20.0)
    inst = UcpInstance(generators=[gen], horizon=2,
                       scenarios=[Scenario(0.5, (10.0, 45.0), (0.0, 0.0)),
                                  Scenario(0.5, (10.0, 60.0), (0.0, 0.0))]).validate()
    assert first_short_period(inst, (1.0, 1.0), inst.scenarios[0]) is None
    assert first_short_period(inst, (1.0, 1.0), inst.scenarios[1]) == 1
    calls = record_dual_solves(monkeypatch)
    res = UcpSubproblemOracle(inst).evaluate((1.0, 1.0))
    assert res.kind == "infeasible" and res.lp_calls == 2
    assert [out.status for _, out in calls] == ["unbounded", "unbounded"]
    assert res.cuts == [feasibility_cut(inst, sc, out.ray)
                        for sc, (_, out) in zip(inst.scenarios, calls)]
    for cut in res.cuts:
        assert cuts_off(cut, (1.0, 1.0))
        for x in feasible_assignments(inst):
            if stage2_expected_cost(inst, x) is not None:
                assert not cuts_off(cut, x), (cut, x)


def test_deduplicated_batch_cuts_off_what_the_full_batch_does(monkeypatch):
    from ddbd.oracle import feasible_assignments

    instances = [gen_random_instance(2, 3, 6, seed=seed) for seed in (0, 1)]
    instances += [scaled_instance(2, 4, 5, 2, 0.8)]
    calls = record_dual_solves(monkeypatch)
    shrunk = 0
    for inst in instances:
        points = feasible_assignments(inst)
        oracle = UcpSubproblemOracle(inst)
        for x in points:
            calls.clear()
            res = oracle.evaluate(x)
            # the full batch: each LP ray's cut, in scenario order
            assert len(calls) == len(inst.scenarios)
            full = [feasibility_cut(inst, sc, out.ray)
                    for sc, (_, out) in zip(inst.scenarios, calls) if out.ray is not None]
            if not full:
                assert res.kind == "optimal"
                continue
            assert res.kind == "infeasible"
            assert res.cuts == ucp_module._tightest(full)
            shrunk += len(res.cuts) < len(full)
            for xt in points:
                assert any(cuts_off(c, xt) for c in res.cuts) == \
                    any(cuts_off(c, xt) for c in full), (x, xt)
    assert shrunk >= 10


def test_dispatch_optimality_cut_is_the_scenario_by_scenario_fold(monkeypatch):
    from reference_lp import optimality_cut_by_scenarios

    rng = np.random.default_rng(89)
    calls = record_dual_solves(monkeypatch)
    compared = 0
    for seed in range(40):
        inst = scaled_instance(int(rng.integers(2, 4)), int(rng.integers(3, 6)),
                               int(rng.integers(3, 17)), seed, float(rng.uniform(0.5, 0.8)))
        oracle = UcpSubproblemOracle(inst)
        for _ in range(5):
            x = tuple(float(v) for v in rng.random(inst.num_vars) < 0.95)
            calls.clear()
            res = oracle.evaluate(x)
            if res.kind != "optimal":
                continue
            [cut] = res.cuts
            items, rhs, value = optimality_cut_by_scenarios(
                inst, [out.x for _, out in calls], [out.objective for _, out in calls])
            assert [(k, v.hex()) for k, v in cut.coeffs.items()] == \
                [(k, v.hex()) for k, v in items]
            assert (cut.rhs.hex(), res.value.hex()) == (rhs.hex(), value.hex())
            compared += 1
    assert compared >= 100, compared


def test_tightest_drops_only_cuts_with_the_same_row_and_a_looser_rhs():
    from ddbd.diagram import CutRow

    def cut(coeffs, rhs):
        return CutRow(coeffs=coeffs, rhs=rhs, sense="<=")

    a, b, c = cut({0: -1.0, 1: -0.5}, -1.0), cut({1: -0.5, 0: -1.0}, -2.0), cut({0: -1.0}, -2.0)
    d, e = cut({0: -1.0, 1: -0.25}, -3.0), cut({0: -1.0, 1: -0.5}, -2.0)
    kept = ucp_module._tightest([a, b, c, d, e])
    assert [id(k) for k in kept] == [id(b), id(c), id(d)]


def test_cut_pieces_matches_the_term_by_term_loop():
    # dyadic ramps and values make terms cancel to exactly 0; some values
    # make terms at or below COEF_EPS, which are left out
    rng = np.random.default_rng(12)
    base = gen_random_instance(3, 4, 1, seed=0)
    dyadic = [dataclasses.replace(g, p_min=2.0, p_max=4.0, startup_ramp=2.0, ramp_up=1.0,
                                  shutdown_ramp=4.0, ramp_down=2.0)
              for g in base.generators]
    seen = {"exact zero": 0, "left out": 0}
    insts, stack = [], []
    for trial in range(200):
        insts.append(dataclasses.replace(base, generators=dyadic if trial % 2 else base.generators))
        size = 2 * base.horizon + 5 * base.num_vars
        if trial % 2:
            stack.append(rng.choice([0.0, 0.5, 1.0, -0.5, -1.0, 3e-13, -2e-13, 1e-12], size=size,
                                    p=[0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]))
        else:
            stack.append(rng.normal(size=size) * rng.choice([1.0, 1e-13, 0.0], size=size))
    # one call over the 200 rows, each with its own instance's unit constants
    sc = base.scenarios[0]
    units = np.stack([ucp_module._unit_columns(inst) for inst in insts], axis=1)
    consts, coefs, present = ucp_module._cut_terms(
        units, np.array(sc.demand), np.add(sc.demand, sc.reserve), np.array(stack))
    for inst, values, const, total, kept in zip(insts, stack, consts, coefs, present):
        coef = {k: total[k] for k in np.flatnonzero(kept).tolist()}
        ref_const, ref_coef = cut_pieces_by_terms(inst, sc, values)
        assert (type(const), const.hex()) == (type(ref_const), ref_const.hex())
        assert sorted(coef) == sorted(ref_coef)
        assert [(type(coef[k]), coef[k].hex()) for k in sorted(coef)] == \
            [(type(ref_coef[k]), ref_coef[k].hex()) for k in sorted(coef)]
        seen["exact zero"] += sum(v == 0.0 for v in coef.values())
        seen["left out"] += inst.num_vars - len(coef)
    assert min(seen.values()) >= 20, seen


def test_one_pass_replay_matches_cut_by_cut_on_relaxed_master():
    # relaxed masters hold merged nodes, whose prefixes reach one node with
    # different cut lhs values; the cuts come from a real solve
    from ddbd.diagram import refine_with_cut
    from ddbd.engine import CutPool, dd_bd_solve, replay_cuts
    from ddbd.ucp import UcpMasterOracle, UcpSubproblemOracle

    for args in LOW_DEMAND[:2]:
        inst = scaled_instance(*args)
        gamma = compute_gamma(inst)
        pool = CutPool()

        class Harvest(UcpSubproblemOracle):
            def evaluate(self, x):
                res = super().evaluate(x)
                for cut in res.cuts:
                    pool.add(cut)
                return res

            def initial_cuts(self):
                cuts = super().initial_cuts()
                for cut in cuts:
                    pool.add(cut)
                return cuts

        assert dd_bd_solve(UcpMasterOracle(inst, gamma), Harvest(inst)).status == "optimal"
        assert pool.count("feasibility") and pool.count("optimality")
        dd = build_relaxed_master_dd(inst, (), gamma, 2)
        assert dd.merged.any()
        cut_by_cut = dd
        for cut in pool.cuts:
            cut_by_cut = refine_with_cut(cut_by_cut, [cut])
        want = sorted(enumerate_solutions(cut_by_cut))
        got = sorted(enumerate_solutions(replay_cuts(dd, pool.cuts)))
        assert [s[:-1] for s in got] == [s[:-1] for s in want], args
        assert [s[-1] for s in got] == pytest.approx([s[-1] for s in want],
                                                     rel=1e-12, abs=1e-9), args


# -- instance generation and serialization --------------------------------------------


def test_generator_determinism_and_ranges():
    a = gen_random_instance(2, 3, 2, seed=99)
    b = gen_random_instance(2, 3, 2, seed=99)
    assert a.to_json() == b.to_json()
    # 500 instances x 2 units x 2 periods: 1000 fixed-cost and demand draws
    samples = [gen_random_instance(2, 2, 1, seed=s) for s in range(500)]
    cap_margin = 1e-9
    for inst in samples:
        cap = sum(gen.p_max for gen in inst.generators)
        for gen in inst.generators:
            assert 400.0 <= gen.c_fixed <= 1000.0
            assert gen.startup_ramp == gen.ramp_up
            assert gen.shutdown_ramp == gen.ramp_down
            ks = list(gen.startup_costs)
            assert ks == sorted(ks)
            assert gen.startup_cost_inf >= ks[-1] - 1e-9
        for sc in inst.scenarios:
            for d in sc.demand:
                assert 0.75 * cap - cap_margin <= d <= cap + cap_margin


def test_json_round_trip_and_validation():
    inst = gen_random_instance(2, 3, 2, seed=5)
    again = UcpInstance.from_json(inst.to_json())
    assert again.to_json() == inst.to_json()

    bad = simple_generator()
    with pytest.raises(InstanceError):
        Generator(**{**bad.__dict__, "startup_ramp": bad.ramp_up + 1.0}).validate()
    for field, value in [("c_prod", float("nan")), ("min_up", 2.0), ("p_max", "50")]:
        with pytest.raises(InstanceError):
            Generator(**{**bad.__dict__, field: value}).validate()
    doc = inst.to_json().replace('"version": 1', '"version": 9')
    with pytest.raises(InstanceError):
        UcpInstance.from_json(doc)
    for text in ["5", "null", '"generators"', "[1, 2]"]:
        with pytest.raises(InstanceError, match="bad instance document: expected a JSON object"):
            UcpInstance.from_json(text)
