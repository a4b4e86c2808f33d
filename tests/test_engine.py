import itertools
import json
import math
import random

import pytest

from ddbd.diagram import (
    CutRow,
    DiagramBuilder,
    EmptyDiagramError,
    InfeasibleDiagramError,
    optimal_path,
    refine_with_cut,
)
from ddbd import engine
from ddbd.engine import (
    CutPool,
    EngineConfig,
    EngineError,
    MasterOracle,
    SolveReport,
    SubproblemOracle,
    SubproblemResult,
    dd_bd_solve,
)
from ddbd.mip import (
    MipMasterOracle,
    MipProblem,
    MipSubproblemOracle,
)
from reference_dd import (
    PropertyViolationError,
    append_value_layer,
    cost_tuple_reward,
    from_paths,
)
from reference_lp import two_binary_mip


def diagram_point(dd, sense):
    """(x, z, w) of an optimal path of dd, a diagram ending in its value
    layer, or None when dd has no path: the answer of a master that
    builds its diagram."""
    try:
        assignment, w = optimal_path(dd, sense)
    except EmptyDiagramError:
        return None
    return tuple(assignment[:-1]), assignment[-1], w


# -- cut pool ---------------------------------------------------------------------


def test_cut_pool_deduplicates_on_rounded_coefficients():
    pool = CutPool()
    a = CutRow(coeffs={0: 2.0 / 3.0, 1: 1.0}, rhs=1.0, sense="<=")
    b = CutRow(coeffs={0: 2.0 / 3.0 + 1e-12, 1: 1.0}, rhs=1.0, sense="<=")
    assert pool.add(a)
    assert not pool.add(b)
    assert pool.count("feasibility") == 1


# -- cost tuple reward -------------------------------------------------------------


def non_reduced_two_point_dd():
    """Distinct paths (0,0) and (1,0); every internal node has one parent."""
    dd = DiagramBuilder(2)
    r = dd.new_node(0)
    u0 = dd.new_node(1)
    u1 = dd.new_node(1)
    t = dd.new_node(2)
    dd.add_arc(0, r, u0, 0.0, 0.0)
    dd.add_arc(0, r, u1, 1.0, 0.0)
    dd.add_arc(1, u0, t, 0.0, 0.0)
    dd.add_arc(1, u1, t, 0.0, 0.0)
    return dd.build()


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
    bad = DiagramBuilder(2)
    r = bad.new_node(0)
    u = bad.new_node(1)
    t = bad.new_node(2)
    bad.add_arc(0, r, u, 0.0, 0.0)
    bad.add_arc(0, r, u, 1.0, 0.0)
    bad.add_arc(1, u, t, 0.0, 0.0)
    with pytest.raises(PropertyViolationError):
        cost_tuple_reward(bad.build(), crossing_value_cuts())


def non_reduced_from_paths(paths):
    """Tree-shaped diagram: shared prefixes up to the second-last label,
    then one leaf per path so the terminal sees a unique arc per node."""
    n = len(paths[0])
    dd = DiagramBuilder(n)
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
    return dd.build()


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
    problem = two_binary_mip()
    master = MipMasterOracle(problem)
    sub = MipSubproblemOracle(problem)
    report = dd_bd_solve(master, sub, EngineConfig())
    assert report.status == "optimal"
    assert report.value == pytest.approx(11.0 / 3.0, abs=1e-6)
    assert tuple(report.x) == (1.0, 0.0)
    assert report.z == pytest.approx(8.0 / 3.0, abs=1e-6)
    assert report.feasibility_cuts == 1
    assert report.optimality_cuts == 1


def test_worked_mip_cut_shapes():
    problem = two_binary_mip()
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
    report = dd_bd_solve(MipMasterOracle(problem), MipSubproblemOracle(problem),
                         EngineConfig())
    # the longest path of the chain of the three binaries, each arc weighted
    # by its objective term, with the value fixed at 0
    chain = from_paths([x + ((0.0, 0.0),) for x in itertools.product((0.0, 1.0), repeat=3)],
                       weight_fn=lambda j, v: 1.0 if j == 3 else problem.x_obj[j] * v)
    _, value = optimal_path(chain, "max")
    assert report.value == pytest.approx(value, abs=1e-9)
    assert report.value == pytest.approx(2.5)
    assert report.x == (1.0, 0.0, 1.0)


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
    doc = json.loads(text)
    assert doc["branches"] == 3 and "nodes" not in doc
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


@pytest.mark.parametrize("limit", [-1.0, -1e-9, math.nan, -math.inf])
def test_engine_config_rejects_a_negative_or_nan_time_limit(limit):
    with pytest.raises(ValueError, match="time limit"):
        EngineConfig(time_limit=limit)


@pytest.mark.parametrize("limit", [None, 0.0, 2.5, math.inf])
def test_engine_config_accepts_a_time_limit_of_zero_or_more(limit):
    assert EngineConfig(time_limit=limit).time_limit == limit


def test_time_limit_reports_gap():
    problem = two_binary_mip()
    report = dd_bd_solve(MipMasterOracle(problem), MipSubproblemOracle(problem),
                         EngineConfig(time_limit=0.0))
    assert report.status == "time_limit"


def test_stalled_refinement_is_an_oracle_error():
    from ddbd.engine import EngineError, SubproblemOracle, SubproblemResult

    problem = two_binary_mip()

    class StallingSub(SubproblemOracle):
        def evaluate(self, x):
            # a vacuous cut that never separates anything
            return SubproblemResult(kind="infeasible",
                                    cuts=[CutRow(coeffs={0: 0.0}, rhs=1.0,
                                                 sense="<=")],
                                    lp_calls=0)

    with pytest.raises(EngineError):
        dd_bd_solve(MipMasterOracle(problem), StallingSub(), EngineConfig())


# -- loop edges, pinned with stub oracles -------------------------------------------

VACUOUS = CutRow(coeffs={0: 0.0}, rhs=1.0, sense="<=")   # never separates anything


def unit_weights(layer, label):
    # each binary costs its label; the value arc has slope one
    return 1.0 if layer == 2 else label


class GridMaster(MasterOracle):
    """Two binaries, each costing its label, with the value in [0, 100]:
    every point, refined by the pool through engine.replay_cuts, answers
    with its diagram's best point.  Records the pool of every ask."""

    def __init__(self):
        self.pools = []

    def best_point(self, cuts):
        self.pools.append(list(cuts))
        points = itertools.product((0.0, 1.0), repeat=2)
        dd = from_paths([p + ((0.0, 100.0),) for p in points], weight_fn=unit_weights)
        try:
            return diagram_point(engine.replay_cuts(dd, cuts), self.sense)
        except InfeasibleDiagramError:
            return None


class RepeatSub(SubproblemOracle):
    """Optimal at value `value` everywhere, with `cuts` at every
    evaluation; seeds the pool with `seeds`."""

    def __init__(self, value, cuts=(), seeds=()):
        self.value = value
        self.cuts = list(cuts)
        self.seeds = list(seeds)
        self.evaluated = []

    def evaluate(self, x):
        self.evaluated.append(tuple(x))
        return SubproblemResult(kind="optimal", cuts=list(self.cuts), value=self.value)

    def initial_cuts(self):
        return list(self.seeds)


def value_floor(k):
    """The optimality cut z >= k."""
    return CutRow(coeffs={}, z_coeff=1.0, rhs=float(k), sense=">=")


def test_stale_cut_on_the_restricted_side_is_an_oracle_error():
    # the value 1000 is out of every path's reach, so the master answers
    # the cheapest point again, whose kept cut is pooled already
    sub = RepeatSub(1000.0, [VACUOUS])
    with pytest.raises(EngineError, match="only pooled cuts"):
        dd_bd_solve(GridMaster(), sub, EngineConfig())
    assert sub.evaluated == [(0.0, 0.0)]


def test_initial_cuts_are_pooled_before_the_root_is_built():
    # x_0 + x_1 >= 1 removes the cheapest point (0, 0); of the two points
    # that cost 1 the lexicographically smaller converges at once
    seeded = CutRow(coeffs={0: 1.0, 1: 1.0}, rhs=1.0, sense=">=")
    master = GridMaster()
    sub = RepeatSub(0.0, seeds=[seeded, seeded])
    report = dd_bd_solve(master, sub, EngineConfig())
    assert master.pools == [[seeded]]
    assert sub.evaluated == [(0.0, 1.0)]
    assert (report.status, report.x, report.value, report.feasibility_cuts) == \
        ("optimal", (0.0, 1.0), 1.0, 1)
    assert SubproblemOracle().initial_cuts() == []


def test_a_point_the_master_answers_again_is_not_evaluated_again():
    # (0, 0) is evaluated at 5 with z at 0; under z >= 5 the master answers
    # it again, now converged, and the kept result decides it
    master, sub = GridMaster(), RepeatSub(5.0, [value_floor(5)])
    report = dd_bd_solve(master, sub, EngineConfig())
    assert len(master.pools) == 2 and sub.evaluated == [(0.0, 0.0)]
    assert (report.status, report.x, report.z, report.value, report.optimality_cuts) == \
        ("optimal", (0.0, 0.0), 5.0, 5.0, 1)


# -- a solve of more than a thousand evaluations ---------------------------------------

POINTS = 1200


class LineMaster(MasterOracle):
    """x_0 in 0 .. POINTS - 1, costing its label, with the value fixed at
    0; every cut it is given is x_0 >= k."""

    def best_point(self, cuts):
        lo = max((cut.rhs for cut in cuts), default=0.0)
        return ((lo,), 0.0, lo) if lo < POINTS else None


class StepSub(SubproblemOracle):
    """Cuts each point below the last off with x_0 >= x_0 + 1; the last
    is optimal at 0."""

    def __init__(self):
        self.evaluated = []

    def evaluate(self, x):
        self.evaluated.append(x)
        if x[0] < POINTS - 1:
            cut = CutRow(coeffs={0: 1.0}, rhs=x[0] + 1.0, sense=">=")
            return SubproblemResult(kind="infeasible", cuts=[cut])
        return SubproblemResult(kind="optimal", cuts=[value_floor(0)], value=0.0)


def test_a_solve_may_take_more_than_a_thousand_evaluations():
    sub = StepSub()
    report = dd_bd_solve(LineMaster(), sub, EngineConfig())
    assert sub.evaluated == [(float(k),) for k in range(POINTS)]
    assert (report.status, report.x, report.value, report.feasibility_cuts) == \
        ("optimal", (POINTS - 1.0,), POINTS - 1.0, POINTS - 1)


# -- a stub solve that takes several evaluations ---------------------------------------

COSTS = (1.0, 2.0, 3.0)


def tree_weights(layer, label):
    # y_j costs COSTS[j]; the value arc has slope one
    return 1.0 if layer == len(COSTS) else COSTS[layer] * label


class CubeMaster(MasterOracle):
    """Binaries y_0 .. y_2 costing COSTS and a value in [0, 30]: every
    point, refined by the pool through engine.replay_cuts, answers with
    its diagram's best point."""

    def best_point(self, cuts):
        points = itertools.product((0.0, 1.0), repeat=len(COSTS))
        dd = from_paths([p + ((0.0, 30.0),) for p in points], weight_fn=tree_weights)
        try:
            return diagram_point(engine.replay_cuts(dd, cuts), self.sense)
        except InfeasibleDiagramError:
            return None


class NoGoodSub(SubproblemOracle):
    """Value 10 per variable at 0, with the optimality cut
    z >= value - 30 * (Hamming distance to x): valid for every y, since
    no value exceeds 30.  The optimum is all ones, at 6."""

    def evaluate(self, x):
        value = 10.0 * x.count(0.0)
        cut = CutRow(coeffs={j: 30.0 if v == 0.0 else -30.0 for j, v in enumerate(x)},
                     z_coeff=1.0, rhs=value - 30.0 * sum(x), sense=">=")
        return SubproblemResult(kind="optimal", cuts=[cut], value=value)


def test_time_limit_gap_bounds_the_optimum_wherever_the_clock_runs_out(monkeypatch):
    import types

    optimum = 6.0
    checked = 0
    for expiry in range(2, 500):
        readings = []

        def clock():
            # the solve's own readings: 0 s until the expiry-th, then 100 s
            readings.append(1)
            return 0.0 if len(readings) < expiry else 100.0

        monkeypatch.setattr(engine, "time", types.SimpleNamespace(perf_counter=clock))
        report = dd_bd_solve(CubeMaster(), NoGoodSub(), EngineConfig(time_limit=1.0))
        # the second reading is the one before the root loop starts: the
        # solve stops there with no point and no LP
        if expiry == 2:
            assert (report.status, report.x, report.lp_calls) == ("time_limit", None, 0)
        if report.status == "optimal":
            break
        assert report.status == "time_limit"
        if report.gap is not None and math.isfinite(report.gap):
            # min sense: the reported bound value - gap may not pass the optimum
            assert report.value - report.gap <= optimum, expiry
            checked += 1
    else:
        raise AssertionError("the solve never finished")
    assert report.value == optimum and checked >= 2


def test_time_limit_after_incumbent_keeps_best_and_gap():
    import time as clock

    from ddbd.ucp import UcpMasterOracle, UcpSubproblemOracle, compute_gamma
    from ddbd.ucp import gen_random_instance

    # the root finds an incumbent within two evaluations, and the solve takes
    # two; the limit falls during the first evaluation's sleep, after a
    # root build of a few ms
    inst = gen_random_instance(3, 3, 1, seed=31_003)
    gamma = compute_gamma(inst)
    master = UcpMasterOracle(inst, gamma)
    calls = []

    class SlowSub(UcpSubproblemOracle):
        def evaluate(self, x):
            calls.append(tuple(x))
            clock.sleep(0.03)
            return super().evaluate(x)

    report = dd_bd_solve(master, SlowSub(inst),
                         EngineConfig(time_limit=0.015))
    assert report.status == "time_limit"
    assert calls, "the subproblem should have been reached before the limit"
    # either no incumbent yet (infinite gap) or an incumbent with a gap
    if report.x is not None:
        assert report.gap is not None and report.gap >= 0.0


def test_time_limit_keeps_the_first_optimal_evaluation_as_incumbent():
    import time as clock

    from ddbd.ucp import (
        UcpMasterOracle,
        UcpSubproblemOracle,
        compute_gamma,
        gen_random_instance,
        master_cost,
    )

    # the limit falls during the first evaluation's sleep; that evaluation
    # is optimal, so its commitment is a feasible point, and the report
    # keeps it with its cost (the optimum is 40,483.00)
    inst = gen_random_instance(3, 3, 1, seed=31_003)
    optimum = dd_bd_solve(UcpMasterOracle(inst, compute_gamma(inst)),
                          UcpSubproblemOracle(inst)).value
    assert optimum == pytest.approx(40_483.00, abs=0.01)
    calls = []

    class SlowSub(UcpSubproblemOracle):
        def evaluate(self, x):
            calls.append(tuple(x))
            clock.sleep(0.03)
            return super().evaluate(x)

    report = dd_bd_solve(UcpMasterOracle(inst, compute_gamma(inst)), SlowSub(inst),
                         EngineConfig(time_limit=0.015))
    assert report.status == "time_limit"
    assert calls[:1] == [report.x]
    value = UcpSubproblemOracle(inst).evaluate(report.x).value
    assert report.z == value
    assert report.value == pytest.approx(master_cost(inst, report.x) + value, rel=1e-12)
    assert report.value == pytest.approx(41_452.09, abs=0.01)
    # the root's last restricted diagram was exact, so its path value
    # bounds the open root and the gap is finite
    assert math.isfinite(report.gap)
    assert report.value - report.gap <= optimum * (1.0 + 1e-9)


A_POINT, B_POINT = (0.0, 1.0), (1.0, 0.0)


class ScriptedMaster(MasterOracle):
    """Hands out the scripted (x, value interval) paths in turn, whatever
    the pool, each the best point of its one-path diagram."""

    def __init__(self, script):
        self.script = list(script)

    def best_point(self, cuts):
        x, z = self.script.pop(0)
        return diagram_point(from_paths([x + (z,)], weight_fn=unit_weights), self.sense)


class TableSub(SubproblemOracle):
    """Optimal at every x, at its tabled value, with a fresh cut each time."""

    def __init__(self, values):
        self.values = values
        self.seen = []

    def evaluate(self, x):
        self.seen.append(tuple(x))
        return SubproblemResult(kind="optimal", cuts=[value_floor(len(self.seen))],
                                value=self.values[tuple(x)])


@pytest.mark.parametrize("value_b,want", [(7.0, A_POINT), (6.0, B_POINT)])
def test_an_evaluated_point_replaces_the_incumbent_only_when_strictly_better(
        monkeypatch, value_b, want):
    import types

    # both points cost 1 in the master; the clock runs out after two evaluations
    sub = TableSub({A_POINT: 7.0, B_POINT: value_b})
    monkeypatch.setattr(engine, "time", types.SimpleNamespace(
        perf_counter=lambda: 100.0 if len(sub.seen) >= 2 else 0.0))
    master = ScriptedMaster([(A_POINT, (0.0, 0.0)), (B_POINT, (0.0, 0.0)),
                             (A_POINT, (0.0, 0.0))])
    report = dd_bd_solve(master, sub, EngineConfig(time_limit=1.0))
    assert sub.seen == [A_POINT, B_POINT]
    assert (report.status, report.x, report.z, report.value) == \
        ("time_limit", want, sub.values[want], 1.0 + sub.values[want])


def test_a_converged_path_replaces_an_incumbent_it_ties():
    sub = TableSub({A_POINT: 7.0, B_POINT: 7.0})
    master = ScriptedMaster([(A_POINT, (0.0, 0.0)), (B_POINT, (7.0, 7.0))])
    report = dd_bd_solve(master, sub, EngineConfig())
    assert sub.seen == [A_POINT, B_POINT]
    assert (report.status, report.x, report.z, report.value) == ("optimal", B_POINT, 7.0, 8.0)
