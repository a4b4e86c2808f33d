import dataclasses
import itertools
import json
import math
import random

import pytest

from ddbd.diagram import (
    CutRow,
    DiagramBuilder,
    InfeasibleDiagramError,
    append_value_layer,
    from_paths,
    optimal_path,
    refine_with_cut,
)
from ddbd import engine
from ddbd.engine import (
    BRANCH_CAP,
    RELAXED_CUT_CAP,
    CutPool,
    EngineConfig,
    EngineError,
    MasterOracle,
    PropertyViolationError,
    SolveReport,
    SubproblemOracle,
    SubproblemResult,
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


def tag_merged(dd, rows):
    """A copy of dd with the given node rows tagged merged."""
    merged = dd.merged.copy()
    merged[list(rows)] = True
    return dataclasses.replace(dd, merged=merged)


def test_exact_cutset_unmerged_is_last_layer_before_terminal():
    dd = from_paths([(0.0, 1.0), (1.0, 0.0)])
    idx, nodes = exact_cutset(dd)
    assert idx == dd.num_arc_layers - 1
    assert set(nodes) == set(dd.layer_rows(idx))


def test_exact_cutset_stops_before_first_merge():
    dd = from_paths([(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
    dd = tag_merged(dd, dd.layer_rows(2)[:2])
    idx, _ = exact_cutset(dd)
    assert idx == 1


def test_exact_cutset_root_only_when_layer_one_merged():
    dd = from_paths([(0.0, 0.0), (1.0, 1.0)])
    dd = tag_merged(dd, dd.layer_rows(1))
    idx, nodes = exact_cutset(dd)
    assert idx == 0
    assert nodes == [dd.root]


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
    problem = example_two_binary_problem()
    master = MipMasterOracle(problem)
    sub = MipSubproblemOracle(problem)
    report = dd_bd_solve(master, sub, EngineConfig(), instance_id="worked")
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
                         nodes=4, lp_calls=7, wall_time=0.125, instance="t")
    text = report.to_json()
    assert '"value": 3.5' in text
    assert json.loads(text)["nodes"] == 4
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


# -- loop edges, pinned with stub oracles -------------------------------------------

INCUMBENT = (1.0, 1.0)
VACUOUS = CutRow(coeffs={0: 0.0}, rhs=1.0, sense="<=")   # never separates anything


def unit_weights(layer, label):
    # each binary costs its label; the value arc has slope one
    return 1.0 if layer == 2 else label


class StubMaster(MasterOracle):
    """Two binaries.  At the root the restricted diagram holds INCUMBENT
    alone with value 50 and is not exact, and the relaxed one holds the
    other three points with value in [0, 100], refined by the pool
    through engine.replay_cuts; every child is reported infeasible.  The
    restricted diagram ignores the pool: every cut these tests pool
    admits INCUMBENT at value 50."""

    def build_restricted_dd(self, partial, cuts):
        if partial:
            return None, True
        return from_paths([INCUMBENT + ((50.0, 50.0),)], weight_fn=unit_weights), False

    def build_relaxed_dd(self, partial, cuts):
        points = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
        dd = from_paths([p + ((0.0, 100.0),) for p in points], weight_fn=unit_weights)
        return engine.replay_cuts(dd, cuts)


class StubSub(SubproblemOracle):
    """INCUMBENT converges at value 50 when `converge` is set.  Any other
    evaluation, the k-th counted from 1, returns cut_for(k) and a value
    of 1000, which no path reaches."""

    def __init__(self, cut_for, converge=True):
        self.cut_for = cut_for
        self.converge = converge
        self.evaluated = []

    def evaluate(self, x):
        if tuple(x) == INCUMBENT and self.converge:
            return SubproblemResult(kind="optimal", cuts=[], value=50.0)
        self.evaluated.append(tuple(x))
        return SubproblemResult(kind="optimal", cuts=[self.cut_for(len(self.evaluated))],
                                value=1000.0)


class StaleSub(StubSub):
    """Seeds the pool with its cut (VACUOUS unless given) and answers
    every evaluation but a converging INCUMBENT with that cut again, so a
    relaxed loop finds it stale at its first evaluation and branches."""

    def __init__(self, cut=VACUOUS):
        super().__init__(lambda k: cut)
        self.cut = cut

    def initial_cuts(self):
        return [self.cut]


def value_floor(k):
    """The optimality cut z >= k."""
    return CutRow(coeffs={}, z_coeff=1.0, rhs=float(k), sense=">=")


def test_stale_cut_on_the_restricted_side_is_an_oracle_error():
    sub = StubSub(lambda k: VACUOUS, converge=False)
    with pytest.raises(EngineError):
        dd_bd_solve(StubMaster(), sub, EngineConfig())
    assert sub.evaluated == [INCUMBENT, INCUMBENT]


def test_stale_cut_on_the_relaxed_side_branches():
    sub = StubSub(lambda k: VACUOUS)
    report = dd_bd_solve(StubMaster(), sub, EngineConfig())
    assert sub.evaluated == [(0.0, 0.0), (0.0, 0.0)]
    assert (report.status, report.x, report.value) == ("optimal", INCUMBENT, 52.0)
    assert report.branches == 3


def test_relaxed_loop_branches_on_its_last_replay_after_the_cap(monkeypatch):
    import types

    replays, branched = [], []
    replay, prefixes = engine.replay_cuts, engine.enumerate_prefixes

    def recording_replay(*args, **kwargs):
        replays.append(replay(*args, **kwargs))
        return replays[-1]

    def stop_after_branching(dd, layer_idx, cap):
        branched.append(dd)
        return prefixes(dd, layer_idx, cap)

    # the clock reads 0 s until the root branches and 100 s after, so the
    # children stay open and the gap shows the bound they inherited
    clock = types.SimpleNamespace(perf_counter=lambda: 100.0 if branched else 0.0)
    monkeypatch.setattr(engine, "replay_cuts", recording_replay)
    monkeypatch.setattr(engine, "enumerate_prefixes", stop_after_branching)
    monkeypatch.setattr(engine, "time", clock)
    sub = StubSub(value_floor)
    report = dd_bd_solve(StubMaster(), sub, EngineConfig(time_limit=1.0))
    assert len(sub.evaluated) == RELAXED_CUT_CAP
    # the first relaxed build replays the empty pool, and every
    # evaluation is followed by one more build
    assert len(replays) == RELAXED_CUT_CAP + 1 and branched == [replays[-1]]
    bound = optimal_path(replays[-1], "min")[1]
    assert bound == pytest.approx(RELAXED_CUT_CAP)
    assert (report.status, report.x, report.value) == ("time_limit", INCUMBENT, 52.0)
    assert report.branches == 3
    assert report.gap == pytest.approx(52.0 - bound)


def test_the_relaxed_build_is_asked_again_with_each_fresh_batch():
    class BatchSub(StubSub):
        """Evaluation k returns z >= k - 1, z >= k and z >= k + 0.5: from
        the second on, the first of them is pooled already."""

        def evaluate(self, x):
            res = super().evaluate(x)
            if res.cuts:
                k = len(self.evaluated)
                res.cuts = [value_floor(k - 1), value_floor(k), value_floor(k + 0.5)]
            return res

    class RecordingMaster(StubMaster):
        def __init__(self):
            self.relaxed = []

        def build_relaxed_dd(self, partial, cuts):
            self.relaxed.append(list(cuts))
            return super().build_relaxed_dd(partial, cuts)

    master = RecordingMaster()
    report = dd_bd_solve(master, BatchSub(value_floor), EngineConfig())
    assert (report.status, report.x, report.value) == ("optimal", INCUMBENT, 52.0)
    assert master.relaxed[0] == [] and len(master.relaxed) == RELAXED_CUT_CAP + 1
    for k, (before, after) in enumerate(zip(master.relaxed, master.relaxed[1:]), start=1):
        fresh = [value_floor(k), value_floor(k + 0.5)]
        if k == 1:
            fresh.insert(0, value_floor(0))
        assert all(a is b for a, b in zip(before, after)), k
        assert after[len(before):] == fresh, k


def test_the_clock_is_read_again_before_the_relaxed_build(monkeypatch):
    import types

    now = [0.0]
    relaxed = []

    class SlowChildMaster(StubMaster):
        """The root as in StubMaster; a child's restricted build finds
        nothing and returns 100 s later, past the limit."""

        def build_restricted_dd(self, partial, cuts):
            if partial:
                now[0] = 100.0
                return None, False
            return super().build_restricted_dd(partial, cuts)

        def build_relaxed_dd(self, partial, cuts):
            relaxed.append(partial)
            return super().build_relaxed_dd(partial, cuts)

    monkeypatch.setattr(engine, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    report = dd_bd_solve(SlowChildMaster(), StaleSub(), EngineConfig(time_limit=1.0))
    assert relaxed == [()]
    assert (report.status, report.x, report.value) == ("time_limit", INCUMBENT, 52.0)
    # the child went back with the root's relaxed bound, 0: the children
    # are infeasible, so 52 is the optimum, and 52 - gap may not pass it
    assert report.gap == 52.0 and report.nodes == 2


class GridMaster(MasterOracle):
    """No restricted diagram anywhere.  The root's relaxed diagram holds
    every point of the grid, with value in [0, 1]; every child is
    infeasible.  Records the partial assignment of each relaxed build."""

    sense = "min"

    def __init__(self, *domains):
        self.points = list(itertools.product(*domains))
        self.built = []

    def build_restricted_dd(self, partial, cuts):
        return None, False

    def build_relaxed_dd(self, partial, cuts):
        self.built.append(partial)
        if partial:
            return None
        return from_paths([p + ((0.0, 1.0),) for p in self.points])


TEN = [float(v) for v in range(10)]
HUNDRED = [float(v) for v in range(100)]


# 10 x 10 prefixes at the exact cutset back up to layer 1; at layer 1 all
# 100 are taken however many there are
@pytest.mark.parametrize("domains", [(TEN, TEN), (HUNDRED,)], ids=["back-up", "take-all"])
def test_branching_past_the_prefix_cap_branches_on_the_first_variable(domains):
    assert math.prod(map(len, domains)) > BRANCH_CAP
    master = GridMaster(*domains)
    report = dd_bd_solve(master, StaleSub(), EngineConfig())
    assert report.status == "infeasible" and report.branches == len(domains[0])
    assert master.built == [()] + [(v,) for v in domains[0]]


def test_a_single_prefix_is_extended_as_far_as_every_path_shares_it():
    # every root path starts (0, 1); tagging layer 2 merged makes layer 1
    # the branching layer, where the only prefix is (0,)
    class ForcedMaster(GridMaster):
        def build_relaxed_dd(self, partial, cuts):
            dd = super().build_relaxed_dd(partial, cuts)
            if dd is not None:
                dd = tag_merged(dd, dd.layer_rows(2))
            return dd

    master = ForcedMaster([0.0], [1.0], [0.0, 1.0])
    report = dd_bd_solve(master, StaleSub(), EngineConfig())
    assert report.status == "infeasible" and report.branches == 1
    assert master.built == [(), (0.0, 1.0)]


def test_initial_cuts_are_pooled_before_the_root_is_built():
    seeded = CutRow(coeffs={0: 1.0}, rhs=5.0, sense="<=")

    class SeedingSub(StaleSub):
        def initial_cuts(self):
            return [seeded, seeded]

    class RecordingMaster(StubMaster):
        def __init__(self):
            self.pools = []

        def build_restricted_dd(self, partial, cuts):
            self.pools.append(list(cuts))
            return super().build_restricted_dd(partial, cuts)

    master = RecordingMaster()
    report = dd_bd_solve(master, SeedingSub(seeded), EngineConfig())
    assert master.pools[0] == [seeded]
    assert (report.status, report.x, report.feasibility_cuts) == ("optimal", INCUMBENT, 1)
    assert SubproblemOracle().initial_cuts() == []


# -- a stub search that branches one variable at a time ------------------------------

COSTS = (1.0, 2.0, 3.0)


def tree_weights(layer, label):
    # y_j costs COSTS[j]; the value arc has slope one
    return 1.0 if layer == len(COSTS) else COSTS[layer] * label


class TreeMaster(MasterOracle):
    """Binaries y_0 .. y_2 costing COSTS and a value in [0, 30], every
    diagram refined by the pool through engine.replay_cuts.  The
    restricted diagram completes the partial assignment with zeros and
    is exact only for a full one.  The relaxed diagram holds every
    completion, and its layer after the next variable is tagged merged,
    so the search branches on one variable at a time."""

    def _refined(self, partial, completions, cuts):
        dd = from_paths([tuple(partial) + c + ((0.0, 30.0),) for c in completions],
                        weight_fn=tree_weights)
        try:
            return engine.replay_cuts(dd, cuts)
        except InfeasibleDiagramError:
            return None

    def build_restricted_dd(self, partial, cuts):
        zeros = (0.0,) * (len(COSTS) - len(partial))
        return self._refined(partial, [zeros], cuts), len(partial) == len(COSTS)

    def build_relaxed_dd(self, partial, cuts):
        rest = itertools.product((0.0, 1.0), repeat=len(COSTS) - len(partial))
        dd = self._refined(partial, rest, cuts)
        if dd is not None and len(partial) + 2 <= len(COSTS):
            dd = tag_merged(dd, dd.layer_rows(len(partial) + 2))
        return dd


class NoGoodSub(SubproblemOracle):
    """Value 10 per variable at 0, with the optimality cut
    z >= value - 30 * (Hamming distance to x): valid for every y, since
    no value exceeds 30.  The optimum is all ones, at 6."""

    def evaluate(self, x):
        value = 10.0 * x.count(0.0)
        cut = CutRow(coeffs={j: 30.0 if v == 0.0 else -30.0 for j, v in enumerate(x)},
                     z_coeff=1.0, rhs=value - 30.0 * sum(x), sense=">=")
        return SubproblemResult(kind="optimal", cuts=[cut], value=value)


def test_report_counts_every_node_taken_off_the_stack():
    # a solve that runs to the end takes the root and every branch once
    report = dd_bd_solve(TreeMaster(), NoGoodSub(), EngineConfig())
    assert (report.status, report.x, report.value) == ("optimal", (1.0, 1.0, 1.0), 6.0)
    assert report.branches > len(COSTS)
    assert report.nodes == report.branches + 1
    assert json.loads(report.to_json())["nodes"] == report.nodes
    # the row keeps its columns
    assert "nodes" not in SolveReport.CSV_HEADER


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
        report = dd_bd_solve(TreeMaster(), NoGoodSub(), EngineConfig(time_limit=1.0))
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
        evaluate_subproblems,
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
    value = evaluate_subproblems(inst, report.x).value
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
    the partial and the pool, each as a diagram reported exact."""

    def __init__(self, script):
        self.script = list(script)

    def build_restricted_dd(self, partial, cuts):
        x, z = self.script.pop(0)
        return from_paths([x + (z,)], weight_fn=unit_weights), True


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
