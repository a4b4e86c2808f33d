"""The generic MIP oracles against enumeration and the chain refinement.

The master answers by a label pass over a key graph.  The graph's paths
are checked here against the plain enumeration of the x domain product
(reference_points), and whole solves against enumerating x and solving
every slave LP with scipy's HiGHS (brute_force).  The data are integers
and halves, so every row's lhs is exact in floating point and no
tolerance decides a point.  Every answer of the master is also checked
against the exact diagram that it replaces: the chain of domain-value
arcs refined by the master rows and the pool (reference_point), with
pools of cuts harvested from the slave, whose coefficients are not exact.
"""

import dataclasses
import itertools
import math
import random
import time

import numpy as np
import pytest

import ddbd.diagram as diagram_module
from ddbd.diagram import (
    CutRow,
    DiagramBuilder,
    EmptyDiagramError,
    InfeasibleDiagramError,
    Interval,
    optimal_path,
)
from ddbd.engine import CutPool, EngineConfig, dd_bd_solve, replay_cuts
from ddbd.mip import (
    MipMasterOracle,
    MipProblem,
    MipSubproblemOracle,
    ValueBoundsError,
    example_two_binary_problem,
)
from ddbd.oracle import scipy_lp_min
from ddbd.simplex import LinearProgram


def row_holds(ax, sense, rhs, x):
    lhs = sum(a * v for a, v in zip(ax, x))
    return lhs <= rhs if sense == "<=" else lhs >= rhs if sense == ">=" else lhs == rhs


def reference_points(problem):
    """The x points the master admits: the domain product, filtered."""
    return {tuple(float(v) for v in x) for x in itertools.product(*problem.x_domains)
            if all(row_holds(ax, s, rhs, x) for ax, _, s, rhs in problem.master_rows())}


def reference_point(problem, cuts):
    """(x, z, w) of an optimal path of the exact master diagram, or None.

    The chain with one arc per distinct domain value, weighted by its
    objective term, ends in the [z_lo, z_hi] value arc; it is refined by
    the master rows as feasibility cuts ("=" as a "<=" and a ">=" row)
    and the cuts in one replay, and its optimal path read off."""
    n = len(problem.x_domains)
    dd = DiagramBuilder(n + 1, continuous_last=True)
    node = dd.new_node(0)
    for j, domain in enumerate(problem.x_domains):
        head = dd.new_node(j + 1)
        for v in dict.fromkeys(float(v) for v in domain):
            dd.add_arc(j, node, head, v, problem.x_obj[j] * v)
        node = head
    dd.add_arc(n, node, dd.new_node(n + 1), Interval(*map(float, problem.z_bounds)), 1.0)
    rows = [CutRow(coeffs={j: float(a) for j, a in enumerate(ax) if a}, rhs=float(rhs), sense=s)
            for ax, _, sense, rhs in problem.master_rows()
            for s in (("<=", ">=") if sense == "=" else (sense,))]
    try:
        assignment, w = optimal_path(replay_cuts(dd.build(), rows + list(cuts)),
                                     problem.sense)
    except (InfeasibleDiagramError, EmptyDiagramError):
        return None
    return tuple(assignment[:-1]), assignment[-1], w


def graph_points(master):
    """Every x of a path through the master's key graph, in visiting order."""
    prefixes = [[()]]
    for parent, label, _, child, width in master._graph.layers:
        out = [[] for _ in range(width)]
        for i, lab, j in zip(parent, label, child):
            out[j] += [p + (lab,) for p in prefixes[i]]
        prefixes = out
    return [p for ps in prefixes for p in ps]


def random_master_problem(rng):
    n = rng.randint(1, 7)
    domains = [rng.sample([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0], rng.randint(1, 3))
               for _ in range(n)]
    # each rhs is offset from the lhs at one domain point, so rows often hold
    x0 = [rng.choice(domain) for domain in domains]
    rows = []
    for _ in range(rng.randint(0, 4)):
        ax = [float(rng.randint(-2, 2)) for _ in range(n)]
        sense = rng.choice(["<=", ">=", "="])
        offset = {"<=": rng.randint(-1, 3), ">=": rng.randint(-3, 1),
                  "=": rng.choice([0, 0, 0, 1])}[sense]
        rows.append((ax, [], sense, float(np.dot(ax, x0)) + offset))
    z_bounds = rng.choice([(0.0, 0.0), (-5.0, 5.0), (1.5, 2.0)])
    return MipProblem(sense="max", x_obj=[float(rng.randint(-2, 2)) for _ in range(n)],
                      y_obj=[], rows=rows, x_domains=domains, z_bounds=z_bounds)


def random_partial(rng, problem):
    partial = []
    for domain in problem.x_domains[:rng.randint(0, len(problem.x_domains))]:
        # now and then a value outside the domain, which admits nothing
        partial.append(rng.choice(domain) if rng.random() < 0.9 else 7.0)
    return tuple(partial)


def with_partial(problem, partial):
    """The problem with the partial assignment x_j = v added as "=" master rows."""
    n, k = len(problem.x_domains), len(problem.y_obj)
    fixing = [([float(i == j) for i in range(n)], [0.0] * k, "=", v)
              for j, v in enumerate(partial)]
    return dataclasses.replace(problem, rows=problem.rows + fixing)


def test_refined_master_has_exactly_the_enumerated_points():
    # the key graph's paths are the master's points, each once, and the
    # master answers with an optimum of them
    rng = random.Random(17)
    empty = 0
    for trial in range(320):
        problem = random_master_problem(rng)
        problem = with_partial(problem, random_partial(rng, problem))
        master = MipMasterOracle(problem)
        points = reference_points(problem)
        if not points:
            assert master.best_point([]) is None, f"trial {trial}"
            empty += 1
            continue
        # the best point is an optimum of those points, at z's upper bound (max sense)
        x, z, w = master.best_point([])
        paths = graph_points(master)
        assert len(paths) == len(points) and set(paths) == points, f"trial {trial}"
        assert x in points and z == problem.z_bounds[1], f"trial {trial}"
        assert w == max(float(np.dot(problem.x_obj, p)) for p in points) + z, f"trial {trial}"
    # both outcomes are well represented
    assert 40 <= empty <= 280


def test_a_domain_value_listed_twice_gives_each_point_once():
    problem = example_two_binary_problem()
    problem.x_domains = [[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
    master = MipMasterOracle(problem)
    assert master.best_point([]) == ((1.0, 1.0), 10.0, 12.0)
    assert sorted(graph_points(master)) == [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    report = dd_bd_solve(master, MipSubproblemOracle(problem), EngineConfig())
    assert report.status == "optimal"
    assert report.value == pytest.approx(11.0 / 3.0, abs=1e-6)
    assert tuple(report.x) == (1.0, 0.0)


def count_key_graph_builds(monkeypatch):
    """Calls of diagram._cut_schedule, which runs once per key graph built."""
    calls = []
    real = diagram_module._cut_schedule
    monkeypatch.setattr(diagram_module, "_cut_schedule",
                        lambda *args: calls.append(1) or real(*args))
    return calls


class CountingMaster(MipMasterOracle):
    """The MIP master, recording how many feasibility cuts each ask brings."""

    def __init__(self, problem):
        super().__init__(problem)
        self.feasibility_counts = []

    def best_point(self, cuts):
        self.feasibility_counts.append(sum(c.z_coeff == 0.0 for c in cuts))
        return super().best_point(cuts)


def test_one_key_graph_per_feasibility_set(monkeypatch):
    # the master rows lead every ask's feasibility list, so the keys are
    # laid out again only when the pool's feasibility cuts grow
    builds = count_key_graph_builds(monkeypatch)
    master = CountingMaster(example_two_binary_problem())
    report = dd_bd_solve(master, MipSubproblemOracle(master.problem))
    assert (report.status, report.feasibility_cuts, report.optimality_cuts) == ("optimal", 1, 1)
    assert master.feasibility_counts == [0, 1, 1] and len(builds) == 2
    for seed in range(40):
        for sense in ("max", "min"):
            builds.clear()
            problem = dataclasses.replace(varied_mip(seed), sense=sense)
            master = CountingMaster(problem)
            dd_bd_solve(master, MipSubproblemOracle(problem))
            assert len(builds) == len(set(master.feasibility_counts)), (seed, sense)


def test_a_max_problem_never_reports_negative_zero():
    # every objective term and the value are 0: the master's answer to the
    # max problem is the negation of its min, and -0.0 must not come back
    problem = MipProblem(sense="max", x_obj=[0.0, -1.0], y_obj=[0.0],
                         rows=[([0.0, 0.0], [1.0], "<=", 0.0)],
                         x_domains=[[0.0, 1.0], [0.0]], z_bounds=(0.0, 0.0))
    x, z, w = MipMasterOracle(problem).best_point([])
    assert repr((x, z, w)) == "((0.0, 0.0), 0.0, 0.0)"
    report = dd_bd_solve(MipMasterOracle(problem), MipSubproblemOracle(problem))
    assert repr((report.x, report.z, report.value)) == "((0.0, 0.0), 0.0, 0.0)"


def test_slave_values_outside_the_z_bounds_raise():
    # the optimum 11/3 is at x = (1, 0), whose value 8/3 lies outside
    # both intervals; without the check [5, 10] reported 3 at x = (0, 1)
    for z_bounds in ((5.0, 10.0), (0.0, 1.0)):
        problem = dataclasses.replace(example_two_binary_problem(), z_bounds=z_bounds)
        with pytest.raises(ValueBoundsError, match="z_bounds"):
            dd_bd_solve(MipMasterOracle(problem), MipSubproblemOracle(problem))
        sub = MipSubproblemOracle(problem)
        with pytest.raises(ValueBoundsError):
            sub.evaluate((1.0, 0.0))
    # a value on a bound, or past it by less than the tolerance, is kept
    sub = MipSubproblemOracle(dataclasses.replace(example_two_binary_problem(),
                                                  z_bounds=(-1.0, 2.0)))
    assert sub.evaluate((0.0, 1.0)).value == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("edit", [
    lambda p: p.__setattr__("z_bounds", (math.nan, 1.0)),
    lambda p: p.__setattr__("z_bounds", (0.0, math.inf)),
    lambda p: p.x_domains[0].append(math.inf),
    lambda p: p.x_obj.__setitem__(1, math.nan),
    lambda p: p.__setattr__("y_obj", [2.0, -math.inf]),
    lambda p: p.rows.append(([0.0, math.nan], [0.0, 0.0], "<=", 1.0)),
    lambda p: p.rows.append(([0.0, 1.0], [0.0, 0.0], "<=", math.inf)),
], ids=["z-nan", "z-inf", "domain-inf", "x-obj-nan", "y-obj-inf", "ax-nan", "rhs-inf"])
def test_a_problem_with_a_non_finite_number_is_rejected(edit):
    problem = example_two_binary_problem()
    edit(problem)
    for oracle in (MipMasterOracle, MipSubproblemOracle):
        with pytest.raises(ValueError, match="finite"):
            oracle(problem)


@pytest.mark.parametrize("text", ["5", "null", '"x_domains"', "[1, 2]"],
                         ids=["number", "null", "string", "list"])
def test_a_document_that_is_not_an_object_is_rejected(text):
    with pytest.raises(ValueError, match="bad problem document: expected a JSON object"):
        MipProblem.from_json(text)


# -- brute-force agreement sweep ---------------------------------------------------

Y_CAP = 4.0   # every y is capped by a slave row y_i <= Y_CAP


def random_mip(seed):
    """A max MIP with slave rows, every y capped, and z_bounds that hold."""
    rng = random.Random(seed)
    n, k = rng.randint(1, 4), rng.randint(1, 3)
    domains = [rng.choice([[0.0, 1.0], [0.0, 1.0, 2.0], [1.0, 2.0]]) for _ in range(n)]
    rows = [([float(rng.randint(-2, 2)) for _ in range(n)], [0.0] * k,
             rng.choice(["<=", ">="]), float(rng.randint(0, 3)))
            for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(1, 3)):
        by = [float(rng.randint(-2, 2)) for _ in range(k)]
        by[rng.randrange(k)] = float(rng.choice([-2, -1, 1, 2]))
        rows.append(([float(rng.randint(-2, 2)) for _ in range(n)], by,
                     rng.choice(["<=", ">=", "="]), float(rng.randint(-2, 4))))
    rows += [([0.0] * n, [float(i == j) for j in range(k)], "<=", Y_CAP) for i in range(k)]
    y_obj = [float(rng.randint(-2, 3)) for _ in range(k)]
    z = Y_CAP * sum(abs(b) for b in y_obj)
    return MipProblem(sense="max", x_obj=[float(rng.randint(-2, 2)) for _ in range(n)],
                      y_obj=y_obj, rows=rows, x_domains=domains, z_bounds=(-z, z))


def brute_force(problem):
    """Best objective in the problem's sense over the enumerated x, each
    slave LP solved by HiGHS; None when no x has a feasible slave."""
    sign = 1.0 if problem.sense == "max" else -1.0
    slave = problem.slave_rows()
    best = None
    for x in reference_points(problem):
        lp = LinearProgram(sense="min", c=-sign * np.array(problem.y_obj),
                           A=[by for _, by, _, _ in slave], senses=[s for *_, s, _ in slave],
                           b=[rhs - np.dot(ax, x) for ax, _, _, rhs in slave])
        status, value = scipy_lp_min(lp)
        if status == "optimal":
            total = float(np.dot(problem.x_obj, x)) - sign * value
            if best is None or sign * total > sign * best:
                best = total
    return best


def test_mip_solves_agree_with_brute_force():
    t0 = time.perf_counter()
    for sense in ("max", "min"):
        feasible = 0
        for seed in range(160):
            problem = dataclasses.replace(random_mip(seed), sense=sense)
            best = brute_force(problem)
            report = dd_bd_solve(MipMasterOracle(problem), MipSubproblemOracle(problem),
                                 EngineConfig())
            assert report.status == ("infeasible" if best is None else "optimal"), \
                f"{sense} seed {seed}"
            if best is not None:
                assert abs(report.value - best) <= 1e-6 * (1.0 + abs(best)), \
                    f"{sense} seed {seed}: {report.value} vs {best}"
                feasible += 1
        # both statuses are well represented
        assert 40 <= feasible <= 120, sense
    assert time.perf_counter() - t0 < 120.0


# -- the label pass against the chain refinement ---------------------------------


def varied_mip(seed):
    """random_mip(seed), now and then with domains of unsorted, repeated,
    negative and half values and with an "=" master row that holds at
    one domain point."""
    problem = random_mip(seed)
    rng = random.Random(-1 - seed)
    n = len(problem.x_domains)
    for j in range(n):
        if rng.random() < 0.4:
            problem.x_domains[j] = [rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
                                    for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        x0 = [rng.choice(domain) for domain in problem.x_domains]
        ax = [float(rng.randint(-2, 2)) for _ in range(n)]
        problem.rows.insert(0, (ax, [0.0] * len(problem.y_obj), "=", float(np.dot(ax, x0))))
    return problem


def test_best_point_matches_the_chain_refinement_on_every_ask():
    # one master per problem asked along every prefix of a harvested pool:
    # the same None-ness and x as the exact master diagram, and z and w
    # to 1e-9; a max answer is never -0.0
    seen = {"asks": 0, "empty": 0, "equality rows": 0, "repeated values": 0,
            "unsorted": 0, "negative": 0, "halves": 0}
    for seed in range(300):
        for sense in ("max", "min"):
            problem = dataclasses.replace(varied_mip(seed), sense=sense)
            rng = random.Random(seed)
            domains = problem.x_domains
            seen["equality rows"] += any(s == "=" for _, _, s, _ in problem.master_rows())
            seen["repeated values"] += any(len(set(d)) < len(d) for d in domains)
            seen["unsorted"] += any(d != sorted(d) for d in domains)
            seen["negative"] += any(v < 0 for d in domains for v in d)
            seen["halves"] += any(v % 1 for d in domains for v in d)
            sub = MipSubproblemOracle(problem)
            pool = CutPool()
            for _ in range(3):
                for cut in sub.evaluate(tuple(rng.choice(d) for d in domains)).cuts:
                    pool.add(cut)
            for partial in ((), random_partial(rng, problem)):
                fixed = with_partial(problem, partial)
                master = MipMasterOracle(fixed)
                for size in range(len(pool) + 1):
                    cuts = pool.cuts[:size]
                    got, want = master.best_point(cuts), reference_point(fixed, cuts)
                    where = (seed, sense, partial, size)
                    seen["asks"] += 1
                    if want is None:
                        assert got is None, where
                        seen["empty"] += 1
                        continue
                    assert got is not None and got[0] == want[0], (where, got, want)
                    for a, b in zip(got[1:], want[1:]):
                        assert abs(a - b) <= 1e-9 * (1.0 + abs(b)), (where, got, want)
                        assert sense == "min" or repr(a) != "-0.0", where
    # the inputs exercise what they are meant to
    assert seen["asks"] >= 2000 and min(seen.values()) >= 50, seen
