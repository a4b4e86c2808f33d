"""The generic MIP oracles against enumeration.

The master diagram is compiled by refinement, so it is checked here
against the plain enumeration of the x domain product that it replaces
(reference_points), and whole solves are checked against enumerating x
and solving every slave LP with scipy's HiGHS (brute_force_max).  The
data are integers and halves, so every row's lhs is exact in floating
point and no tolerance decides a point.  The refined masters are also
checked bit for bit against tests/reference_refine.py, with pools of
cuts harvested from the slave, whose coefficients are not exact.
"""

import dataclasses
import itertools
import random
import time

import numpy as np
import pytest

import reference_refine
from ddbd.diagram import Interval, dd_to_json, enumerate_solutions
from ddbd import mip
from ddbd.engine import CutPool, EngineConfig, dd_bd_solve
from ddbd.mip import (
    MipMasterOracle,
    MipProblem,
    MipSubproblemOracle,
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


class ValidatingMaster(MipMasterOracle):
    """The MIP master with every diagram it builds checked by validate()."""

    def build_exact_dd(self, cuts):
        dd = super().build_exact_dd(cuts)
        if dd is not None:
            dd.validate()
        return dd


def test_refined_master_has_exactly_the_enumerated_points():
    rng = random.Random(17)
    empty = 0
    for trial in range(320):
        problem = random_master_problem(rng)
        problem = with_partial(problem, random_partial(rng, problem))
        master = MipMasterOracle(problem)
        points = reference_points(problem)
        dd = master.build_exact_dd([])
        if not points:
            assert dd is None and master.best_point([]) is None, f"trial {trial}"
            empty += 1
            continue
        dd.validate()
        ends = Interval(*problem.z_bounds).endpoints()
        assert set(enumerate_solutions(dd)) == {x + (e,) for x in points for e in ends}, \
            f"trial {trial}"
        # the best point is an optimum of those points, at z's upper bound (max sense)
        x, z, w = master.best_point([])
        assert x in points and z == problem.z_bounds[1], f"trial {trial}"
        assert w == max(float(np.dot(problem.x_obj, p)) for p in points) + z, f"trial {trial}"
    # both outcomes are well represented
    assert 40 <= empty <= 280


def test_a_domain_value_listed_twice_gives_each_point_once():
    problem = example_two_binary_problem()
    problem.x_domains = [[0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
    dd = MipMasterOracle(problem).build_exact_dd([])
    dd.validate()
    paths = enumerate_solutions(dd)
    assert sorted(paths) == [(0.0, 1.0, -10.0), (0.0, 1.0, 10.0), (1.0, 0.0, -10.0),
                             (1.0, 0.0, 10.0), (1.0, 1.0, -10.0), (1.0, 1.0, 10.0)]
    report = dd_bd_solve(ValidatingMaster(problem), MipSubproblemOracle(problem),
                         EngineConfig())
    assert report.status == "optimal"
    assert report.value == pytest.approx(11.0 / 3.0, abs=1e-6)
    assert tuple(report.x) == (1.0, 0.0)


def test_master_rows_are_replayed_once(monkeypatch):
    # the chain is refined by the master rows when the oracle is made:
    # every ask replays only the pool onto it
    problem = example_two_binary_problem()
    replay, replayed = mip.replay_cuts, []

    def recording_replay(dd, cuts):
        replayed.append(cuts)
        return replay(dd, cuts)

    monkeypatch.setattr(mip, "replay_cuts", recording_replay)
    master = MipMasterOracle(problem)
    sub = MipSubproblemOracle(problem)
    pool = sub.evaluate((1.0, 1.0)).cuts + sub.evaluate((0.0, 1.0)).cuts
    for size in (0, 1, 2, 1, 0, 2):
        dd = master.build_exact_dd(pool[:size])
        fresh = MipMasterOracle(problem).build_exact_dd(pool[:size])
        assert set(enumerate_solutions(dd)) == set(enumerate_solutions(fresh)), size
    assert sum(cuts is master._rows for cuts in replayed) == 1
    # a shipped solve replays the rows once too, when its master is made
    replayed.clear()
    master = MipMasterOracle(problem)
    report = dd_bd_solve(master, MipSubproblemOracle(problem))
    assert (report.status, report.feasibility_cuts, report.optimality_cuts) == ("optimal", 1, 1)
    assert sum(cuts is master._rows for cuts in replayed) == 1


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


def brute_force_max(problem):
    """Best objective over the enumerated x, each slave LP solved by HiGHS;
    None when no x has a feasible slave."""
    slave = problem.slave_rows()
    best = None
    for x in reference_points(problem):
        lp = LinearProgram(sense="min", c=-np.array(problem.y_obj),
                           A=[by for _, by, _, _ in slave], senses=[s for *_, s, _ in slave],
                           b=[rhs - np.dot(ax, x) for ax, _, _, rhs in slave])
        status, value = scipy_lp_min(lp)
        if status == "optimal":
            total = float(np.dot(problem.x_obj, x)) - value
            best = total if best is None else max(best, total)
    return best


def test_mip_solves_agree_with_brute_force():
    t0 = time.perf_counter()
    feasible = 0
    for seed in range(160):
        problem = random_mip(seed)
        best = brute_force_max(problem)
        report = dd_bd_solve(ValidatingMaster(problem), MipSubproblemOracle(problem),
                             EngineConfig(), instance_id=str(seed))
        assert report.status == ("infeasible" if best is None else "optimal"), f"seed {seed}"
        if best is not None:
            assert abs(report.value - best) <= 1e-6 * (1.0 + abs(best)), \
                f"seed {seed}: {report.value} vs {best}"
            feasible += 1
    # both statuses are well represented
    assert 40 <= feasible <= 120
    assert time.perf_counter() - t0 < 120.0


# -- the refined master against the layer-by-layer reference ---------------------


def varied_mip(seed):
    """random_mip(seed), now and then with a domain value listed twice and
    with an "=" master row that holds at one domain point."""
    problem = random_mip(seed)
    rng = random.Random(-1 - seed)
    n = len(problem.x_domains)
    if rng.random() < 0.5:
        j = rng.randrange(n)
        problem.x_domains[j] = problem.x_domains[j] + [rng.choice(problem.x_domains[j])]
    if rng.random() < 0.5:
        x0 = [rng.choice(domain) for domain in problem.x_domains]
        ax = [float(rng.randint(-2, 2)) for _ in range(n)]
        problem.rows.insert(0, (ax, [0.0] * len(problem.y_obj), "=", float(np.dot(ax, x0))))
    return problem


def reference_replay(dd, cuts):
    """engine.replay_cuts with the layer-by-layer reference refinement."""
    return reference_refine._refine_exact(dd, list(cuts)) if cuts else dd


def master_json(problem, cuts):
    """dd_to_json of a fresh MipMasterOracle's exact master, or None."""
    dd = MipMasterOracle(problem).build_exact_dd(cuts)
    if dd is None:
        return None
    dd.validate()
    return dd_to_json(dd)


def test_refined_master_matches_the_reference_refinement_bit_for_bit(monkeypatch):
    # the chain is refined by the master rows and then by the pool, each
    # one replay; the reference must give the same node rows, arc order
    # and label, weight and interval bits, and empty the same masters
    seen = {"equality rows": 0, "repeated values": 0, "empty": 0, "refined": 0}
    for seed in range(40):
        problem = varied_mip(seed)
        rng = random.Random(seed)
        seen["equality rows"] += any(s == "=" for _, _, s, _ in problem.master_rows())
        seen["repeated values"] += any(len(set(d)) < len(d) for d in problem.x_domains)
        sub = MipSubproblemOracle(problem)
        pool = CutPool()
        for _ in range(4):
            for cut in sub.evaluate(tuple(rng.choice(d) for d in problem.x_domains)).cuts:
                pool.add(cut)
        for partial in ((), random_partial(rng, problem)):
            fixed = with_partial(problem, partial)
            for size in sorted({0, len(pool) // 2, len(pool)}):
                cuts = pool.cuts[:size]
                got = master_json(fixed, cuts)
                with monkeypatch.context() as patched:
                    patched.setattr(mip, "replay_cuts", reference_replay)
                    assert master_json(fixed, cuts) == got, (seed, partial, size)
                seen["empty" if got is None else "refined"] += 1
    # the inputs exercise what they are meant to
    assert min(seen.values()) >= 10, seen
