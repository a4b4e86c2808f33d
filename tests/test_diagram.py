import math
import random

import pytest

from ddbd.diagram import (
    CUT_TOL,
    CutRow,
    DecisionDiagram,
    EmptyDiagramError,
    InfeasibleDiagramError,
    Interval,
    PathExplosionError,
    append_value_layer,
    dd_from_json,
    dd_to_json,
    enumerate_solutions,
    from_paths,
    merge_nodes,
    optimal_path,
    path_weight,
    prune_dead_nodes,
    reduce_interval_arcs,
    refine_with_cut,
    to_dot,
)


def linear_weights(coeffs):
    return lambda j, lab: coeffs[j] if isinstance(lab, Interval) else coeffs[j] * lab


def random_dd(rng, num_layers=4, max_nodes=8, labels=(0.0, 1.0, 2.0),
              parallel=1, weight_coeffs=None):
    """Random layered DD; every node keeps at least one outgoing arc."""
    dd = DecisionDiagram(num_layers)
    prev = [dd.new_node(0)]
    for j in range(1, num_layers):
        width = rng.randint(1, max_nodes)
        layer = [dd.new_node(j) for _ in range(width)]
        for u in prev:
            for _ in range(rng.randint(1, 2)):
                v = layer[rng.randrange(width)]
                for _ in range(rng.randint(1, parallel)):
                    lab = rng.choice(labels)
                    w = weight_coeffs[j - 1] * lab if weight_coeffs else rng.uniform(-2, 2)
                    dd.add_arc(j - 1, u, v, lab, w)
        prev = layer
    term = dd.new_node(num_layers)
    for u in prev:
        lab = rng.choice(labels)
        w = weight_coeffs[-1] * lab if weight_coeffs else rng.uniform(-2, 2)
        dd.add_arc(num_layers - 1, u, term, lab, w)
    from ddbd.diagram import prune_dead_nodes

    return prune_dead_nodes(dd)


def brute_force_best(dd, sense):
    sols = enumerate_solutions(dd)
    vals = [path_weight(dd, s, sense) for s in sols]
    return max(vals) if sense == "max" else min(vals)


# -- optimal_path ----------------------------------------------------------------


def test_optimal_path_single_path_zero_weight():
    dd = from_paths([(0.0, 0.0)])
    assignment, value = optimal_path(dd, "max")
    assert assignment == [0.0, 0.0]
    assert value == 0.0


def test_optimal_path_matches_enumeration_on_random_dds():
    rng = random.Random(7)
    for _ in range(40):
        dd = random_dd(rng)
        for sense in ("max", "min"):
            _, value = optimal_path(dd, sense)
            assert value == pytest.approx(brute_force_best(dd, sense), abs=1e-9)


def test_optimal_path_picks_interval_endpoint_by_sense():
    dd = from_paths([(1.0, (-5.0, 3.0))], weight_fn=linear_weights([1.0, 1.0]))
    assignment, value = optimal_path(dd, "max")
    assert assignment == [1.0, 3.0]
    assert value == pytest.approx(4.0)
    assignment, value = optimal_path(dd, "min")
    assert assignment == [1.0, -5.0]
    assert value == pytest.approx(-4.0)


def test_optimal_path_empty_raises():
    dd = DecisionDiagram(0)
    dd.new_node(0)
    with pytest.raises(EmptyDiagramError):
        optimal_path(dd)


def test_optimal_path_lexicographic_tie_break():
    dd = from_paths([(0.0, 1.0), (1.0, 0.0)])  # both weigh zero
    assignment, _ = optimal_path(dd, "max")
    assert assignment == [0.0, 1.0]


# -- enumerate_solutions -----------------------------------------------------------


def test_enumerate_empty_diagram():
    dd = DecisionDiagram(0)
    dd.new_node(0)
    assert enumerate_solutions(dd) == []


def test_enumerate_round_trips_explicit_paths():
    paths = [(0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (1.0, 0.0, 2.0)]
    dd = from_paths(paths)
    assert sorted(enumerate_solutions(dd)) == sorted(paths)


def test_enumerate_expands_interval_endpoints():
    dd = from_paths([(0.0, (-2.0, 2.0)), (1.0, (1.0, 1.0))])
    sols = sorted(enumerate_solutions(dd))
    assert sols == [(0.0, -2.0), (0.0, 2.0), (1.0, 1.0)]


def test_enumerate_cap():
    paths = [(float(a), float(b)) for a in range(4) for b in range(4)]
    dd = from_paths(paths)
    with pytest.raises(PathExplosionError):
        enumerate_solutions(dd, cap=3)


# -- reduce_interval_arcs ----------------------------------------------------------


def test_reduce_keeps_min_and_max_parallel_labels():
    dd = DecisionDiagram(1)
    r = dd.new_node(0)
    t = dd.new_node(1)
    for lab in (0.0, 0.5, 1.0):
        dd.add_arc(0, r, t, lab, lab)
    red = reduce_interval_arcs(dd, {0})
    labels = sorted(a.label for a in red.arcs[0])
    assert labels == [0.0, 1.0]


def test_reduce_no_parallel_arcs_is_identity():
    dd = from_paths([(0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (2.0, 1.0), (1.0, 2.0)])
    red = reduce_interval_arcs(dd, {0, 1})
    assert sorted(enumerate_solutions(red)) == sorted(enumerate_solutions(dd))


def test_reduce_preserves_linear_optimum():
    rng = random.Random(11)
    for trial in range(40):
        coeffs = [rng.uniform(-3, 3) for _ in range(4)]
        dd = random_dd(rng, parallel=4, weight_coeffs=coeffs)
        red = reduce_interval_arcs(dd, set(range(4)))
        for sense in ("max", "min"):
            _, before = optimal_path(dd, sense)
            _, after = optimal_path(red, sense)
            assert before == pytest.approx(after, abs=1e-9), f"trial {trial}"


# -- refine_with_cut ---------------------------------------------------------------


def example_master_dd(big_m=10.0):
    """Two binaries with x1 + x2 >= 1, value layer bounded by +-big_m."""
    dd = DecisionDiagram(3, continuous_last=True)
    r = dd.new_node(0)
    a0 = dd.new_node(1)
    a1 = dd.new_node(1)
    b0 = dd.new_node(2)
    b1 = dd.new_node(2)
    t = dd.new_node(3)
    dd.add_arc(0, r, a0, 0.0, 0.0)
    dd.add_arc(0, r, a1, 1.0, 1.0)
    dd.add_arc(1, a0, b0, 1.0, 1.0)
    dd.add_arc(1, a1, b1, 0.0, 0.0)
    dd.add_arc(1, a1, b1, 1.0, 1.0)
    dd.add_arc(2, b0, t, Interval(-big_m, big_m), 1.0)
    dd.add_arc(2, b1, t, Interval(-big_m, big_m), 1.0)
    return dd


def test_refine_feasibility_cut_removes_violating_path():
    dd = example_master_dd()
    cut = CutRow(coeffs={0: 2.0 / 3.0, 1: 1.0}, z_coeff=0.0, rhs=1.0, sense="<=")
    ref = refine_with_cut(dd, [cut])
    xs = sorted({s[:2] for s in enumerate_solutions(ref)})
    assert xs == [(0.0, 1.0), (1.0, 0.0)]


def test_refine_optimality_cut_tightens_endpoints():
    dd = example_master_dd()
    feas = CutRow(coeffs={0: 2.0 / 3.0, 1: 1.0}, z_coeff=0.0, rhs=1.0, sense="<=")
    opt = CutRow(coeffs={0: -2.0 / 3.0}, z_coeff=1.0, rhs=2.0, sense="<=")
    ref = refine_with_cut(refine_with_cut(dd, [feas]), [opt])
    tops = {}
    for s in enumerate_solutions(ref):
        tops[s[:2]] = max(tops.get(s[:2], -1e18), s[2])
    assert tops[(1.0, 0.0)] == pytest.approx(8.0 / 3.0)
    assert tops[(0.0, 1.0)] == pytest.approx(2.0)
    _, value = optimal_path(ref, "max")
    assert value == pytest.approx(11.0 / 3.0)


def test_refine_vacuous_cut_is_identity():
    dd = example_master_dd()
    cut = CutRow(coeffs={0: 0.0, 1: 0.0}, z_coeff=0.0, rhs=1.0, sense="<=")
    ref = refine_with_cut(dd, [cut])
    assert sorted(enumerate_solutions(ref)) == sorted(enumerate_solutions(dd))


def test_refine_infeasible_raises():
    dd = from_paths([(1.0, 1.0)])
    cut = CutRow(coeffs={0: 1.0, 1: 1.0}, z_coeff=0.0, rhs=1.0, sense="<=")
    with pytest.raises(InfeasibleDiagramError):
        refine_with_cut(dd, [cut])


def satisfies(cut, sol, z_index=None):
    lhs = 0.0
    for j, c in cut.coeffs.items():
        lhs += c * sol[j]
    if cut.z_coeff and z_index is not None:
        lhs += cut.z_coeff * sol[z_index]
    return cut.satisfied(lhs)


def random_cut(rng, num_layers, with_z):
    coeffs = {j: rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0]) for j in range(num_layers - (1 if with_z else 0))}
    sense = rng.choice(["<=", ">="])
    if with_z and rng.random() < 0.5:
        return CutRow(coeffs=coeffs, z_coeff=rng.choice([1.0, -1.0]),
                      rhs=rng.uniform(-3, 3), sense=sense)
    return CutRow(coeffs=coeffs, z_coeff=0.0, rhs=rng.uniform(-1, 4), sense=sense)


def random_mixed_dd(rng):
    paths = []
    for _ in range(rng.randint(2, 12)):
        p = [float(rng.randint(0, 1)) for _ in range(3)]
        p.append((round(rng.uniform(-3, 0), 2), round(rng.uniform(0, 3), 2)))
        paths.append(tuple(p))
    return from_paths(paths)


def test_exact_refinement_soundness_by_enumeration():
    rng = random.Random(3)
    for trial in range(60):
        dd = random_mixed_dd(rng)
        cut = random_cut(rng, 4, with_z=True)
        expected = sorted(s for s in enumerate_solutions(dd) if satisfies(cut, s, 3))
        try:
            got = sorted(enumerate_solutions(refine_with_cut(dd, [cut])))
        except InfeasibleDiagramError:
            got = []
        if cut.z_coeff == 0.0:
            assert got == expected, f"trial {trial}"
        else:
            # interval endpoints move: compare x-parts and endpoint validity
            assert sorted({s[:3] for s in got}) == sorted({s[:3] for s in expected}), f"trial {trial}"
            for s in got:
                assert satisfies(cut, s, 3) or abs(cut.z_coeff) * 1e-7 >= 0
                assert satisfies(cut, s, 3), f"trial {trial}: {s}"


def test_settled_cut_never_shares_a_key_with_lhs_zero():
    # x0 = 1 settles the cut at node a (every completion satisfies it) while
    # x0 = 0 reaches a with the cut still open at lhs exactly 0; one node for
    # both would let x1 = 0 be cut off behind x0 = 1 as well
    dd = DecisionDiagram(3, continuous_last=True)
    r, a, b, t = (dd.new_node(i) for i in range(4))
    dd.add_arc(0, r, a, 0.0)
    dd.add_arc(0, r, a, 1.0)
    dd.add_arc(1, a, b, 0.0)
    dd.add_arc(1, a, b, 1.0)
    dd.add_arc(2, b, t, Interval(-10.0, 10.0), 1.0)
    cut = CutRow(coeffs={0: -0.7, 1: -1.0}, z_coeff=0.0, rhs=-0.6, sense="<=")
    xs = sorted({s[:2] for s in enumerate_solutions(refine_with_cut(dd, [cut]))})
    assert xs == [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def boundary_cut(rng, dd):
    """Feasibility cut that one path of dd meets right at rhs +- CUT_TOL.

    rhs is stepped float by float until rhs +- CUT_TOL lands on the path's
    lhs; half the time it then takes one more step, so the path misses.
    """
    num_discrete = dd.num_arc_layers - 1
    path = rng.choice(enumerate_solutions(dd))
    coeffs = {j: rng.choice([-2.0, -1.0, 1.0, 2.0]) for j in range(num_discrete)}
    lhs = sum(c * path[j] for j, c in coeffs.items())
    sense = rng.choice(["<=", ">="])
    tol = CUT_TOL if sense == "<=" else -CUT_TOL
    rhs = lhs - tol
    while rhs + tol > lhs:
        rhs = math.nextafter(rhs, -math.inf)
    while rhs + tol < lhs:
        rhs = math.nextafter(rhs, math.inf)
    if rng.random() < 0.5:
        rhs = math.nextafter(rhs, -tol * math.inf)
    return CutRow(coeffs=coeffs, rhs=rhs, sense=sense)


def solutions_or_empty(refine):
    try:
        return sorted(enumerate_solutions(refine()))
    except InfeasibleDiagramError:
        return []


def refine_cut_by_cut(dd, cuts):
    for cut in cuts:
        dd = refine_with_cut(dd, [cut])
    return dd


def test_one_pass_refinement_equals_cut_by_cut():
    rng = random.Random(11)
    for trial in range(160):
        if trial % 2:
            dd = random_mixed_dd(rng)
        else:   # reconvergent paths and parallel arcs
            dd = append_value_layer(random_dd(rng, num_layers=3, max_nodes=3, parallel=2),
                                    rng.uniform(-3, 0), rng.uniform(0, 3))
        cuts = [random_cut(rng, dd.num_arc_layers, with_z=True)
                for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.5:
            cuts[rng.randrange(len(cuts))] = boundary_cut(rng, dd)
        before = (dd.node_count(), sorted(enumerate_solutions(dd)))
        one_pass = solutions_or_empty(lambda: refine_with_cut(dd, cuts))
        assert one_pass == solutions_or_empty(lambda: refine_cut_by_cut(dd, cuts)), \
            f"trial {trial}"
        if trial % 2 and one_pass:
            # dead nodes are dropped from the refined diagram, in place: none
            # are left, and the input diagram is untouched
            refined = refine_with_cut(dd, cuts)
            pruned = prune_dead_nodes(refined)
            assert refined.node_count() == pruned.node_count(), f"trial {trial}"
            assert sorted(enumerate_solutions(pruned)) == one_pass, f"trial {trial}"
            assert (dd.node_count(), sorted(enumerate_solutions(dd))) == before
        feas = [c for c in cuts if c.z_coeff == 0.0]
        truth = sorted(s for s in enumerate_solutions(dd)
                       if all(satisfies(c, s) for c in feas))
        assert solutions_or_empty(lambda: refine_with_cut(dd, feas)) == truth, \
            f"trial {trial}"


# -- merge_nodes -------------------------------------------------------------------


def ucp_state_merge(states):
    up = max(s[0] for s in states)
    down = max(s[1] for s in states)
    eq = min(s[2] for s in states)
    return (up, down, eq)


def test_merge_state_combiner():
    assert ucp_state_merge([(3, 1, 1), (2, 1, 1)]) == (3, 1, 1)
    assert ucp_state_merge([(3, 1, 1), (2, 2, 2)]) == (3, 2, 1)


def test_merge_whole_layer_keeps_paths():
    dd = from_paths([(0.0, 1.0), (1.0, 0.0)])
    layer = 1
    merged = merge_nodes(dd, layer, list(dd.layers[layer]))
    assert merged.width == 1 or len(merged.layers[layer]) == 1
    sols = set(enumerate_solutions(merged))
    assert {(0.0, 1.0), (1.0, 0.0)} <= sols


def test_merge_superset_property_random():
    rng = random.Random(13)
    for _ in range(20):
        dd = random_dd(rng, num_layers=3, max_nodes=4, labels=(0.0, 1.0))
        layer = rng.randint(1, 2)
        nodes = dd.layers[layer]
        if len(nodes) < 2:
            continue
        merged = merge_nodes(dd, layer, nodes[:2])
        assert set(enumerate_solutions(dd)) <= set(enumerate_solutions(merged))


# -- export ------------------------------------------------------------------------


def test_to_dot_deterministic_and_counts_nodes():
    dd = example_master_dd()
    text1 = to_dot(dd)
    text2 = to_dot(dd)
    assert text1 == text2
    assert text1.count("->") == len([a for arcs in dd.arcs for a in arcs])


def test_to_dot_empty():
    dd = DecisionDiagram(0)
    dd.new_node(0)
    text = to_dot(dd)
    assert '"r"' in text or "r [" in text
    assert "->" not in text


def test_json_round_trip():
    dd = example_master_dd()
    dd.states[dd.root] = (math.inf, math.inf)
    text = dd_to_json(dd)
    back = dd_from_json(text)
    assert dd_to_json(back) == text
    assert sorted(enumerate_solutions(back)) == sorted(enumerate_solutions(dd))


def test_append_value_layer():
    dd = from_paths([(0.0, 0.0), (1.0, 0.0)])
    aug = append_value_layer(dd, -4.0, 4.0)
    assert aug.layer_kinds[-1] == "continuous"
    sols = sorted(enumerate_solutions(aug))
    assert ((0.0, 0.0, -4.0) in sols) and ((1.0, 0.0, 4.0) in sols)
    aug.validate()


def test_golden_fixture_round_trips_byte_identical():
    import pathlib

    golden = (pathlib.Path(__file__).parent / "fixtures" /
              "golden_two_period_master.json").read_text()
    assert dd_to_json(dd_from_json(golden)) == golden


def test_reduce_handles_interval_arcs_in_bundles():
    dd = DecisionDiagram(1, continuous_last=True)
    r = dd.new_node(0)
    t = dd.new_node(1)
    dd.add_arc(0, r, t, Interval(-1.0, 1.0), 1.0)
    dd.add_arc(0, r, t, Interval(-3.0, 0.5), 1.0)
    dd.add_arc(0, r, t, Interval(-0.5, 2.0), 1.0)
    red = reduce_interval_arcs(dd, {0})
    spans = sorted((a.label.lo, a.label.hi) for a in red.arcs[0])
    assert spans == [(-3.0, 0.5), (-0.5, 2.0)]  # min-lo and max-hi arcs survive


def test_from_boxes_point_boxes():
    from ddbd.diagram import from_boxes

    dd = from_boxes([((1.0, 2.0), (1.0, 2.0)), ((0.0, 0.0), (0.0, 0.0))])
    assert sorted(enumerate_solutions(dd)) == [(0.0, 0.0), (1.0, 2.0)]
    assert dd.width == 2
