import dataclasses
import hashlib
import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from ddbd.diagram import (
    CUT_TOL,
    CutRow,
    DiagramBuilder,
    EmptyDiagramError,
    InfeasibleDiagramError,
    Interval,
    PathExplosionError,
    append_value_layer,
    dd_to_json,
    enumerate_solutions,
    from_paths,
    optimal_path,
    path_weight,
    reduce_interval_arcs,
    refine_with_cut,
)
from ddbd.diagram import _drop_dead_nodes
from ddbd.engine import replay_cuts


def prune_dead_nodes(dd):
    """dd without the nodes and arcs off every root-terminal path."""
    return _drop_dead_nodes(dd)


def linear_weights(coeffs):
    return lambda j, lab: coeffs[j] if isinstance(lab, Interval) else coeffs[j] * lab


def random_dd(rng, num_layers=4, max_nodes=8, labels=(0.0, 1.0, 2.0),
              parallel=1, weight_coeffs=None):
    """Random layered DD; every node keeps at least one outgoing arc."""
    dd = DiagramBuilder(num_layers)
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
    return prune_dead_nodes(dd.build())


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


def root_only():
    dd = DiagramBuilder(0)
    dd.new_node(0)
    return dd.build()


def test_optimal_path_empty_raises():
    with pytest.raises(EmptyDiagramError):
        optimal_path(root_only())


def test_optimal_path_lexicographic_tie_break():
    dd = from_paths([(0.0, 1.0), (1.0, 0.0)])  # both weigh zero
    assignment, _ = optimal_path(dd, "max")
    assert assignment == [0.0, 1.0]


# sha256 of the assignments optimal_path returned on tie_break_diagrams, both
# senses, recorded before diagrams were stored as flat arrays
PINNED_TIE_BREAKS = "91a16984d6d802e194fd7200b9c2aac251b0df94b3eb2d5a4ef2ce9e0664c03a"


def tie_break_diagrams():
    """240 seeded diagrams whose small integer weights make many optimal
    paths tie; every other one ends in a value layer with integer bounds
    and a slope of -1, 0 or 1 (0 ties the two endpoints)."""
    rng = random.Random(23)
    for trial in range(240):
        coeffs = [float(rng.choice([-1, 0, 1, 2])) for _ in range(4)]
        dd = random_dd(rng, max_nodes=rng.randint(1, 5), parallel=2, weight_coeffs=coeffs)
        if trial % 2:
            lo = float(rng.randint(-3, 0))
            dd = append_value_layer(dd, lo, lo + rng.randint(0, 3), float(rng.choice([-1, 0, 1])))
        yield dd


def test_optimal_path_tie_break_is_pinned():
    # path values were all the enumeration comparison saw; this pins which
    # of the tied optimal paths is returned.  Every sum here is exact, so
    # path_weight gives the value bit for bit.
    seen = []
    for dd in tie_break_diagrams():
        for sense in ("max", "min"):
            assignment, value = optimal_path(dd, sense)
            assert path_weight(dd, assignment, sense) == value
            seen.append(tuple(float(v).hex() for v in assignment))
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == PINNED_TIE_BREAKS


# -- enumerate_solutions -----------------------------------------------------------


def test_enumerate_empty_diagram():
    assert enumerate_solutions(root_only()) == []


def test_enumerate_round_trips_explicit_paths():
    paths = [(0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (1.0, 0.0, 2.0)]
    dd = from_paths(paths)
    assert sorted(enumerate_solutions(dd)) == sorted(paths)


def test_enumerate_expands_interval_endpoints():
    dd = from_paths([(0.0, (-2.0, 2.0)), (1.0, (1.0, 1.0))])
    sols = sorted(enumerate_solutions(dd))
    assert sols == [(0.0, -2.0), (0.0, 2.0), (1.0, 1.0)]


def test_from_paths_builds_every_binary_path_of_14_variables_in_under_a_second():
    paths = list(itertools.product((0.0, 1.0), repeat=14))
    t0 = time.perf_counter()
    dd = from_paths(paths)
    assert time.perf_counter() - t0 < 1.0
    assert len(dd.tail) == 2 ** 15 - 2   # a binary trie: 2 + 4 + ... + 2**14 arcs
    assert len(enumerate_solutions(dd)) == 2 ** 14


def test_from_paths_adds_no_second_arc_for_a_repeated_path():
    dd = from_paths([(0.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
    assert len(dd.tail) == 4
    assert sorted(enumerate_solutions(dd)) == [(0.0, 1.0), (1.0, 0.0)]
    dd = from_paths([(1.0, (2.0, 3.0)), (1.0, (2.0, 3.0)), (1.0, 2.5)])
    assert len(dd.tail) == 3
    assert sorted(enumerate_solutions(dd)) == [(1.0, 2.0), (1.0, 2.5), (1.0, 3.0)]


def test_enumerate_cap():
    paths = [(float(a), float(b)) for a in range(4) for b in range(4)]
    dd = from_paths(paths)
    with pytest.raises(PathExplosionError):
        enumerate_solutions(dd, cap=3)


# -- reduce_interval_arcs ----------------------------------------------------------


def test_reduce_keeps_min_and_max_parallel_labels():
    dd = DiagramBuilder(1)
    r = dd.new_node(0)
    t = dd.new_node(1)
    for lab in (0.0, 0.5, 1.0):
        dd.add_arc(0, r, t, lab, lab)
    red = reduce_interval_arcs(dd.build(), {0})
    labels = sorted(red.label.tolist())
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
    dd = DiagramBuilder(3, continuous_last=True)
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
    return dd.build()


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


def test_refine_keeps_an_interval_crossed_within_cut_tol_in_order():
    # z <= -5e-8 crosses [0, 10] by less than CUT_TOL: the arc stays, its
    # ends swapped so that lo <= hi
    dd = from_paths([(1.0, (0.0, 10.0))])
    ref = refine_with_cut(dd, [CutRow(coeffs={}, z_coeff=1.0, rhs=-5e-8, sense="<=")])
    ref.validate()
    assert (ref.lo.tolist(), ref.hi.tolist()) == ([-5e-8], [0.0])


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
            refined = refine_with_cut(dd, [cut])
        except InfeasibleDiagramError:
            got = []
        else:
            refined.validate()
            got = sorted(enumerate_solutions(refined))
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
    dd = DiagramBuilder(3, continuous_last=True)
    r, a, b, t = (dd.new_node(i) for i in range(4))
    dd.add_arc(0, r, a, 0.0)
    dd.add_arc(0, r, a, 1.0)
    dd.add_arc(1, a, b, 0.0)
    dd.add_arc(1, a, b, 1.0)
    dd.add_arc(2, b, t, Interval(-10.0, 10.0), 1.0)
    cut = CutRow(coeffs={0: -0.7, 1: -1.0}, z_coeff=0.0, rhs=-0.6, sense="<=")
    xs = sorted({s[:2] for s in enumerate_solutions(refine_with_cut(dd.build(), [cut]))})
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
    """The refined diagram's solutions, after it passes validate(), or []."""
    try:
        refined = refine()
    except InfeasibleDiagramError:
        return []
    refined.validate()
    return sorted(enumerate_solutions(refined))


def refine_cut_by_cut(dd, cuts):
    for cut in cuts:
        dd = refine_with_cut(dd, [cut])
        dd.validate()
    return dd


def test_one_pass_refinement_equals_cut_by_cut():
    rng = random.Random(11)
    seen = {"infeasible": 0, "refined": 0}   # of the diagrams without a value layer
    for trial in range(200):
        value_layer = trial < 160
        if not value_layer:   # the last discrete layer decides every cut
            dd = random_dd(rng, num_layers=4, max_nodes=3, parallel=2)
        elif trial % 2:
            dd = random_mixed_dd(rng)
        else:   # reconvergent paths and parallel arcs
            dd = append_value_layer(random_dd(rng, num_layers=3, max_nodes=3, parallel=2),
                                    rng.uniform(-3, 0), rng.uniform(0, 3))
        cuts = [random_cut(rng, dd.num_arc_layers, with_z=value_layer)
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
        if not value_layer:
            seen["refined" if truth else "infeasible"] += 1
    assert min(seen.values()) >= 5, seen


def test_dense_coefficients_kept_on_the_cut_are_invisible():
    # the label pass reads a cut's coefficients through dense, which keeps
    # the vector on the cut; that must change neither ==, key() nor repr
    cut = CutRow(coeffs={0: 0.5, 3: -1.0, 40: 2.0}, rhs=1.5, sense=">=")
    twin = CutRow(coeffs={0: 0.5, 3: -1.0, 40: 2.0}, rhs=1.5, sense=">=")
    before = (repr(cut), cut.key())
    dense = cut.dense(8)
    assert dense.tolist() == [0.5, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0]
    assert cut.dense(8) is dense and cut._dense is dense
    assert (repr(cut), cut.key()) == before
    assert cut == twin and twin._dense is None
    # coefficients past the diagram's layers are ignored, as the dicts are
    assert cut.dense(4).tolist() == [0.5, 0.0, 0.0, -1.0]
    assert cut.dense(2).tolist() == [0.5, 0.0]


def test_operations_leave_their_input_as_it_was():
    # a built diagram is shared by whoever holds it, so no operation may
    # write into it; its arrays are read-only, and its states list and
    # every array's bits must come out as they went in
    rng = random.Random(29)
    checked = 0
    for trial in range(40):
        dd = append_value_layer(random_dd(rng, parallel=2), -3.0, 3.0)
        before = dd_to_json(dd)
        cuts = [random_cut(rng, dd.num_arc_layers, with_z=True) for _ in range(3)]
        for op in (lambda: refine_with_cut(dd, cuts), lambda: replay_cuts(dd, cuts),
                   lambda: optimal_path(dd, "max"), lambda: optimal_path(dd, "min"),
                   lambda: enumerate_solutions(dd),
                   lambda: reduce_interval_arcs(dd, set(range(dd.num_arc_layers)))):
            try:
                op()
            except InfeasibleDiagramError:
                pass
            assert dd_to_json(dd) == before, f"trial {trial}"
            checked += 1
        assert not dd.tail.flags.writeable and not dd.lo.flags.writeable
    assert checked == 240


# -- export ------------------------------------------------------------------------


def test_json_round_trip():
    dd = example_master_dd()
    dd = dataclasses.replace(dd, states=[(math.inf, math.inf)] + dd.states[1:])
    doc = json.loads(dd_to_json(dd))
    assert [len(layer) for layer in doc["layers"]] == [1, 2, 2, 1]
    assert doc["layers"][0][0]["state"] == [math.inf, math.inf]
    arcs = [arc for layer in doc["arcs"] for arc in layer]
    assert [(a["tail"], a["head"], a["weight"]) for a in arcs] == \
        list(zip(dd.tail.tolist(), dd.head.tolist(), dd.weight.tolist()))
    assert [a["label"] for a in arcs[-2:]] == [{"lo": -10.0, "hi": 10.0}] * 2


def test_validate_rejects_broken_arrays():
    dd = example_master_dd()   # node layers of 1, 2, 2 and 1 rows; 2, 3 and 2 arcs
    dd.validate()
    dangling = DiagramBuilder(2)
    r, u, v, t = dangling.new_node(0), dangling.new_node(1), dangling.new_node(1), dangling.new_node(2)
    dangling.add_arc(0, r, u, 0.0)
    dangling.add_arc(0, r, v, 1.0)
    dangling.add_arc(1, u, t, 0.0)
    head = dd.head.copy()
    head[0] = 3   # layer 0 to layer 2
    broken = {
        "not monotone": dataclasses.replace(dd, node_first=np.array([0, 1, 5, 3, 6])),
        "not monotone over the arrays": dataclasses.replace(dd, arc_first=np.array([0, 2, 5, 6])),
        "one entry per node": dataclasses.replace(dd, merged=dd.merged[:-1]),
        "exactly one node": dataclasses.replace(dd, states=dd.states[:-1],
                                                merged=dd.merged[:-1],
                                                node_first=np.array([0, 1, 3, 5, 5])),
        "value-layer arc": dataclasses.replace(dd, lo=dd.lo[:1], hi=dd.hi[:1]),
        "lo > hi": dataclasses.replace(dd, lo=np.array([20.0, -10.0])),
        "adjacent layers": dataclasses.replace(dd, head=head),
        "dangling node 2 at layer 1": dangling.build(),
    }
    for message, diagram in broken.items():
        with pytest.raises(ValueError, match=message):
            diagram.validate()


def test_builder_rejects_a_label_of_the_wrong_kind_or_a_layer_out_of_range():
    dd = DiagramBuilder(2, continuous_last=True)
    r, u, t = dd.new_node(0), dd.new_node(1), dd.new_node(2)
    with pytest.raises(ValueError, match="Interval label on discrete layer 0"):
        dd.add_arc(0, r, u, Interval(0.0, 1.0))
    dd.add_arc(0, r, u, 1.0)
    dd.add_arc(1, u, t, 2.0)
    with pytest.raises(ValueError, match="float label on continuous layer 1"):
        dd.build()
    dd = DiagramBuilder(1)
    dd.new_node(0)
    dd.new_node(2)
    with pytest.raises(IndexError):
        dd.build()


def test_append_value_layer():
    dd = from_paths([(0.0, 0.0), (1.0, 0.0)])
    aug = append_value_layer(dd, -4.0, 4.0)
    assert aug.layer_kinds[-1] == "continuous"
    sols = sorted(enumerate_solutions(aug))
    assert ((0.0, 0.0, -4.0) in sols) and ((1.0, 0.0, 4.0) in sols)
    aug.validate()


def test_reduce_handles_interval_arcs_in_bundles():
    dd = DiagramBuilder(1, continuous_last=True)
    r = dd.new_node(0)
    t = dd.new_node(1)
    dd.add_arc(0, r, t, Interval(-1.0, 1.0), 1.0)
    dd.add_arc(0, r, t, Interval(-3.0, 0.5), 1.0)
    dd.add_arc(0, r, t, Interval(-0.5, 2.0), 1.0)
    red = reduce_interval_arcs(dd.build(), {0})
    spans = sorted(zip(red.lo.tolist(), red.hi.tolist()))
    assert spans == [(-3.0, 0.5), (-0.5, 2.0)]  # min-lo and max-hi arcs survive


def test_from_boxes_point_boxes():
    from ddbd.diagram import from_boxes

    dd = from_boxes([((1.0, 2.0), (1.0, 2.0)), ((0.0, 0.0), (0.0, 0.0))])
    assert sorted(enumerate_solutions(dd)) == [(0.0, 0.0), (1.0, 2.0)]
    assert dd.width == 2
