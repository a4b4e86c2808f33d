"""Exact refinement against the layer-by-layer reference.

ddbd.diagram._refine_exact keys every layer in one pass over arrays,
drops cut columns once they are settled everywhere and keeps each cut's
dense coefficients on the cut.  None of that may show: every refinement
here must return the diagram that tests/reference_refine.py builds one
node and one arc at a time, down to node rows, arc order, the bits of
labels and weights, states and merged tags (all of which dd_to_json
writes), or raise InfeasibleDiagramError exactly when the reference
does.  Every refined diagram must pass validate(), and the input must be
left as it was.  The inputs favour single-arc layers (as fixed prefixes
and forced unit moves give), cuts settled or dropped inside them, and
replays of optimality cuts that split no node.
"""

import json
import math
import random

import numpy as np

import reference_refine
from ddbd.diagram import (
    CUT_TOL,
    CutRow,
    DiagramBuilder,
    InfeasibleDiagramError,
    append_value_layer,
    dd_from_json,
    dd_to_json,
    enumerate_solutions,
    refine_with_cut,
)
from ddbd.ucp import (
    UcpSubproblemOracle,
    build_master_dd,
    build_relaxed_master_dd,
    compute_gamma,
)
from reference_lp import scaled_instance

LABELS = (0.0, 1.0, 2.0)
# not binary fractions, so that sums along a run round
COEFS = (-2.3, -1.1, -0.7, -0.1, 0.0, 0.1, 0.3, 0.7, 1.9)


def outcome(refine, dd, cuts):
    """dd_to_json of the refined diagram (repr writes floats bit for bit),
    or "infeasible"."""
    try:
        refined = refine(dd, cuts)
    except InfeasibleDiagramError:
        return "infeasible"
    refined.validate()
    return dd_to_json(refined)


def assert_same_refinement(dd, cuts, label):
    before = dd_to_json(dd)
    expected = outcome(reference_refine._refine_exact, dd, cuts)
    assert outcome(refine_with_cut, dd, cuts) == expected, label
    assert dd_to_json(dd) == before, label
    return expected


def discrete_layers(dd):
    return dd.layer_kinds.count("discrete")


def runs_dd(rng, num_discrete=8, lead=3, value_layer=True):
    """Random diagram whose first `lead` layers are a single-arc run from
    the root; later node layers of width 1 are often joined by one arc,
    which gives interior runs.  Some nodes carry states and merged tags,
    and a continuous value layer ends it when value_layer is set."""
    widths = [1] * (lead + 1) + [rng.choice([1, 1, 2, 3])
                                 for _ in range(num_discrete - lead - 1)] + [1]
    dd = DiagramBuilder(num_discrete)
    layers = [[dd.new_node(j, state=(j, i) if rng.random() < 0.5 else None,
                           merged=rng.random() < 0.2)
               for i in range(w)] for j, w in enumerate(widths)]
    for j in range(num_discrete):
        tails, heads = layers[j], layers[j + 1]
        if len(tails) == len(heads) == 1 and (j < lead or rng.random() < 0.6):
            dd.add_arc(j, tails[0], heads[0], rng.choice(LABELS), rng.uniform(-1, 1))
            continue
        reached = set()
        for u in tails:
            for _ in range(rng.randint(1, 2)):
                v = rng.choice(heads)
                reached.add(v)
                dd.add_arc(j, u, v, rng.choice(LABELS), rng.uniform(-1, 1))
        for v in heads:
            if v not in reached:
                dd.add_arc(j, rng.choice(tails), v, rng.choice(LABELS), rng.uniform(-1, 1))
    if not value_layer:
        return dd.build()
    return append_value_layer(dd.build(), rng.uniform(-5, 0), rng.uniform(0, 5),
                              rng.choice([1.0, -1.0]))


def random_cut(rng, num_discrete, value_layer=True):
    coeffs = {j: rng.choice(COEFS) for j in range(num_discrete)}
    sense = rng.choice(["<=", ">="])
    if value_layer and rng.random() < 0.3:
        return CutRow(coeffs=coeffs, z_coeff=rng.choice([1.0, -1.0]),
                      rhs=rng.uniform(-6, 6), sense=sense)
    return CutRow(coeffs=coeffs, rhs=rng.uniform(-4, 6), sense=sense)


def boundary_cut(rng, dd):
    """Feasibility cut that one path of dd meets right at rhs +- CUT_TOL
    (half the time it misses by one float)."""
    num_discrete = discrete_layers(dd)
    path = rng.choice(enumerate_solutions(dd))
    coeffs = {j: rng.choice(COEFS) for j in range(num_discrete)}
    lhs = 0.0
    for j in range(num_discrete):
        lhs += coeffs[j] * path[j]
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


def lead_run_events(dd, coeffs, sense, rhs_values):
    """Per rhs value: (kind, position) of the first settle or drop of the
    feasibility cut (coeffs, rhs, sense) along dd's leading run, as the
    layer-by-layer pass tests them.  Position -1 is the root; kind is
    "" where neither happens on the run."""
    num_discrete = discrete_layers(dd)
    row = {nid: nid for nid in range(dd.node_count())}
    cuts = [CutRow(coeffs=coeffs, rhs=float(r), sense=sense) for r in rhs_values]
    sign = np.array([1.0 if sense == "<=" else -1.0] * len(cuts))
    fcoef = np.repeat(reference_refine._coefficients(cuts[:1], num_discrete) * sign[0],
                      len(cuts), axis=1)
    drop, settle = reference_refine._completion_limits(dd, cuts, sign, fcoef, row)
    kinds = np.full(len(cuts), "", dtype=object)
    pos = np.full(len(cuts), -2)
    node, lhs = dd.root, 0.0
    for k in range(-1, num_discrete):
        if k >= 0:
            out = [a for a in reference_refine.layer_arcs(dd, k) if a.tail == node]
            if len(out) != 1:
                break
            lhs = lhs + out[0].label * fcoef[k, 0]
            node = out[0].head
        open_ = kinds == ""
        dropped = open_ & (lhs > drop[row[node]])
        settled = open_ & ~dropped & (lhs <= settle[row[node]])
        kinds[dropped], kinds[settled] = "drop", "settle"
        pos[dropped | settled] = k
    return kinds, pos


def mid_run_cut(rng, dd, kind, tries=5):
    """A feasibility cut that the layer-by-layer pass first settles (or
    drops) strictly inside dd's leading run, or None.

    Along a run the prefix lhs and the completion range move in step, so
    only rounding can move the event off the run's first layer.  rhs is
    narrowed, one grid of candidates at a time, to the float where the
    event starts to happen at or before that layer; the floats around
    that point are then tried one by one.
    """
    num_discrete = discrete_layers(dd)
    for _ in range(tries):
        coeffs = {j: rng.choice([c for c in COEFS if c]) for j in range(num_discrete)}
        sense = rng.choice(["<=", ">="])
        grid = np.linspace(-60.0, 60.0, 257)
        for _ in range(7):
            kinds, pos = lead_run_events(dd, coeffs, sense, grid)
            early = (kinds == kind) & (pos <= 0)
            flips = np.flatnonzero(early[1:] != early[:-1])
            if not flips.size:
                break
            a, b = grid[flips[0]], grid[flips[0] + 1]
            grid = np.linspace(a, b, 257)
        if not flips.size:
            continue
        rhs = [float(a)]
        for _ in range(128):
            rhs.insert(0, math.nextafter(rhs[0], -math.inf))
            rhs.append(math.nextafter(rhs[-1], math.inf))
        kinds, pos = lead_run_events(dd, coeffs, sense, rhs)
        hits = np.flatnonzero((kinds == kind) & (pos >= 1))
        if hits.size:
            return CutRow(coeffs=coeffs, rhs=rhs[hits[0]], sense=sense)
    return None


def test_runs_match_the_layer_by_layer_reference_on_random_diagrams():
    rng = random.Random(2024)
    mid = {"settle": 0, "drop": 0}
    results = {"infeasible": 0, "refined": 0}
    discrete_last = {"infeasible": 0, "refined": 0}   # no value layer
    for trial in range(160):
        value_layer = trial < 120
        dd = runs_dd(rng, num_discrete=rng.randint(5, 9), lead=rng.randint(1, 4),
                     value_layer=value_layer)
        num_discrete = discrete_layers(dd)
        cuts = [random_cut(rng, num_discrete, value_layer)
                for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.5:
            cuts.insert(rng.randrange(len(cuts) + 1), boundary_cut(rng, dd))
        for kind in ("settle", "drop"):
            cut = mid_run_cut(rng, dd, kind, tries=3)
            if cut is not None:
                mid[kind] += 1
                cuts.insert(rng.randrange(len(cuts) + 1), cut)
                assert_same_refinement(dd, [cut], f"trial {trial} {kind} alone")
        got = assert_same_refinement(dd, cuts, f"trial {trial}")
        kind = "infeasible" if got == "infeasible" else "refined"
        results[kind] += 1
        discrete_last[kind] += not value_layer
    # the inputs exercise what they are meant to
    assert mid["settle"] >= 10 and mid["drop"] >= 10, mid
    assert min(results.values()) >= 10, results
    assert min(discrete_last.values()) >= 5, discrete_last


def test_runs_match_the_reference_on_ucp_masters_with_prefixes():
    # a fixed prefix is a leading single-arc run; min-up and min-down
    # moves force interior ones
    inst = scaled_instance(2, 4, 2, 0, 0.4)
    gamma = compute_gamma(inst)
    oracle = UcpSubproblemOracle(inst)
    rng = random.Random(5)
    pool = []
    while sum(c.z_coeff == 0.0 for c in pool) < 6 or sum(c.z_coeff != 0.0 for c in pool) < 4:
        x = tuple(float(rng.random() < 0.7) for _ in range(inst.num_vars))
        pool.extend(oracle.evaluate(x).cuts)
    paths = enumerate_solutions(build_master_dd(inst, (), gamma))
    partials = sorted({tuple(p[:k]) for p in paths for k in (0, 1, 3, 5, 7)})
    mid_run = 0
    for partial in rng.sample(partials, 12):
        for build in (build_master_dd, build_relaxed_master_dd):
            dd = (build(inst, partial, gamma) if build is build_master_dd
                  else build(inst, partial, gamma, 2))
            cuts = rng.sample(pool, rng.randint(1, len(pool)))
            cuts.insert(rng.randrange(len(cuts) + 1), boundary_cut(rng, dd))
            assert_same_refinement(dd, cuts, f"{build.__name__} {partial}")
            for cut in pool:
                assert_same_refinement(dd, [cut], f"{build.__name__} {partial} one cut")
            for kind in ("settle", "drop"):
                cut = mid_run_cut(rng, dd, kind, tries=2) if len(partial) > 1 else None
                if cut is not None:
                    mid_run += 1
                    assert_same_refinement(dd, cuts + [cut], f"{partial} mid-run {kind}")
    assert mid_run >= 4


def test_dense_coefficients_kept_on_the_cut_are_invisible():
    rng = random.Random(1)
    dd = runs_dd(rng)
    cut = CutRow(coeffs={0: 0.5, 3: -1.0, 40: 2.0}, rhs=1.5, sense=">=")
    twin = CutRow(coeffs={0: 0.5, 3: -1.0, 40: 2.0}, rhs=1.5, sense=">=")
    before = (repr(cut), cut.key())
    try:
        refine_with_cut(dd, [cut])
    except InfeasibleDiagramError:
        pass
    assert cut._dense is not None
    assert (repr(cut), cut.key()) == before
    assert cut == twin and twin._dense is None
    # coefficients past the diagram's layers are ignored, as the dicts are
    assert cut.dense(4).tolist() == [0.5, 0.0, 0.0, -1.0]
    assert cut.dense(2).tolist() == [0.5, 0.0]


def out_of_order(dd):
    """Copies of dd, read back through dd_from_json, that break one rule
    of the keyed pass's order each: the value layer's arcs reversed, so
    they are no longer grouped by ascending tail row (when there are two
    tails), and the rows of the first node layer with two nodes reversed,
    its out-arcs re-sorted by tail, so the heads of the layer above are
    no longer numbered by first arrival (when there is such a layer)."""
    out = []
    if len(set(dd.tail[dd.value_first:].tolist())) > 1:
        doc = json.loads(dd_to_json(dd))
        doc["arcs"][-1].reverse()
        out.append(dd_from_json(json.dumps(doc)))
    wide = [i for i in range(dd.num_arc_layers) if len(dd.layer_rows(i)) > 1]
    if wide:
        doc = json.loads(dd_to_json(dd))
        layer = doc["layers"][wide[0]]
        layer.reverse()
        rank = {node["id"]: k for k, node in enumerate(layer)}
        doc["arcs"][wide[0]].sort(key=lambda a: rank[a["tail"]])
        out.append(dd_from_json(json.dumps(doc)))
    return out


def emptying_cut(dd):
    """An optimality cut, z <= t or z >= t, that empties some value arcs of
    dd but not all and splits no node; None when dd's intervals have
    their lower ends, and their upper ends, too close together."""
    for ends, sense in ((dd.lo, "<="), (dd.hi, ">=")):
        if ends.max() - ends.min() > 1e-3:
            return CutRow(coeffs={}, z_coeff=1.0, rhs=float(ends.min() + ends.max()) / 2,
                          sense=sense)
    return None


def check_optimality_replays(dd, cuts, spread, label, seen):
    """Each optimality cut alone and all at once on dd; on dd refined by
    the optimality cut `spread`, a cut that empties value arcs and one
    that leaves every interval as it is; and the cuts on dd with its arcs
    out of order.  Counts go to `seen`."""
    for k, cut in enumerate(cuts):
        assert_same_refinement(dd, [cut], f"{label} cut {k}")
        seen["replays"] += 1
    assert_same_refinement(dd, cuts, f"{label} all")
    seen["replays"] += 1
    try:
        refined = refine_with_cut(dd, [spread])
    except InfeasibleDiagramError:
        return
    cut = emptying_cut(refined)
    if cut is not None:
        assert_same_refinement(refined, [cut], f"{label} emptying")
        seen["emptying"] += 1
    slack = CutRow(coeffs={}, z_coeff=-1.0, rhs=-float(refined.hi.max()) - 1.0, sense=">=")
    assert_same_refinement(refined, [slack], f"{label} slack")
    seen["replays"] += 1
    for k, other in enumerate(out_of_order(dd)):
        assert_same_refinement(other, cuts, f"{label} out of order {k}")
        seen["out of order"] += 1


def test_optimality_replays_that_split_nothing_match_the_reference_on_ucp_masters():
    inst = scaled_instance(2, 4, 2, 0, 0.4)
    gamma = compute_gamma(inst)
    oracle = UcpSubproblemOracle(inst)
    rng = random.Random(17)
    pool = []
    while len(pool) < 6:
        x = tuple(float(rng.random() < 0.7) for _ in range(inst.num_vars))
        res = oracle.evaluate(x)
        if res.kind == "optimal":
            pool.extend(res.cuts)
    seen = {"replays": 0, "emptying": 0, "out of order": 0}
    paths = enumerate_solutions(build_master_dd(inst, (), gamma))
    partials = sorted({tuple(p[:k]) for p in paths for k in (0, 2, 5)})
    for partial in rng.sample(partials, 6):
        for build in (build_master_dd, build_relaxed_master_dd):
            dd = (build(inst, partial, gamma) if build is build_master_dd
                  else build(inst, partial, gamma, 2))
            cuts = rng.sample(pool, 3)
            check_optimality_replays(dd, cuts, cuts[0], f"{build.__name__} {partial}", seen)
    assert seen == {"replays": 60, "emptying": 8, "out of order": 24}


def test_optimality_replays_that_split_nothing_match_the_reference_on_random_diagrams():
    # coefficients on the leading run, which every path shares, or too
    # small to change a rounded key, split nothing; the small ones give
    # the prefixes into one node different lhs values, so the value
    # intervals show which prefix's values the node carries
    rng = random.Random(23)
    seen = {"replays": 0, "emptying": 0, "out of order": 0}
    for trial in range(40):
        lead = rng.randint(1, 3)
        dd = runs_dd(rng, num_discrete=rng.randint(5, 8), lead=lead)
        # a feasibility cut settled at the root renumbers dd in the pass's order
        dd = refine_with_cut(dd, [CutRow(coeffs={}, rhs=1.0, sense="<=")])
        num_discrete = discrete_layers(dd)
        cuts = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {j: rng.choice(COEFS) for j in range(lead)}
            coeffs.update({j: rng.choice([0.0, 1e-10, -2e-10, 3e-10])
                           for j in range(lead, num_discrete)})
            if rng.random() < 0.2:   # one that splits, now and then
                coeffs[num_discrete - 1] = rng.choice([0.7, -1.1])
            cuts.append(CutRow(coeffs=coeffs, z_coeff=rng.choice([1.0, -1.0, 0.5]),
                               rhs=rng.uniform(-3, 3), sense=rng.choice(["<=", ">="])))
        spread = CutRow(coeffs={num_discrete - 1: 1.0}, z_coeff=1.0, rhs=0.0, sense=">=")
        check_optimality_replays(dd, cuts, spread, f"trial {trial}", seen)
    assert seen == {"replays": 186, "emptying": 21, "out of order": 54}
