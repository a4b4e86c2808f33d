import pathlib
import random

import numpy as np
import pytest

from ddbd.rectangles import (
    Box,
    DimensionMismatchError,
    PieceSet,
    SampleSet,
    equivalence_check,
    in_convex_hull,
    load_fixture,
    verify_decomposition,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load(name):
    return load_fixture((FIXTURES / name).read_text())


def test_hull_membership_basics():
    square = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    assert in_convex_hull(square, (0.5, 0.5))
    assert in_convex_hull(square, (1.0, 1.0))
    assert not in_convex_hull(square, (1.2, 0.5))


def test_example_fixture_passes_all_conditions():
    samples, free, pieces, objectives = load("example_boxes.json")
    report = verify_decomposition(samples, free, pieces)
    assert report.cond_i, report.notes
    assert report.cond_ii, report.notes
    assert report.cond_iii_sampled, report.notes
    assert equivalence_check(samples, pieces, [f for _, f in objectives])


def test_extreme_point_fixture_fails_equivalence():
    samples, free, pieces, objectives = load("extreme_points_only.json")
    report = verify_decomposition(samples, free, pieces)
    assert not report.cond_i  # the lone piece does not fix x2
    fns = [f for _, f in objectives]
    assert not equivalence_check(samples, pieces, fns)
    # the failing objective really separates: 0 over the set, -1 over vertices
    f = fns[0]
    assert max(f(p) for p in samples.points) == pytest.approx(0.0)
    assert max(f(v) for pc in pieces for v in pc.vertices()) == pytest.approx(-1.0)


def test_zero_dimensional_decomposition_of_integer_sets():
    rng = random.Random(21)
    for _ in range(10):
        pts = sorted({(float(rng.randint(0, 2)), float(rng.randint(0, 2)))
                      for _ in range(rng.randint(2, 6))})
        samples = SampleSet(points=pts, member=lambda p, pts=pts: tuple(p) in pts)
        pieces = [PieceSet(boxes=[Box(lo=p, hi=p)], fixed_coords={0: p[0], 1: p[1]})
                  for p in pts]
        report = verify_decomposition(samples, [0, 1], pieces)
        assert report.all_pass(), report.notes
        fns = [lambda q, a=rng.uniform(-1, 1), b=rng.uniform(-1, 1): a * q[0] + b * q[1]
               for _ in range(5)]
        assert equivalence_check(samples, pieces, fns)


def random_convex_in_free(rng, free, dim, table_values):
    A = np.array([[rng.uniform(-1, 1) for _ in free] for _ in range(2)])
    b = np.array([rng.uniform(-1, 1) for _ in range(2)])
    lin = np.array([rng.uniform(-1, 1) for _ in free])
    table = {v: rng.uniform(-2, 2) for v in table_values}

    def f(p):
        xi = np.array([p[i] for i in free])
        fixed = tuple(round(p[i], 6) for i in range(dim) if i not in free)
        return float(np.sum((A @ xi - b) ** 2) + lin @ xi) + table.get(fixed, 0.0)

    return f


def test_passing_decomposition_equivalence_for_random_convex_family():
    samples, free, pieces, _ = load("example_boxes.json")
    report = verify_decomposition(samples, free, pieces)
    assert report.all_pass()
    rng = random.Random(33)
    fixed_values = {tuple(round(p[i], 6) for i in range(3) if i not in free)
                    for p in samples.points}
    fns = [random_convex_in_free(rng, free, 3, fixed_values) for _ in range(50)]
    assert equivalence_check(samples, pieces, fns, tol=1e-9)


def test_equivalence_fails_when_no_sample_lies_in_a_piece():
    samples, _, pieces, objectives = load("example_boxes.json")
    samples = SampleSet(points=[(0.0, 0.0, 0.0)], member=samples.member)
    assert not equivalence_check(samples, pieces[1:], [f for _, f in objectives])


def test_box_vertex_outside_set_fails_cond_ii():
    pts = [(0.0, 0.0), (1.0, 0.0)]
    samples = SampleSet(points=pts, member=lambda p: tuple(p) in pts)
    pieces = [PieceSet(boxes=[Box(lo=(0.0, 0.0), hi=(2.0, 0.0))],
                       fixed_coords={1: 0.0})]
    report = verify_decomposition(samples, [0], pieces)
    assert not report.cond_ii


def test_dimension_mismatch():
    pts = [(0.0, 0.0)]
    samples = SampleSet(points=pts, member=lambda p: True)
    pieces = [PieceSet(boxes=[Box(lo=(0.0,), hi=(1.0,))])]
    with pytest.raises(DimensionMismatchError):
        verify_decomposition(samples, [0], pieces)
