"""Desk-scale verification of box decompositions of compact sets.

A candidate decomposition carves a sampled compact set into pieces that
fix every coordinate outside a chosen free index set, each piece being
described by a finite union of axis-aligned boxes.  The checks here
certify, over the samples, the three conditions that make optimising a
function convex in the free coordinates equivalent over (a) the set,
(b) the piece extreme points, and (c) the box union.

This module is a test harness over finite samples plus a membership
predicate, not a prover: condition (iii) is checked on sampled points
only, hence the `_sampled` suffix in the report.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .simplex import LinearProgram, solve

HULL_TOL = 1e-7
EQ_TOL = 1e-9


class DimensionMismatchError(Exception):
    pass


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise DimensionMismatchError("box lo/hi dimension mismatch")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("box with lo > hi")

    @property
    def dim(self):
        return len(self.lo)

    def vertices(self):
        axes = [(l,) if l == h else (l, h) for l, h in zip(self.lo, self.hi)]
        return [tuple(v) for v in itertools.product(*axes)]


@dataclass
class PieceSet:
    boxes: list
    fixed_coords: dict = field(default_factory=dict)

    def vertices(self):
        seen = []
        for box in self.boxes:
            for v in box.vertices():
                if v not in seen:
                    seen.append(v)
        return seen


@dataclass
class SampleSet:
    points: list
    member: object  # predicate over tuples

    def __post_init__(self):
        self.points = [tuple(float(v) for v in p) for p in self.points]
        for p in self.points:
            if not self.member(p):
                raise ValueError(f"listed point {p} fails its own membership test")


@dataclass
class DecompositionReport:
    cond_i: bool
    cond_ii: bool
    cond_iii_sampled: bool
    notes: list = field(default_factory=list)

    def all_pass(self):
        return self.cond_i and self.cond_ii and self.cond_iii_sampled


def in_convex_hull(points, query, tol=HULL_TOL):
    """LP membership test: is `query` a convex combination of `points`?

    Solved as a least-L1-residual feasibility problem so near-misses are
    judged by the residual rather than by solver failure.
    """
    pts = np.asarray(points, dtype=float)
    q = np.asarray(query, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != q.size:
        raise DimensionMismatchError("hull points and query dimension mismatch")
    k, n = pts.shape
    # variables: lambda (k), e+ (n), e- (n)
    c = np.concatenate([np.zeros(k), np.ones(2 * n)])
    A = np.zeros((n + 1, k + 2 * n))
    A[:n, :k] = pts.T
    A[:n, k:k + n] = np.eye(n)
    A[:n, k + n:] = -np.eye(n)
    A[n, :k] = 1.0
    b = np.concatenate([q, [1.0]])
    lp = LinearProgram(sense="min", c=c, A=A, senses=["="] * (n + 1), b=b)
    out = solve(lp)
    if out.status != "optimal":
        return False
    scale = 1.0 + float(np.max(np.abs(q))) if q.size else 1.0
    return out.objective <= tol * scale


def _piece_samples(samples, piece, tol=HULL_TOL):
    picked = []
    for p in samples.points:
        if all(abs(p[i] - v) <= tol for i, v in piece.fixed_coords.items()):
            picked.append(p)
    return picked


def verify_decomposition(samples, free_indices, pieces):
    """Check decomposition conditions over the sampled set.

    cond_i: every piece fixes all coordinates outside the free set.
    cond_ii: box extreme points are members of the set, and every sample
    lies in some piece (membership in the convex hull of its boxes).
    cond_iii_sampled: per piece, sampled piece points sit inside the
    hull of the boxes and box vertices sit inside the hull of the
    sampled piece points.
    """
    if not pieces:
        raise ValueError("pieces must be nonempty")
    dim = pieces[0].boxes[0].dim
    for piece in pieces:
        for box in piece.boxes:
            if box.dim != dim:
                raise DimensionMismatchError("inconsistent box dimensions")
    for p in samples.points:
        if len(p) != dim:
            raise DimensionMismatchError("sample dimension mismatch")
    free = set(free_indices)
    notes = []

    cond_i = True
    for pi, piece in enumerate(pieces):
        for i in range(dim):
            if i in free:
                continue
            vals = {box.lo[i] for box in piece.boxes} | {box.hi[i] for box in piece.boxes}
            if len(vals) != 1:
                cond_i = False
                notes.append(f"piece {pi} does not fix coordinate {i}")
            elif i in piece.fixed_coords and \
                    abs(piece.fixed_coords[i] - next(iter(vals))) > HULL_TOL:
                cond_i = False
                notes.append(f"piece {pi} fixed value disagrees at coordinate {i}")

    cond_ii = True
    for pi, piece in enumerate(pieces):
        for v in piece.vertices():
            if not samples.member(v):
                cond_ii = False
                notes.append(f"piece {pi} box vertex {v} is outside the set")
    hulls = [np.asarray(piece.vertices(), dtype=float) for piece in pieces]
    for p in samples.points:
        if not any(in_convex_hull(h, p) for h in hulls):
            cond_ii = False
            notes.append(f"sample {p} lies in no piece")
            break

    cond_iii = True
    for pi, piece in enumerate(pieces):
        pts = _piece_samples(samples, piece)
        if not pts:
            cond_iii = False
            notes.append(f"piece {pi} has no sampled points")
            continue
        for p in pts:
            if not in_convex_hull(hulls[pi], p):
                cond_iii = False
                notes.append(f"piece {pi}: sample {p} escapes the box hull")
                break
        for v in piece.vertices():
            if not in_convex_hull(np.asarray(pts, dtype=float), v):
                cond_iii = False
                notes.append(f"piece {pi}: box vertex {v} escapes the sample hull")
                break

    return DecompositionReport(cond_i, cond_ii, cond_iii, notes)


def equivalence_check(samples, pieces, objectives, tol=EQ_TOL):
    """True iff each objective has equal maxima over the sampled set,
    the per-piece sampled points, and the box vertex set; False when a
    pool is empty, as when no sample lies in any piece."""
    vertex_pool = []
    piece_pool = []
    for piece in pieces:
        vertex_pool.extend(piece.vertices())
        piece_pool.extend(_piece_samples(samples, piece))
    if not samples.points or not vertex_pool or not piece_pool:
        return False
    for f in objectives:
        m_set = max(f(p) for p in samples.points)
        m_piece = max(f(p) for p in piece_pool)
        m_vertex = max(f(p) for p in vertex_pool)
        scale = 1.0 + max(abs(m_set), abs(m_vertex))
        if abs(m_set - m_piece) > tol * scale or abs(m_set - m_vertex) > tol * scale:
            return False
    return True


# -- JSON fixtures -------------------------------------------------------------------


def _poly_eval(terms, point):
    total = 0.0
    for coef, exps in terms:
        v = coef
        for x, e in zip(point, exps):
            if e:
                v *= x ** e
        total += v
    return total


def _poly_terms(terms, dim):
    """A fixture's [coef, exponents] pairs: one exponent per coordinate,
    each a JSON integer >= 0."""
    out = []
    for c, exps in terms:
        if len(exps) != dim:
            raise ValueError(f"bad fixture document: exponents {exps!r} "
                             f"must number {dim}, one per coordinate")
        if not all(type(e) is int and e >= 0 for e in exps):
            raise ValueError(f"bad fixture document: exponents {exps!r} "
                             "must be nonnegative integers")
        out.append((float(c), tuple(exps)))
    return out


def make_polynomial(terms, dim):
    terms = _poly_terms(terms, dim)
    return lambda p: _poly_eval(terms, p)


SENSES = ("<=", ">=", "=")


def _make_membership(spec, dim, tol=HULL_TOL):
    domains = spec.get("domains") or [None] * dim
    if len(domains) != dim or not all(
            dom is None or isinstance(dom, dict) and {"interval", "values"} & dom.keys()
            for dom in domains):
        raise ValueError(f"bad fixture document: membership needs {dim} domains, each null "
                         "or holding an interval or values")
    constraints = [(_poly_terms(t["terms"], dim), t["sense"], float(t["rhs"]))
                   for t in spec.get("constraints", [])]
    for _, sense, _ in constraints:
        if sense not in SENSES:
            raise ValueError(f"bad fixture document: constraint sense {sense!r} "
                             f"must be one of {', '.join(SENSES)}")

    def member(p):
        if len(p) != dim:
            return False
        for x, dom in zip(p, domains):
            if dom is None:
                continue
            if "interval" in dom:
                lo, hi = dom["interval"]
                if not (lo - tol <= x <= hi + tol):
                    return False
            elif "values" in dom:
                if min(abs(x - v) for v in dom["values"]) > tol:
                    return False
        for terms, sense, rhs in constraints:
            val = _poly_eval(terms, p)
            if sense == "<=" and val > rhs + tol:
                return False
            if sense == ">=" and val < rhs - tol:
                return False
            if sense == "=" and abs(val - rhs) > tol:
                return False
        return True

    return member


def load_fixture(text):
    """Parse a decomposition fixture; returns (samples, free, pieces, objectives)."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("bad fixture document: expected a JSON object")
    if doc.get("version") != 1:
        raise ValueError("unsupported fixture version")
    try:
        dim = int(doc["dimension"])
        member = _make_membership(doc.get("membership", {}), dim)
        samples = SampleSet(points=doc["samples"], member=member)
        free = [int(i) for i in doc["free_indices"]]
        pieces = []
        for pc in doc["pieces"]:
            boxes = [Box(lo=tuple(float(v) for v in bx["lo"]),
                         hi=tuple(float(v) for v in bx["hi"])) for bx in pc["boxes"]]
            fixed = {int(k): float(v) for k, v in pc.get("fixed", {}).items()}
            pieces.append(PieceSet(boxes=boxes, fixed_coords=fixed))
        objectives = [(obj.get("name", f"f{k}"), make_polynomial(obj["terms"], dim))
                      for k, obj in enumerate(doc.get("objectives", []))]
    except (KeyError, TypeError, AttributeError, DimensionMismatchError) as exc:
        raise ValueError(f"bad fixture document: {exc}") from exc
    if not samples.points or not pieces:
        raise ValueError("bad fixture document: samples and pieces must be nonempty")
    for k, piece in enumerate(pieces):
        if not piece.boxes or any(box.dim != dim for box in piece.boxes):
            raise ValueError(f"bad fixture document: piece {k} needs boxes of dimension {dim}")
        if not all(0 <= i < dim for i in piece.fixed_coords):
            raise ValueError(f"bad fixture document: piece {k} fixes an index outside 0..{dim - 1}")
    if not all(0 <= i < dim for i in free):
        raise ValueError(f"bad fixture document: free indices must lie in 0..{dim - 1}")
    return samples, free, pieces, objectives
