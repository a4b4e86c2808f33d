"""Golden dispatch pivots: a change to the LP kernel's arithmetic must not
change the pivot sequence.

Each golden search row (test_search_golden.GOLDEN) is solved with a
wrapper on the dual dispatch LPs that sums LpOutcome.pivots, split into
cold LPs (no kept tableau to start from) and warm ones (continuing from
the previous LP's tableau).  An evaluation solves its scenarios' LPs in
one chained call with one pivot count per scenario; only the first can
be cold.  The totals were recorded from the dense kernel, whose pivots
updated every tableau row and priced every reduced cost afresh, and were
unchanged when the kernel began to update only the rows a pivot touches
and to carry reduced costs between pivots, and when each evaluation
began to solve its scenarios' LPs in one chained call.  A
change that alters the pivots on purpose records new totals and says why.

The warm total of 2x4x2 s5 was re-recorded (24 -> 19) when the root
stopped making the two relaxed-side evaluations that its inexact
restricted diagram used to need (see test_search_golden).

Six rows were re-recorded when each optimal dual dispatch LP began to
pivot on along its optimal face toward the dual point best at the
commitment midpoint (see test_search_golden): those tie pivots add to
the cold and warm totals, and the stronger cuts leave fewer warm LPs.
The four rows with no optimal face to move along kept their totals.

3x4x2 s1 was re-recorded (40, 1) -> (0, 0) when the root pool began with
the closed-form start-up cut (see test_search_golden): it proves that
row infeasible at the root, so no dispatch LP is solved.

Every cold total was re-recorded when each oracle's first dispatch LP
began at the merit-order basis (ucp._merit_order_basis) instead of the
slack basis: that start is feasible, so phase 1 is skipped, and close to
optimal, so phase 2 is short; 3x6x16 s0 went (58, 13) -> (8, 13), and
the ten rows' cold total 386 -> 67.  The warm totals of three rows moved
too (3x4x2 s2 0 -> 1, 2x4x2 s5 15 -> 13, 4x6x3 s1 13 -> 10), because
each warm chain continues from the first LP's final tableau, and that
LP can now end at another vertex of its optimal face.  Every row's status and
value are unchanged (test_search_golden).

Every cold total but 3x4x2 s1's was re-recorded again when the
merit-order basis began to hold the pivots Bland's rule made first from
it: one degenerate pivot per period bringing the reserve price in at 0,
and, for each cheaper unit on at period 0 whose start-up ramp is below
p_max, the ramp-up multiplier in place of the capacity multiplier.  Those
pivots are now part of the start, so they are no longer counted; 3x6x16
s0 went (8, 13) -> (0, 13), and the ten rows' cold total 67 -> 15.  The
start is the basis those pivots reached, so every LP ends where it did:
each warm total is unchanged, and so is GOLDEN.
"""

import pytest

from ddbd import ucp
from reference_lp import scaled_instance
from test_search_golden import GOLDEN

PIVOTS = {   # spec -> (cold, warm) dispatch pivots
    (3, 4, 2, 0, 1.0): (0, 0),
    (3, 4, 2, 1, 1.0): (0, 0),
    (3, 4, 2, 2, 1.0): (0, 1),
    (2, 4, 2, 0, 0.4): (8, 0),
    (3, 3, 1, 0, 0.4): (2, 6),
    (2, 4, 2, 5, 0.5): (1, 13),
    (3, 5, 2, 1, 0.8): (1, 6),
    (3, 6, 3, 1, 0.8): (1, 7),
    (4, 6, 3, 1, 0.8): (2, 10),
    (3, 6, 16, 0, 0.9): (0, 13),
}


@pytest.mark.parametrize("spec", [g[0] for g in GOLDEN],
                         ids=["x".join(map(str, g[0][:3])) + f"-s{g[0][3]}-d{g[0][4]:g}"
                              for g in GOLDEN])
def test_dispatch_lps_repeat_the_recorded_pivots(spec, monkeypatch):
    totals = [0, 0]   # cold, warm
    real = ucp.solve

    def counting(lp):
        # one chained call per evaluation, one pivot count per scenario:
        # the first is cold unless the call starts from a kept tableau
        out = real(lp)
        first, *rest = out.pivots.tolist()
        totals[lp.start is not None and lp.start._tableau is not None] += first
        totals[1] += sum(rest)
        return out

    monkeypatch.setattr(ucp, "solve", counting)
    ucp.ucp_solve(scaled_instance(*spec))
    assert tuple(totals) == PIVOTS[spec]
