"""Golden dispatch pivots: a change to the LP kernel's arithmetic must not
change the pivot sequence.

Each golden search row (test_search_golden.GOLDEN) is solved with a
wrapper on the dual dispatch LPs that sums LpOutcome.pivots, split into
cold LPs (no kept tableau to start from) and warm ones (continuing from
the previous outcome's tableau).  The totals were recorded from the dense
kernel, whose pivots updated every tableau row and priced every reduced
cost afresh, and were unchanged when the kernel began to update only the
rows a pivot touches and to carry reduced costs between pivots.  A
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
"""

import pytest

from ddbd import ucp
from reference_lp import scaled_instance
from test_search_golden import GOLDEN

PIVOTS = {   # spec -> (cold, warm) dispatch pivots
    (3, 4, 2, 0, 1.0): (41, 0),
    (3, 4, 2, 1, 1.0): (0, 0),
    (3, 4, 2, 2, 1.0): (39, 0),
    (2, 4, 2, 0, 0.4): (16, 0),
    (3, 3, 1, 0, 0.4): (25, 6),
    (2, 4, 2, 5, 0.5): (23, 15),
    (3, 5, 2, 1, 0.8): (49, 6),
    (3, 6, 3, 1, 0.8): (59, 7),
    (4, 6, 3, 1, 0.8): (76, 13),
    (3, 6, 16, 0, 0.9): (58, 13),
}


@pytest.mark.parametrize("spec", [g[0] for g in GOLDEN],
                         ids=["x".join(map(str, g[0][:3])) + f"-s{g[0][3]}-d{g[0][4]:g}"
                              for g in GOLDEN])
def test_dispatch_lps_repeat_the_recorded_pivots(spec, monkeypatch):
    totals = [0, 0]   # cold, warm
    real = ucp.solve

    def counting(lp):
        out = real(lp)
        totals[lp.start is not None and lp.start._tableau is not None] += out.pivots
        return out

    monkeypatch.setattr(ucp, "solve", counting)
    ucp.ucp_solve(scaled_instance(*spec))
    assert tuple(totals) == PIVOTS[spec]
