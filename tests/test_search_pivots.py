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
"""

import pytest

from ddbd import ucp
from reference_lp import scaled_instance
from test_search_golden import GOLDEN

PIVOTS = {   # spec -> (cold, warm) dispatch pivots
    (3, 4, 2, 0, 1.0): (41, 0),
    (3, 4, 2, 1, 1.0): (40, 1),
    (3, 4, 2, 2, 1.0): (39, 0),
    (2, 4, 2, 0, 0.4): (8, 0),
    (3, 3, 1, 0, 0.4): (18, 31),
    (2, 4, 2, 5, 0.5): (20, 19),
    (3, 5, 2, 1, 0.8): (45, 47),
    (3, 6, 3, 1, 0.8): (54, 66),
    (4, 6, 3, 1, 0.8): (71, 87),
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
