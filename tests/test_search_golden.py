"""Golden search counts: a change meant only to speed ddbd up must not
change the search.

Each row is (units, periods, scenarios, seed, demand factor) and the
ucp_solve report it gave when recorded: status, repr of the optimum,
branches, feasibility and optimality cuts, and LP calls.  Status,
optimum, branches and optimality cuts were taken from the solver as it
stood before run-collapsed cut replay, tableau reuse and the vectorised
cut pieces, and were unchanged by them.  The feasibility cut and LP call
counts were re-recorded when capacity-short scenarios began to take
closed-form rays: those skip the LP, and a batch keeps one cut per
distinct row, where every short scenario used to add its own.  A change
that alters the search on purpose records new rows and says why.
"""

import pytest

from ddbd.ucp import ucp_solve
from reference_lp import scaled_instance

GOLDEN = [
    ((3, 4, 2, 0, 1.0), "optimal", "46466.820068699584", 5, 4, 1, 2),
    ((3, 4, 2, 1, 1.0), "infeasible", None, 0, 5, 0, 2),
    ((3, 4, 2, 2, 1.0), "optimal", "40682.569488106696", 4, 4, 1, 2),
    ((2, 4, 2, 0, 0.4), "optimal", "6118.073389064835", 13, 4, 9, 18),
    ((3, 3, 1, 0, 0.4), "optimal", "8837.73171839126", 30, 3, 19, 20),
    ((2, 4, 2, 5, 0.5), "optimal", "21512.006588150718", 21, 4, 8, 16),
    ((3, 5, 2, 1, 0.8), "optimal", "51235.530283429776", 37, 5, 8, 16),
    ((3, 6, 3, 1, 0.8), "optimal", "61469.639437852486", 56, 6, 15, 45),
    ((4, 6, 3, 1, 0.8), "optimal", "95878.46538757956", 64, 6, 13, 39),
    ((3, 6, 16, 0, 0.9), "optimal", "55462.47814090696", 8, 6, 1, 16),
]


@pytest.mark.parametrize("spec,status,value,branches,f_cuts,o_cuts,lp_calls", GOLDEN,
                         ids=["x".join(map(str, g[0][:3])) + f"-s{g[0][3]}-d{g[0][4]:g}"
                              for g in GOLDEN])
def test_search_repeats_the_recorded_counts(spec, status, value, branches, f_cuts,
                                            o_cuts, lp_calls):
    report = ucp_solve(scaled_instance(*spec))
    got = (report.status, None if report.value is None else repr(float(report.value)),
           report.branches, report.feasibility_cuts, report.optimality_cuts,
           report.lp_calls)
    assert got == (status, value, branches, f_cuts, o_cuts, lp_calls)
