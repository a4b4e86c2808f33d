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

Branches, optimality cuts and LP calls were re-recorded when restricted
diagrams began to be cut from the pool-refined exact master, keeping the
nodes on the best paths, instead of being compiled to the cheapest
first-stage nodes and refined afterwards.  Incumbents then come at the
root or soon after, and a node whose restricted diagram drops nothing is
solved without branching.  Status, optimum and feasibility cuts stayed
as recorded.

Branches, optimality cuts and LP calls were re-recorded again when the
root pool began with the subproblem oracle's initial cuts, one capacity
cut per period.  The root's first diagrams then already exclude every
capacity-short commitment, so no separation round is spent finding those
cuts one at a time.  Its restricted diagram reaches the optimum sooner
and proves it exact more often, so fewer branches and fewer evaluations
follow.  Status, optimum and feasibility cuts stayed as recorded, since
every seeded cut is one the solve used to find anyway.

Branches, optimality cuts and LP calls were re-recorded once more when
the restricted side began to ask the master again after every batch of
fresh cuts, where it used to replay them into the diagram it was first
given.  The re-cut restricts the node's exact master under the grown
pool to width afresh, so it can take nodes the first restriction
dropped, and it is exact as soon as that diagram fits the width: every
row then solves at the root, with fewer evaluations.  Status and
feasibility cuts stayed as recorded.  The 4x6x3 s1 optimum moved in its
last bit only: the same commitment, whose value variable is now read
from cut left-hand sides accumulated over several replays instead of one.

Optimality cuts and LP calls of 2x4x2 s5 were re-recorded (7 -> 5 and
14 -> 10) when the unit-commitment restricted diagram became the refined
exact master itself, no longer cut to width.  That diagram is exact, so
a converged restricted loop closes its node.  The root's restricted loop
had already found the optimum, but its width-cut diagram was inexact, and
the relaxed side spent two more evaluations (two optimality cuts, four
LPs) before its bound pruned the root.  Every other row was exact at the
root already.  Status, optimum, branches and feasibility cuts stayed as
recorded.

Optimality cuts and LP calls of 3x3x1 s0, 3x5x2 s1, 3x6x3 s1 and 4x6x3 s1
were re-recorded (3 -> 2 and 3 -> 2, 6 -> 2 and 12 -> 4, 7 -> 2 and
21 -> 6, 8 -> 2 and 24 -> 6) when each dual dispatch LP began to finish
on its optimal face at the dual point best at the commitment midpoint,
giving Magnanti-Wong (Pareto-optimal) cuts.  Those dominate whichever
optimal vertex Bland's rule used to stop at, so fewer are needed.
Status, optimum, branches and feasibility cuts stayed as recorded.

Feasibility cuts were re-recorded (+1 on every row but 3x4x2 s1) when
the root pool began with a start-up cut as well, sum_i min(SU_i,
p_max_i) x_i0 >= d_0 for the largest period-0 demand: every unit is off
before the horizon, so no commitment reaches more than that at period 0.
On the nine rows where that cut is new to the pool the search is
otherwise unchanged, LP calls and pivots included.  3x4x2 s1 has a
scenario whose period-0 demand tops sum_i SU_i; its solve used to find
that cut by a dual LP ray (two LPs, one cold), and the seeded cut now
proves the root infeasible before any evaluation: LP calls 2 -> 0, the
same five feasibility cuts.  Status, optimum, branches and optimality
cuts stayed as recorded.
"""

import pytest

from ddbd.ucp import ucp_solve
from reference_lp import scaled_instance

GOLDEN = [
    ((3, 4, 2, 0, 1.0), "optimal", "46466.820068699584", 0, 5, 1, 2),
    ((3, 4, 2, 1, 1.0), "infeasible", None, 0, 5, 0, 0),
    ((3, 4, 2, 2, 1.0), "optimal", "40682.569488106696", 0, 5, 1, 2),
    ((2, 4, 2, 0, 0.4), "optimal", "6118.073389064835", 0, 5, 1, 2),
    ((3, 3, 1, 0, 0.4), "optimal", "8837.73171839126", 0, 4, 2, 2),
    ((2, 4, 2, 5, 0.5), "optimal", "21512.006588150718", 0, 5, 5, 10),
    ((3, 5, 2, 1, 0.8), "optimal", "51235.530283429776", 0, 6, 2, 4),
    ((3, 6, 3, 1, 0.8), "optimal", "61469.639437852486", 0, 7, 2, 6),
    ((4, 6, 3, 1, 0.8), "optimal", "95878.46538757958", 0, 7, 2, 6),
    ((3, 6, 16, 0, 0.9), "optimal", "55462.47814090696", 0, 7, 1, 16),
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
