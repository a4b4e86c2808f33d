"""Decision-diagram decomposition solver for bounded MIPs, with a
stochastic unit-commitment application and verification tooling."""

from .diagram import (
    CutRow,
    DecisionDiagram,
    DiagramBuilder,
    EmptyDiagramError,
    InfeasibleDiagramError,
    Interval,
    PathExplosionError,
    dd_to_json,
    enumerate_solutions,
    from_boxes,
    from_paths,
    optimal_path,
    reduce_interval_arcs,
    refine_with_cut,
)
from .engine import (
    CutPool,
    EngineConfig,
    EngineError,
    SolveReport,
    SubproblemResult,
    cost_tuple_reward,
    dd_bd_solve,
)
from .simplex import (
    LinearProgram,
    LpOutcome,
    NumericalFailureError,
    solve,
    verify_certificate,
)
from .ucp import (
    Generator,
    Scenario,
    UcpInstance,
    build_master_dd,
    build_relaxed_master_dd,
    build_restricted_master_dd,
    build_subproblem,
    compute_gamma,
    gen_random_instance,
    ucp_solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
