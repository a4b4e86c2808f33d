"""Instance lists, set-up and the timed call of each benchmark workload.

Every ddbd entry point is looked up on its module at call time
(``ucp.compute_gamma``, ``ucp.UcpMasterOracle``, ...), so the tracer in
``layers.py`` can rebind those attributes and see the benchmark's own
calls as well as the ones ``ucp_solve`` makes internally.
"""

from __future__ import annotations

import dataclasses
import signal
from contextlib import contextmanager
from dataclasses import dataclass

from ddbd import engine, ucp

# One deadline for every instance: 2.5x the slowest instance that finishes
# (5x8x4 seed 2, about 6 s on a 2-core x86 VM).
DEADLINE_S = 15.0


@dataclass(frozen=True)
class Spec:
    """One generated instance: units x periods x scenarios, seed, demand factor."""
    units: int
    periods: int
    scenarios: int
    seed: int
    demand_scale: float = 1.0

    @property
    def id(self):
        return (f"{self.units}x{self.periods}x{self.scenarios}"
                f"-s{self.seed}-d{self.demand_scale:g}")


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple
    gamma_in_setup: bool   # compute_gamma is set-up; the timed call is dd_bd_solve


def _specs(sizes, seeds, scale):
    return tuple(Spec(n, t, s, seed, scale) for n, t, s in sizes for seed in seeds)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("ladder", _specs([(3, 6, 3), (4, 8, 3), (5, 8, 4)], range(4), 1.0), False),
        Workload("cut_heavy", _specs([(3, 6, 3), (4, 6, 3)], range(6), 0.8), True),
        Workload("many_scenarios", _specs([(3, 6, 16)], range(6), 0.9), True),
    )
}


def make_instance(spec):
    """Generate the instance and scale every scenario's demand and reserve."""
    inst = ucp.gen_random_instance(spec.units, spec.periods, spec.scenarios, spec.seed)
    if spec.demand_scale != 1.0:
        f = spec.demand_scale
        inst.scenarios = [
            dataclasses.replace(sc, demand=tuple(d * f for d in sc.demand),
                                reserve=tuple(r * f for r in sc.reserve))
            for sc in inst.scenarios]
    return inst.validate()


@dataclass
class Prepared:
    spec: Spec
    instance: object = None
    gamma: object = None
    error: str = None       # set-up exception, e.g. NumericalFailureError


def prepare(workload, spec):
    """Set-up of one instance; an exception is recorded, never dropped."""
    prep = Prepared(spec)
    try:
        prep.instance = make_instance(spec)
        if workload.gamma_in_setup:
            prep.gamma = ucp.compute_gamma(prep.instance)
    except Exception as exc:  # every set-up failure is a counted outcome
        prep.error = type(exc).__name__
    return prep


def solve(workload, prep):
    """The timed call. Returns a SolveReport or raises."""
    if not workload.gamma_in_setup:
        return ucp.ucp_solve(prep.instance)
    return engine.dd_bd_solve(ucp.UcpMasterOracle(prep.instance, prep.gamma),
                              ucp.UcpSubproblemOracle(prep.instance))


class DeadlineExceeded(BaseException):
    """Raised inside the solve by SIGALRM; a BaseException so that no
    handler in the library can swallow it."""


@contextmanager
def deadline(seconds):
    """Interrupt the body after `seconds` of wall time (main thread only)."""
    def on_alarm(signum, frame):
        raise DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
