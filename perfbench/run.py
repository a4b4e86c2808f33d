"""ddbd solve benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 10 --trace 0

Each run sets up the workload's fixed instance list (see workloads.py)
at least SETUP_REPS times, then solves every instance once per pass, one at a
time in this process, until --seconds have passed.  --seed sets the
order in which the instances run.  A failed instance (set-up exception,
solve exception, deadline, wrong answer) is charged the full deadline.
Times are in reference seconds (see speed.py).  Answers are checked
against reference.json after the timed passes.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics.  The last line of
stdout is one JSON object; lines before it start with "#" or are the
JSON run record.  The exit code is nonzero when an answer is wrong or
the run could not be made.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import metadata
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 2           # at least; a set-up under SETUP_MIN_S total repeats
SETUP_MIN_S = 1.0        # until it has run that long (at most SETUP_MAX_REPS times)
SETUP_MAX_REPS = 50

import stats  # noqa: E402  (the script's own directory is first on sys.path)

# Gated end-to-end metrics.  solve_p50_s and fail_share are printed as
# comment lines only: see perfbench/README.md.
END_TO_END = {"wall_s": "s", "setup_s": "s", "solved_share": "ratio", "peak_rss_mb": "MB"}


def _environment(args, deadline):
    head = None
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                head = fh.read().strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ddbd")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": head, "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "deadline_s": deadline,
    }


@dataclass
class Attempt:
    prep: object
    status: str
    raw_s: float = 0.0
    scale: float = 1.0          # raw seconds -> reference seconds (speed.py)
    report: object = None       # None unless the solve returned an answer

    @property
    def ok(self):
        return self.report is not None

    @property
    def ref_s(self):
        return self.raw_s * self.scale


def set_up(wl, specs, probe):
    """Prepare every instance; returns (preps, set-up time in reference seconds)."""
    from workloads import prepare

    preps, total = [], 0.0
    for spec in specs:
        with probe.interval() as timing:
            preps.append(prepare(wl, spec))
        total += timing.raw_s * timing.scale
    return preps, total


def warm_up():
    """One small untimed solve, so that no timed instance pays first-call costs."""
    from ddbd import ucp
    ucp.ucp_solve(ucp.gen_random_instance(2, 3, 2, 0))


def run_pass(wl, preps, probe, tracer=None):
    """Solve every prepared instance once, each under the deadline."""
    from workloads import DEADLINE_S, DeadlineExceeded, deadline, solve

    out = []
    for prep in preps:
        if prep.error:
            out.append(Attempt(prep, f"setup_error:{prep.error}"))
            continue
        if tracer:
            tracer.reset_open()
        report = None
        gc.collect()            # garbage of the previous solve is not this one's cost
        with probe.interval() as timing:
            try:
                with deadline(DEADLINE_S):
                    report = solve(wl, prep)
                status = report.status
            except DeadlineExceeded:
                status = "timeout"
            except Exception as exc:  # a failing solve is a counted outcome
                status = f"error:{type(exc).__name__}"
        out.append(Attempt(prep, status, timing.raw_s, timing.scale, report))
    return out


def _pass_wall(attempts, deadline):
    return sum(stats.charged_seconds(a.ok, a.ref_s, deadline) for a in attempts)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ddbd", "__init__.py")):
        print(f"error: no ddbd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ddbd
    if os.path.dirname(os.path.abspath(ddbd.__file__)) != os.path.join(SRC, "ddbd"):
        print(f"error: imported ddbd from {ddbd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import reference
    from speed import SpeedProbe
    from workloads import DEADLINE_S, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    order = list(wl.specs)
    random.Random(args.seed).shuffle(order)
    probe = SpeedProbe()

    tracer = None
    if args.trace:
        from layers import PER_LAYER, Tracer, layer_metrics, traced
        tracer = Tracer()

    def maybe_traced(on):
        return traced(tracer) if on else nullcontext()

    setup_times = []
    t_setup = perf_counter()
    while len(setup_times) < SETUP_REPS or (
            perf_counter() - t_setup < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS):
        with maybe_traced(tracer is not None):
            preps, seconds = set_up(wl, order, probe)
        setup_times.append(seconds)
        setup_spans = tracer.take() if tracer else []

    warm_up()
    passes = []                                   # (traced, attempts, spans)
    t_start = perf_counter()
    while True:
        on = tracer is not None and len(passes) % 2 == 1
        with maybe_traced(on):
            attempts = run_pass(wl, preps, probe, tracer if on else None)
        passes.append((on, attempts, tracer.take() if on else []))
        if perf_counter() - t_start >= args.seconds and (tracer is None or len(passes) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- correctness gate (untimed) --------------------------------------------------
    refs = reference.load()
    verdicts = {}
    correct = True
    for _, attempts, _ in passes:
        for a in attempts:
            if not a.ok:
                continue
            sid, rep = a.prep.spec.id, a.report
            key = (sid, rep.status, rep.x, rep.value)
            if key not in verdicts:
                try:
                    verdicts[key] = reference.check(a.prep.instance, rep, refs.get(sid))
                except reference.StaleReferenceError as exc:
                    print(f"error: {sid}: {exc}", file=sys.stderr)
                    return 1
            if verdicts[key]:
                correct = False
                a.status, a.report = f"wrong:{verdicts[key]}", None

    records = {spec.id: [] for spec in order}
    timed = {spec.id: [] for spec in order}
    raw = {spec.id: [] for spec in order}
    for on, attempts, _ in passes:
        for a in attempts:
            records[a.prep.spec.id].append([a.status, round(a.raw_s, 6), round(a.scale, 4)])
            if not on:
                timed[a.prep.spec.id].append((a.ok, a.ref_s))
                raw[a.prep.spec.id].append((a.ok, a.raw_s))
    for sid, statuses in records.items():
        print(f"# {sid:18s} {' '.join(sorted({r[0] for r in statuses}))}")
    summary = stats.summarise(timed, DEADLINE_S)
    env = _environment(args, DEADLINE_S)
    env.update(passes=len(passes), setup_runs=len(setup_times), instances=records,
               raw_wall_s=stats.summarise(raw, DEADLINE_S)["wall_s"],
               speed_scale_p50=stats.median([a.scale for _, att, _ in passes
                                             for a in att if a.raw_s]))
    print(json.dumps(env, sort_keys=True))

    if tracer is None:
        values = {
            "wall_s": summary["wall_s"], "setup_s": stats.median(setup_times),
            "solved_share": 1.0 - summary["fail_share"], "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        print(f"# {wl.name}: {len(passes)} passes over {summary['instances']} instances, "
              f"deadline {DEADLINE_S:g} s; times in reference seconds (speed.py), "
              f"raw wall_s {env['raw_wall_s']:.3f} s")
        print(f"# solve_p50_s {summary['solve_p50_s']:.6g} s (median of "
              f"{summary['instances']} per-instance medians)")
        print(f"# fail_share {summary['fail_share']:.4f} ratio "
              f"({summary['failed']}/{summary['attempted']})")
    else:
        traced_runs = [(att, sp) for on, att, sp in passes if on]
        per_pass = []
        for attempts, spans in traced_runs:
            m = layer_metrics([setup_spans, spans], [a.report for a in attempts if a.ok])
            ran = sum(a.raw_s for a in attempts)
            m["trace.coverage"] = sum(s.duration for s in spans if s.parent is None) / ran
            per_pass.append(m)
        values = {k: stats.median([m[k] for m in per_pass]) for k in per_pass[0]}
        walls = {flag: stats.median([_pass_wall(att, DEADLINE_S) for on, att, _ in passes
                                     if on == flag]) for flag in (True, False)}
        values["trace.overhead_s"] = walls[True] - walls[False]
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        values = {k: values[k] for k in PER_LAYER}
        attempts, spans = traced_runs[-1]
        ran = sum(a.raw_s for a in attempts)
        ranked = sorted(stats.self_time_by_name(spans).items(), key=lambda kv: -kv[1])
        print("# self time in the last traced pass, share of its solve time: " +
              ", ".join(f"{k} {v:.3f} s ({v / ran:.1%})" for k, v in ranked))
        print(f"# tracing overhead: traced wall_s {walls[True]:.3f} s - untraced "
              f"wall_s {walls[False]:.3f} s = {values['trace.overhead_s']:.3f} s")
        cov = values["trace.coverage"]
        print(f"# trace coverage {cov:.3f} of traced solve time "
              f"({'ok' if cov >= 0.9 else 'LOW: layer spans miss solve time'})")
    for k, v in values.items():
        print(f"# {k} {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": correct, "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
