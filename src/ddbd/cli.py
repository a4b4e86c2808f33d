"""Command-line surface: generate, solve, compare, verify.

Exit codes for `solve`: 0 optimal, 2 time limit hit, 3 infeasible,
1 for malformed inputs and for an unbounded MIP; an instance declares
its own sense.  `compare` exits 1 on malformed arguments or when any
method disagrees on an optimum, `verify-decomposition` when a condition
or an equivalence check fails.  Every command exits 1 on a usage error,
with the usage on stderr, and on an --out path it cannot write (or a
--emit-dot directory it cannot make), checked before any work is done.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from .engine import EngineConfig, SolveReport, dd_bd_solve
from .mip import MipMasterOracle, MipProblem, MipSubproblemOracle, UnboundedProblemError
from .oracle import TooLargeError, brute_force_solve, naive_bd_solve
from .rectangles import equivalence_check, load_fixture, verify_decomposition
from .ucp import InstanceError, UcpInstance, gen_random_instance, ucp_solve

log = logging.getLogger("ddbd")

COMPARE_HEADER = "instance,method,status,value,time,f_cuts,o_cuts,branches,agree"


def _setup_logging():
    level = os.environ.get("DDBD_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _parse_ints(text, fields):
    """The comma-separated integers of text, one per name in fields."""
    parts = text.split(",")
    if len(parts) != fields.count(",") + 1:
        raise ValueError(f"expected {fields}, got {text!r}")
    return tuple(int(p) for p in parts)


def _load_instance(path):
    """Returns ("ucp", UcpInstance) or ("mip", MipProblem)."""
    with open(path) as fh:
        text = fh.read()
    doc = json.loads(text)
    if "generators" in doc:
        return "ucp", UcpInstance.from_json(text)
    if "x_domains" in doc:
        return "mip", MipProblem.from_json(text)
    raise InstanceError("unrecognised instance schema")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: `solve` keeps 2 for a time limit."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _check_out(path):
    """Raise OSError unless a file can be written at path."""
    if path is None:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise OSError(f"cannot write --out {path}")


def cmd_solve(args):
    try:
        if args.instance:
            kind, problem = _load_instance(args.instance)
            instance_id = os.path.basename(args.instance)
        else:
            n, t, s, seed = _parse_ints(args.gen, "n,T,S,seed")
            kind, problem = "ucp", gen_random_instance(n, t, s, seed)
            instance_id = f"gen-{n}x{t}x{s}-seed{seed}"
        config = EngineConfig(time_limit=args.time_limit)
        _check_out(args.out)
        if kind == "mip":
            sub = MipSubproblemOracle(problem)
            master = MipMasterOracle(problem, dot_dir=args.emit_dot)
        elif args.emit_dot:
            # the unit-commitment master builds no diagram to draw
            raise ValueError("--emit-dot needs a MIP instance")
    except (OSError, ValueError, InstanceError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if kind == "ucp":
        report = ucp_solve(problem, config, instance_id=instance_id)
    else:
        try:
            report = dd_bd_solve(master, sub, config, instance_id=instance_id)
        except UnboundedProblemError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
        csv_path = os.path.splitext(args.out)[0] + ".csv"
        with open(csv_path, "w") as fh:
            fh.write(SolveReport.CSV_HEADER + "\n" + report.csv_row() + "\n")
        log.info("wrote %s and %s", args.out, csv_path)
    print(SolveReport.CSV_HEADER)
    print(report.csv_row())
    return {"optimal": 0, "time_limit": 2, "infeasible": 3}[report.status]


def cmd_gen(args):
    try:
        n, t, s, seed = _parse_ints(args.params, "n,T,S,seed")
        text = gen_random_instance(n, t, s, seed).to_json()
        _check_out(args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _agree(values):
    known = [v for v in values if v is not None]
    if len(known) <= 1:
        return True
    lo, hi = min(known), max(known)
    return hi - lo <= 1e-6 * (1.0 + abs(hi))


def cmd_compare(args):
    try:
        sizes = [_parse_ints(spec, "n,T,S") for spec in args.sizes]
        seeds = [int(v) for v in args.seeds.split(",")] if args.seeds else []
        instances = [(f"{n}x{t}x{s}-seed{seed}", gen_random_instance(n, t, s, seed))
                     for n, t, s in sizes for seed in seeds]
        _check_out(args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = []
    all_agree = True
    for instance_id, instance in instances:
        results = {}
        report = ucp_solve(instance, instance_id=instance_id)
        results["dd-bd"] = (report.status, report.value, report.wall_time,
                            report.feasibility_cuts, report.optimality_cuts,
                            report.branches)
        start = time.perf_counter()
        try:
            naive = naive_bd_solve(instance)
            results["naive-bd"] = (naive.status, naive.value, time.perf_counter() - start,
                                   naive.feasibility_cuts,
                                   naive.optimality_cuts, naive.iterations)
        except TooLargeError as exc:
            results["naive-bd"] = ("error", None, time.perf_counter() - start, 0, 0, 0)
            log.warning("naive-bd failed on %s: %s", instance_id, exc)
        start = time.perf_counter()
        try:
            brute = brute_force_solve(instance)
            results["brute-force"] = (brute.status, brute.best_cost,
                                      time.perf_counter() - start, 0, 0, 0)
        except TooLargeError as exc:
            results["brute-force"] = ("error", None, time.perf_counter() - start, 0, 0, 0)
            log.warning("brute force failed on %s: %s", instance_id, exc)
        statuses = {r[0] for r in results.values() if r[0] != "error"}
        agree = _agree([r[1] for r in results.values() if r[0] != "error"]) \
            and len(statuses) == 1
        all_agree = all_agree and agree
        for method in ("dd-bd", "naive-bd", "brute-force"):
            status, value, wall, fc, oc, br = results[method]
            val = "" if value is None else f"{value:.9g}"
            rows.append(f"{instance_id},{method},{status},{val},"
                        f"{wall:.3f},{fc},{oc},{br},{'=' if agree else '!'}")
    text = COMPARE_HEADER + "\n" + "".join(r + "\n" for r in rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all_agree else 1


def cmd_verify(args):
    try:
        with open(args.fixture) as fh:
            samples, free, pieces, objectives = load_fixture(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = verify_decomposition(samples, free, pieces)
    print(f"cond_i (pieces fix non-free coordinates): "
          f"{'pass' if report.cond_i else 'FAIL'}")
    print(f"cond_ii (vertices inside, samples covered): "
          f"{'pass' if report.cond_ii else 'FAIL'}")
    print(f"cond_iii_sampled (hull equality on samples): "
          f"{'pass' if report.cond_iii_sampled else 'FAIL'}")
    for note in report.notes:
        print(f"  note: {note}")
    ok = report.all_pass()
    for name, fn in objectives:
        good = equivalence_check(samples, free, pieces, [fn])
        print(f"equivalence[{name}]: {'pass' if good else 'FAIL'}")
        ok = ok and good
    return 0 if ok else 1


def build_parser():
    parser = _Parser(
        prog="ddbd",
        description="decision-diagram decomposition solver and verification tools")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance file or a generated one")
    ps.add_argument("--instance", help="instance JSON (unit commitment or MIP)")
    ps.add_argument("--gen", help="n,T,S,seed to generate an instance instead")
    ps.add_argument("--time-limit", type=float, default=None)
    ps.add_argument("--emit-dot", metavar="DIR", default=None,
                    help="write each master diagram of a MIP solve here as Graphviz text")
    ps.add_argument("--out", help="write the JSON report here (plus a .csv row)")
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("gen", help="write a random instance as JSON")
    pg.add_argument("--params", required=True, help="n,T,S,seed")
    pg.add_argument("--out", default=None)
    pg.set_defaults(func=cmd_gen)

    pc = sub.add_parser("compare",
                        help="cross-check solver, classical split, brute force")
    pc.add_argument("--sizes", action="append", default=[],
                    help="n,T,S triple; repeatable")
    pc.add_argument("--seeds", default="", help="comma-separated seeds")
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_compare)

    pv = sub.add_parser("verify-decomposition",
                        help="check a box-decomposition fixture")
    pv.add_argument("fixture")
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and bool(args.instance) == bool(args.gen):
        parser.error("solve needs exactly one of --instance or --gen")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
