"""Command-line surface: generate, solve, compare, verify.

Exit codes for `solve`: 0 optimal, 2 time limit hit, 3 infeasible, 1 for
malformed inputs, for an unbounded MIP, for a MIP whose z_bounds do
not hold and for a solve that stops on an EngineError or a
NumericalFailureError; an instance declares its own sense.  `compare`
exits 1 on malformed arguments, when any method disagrees on an optimum
and when any solver stops on one of those two errors (its row reads
`error`, as a method past the enumeration cap does),
`verify-decomposition` when a condition or an equivalence check fails.
Every command exits 1 on a usage error, with the usage on stderr, and on
an --out path it cannot write, checked before any work is done.  `solve
--out` writes the JSON report there and the CSV row beside it, at the
same path with the extension .csv; both paths are checked, and an --out
that already ends in .csv is a usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from .engine import EngineConfig, EngineError, SolveReport, dd_bd_solve
from .mip import (MipMasterOracle, MipProblem, MipSubproblemOracle, UnboundedProblemError,
                  ValueBoundsError)
from .oracle import TooLargeError, brute_force_solve, naive_bd_solve
from .rectangles import equivalence_check, load_fixture, verify_decomposition
from .simplex import NumericalFailureError
from .ucp import InstanceError, UcpInstance, gen_random_instance, ucp_solve

log = logging.getLogger("ddbd")

COMPARE_HEADER = "instance,method,status,value,time,f_cuts,o_cuts,agree"


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
    if not isinstance(doc, dict):
        raise InstanceError("bad instance document: expected a JSON object")
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


def _csv_path(out):
    """Where `solve --out` writes its CSV row: out with the extension .csv."""
    return None if out is None else os.path.splitext(out)[0] + ".csv"


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
        csv_path = _csv_path(args.out)
        _check_out(args.out)
        _check_out(csv_path)
        if kind == "mip":
            sub = MipSubproblemOracle(problem)
            master = MipMasterOracle(problem)
    except (OSError, ValueError, InstanceError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if kind == "ucp":
            report = ucp_solve(problem, config)
        else:
            report = dd_bd_solve(master, sub, config)
    except (InstanceError, UnboundedProblemError, ValueBoundsError, EngineError,
            NumericalFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.instance = instance_id

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
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
        seeds = [int(v) for v in args.seeds.split(",")]
        instances = [(f"{n}x{t}x{s}-seed{seed}", gen_random_instance(n, t, s, seed))
                     for n, t, s in sizes for seed in seeds]
        _check_out(args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = []
    all_agree, failed = True, False
    for instance_id, instance in instances:
        results = []
        # looked up per call, so a stubbed solver in a test is the one that runs
        for method, solve in (("dd-bd", ucp_solve), ("naive-bd", naive_bd_solve),
                              ("brute-force", brute_force_solve)):
            start = time.perf_counter()
            try:
                report = solve(instance)
            except (TooLargeError, EngineError, NumericalFailureError) as exc:
                report = None
                failed = failed or not isinstance(exc, TooLargeError)
                log.warning("%s failed on %s: %s", method, instance_id, exc)
            results.append((method, report, time.perf_counter() - start))
        reports = [r for _, r, _ in results if r is not None]
        agree = _agree([r.value for r in reports]) and len({r.status for r in reports}) == 1
        all_agree = all_agree and agree
        for method, r, wall in results:
            status, val, fc, oc = ("error", "", 0, 0) if r is None else (
                r.status, "" if r.value is None else f"{r.value:.9g}",
                r.feasibility_cuts, r.optimality_cuts)
            rows.append(f"{instance_id},{method},{status},{val},{wall:.3f},{fc},{oc},"
                        f"{'=' if agree else '!'}")
    text = COMPARE_HEADER + "\n" + "".join(r + "\n" for r in rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all_agree and not failed else 1


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
        good = equivalence_check(samples, pieces, [fn])
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
    ps.add_argument("--out", help="write the JSON report here (plus a .csv row)")
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("gen", help="write a random instance as JSON")
    pg.add_argument("--params", required=True, help="n,T,S,seed")
    pg.add_argument("--out", default=None)
    pg.set_defaults(func=cmd_gen)

    pc = sub.add_parser("compare",
                        help="cross-check solver, classical split, brute force")
    pc.add_argument("--sizes", action="append", default=[],
                    help="n,T,S triple; repeatable, at least one")
    pc.add_argument("--seeds", default="", help="comma-separated seeds, at least one")
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
    if args.command == "solve" and args.out and _csv_path(args.out) == args.out:
        parser.error(f"--out {args.out} is where the CSV row goes; "
                     "give the JSON report another extension")
    if args.command == "compare" and not (args.sizes and args.seeds):
        parser.error("compare needs --sizes and --seeds")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
