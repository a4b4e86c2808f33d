"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median, quartiles and spread (interquartile
distance over median) next to the bound in BENCHMARK.json.  Run from the
repository root:

    python3 perfbench/spread.py --workload many_scenarios --seeds 0-9
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    args = ap.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(first, last + 1):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {run.returncode}, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed, " +
              ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    for name, vals in values.items():
        q1, q2, q3 = stats.quartiles(vals)
        spread = stats.relative_spread(vals)
        print(f"{args.workload} {name}: median {q2:.6g} quartiles {q1:.6g} {q3:.6g} "
              f"spread {spread:.4f} bound {bounds[name]} "
              f"({'within a third' if spread < bounds[name] / 3 else 'WIDE'})")


if __name__ == "__main__":
    sys.exit(main())
