#!/usr/bin/env python3
"""Check which per-layer counts repeat exactly between two traced runs.

Runs ``run.py --trace 1`` twice per workload with the same seed and
compares every count metric (calls, iterations, rounds, converged
fraction).  A count that differs cannot carry a count claim.

Usage, from the repository root:

    python3 perfbench/repeat_check.py [--workloads solve_cut,verify] [--seed 1]
"""

from __future__ import annotations

import argparse
import json
import sys

from spread import ROOT, run_once


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    differing = 0
    for workload in args.workloads.split(","):
        a, b = (run_once(workload, args.seed, args.seconds, 1)["metrics"] for _ in range(2))
        counts = sorted(k for k in a
                        if a[k]["unit"] == "count" or k == "pdhg.converged_frac")
        diff = [k for k in counts if a[k]["value"] != b[k]["value"]]
        differing += len(diff)
        print(f"{workload}: {len(counts) - len(diff)} of {len(counts)} counts repeat exactly",
              flush=True)
        for k in diff:
            print(f"  {k}: {a[k]['value']} vs {b[k]['value']}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
