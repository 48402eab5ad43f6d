#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median of the
runs and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  Runs are sequential, one process
at a time.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads solve_cut,verify --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process; returns its parsed result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            res = run_once(workload, seed, args.seconds, 0)
            if not res["correct"]:
                print(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"values": vals, "median": med, "spread": spread}
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{workload:13s} {name:12s} median={med:.4f} spread={spread:.3f} "
                  f"bound={bounds[name]} ({spread / bounds[name]:.2f} of bound)", flush=True)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spread-{args.workloads.replace(',', '+')}-{args.seeds}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}; wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
