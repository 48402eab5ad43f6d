#!/usr/bin/env python3
"""sdpxlab benchmark: one workload per process, every output checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve_cut --seed 1 --seconds 25 --trace 0

``setup_s`` is the import of numpy and sdpxlab plus the median of three
set-ups of the workload (instance generation and SDPA writing, reference
loading, a warm-up on a small instance).  A run then repeats a fixed pass
over the workload's ops until another pass would end after ``--seconds``;
there is always at least one pass.  ``wall_s`` is the median pass wall time, ``op_s_p50`` the median op
latency over every op run.

With ``--trace 1`` the library's public functions are wrapped (see
tracer.py) and passes alternate untraced and traced; the per-layer
metrics are medians over the traced passes, and ``trace.overhead_s`` is
the median traced pass minus the median untraced pass.

The last stdout line is the JSON result; the line before it records the
environment, per-op details and sample counts.  Both are also written to
perfbench/out/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
WORKLOADS = ("solve_cut", "solve_theta", "expressivity", "verify")


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; no parent search."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    special = {"pdhg.s_per_iter": "s/iter", "colors.s_per_round": "s/round",
               "pdhg.project_psd.per_iter": "1", "pdhg.converged_frac": "1"}
    if metric in special:
        return special[metric]
    return "count" if metric.endswith((".calls", ".iters", ".rounds")) else "s"


def run_pass(ops, tracer=None, group=None):
    """Run every op once; returns (wall, [(name, latency, ok, info)])."""
    rows = []
    t_pass = time.perf_counter()
    for name, op in ops:
        if tracer is not None:
            tracer.start_op(group)
            idx = tracer.begin("bench.op")
        t0 = time.perf_counter()
        try:
            ok, info = op()
        except Exception:  # a failing op is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            ok, info = False, {"error": traceback.format_exc(limit=1).strip()}
        lat = time.perf_counter() - t0
        if tracer is not None:
            tracer.finish(idx)
        if not ok:
            print(f"op {name} failed: {info}", file=sys.stderr)
        rows.append((name, lat, bool(ok), info))
    return time.perf_counter() - t_pass, rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sdpxlab" / "__init__.py").is_file():
        print(f"sdpxlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for k in THREAD_VARS:
        os.environ[k] = "1"
    os.environ.pop("SDPXLAB_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import workloads as W
    import_s = time.perf_counter() - t0
    import sdpxlab
    if Path(sdpxlab.__file__).resolve().parent != ROOT / "src" / "sdpxlab":
        print(f"imported sdpxlab from {sdpxlab.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()

    setup_times, setup_groups = [], []
    for r in range(SETUP_REPEATS):
        if tracer is not None:
            group = f"setup{r}"
            setup_groups.append(group)
            tracer.start_op(group)
            idx = tracer.begin("bench.setup")
        t1 = time.perf_counter()
        ops = W.make_ops(args.workload, args.seed, W.load_refs())
        W.warm_up(args.workload)
        setup_times.append(time.perf_counter() - t1)
        if tracer is not None:
            tracer.finish(idx)
    setup_s = import_s + statistics.median(setup_times)
    if tracer is not None:
        tracer.uninstall()

    deadline = time.perf_counter() + args.seconds
    walls = {True: [], False: []}
    rows = []
    pass_groups = []
    while True:
        # traced runs alternate untraced and traced passes, untraced first
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
            pass_groups.append(f"pass{len(pass_groups)}")
        wall, pass_rows = run_pass(ops, tracer if traced else None,
                                   pass_groups[-1] if traced else None)
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)
        rows += pass_rows
        enough = tracer is None or (walls[True] and walls[False])
        if enough and time.perf_counter() + wall > deadline:
            break

    lat = [r[1] for r in rows]
    failed = sum(1 for r in rows if not r[2])
    info = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "env": environment(args.seed),
        "passes": len(walls[False]) + len(walls[True]),
        "pass_wall_s": walls[False], "traced_pass_wall_s": walls[True],
        "setup_repeats_s": setup_times, "import_s": import_s,
        "op_samples": len(lat),
        "ops": {name: {"latency_s": statistics.median(r[1] for r in rows if r[0] == name),
                       "ok": all(r[2] for r in rows if r[0] == name),
                       "info": next(r[3] for r in rows if r[0] == name)}
                for name, _ in ops},
    }
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "op_s_p50": (statistics.median(lat), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        values, per_pass = layer_metrics(tracer, pass_groups, setup_groups)
        values["trace.overhead_s"] = (statistics.median(walls[True])
                                      - statistics.median(walls[False]))
        info["counts_differing_between_passes"] = [
            k for k in per_pass[0] if (unit(k) == "count" or k == "pdhg.converged_frac")
            and len({p[k] for p in per_pass}) > 1]
        info["self_s"] = {k: v for k, v in values.items() if k.endswith(".self_s")}
        first = tracer.summarise(pass_groups[0])
        info["top_self_s_first_traced_pass"] = dict(sorted(
            ((name, row[2]) for name, row in first.items()), key=lambda kv: -kv[1])[:8])
        metrics = {k: (v, unit(k)) for k, v in values.items()}

    result = {"correct": failed == 0, "attempted": len(rows), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    stem = str(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    Path(stem + ".json").write_text(json.dumps({"info": info, "result": result},
                                                    indent=1) + "\n")
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl.gz", {"env": info["env"]})
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
