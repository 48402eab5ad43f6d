"""Single executable wiring all modules: gen, solve, color, nn-forward,
verify.

Exit codes: 0 success, 1 verification failure or a solve that did not
converge, 2 usage error.  Output is
line-oriented ``key=value`` pairs on stdout; ``--json`` flags write
machine-readable side files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import verify
from .colors import Algo, run_to_stable
from .core import SdpxlabError, SolutionTriple
from .nn import Arch, decode, forward
from .pdhg import PdhgConfig, solve, solve_continuation
from .relaxations import (
    er_graph,
    lmi_sdp,
    max2sat_sdp,
    maxclique_sdp,
    maxcut_sdp,
    mis_sdp,
    random_clauses,
    regular_graph,
    vertexcover_sdp,
)
from .sdpa import read_sdpa, write_sdpa

USAGE_ERROR = 2
VERIFY_FAILURE = 1
NOT_CONVERGED = 1

_ALGO_FLAGS = {a.value: a for a in Algo}
_ARCH_FLAGS = {a.value: a for a in Arch}


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(SdpxlabError):
    """Usage error carrying exit code 2."""


def _read_instance(path: str):
    p = Path(path)
    if not p.exists():
        raise SystemExit2(f"input file not found: {path}")
    return read_sdpa(p.read_text())


def _kv(**kwargs):
    print(" ".join(f"{k}={v}" for k, v in kwargs.items()))


def _write_json(path: str | None, payload):
    if path:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="sdpxlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[], help="generate an instance")
    p.add_argument("--problem", required=True,
                   choices=["maxcut", "clique", "mis", "vc", "max2sat", "lmi"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--clauses", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("file")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--warm-start", default=None)
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("color", help="run color refinement")
    p.add_argument("file")
    p.add_argument("--algo", default="vc2fwl", choices=sorted(_ALGO_FLAGS))
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("nn-forward", help="run a forward pass")
    p.add_argument("file")
    p.add_argument("--arch", required=True, choices=sorted(_ARCH_FLAGS))
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", default=None,
                   choices=["equivariance", "symmetry", "coloring"])

    p = sub.add_parser("verify", help="run the verification harness")
    p.add_argument("--case", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", dest="json_out", default=None)
    return parser


def _cmd_gen(args) -> int:
    if args.n < 1:
        raise SystemExit2(f"--n must be >= 1, got {args.n}")
    if args.p is not None and not 0 <= args.p <= 1:
        raise SystemExit2(f"--p must be in [0,1], got {args.p}")
    if args.problem == "lmi":
        inst = lmi_sdp(args.n, args.m if args.m is not None else args.n, args.seed)
    elif args.problem == "max2sat":
        k = args.clauses if args.clauses is not None else 2 * args.n
        inst = max2sat_sdp(random_clauses(args.n, k, args.seed))
    else:
        if args.d is not None:
            g = regular_graph(args.n, args.d, args.seed)
        else:
            g = er_graph(args.n, args.p if args.p is not None else 0.5, args.seed)
        builder = {"maxcut": maxcut_sdp, "clique": maxclique_sdp,
                   "mis": mis_sdp, "vc": vertexcover_sdp}[args.problem]
        inst = builder(g)
    Path(args.output).write_text(write_sdpa(inst))
    _kv(event="gen", problem=args.problem, n=inst.n, m=inst.m, out=args.output)
    return 0


def _solution_payload(triple: SolutionTriple, stats) -> dict:
    payload = stats.to_json_dict()
    payload["X"] = triple.X.tolist()
    payload["y"] = triple.y.tolist()
    return payload


def _read_warm_start(path: str, inst):
    """(X0, y0, omega) from a ``solve --json`` file; y0 is None when absent
    and the primal weight omega is 1 in files written without one."""
    try:
        data = json.loads(Path(path).read_text())
        X0 = np.asarray(data["X"], dtype=np.float64)
        y0 = None if "y" not in data else np.asarray(data["y"], dtype=np.float64)
        omega = data.get("omega", 1.0)
        if isinstance(omega, bool) or not isinstance(omega, (int, float)):
            raise TypeError(f"omega must be a number, got {omega!r}")
        omega = float(omega)
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise SystemExit2(
            f"bad warm-start file {path}: {type(exc).__name__}: {exc}") from None
    n, m = inst.n, inst.m
    if X0.shape != (n, n) or (y0 is not None and y0.shape != (m,)):
        raise SystemExit2(
            f"warm-start file {path}: X must be {n}x{n} and y of length {m}")
    if not (np.all(np.isfinite(X0)) and (y0 is None or np.all(np.isfinite(y0)))):
        raise SystemExit2(f"warm-start file {path}: non-finite X or y")
    if not (np.isfinite(omega) and omega > 0):
        raise SystemExit2(f"warm-start file {path}: omega must be positive and finite")
    return X0, y0, omega


def _cmd_solve(args) -> int:
    if args.tol <= 0 or args.max_iters < 1:
        raise SystemExit2("--tol must be > 0 and --max-iters >= 1")
    inst = _read_instance(args.file)
    cfg = PdhgConfig(eps=args.eps if args.eps is not None else 1e-6,
                     tol=args.tol, max_iters=args.max_iters)
    if not args.warm_start and args.eps is None:
        triple, stages = solve_continuation(inst, cfg)
        # the last stage's residuals and weight, totals over every stage
        stats = replace(stages[-1], iterations=sum(s.iterations for s in stages),
                        converged=all(s.converged for s in stages),
                        restarts=sum(s.restarts for s in stages))
    else:
        X0, y0, omega = (_read_warm_start(args.warm_start, inst) if args.warm_start
                         else (None, None, 1.0))
        triple, stats = solve(inst, cfg, X0=X0, y0=y0, omega=omega)
    _kv(event="solve", file=args.file, iterations=stats.iterations,
        converged=str(stats.converged).lower(), restarts=stats.restarts,
        omega=f"{stats.omega:.6g}", objective=f"{stats.objective:.12g}",
        primal=f"{stats.primal_res:.3e}", dual=f"{stats.dual_res:.3e}")
    _write_json(args.json_out, _solution_payload(triple, stats))
    return 0 if stats.converged else NOT_CONVERGED


def _cmd_color(args) -> int:
    if args.max_rounds is not None and args.max_rounds < 1:
        raise SystemExit2("--max-rounds must be >= 1")
    inst = _read_instance(args.file)
    part, rounds = run_to_stable(_ALGO_FLAGS[args.algo], inst, args.max_rounds)
    _kv(event="color", file=args.file, algo=args.algo, rounds=rounds,
        var_classes=part.n_var_classes, con_classes=part.n_con_classes)
    _write_json(args.json_out, part.to_json_dict())
    return 0


def _cmd_nn(args) -> int:
    if args.layers < 0 or args.dim < 1:
        raise SystemExit2("--layers must be >= 0 and --dim >= 1")
    inst = _read_instance(args.file)
    arch = _ARCH_FLAGS[args.arch]
    if args.check in ("symmetry", "equivariance"):
        deviation = {"symmetry": verify.nn_symmetry_deviation,
                     "equivariance": verify.nn_equivariance_deviation}[args.check]
        dev = deviation(arch, inst, args.dim, args.layers, args.seed)
        tol = verify.NN_TOLERANCES[arch][args.check]
        ok = dev <= tol
        _kv(event="nn_check", check=args.check, deviation=f"{dev:.3e}",
            tolerance=repr(tol), ok=str(ok).lower())
        return 0 if ok else VERIFY_FAILURE
    if args.check == "coloring":
        ok = verify.nn_coloring_respect(arch, inst, args.dim, args.layers, args.seed)
        _kv(event="nn_check", check="coloring", ok=str(ok).lower())
        return 0 if ok else VERIFY_FAILURE
    states, params = forward(arch, inst, args.dim, args.layers, args.seed)
    pred = decode(states[-1], params)
    _kv(event="nn_forward", arch=args.arch, layers=args.layers, dim=args.dim,
        seed=args.seed, embedding_norm=f"{float(np.linalg.norm(states[-1].var)):.12g}",
        prediction_norm=f"{float(np.linalg.norm(pred)):.12g}")
    return 0


def _cmd_verify(args) -> int:
    case_ids = verify.CASE_IDS if args.case is None else (args.case,)
    for cid in case_ids:
        if cid not in verify.CASE_IDS:
            raise SystemExit2(
                f"unknown case {cid!r}; known: {', '.join(verify.CASE_IDS)}")
    reports = [r for cid in case_ids for r in verify.run_case(cid, args.seed)]
    for r in reports:
        _kv(event="case", case=r.case_id, **{"pass": str(r.passed).lower()})
    ok = all(r.passed for r in reports)
    _kv(event="verify", cases=len(reports), ok=str(ok).lower())
    _write_json(args.json_out, [r.to_json_dict() for r in reports])
    return 0 if ok else VERIFY_FAILURE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"gen": _cmd_gen, "solve": _cmd_solve, "color": _cmd_color,
                   "nn-forward": _cmd_nn, "verify": _cmd_verify}[args.command]
        return handler(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:
        # argparse exits with code 2 on usage errors
        return int(exc.code) if exc.code is not None else 0
    except SdpxlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
