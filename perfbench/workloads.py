"""Instances, ops and correctness checks of the four benchmark workloads.

Every instance is built from a fixed generator spec (family, size, graph
seed) and then relabeled by a vertex permutation drawn from the run's
``--seed``.  A relabeling changes every byte of the SDPA text and every
floating-point path through the library, but not the amount of work:
time to tolerance varies threefold between random graphs of one size
(max-cut at n=40 took 1.6 s to 4.9 s over ten ER graphs), so runs that fit
the time budget could not be steady across freshly drawn graphs.  The
references in ``refs.json`` belong to the unpermuted instances; checks
pull results back through the permutation before comparing.

An op returns ``(ok, info)``; the runner counts a raised exception as a
failed op.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from sdpxlab import colors, core, nn, pdhg, relaxations, sdpa, verify

REFS_PATH = Path(__file__).with_name("refs.json")

# solve_cut: default continuation to the default tolerance
CUT_SPECS = (("maxcut", 40, 0), ("maxcut", 56, 0), ("max2sat", 41, 0))
KKT_BOUND = 1e-5          # each of primal, dual, gap from pdhg.kkt_residuals
OBJ_RTOL = 1e-4           # objective vs reference, relative

# solve_theta: one regularized stage with a fixed iteration budget
THETA_SPECS = (("clique", 60, 0), ("mis", 60, 0), ("clique", 80, 0), ("mis", 80, 0),
               ("clique", 100, 0))
THETA_CFG = pdhg.PdhgConfig(eps=1e-2, max_iters=25)
PSD_RTOL = 1e-9           # min eigenvalue >= -PSD_RTOL * max(1, |X|_2)

# expressivity: six refinements at n=60, six forward passes at n=32
COLOR_SPECS = (("maxcut", 60, 0), ("vc", 60, 0))
NN_SPECS = tuple((family, 32, g) for g in range(4) for family in ("maxcut", "vc"))
NN_DIM, NN_LAYERS, NN_WEIGHT_SEED = 16, 3, 0
NN_RTOL = 1e-8            # decode projections vs reference, relative to |D|_F
N_PROJ = 8

# the refinement relations verify.check_hierarchy checks: (finer, coarser)
LATTICE = (("vc2fwl+", "vc2fwl"), ("vc2fwl+", "vc2wl"), ("vc2fwl", "vcwl"),
           ("vc2wl", "vcwl"), ("delta", "vc2wl"))
ALGOS = tuple(colors.Algo(a) for a in
              ("vcwl", "vc2wl", "vc2fwl", "vc2fwl+", "delta", "ignwl"))

# verify: every case at the harness's default seed, so the run's seed
# does not change its inputs.  Passing the run's seed to run_case would
# change the instances inside the seed-dependent cases; their latencies
# then move up to twofold between seeds (aux_graph from 0.035 s to 0.082 s),
# which puts the median op latency outside any usable bound.
VERIFY_CASE_SEED = 0
# the cases that take under 0.1 s; the first call of each in a process
# takes more than twice as long as later ones, which the warm-up absorbs
VERIFY_WARM_UP = ("vcwl_fail", "vc2wl_fail", "fwlplus_strict", "incomparable",
                  "delta_strict", "multiset_encoding_fail", "aux_graph", "equivariance")


def spec_id(spec) -> str:
    family, n, g = spec
    return f"{family}-n{n}-g{g}"


def build(spec) -> core.SdpInstance:
    """Unpermuted instance of side n for one generator spec."""
    family, n, g = spec
    if family == "maxcut":
        return relaxations.maxcut_sdp(relaxations.er_graph(n, 0.3, g))
    if family == "max2sat":
        return relaxations.max2sat_sdp(relaxations.random_clauses(n - 1, 2 * (n - 1), g))
    if family == "clique":
        return relaxations.maxclique_sdp(relaxations.er_graph(n, 0.5, g))
    if family == "mis":
        return relaxations.mis_sdp(relaxations.er_graph(n, 0.5, g))
    if family == "vc":
        return relaxations.vertexcover_sdp(relaxations.er_graph(n - 1, 0.3, g))
    raise ValueError(f"unknown family {family!r}")


def relabeled(specs, rng):
    """(spec, permutation, permuted instance) per spec, in order."""
    out = []
    for spec in specs:
        base = build(spec)
        perm = rng.permutation(base.n).tolist()
        out.append((spec, perm, core.permute_instance(base, perm)))
    return out


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


# --- result digests (shared with make_refs.py) -------------------------

def pulled_partition_digest(part, perm) -> str:
    """Digest of the partition pulled back to the unpermuted labels and
    relabeled canonically (cells row-major by first occurrence, then
    constraints continuing the numbering)."""
    var = part.var[np.ix_(perm, perm)].reshape(-1).tolist()
    vmap: dict = {}
    cv = [vmap.setdefault(c, len(vmap)) for c in var]
    cmap: dict = {}
    cc = [cmap.setdefault(c, len(vmap) + len(cmap)) for c in part.con.tolist()]
    h = hashlib.sha256(np.array(cv, dtype=np.int64).tobytes())
    h.update(b"|")
    h.update(np.array(cc, dtype=np.int64).tobytes())
    return h.hexdigest()


def decode_digest(out: np.ndarray, perm) -> list[float]:
    """Frobenius norm, trace and fixed random bilinear projections of the
    decode output pulled back to the unpermuted labels."""
    pulled = out[np.ix_(perm, perm)]
    rng = np.random.default_rng(20260417)
    n = pulled.shape[0]
    U = rng.standard_normal((N_PROJ, n))
    V = rng.standard_normal((N_PROJ, n))
    proj = np.einsum("ki,ij,kj->k", U, pulled, V)
    return [float(np.linalg.norm(pulled)), float(np.trace(pulled))] + proj.tolist()


def lattice_ok(parts: dict) -> bool:
    if len(parts) != len(ALGOS):
        return False
    p = {a.value: parts[a] for a in ALGOS}
    return (all(colors.refines(p[fine], p[coarse]) for fine, coarse in LATTICE)
            and p["ignwl"] == p["vc2wl"])


# --- ops ---------------------------------------------------------------

def _cut_op(text: str, ref_obj: float):
    def op():
        inst = sdpa.read_sdpa(text)
        triple, stats = pdhg.solve_continuation(inst)
        primal, dual, gap = pdhg.kkt_residuals(inst, triple.X, triple.y)
        obj = float(np.sum(inst.C * triple.X))
        rel = abs(obj - ref_obj) / abs(ref_obj)
        ok = (all(s.converged for s in stats)
              and max(primal, dual, gap) <= KKT_BOUND and rel <= OBJ_RTOL)
        return ok, {"stage_iters": [s.iterations for s in stats],
                    "kkt": [primal, dual, gap], "obj_rel_err": rel}
    return op


def _theta_op(text: str):
    def op():
        inst = sdpa.read_sdpa(text)
        triple, stats = pdhg.solve(inst, THETA_CFG)
        X = triple.X
        ok = bool(np.all(np.isfinite(X)))
        if ok:
            w = np.linalg.eigvalsh((X + X.T) / 2.0)
            scale = max(1.0, float(np.max(np.abs(w))))
            ok = bool(w[0] >= -PSD_RTOL * scale
                      and np.max(np.abs(X - X.T)) <= PSD_RTOL * scale)
        return ok, {"iterations": stats.iterations, "converged": stats.converged,
                    "primal_res": stats.primal_res}
    return op


def _color_op(inst, perm, algo, ref: dict, parts: dict):
    def op():
        if algo is ALGOS[0]:
            parts.clear()
        part, rounds = colors.run_to_stable(algo, inst)
        parts[algo] = part
        ok = pulled_partition_digest(part, perm) == ref["digest"]
        if algo is ALGOS[-1]:
            ok = ok and lattice_ok(parts)
        return ok, {"rounds": rounds}
    return op


def _nn_op(inst, perm, arch, ref: list):
    def op():
        states, params = nn.forward(arch, inst, NN_DIM, NN_LAYERS, NN_WEIGHT_SEED)
        got = decode_digest(nn.decode(states[-1], params), perm)
        err = max(abs(a - b) for a, b in zip(got, ref))
        return err <= NN_RTOL * max(1.0, abs(ref[0])), {"max_err": err}
    return op


def _verify_op(case_id: str, seed: int):
    def op():
        reports = verify.run_case(case_id, seed)
        return bool(reports) and all(r.passed for r in reports), {
            "reports": len(reports)}
    return op


def make_ops(workload: str, seed: int, refs: dict) -> list:
    """[(op name, callable)] for one pass, built from the run's seed."""
    rng = np.random.default_rng(seed)
    if workload == "solve_cut":
        return [(spec_id(s), _cut_op(sdpa.write_sdpa(inst), refs["solve_cut"][spec_id(s)]))
                for s, _, inst in relabeled(CUT_SPECS, rng)]
    if workload == "solve_theta":
        return [(spec_id(s), _theta_op(sdpa.write_sdpa(inst)))
                for s, _, inst in relabeled(THETA_SPECS, rng)]
    if workload == "expressivity":
        ops = []
        for s, perm, inst in relabeled(COLOR_SPECS, rng):
            parts: dict = {}
            ref = refs["colors"][spec_id(s)]
            ops += [(f"{spec_id(s)}/{a.value}", _color_op(inst, perm, a, ref[a.value], parts))
                    for a in ALGOS]
        for s, perm, inst in relabeled(NN_SPECS, rng):
            ref = refs["nn"][spec_id(s)]
            ops += [(f"{spec_id(s)}/{a.value}", _nn_op(inst, perm, a, ref[a.value]))
                    for a in nn.Arch]
        return ops
    if workload == "verify":
        return [(c, _verify_op(c, VERIFY_CASE_SEED)) for c in verify.CASE_IDS]
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str) -> None:
    """Small untimed ops through the same code paths."""
    rng = np.random.default_rng(0)
    if workload == "solve_cut":
        (_, _, inst), = relabeled((("maxcut", 8, 0),), rng)
        pdhg.solve_continuation(sdpa.read_sdpa(sdpa.write_sdpa(inst)))
    elif workload == "solve_theta":
        (_, _, inst), = relabeled((("clique", 10, 0),), rng)
        pdhg.solve(sdpa.read_sdpa(sdpa.write_sdpa(inst)), THETA_CFG)
    elif workload == "expressivity":
        (_, _, inst), = relabeled((("vc", 6, 0),), rng)
        for a in ALGOS:
            colors.run_to_stable(a, inst)
        for a in nn.Arch:
            states, params = nn.forward(a, inst, NN_DIM, NN_LAYERS, NN_WEIGHT_SEED)
            nn.decode(states[-1], params)
    else:
        for case_id in VERIFY_WARM_UP:
            verify.run_case(case_id, VERIFY_CASE_SEED)
