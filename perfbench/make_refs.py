#!/usr/bin/env python3
"""Regenerate refs.json, the stored references of the benchmark checks.

References are computed on the unpermuted instances.  Each one is then
recomputed on two random relabelings and pulled back; a reference that
does not survive relabeling would make the run's check ill-posed, so the
script stops instead of writing it.  Max-cut references are certified
by their KKT residuals, not only by agreement with themselves.

Usage, from the repository root:  python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from sdpxlab import colors, core, nn, pdhg, sdpa  # noqa: E402


def _relabelings(base, k=2):
    rng = np.random.default_rng(99)
    ident = list(range(base.n))
    perms = [ident] + [rng.permutation(base.n).tolist() for _ in range(k)]
    return [(p, base if p is ident else core.permute_instance(base, p)) for p in perms]


def cut_refs() -> dict:
    out = {}
    for spec in W.CUT_SPECS:
        objs = []
        for _, inst in _relabelings(W.build(spec)):
            inst = sdpa.read_sdpa(sdpa.write_sdpa(inst))
            triple, stats = pdhg.solve_continuation(inst)
            kkt = pdhg.kkt_residuals(inst, triple.X, triple.y)
            if not all(s.converged for s in stats) or max(kkt) > W.KKT_BOUND:
                sys.exit(f"{W.spec_id(spec)}: not certified optimal, kkt={kkt}")
            objs.append(float(np.sum(inst.C * triple.X)))
        if max(objs) - min(objs) > W.OBJ_RTOL * abs(objs[0]):
            sys.exit(f"{W.spec_id(spec)}: objective moves under relabeling: {objs}")
        out[W.spec_id(spec)] = objs[0]
        print(W.spec_id(spec), objs[0], flush=True)
    return out


def color_refs() -> dict:
    out = {}
    for spec in W.COLOR_SPECS:
        per_algo = {}
        for algo in W.ALGOS:
            digests = set()
            for perm, inst in _relabelings(W.build(spec)):
                part, rounds = colors.run_to_stable(algo, inst)
                digests.add(W.pulled_partition_digest(part, perm))
            if len(digests) != 1:
                sys.exit(f"{W.spec_id(spec)}/{algo.value}: partition is not relabeling-invariant")
            per_algo[algo.value] = {"digest": digests.pop(), "rounds": rounds,
                                    "var_classes": part.n_var_classes,
                                    "con_classes": part.n_con_classes}
            print(W.spec_id(spec), algo.value, per_algo[algo.value], flush=True)
        out[W.spec_id(spec)] = per_algo
    return out


def nn_refs() -> dict:
    out = {}
    for spec in W.NN_SPECS:
        per_arch = {}
        for arch in nn.Arch:
            digests = []
            for perm, inst in _relabelings(W.build(spec)):
                states, params = nn.forward(arch, inst, W.NN_DIM, W.NN_LAYERS,
                                            W.NN_WEIGHT_SEED)
                digests.append(W.decode_digest(nn.decode(states[-1], params), perm))
            ref = digests[0]
            err = max(abs(a - b) for d in digests[1:] for a, b in zip(d, ref))
            if err > W.NN_RTOL * max(1.0, abs(ref[0])):
                sys.exit(f"{W.spec_id(spec)}/{arch.value}: decode moves under relabeling by {err}")
            per_arch[arch.value] = ref
            print(W.spec_id(spec), arch.value, err, flush=True)
        out[W.spec_id(spec)] = per_arch
    return out


def main() -> int:
    refs = {"solve_cut": cut_refs(), "colors": color_refs(), "nn": nn_refs()}
    W.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print("wrote", W.REFS_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
