"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.  Budgets are wall-clock upper bounds."""

import time

import numpy as np

from sdpxlab.auxgraph import aux_graph_stable
from sdpxlab.colors import Algo, run_to_stable
from sdpxlab.core import objective
from sdpxlab.pdhg import PdhgConfig, kkt_residuals, solve, solve_continuation
from sdpxlab.relaxations import er_graph, maxcut_sdp
from sdpxlab.sdpa import read_sdpa, write_sdpa
from sdpxlab.verify import (
    case_delta_strict,
    case_fwlplus_strict,
    case_incomparable,
    case_nn_properties,
    check_hierarchy,
    check_scale_lemma,
    check_trajectory_refinement,
    latin_square_instance,
    prop_diag_pair_instance,
    run_case,
    sample_instances,
)

from test_sdpa import HAND_FIXTURE


def _report(name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed <= budget, f"{name} exceeded budget: {elapsed:.1f}s > {budget}s"


def test_01_counterexample_values():
    t0 = time.monotonic()
    rep1 = run_case("vcwl_fail")[0]
    t1 = time.monotonic() - t0
    assert t1 <= 10, f"vcwl_fail took {t1:.1f}s"
    t0 = time.monotonic()
    rep2 = run_case("vc2wl_fail")[0]
    t2 = time.monotonic() - t0
    assert t2 <= 10, f"vc2wl_fail took {t2:.1f}s"
    _report("counterexample-values", rep1.passed and rep2.passed, t1 + t2, 20,
            f"x11={rep1.observed['x11']:.4f} x33={rep1.observed['x33']:.4f} "
            f"x15={rep2.observed['x15']:.4f} x24={rep2.observed['x24']:.4f}")


def test_02_refinement_lattice():
    t0 = time.monotonic()
    instances = sample_instances(seed=202, per_generator=50, n_lo=4, n_hi=12)
    lattice = check_hierarchy(instances)
    witnesses = [case_fwlplus_strict(), case_incomparable(), case_delta_strict()]
    latin = latin_square_instance()
    p2, _ = run_to_stable(Algo.VC2WL, latin)
    pf, _ = run_to_stable(Algo.VC2FWL, latin)
    fwl_witness = (p2.var[0, 4] == p2.var[1, 3]) and (pf.var[0, 4] != pf.var[1, 3])
    ok = lattice.passed and all(w.passed for w in witnesses) and fwl_witness
    _report("refinement-lattice", ok, time.monotonic() - t0, 120,
            f"instances={len(instances)} violations={lattice.observed['violations']}")


def test_03_aux_graph_equivalence():
    t0 = time.monotonic()
    instances = sample_instances(seed=303, per_generator=4, n_lo=3, n_hi=10)
    assert len(instances) == 20
    mismatches = 0
    for inst in instances:
        direct, _ = run_to_stable(Algo.VC2FWL, inst)
        if aux_graph_stable(inst) != direct:
            mismatches += 1
    _report("aux-graph-equivalence", mismatches == 0, time.monotonic() - t0, 120,
            f"instances=20 mismatches={mismatches}")


def test_04_trajectory_refinement():
    t0 = time.monotonic()
    reports = [check_trajectory_refinement(prop_diag_pair_instance(), iters=500),
               check_trajectory_refinement(latin_square_instance(), iters=500)]
    rng = np.random.default_rng(404)
    for _ in range(10):
        g = er_graph(int(rng.integers(6, 13)), 0.5, int(rng.integers(2 ** 31)))
        reports.append(check_trajectory_refinement(maxcut_sdp(g), iters=500))
    ok = all(r.passed for r in reports)
    worst = max(r.observed.get("worst_relative_spread", np.inf) for r in reports)
    _report("trajectory-refinement", ok, time.monotonic() - t0, 120,
            f"runs={len(reports)} worst_spread={worst:.2e}")


def test_05_solver_correctness():
    from oracles import penalty_objective
    t0 = time.monotonic()
    inst = maxcut_sdp(er_graph(20, 0.3, 42))
    triple, stages = solve_continuation(inst, PdhgConfig(max_iters=20000))
    total_iters = sum(s.iterations for s in stages)
    kkt = kkt_residuals(inst, triple.X, triple.y)
    ok = total_iters <= 50000 and max(kkt) <= 1e-5
    detail = f"iters={total_iters} kkt=({kkt[0]:.1e},{kkt[1]:.1e},{kkt[2]:.1e})"
    worst_gap = 0.0
    for seed in range(5):
        small = maxcut_sdp(er_graph(6 + seed, 0.5, 500 + seed))
        tr, _ = solve_continuation(small)
        gap = abs(objective(small, tr.X) - penalty_objective(small))
        worst_gap = max(worst_gap, gap)
        ok = ok and gap <= 1e-3
    _report("solver-correctness", ok, time.monotonic() - t0, 180,
            detail + f" worst_oracle_gap={worst_gap:.2e}")


def test_06_scaling_identity():
    t0 = time.monotonic()
    instances = [prop_diag_pair_instance()]
    rng = np.random.default_rng(606)
    for _ in range(5):
        instances.append(maxcut_sdp(er_graph(int(rng.integers(5, 9)), 0.6,
                                             int(rng.integers(2 ** 31)))))
    reports = [check_scale_lemma(inst, alphas=(0.5, 2.0, 10.0))
               for inst in instances]
    ok = all(r.passed for r in reports)
    worst = max(max(r.observed["relative_errors"].values()) for r in reports)
    _report("scaling-identity", ok, time.monotonic() - t0, 60,
            f"instances=6 worst_rel_err={worst:.2e}")


def test_07_forward_pass_properties():
    t0 = time.monotonic()
    instances = sample_instances(seed=707, per_generator=1, n_lo=6, n_hi=9,
                                 generators=("maxcut", "maxclique"))
    report = case_nn_properties(instances, d=8, n_layers=3,
                                seeds=tuple(range(10)))
    _report("forward-pass-properties", report.passed, time.monotonic() - t0, 120,
            f"worst={report.observed['worst']} "
            f"respect_failures={report.observed['respect_failures']}")


def test_08_warm_start_effect():
    t0 = time.monotonic()
    rng = np.random.default_rng(808)
    wins = 0
    for seed in range(10):
        inst = maxcut_sdp(er_graph(10, 0.4, 800 + seed))
        triple, cold = solve(inst)
        noise = rng.standard_normal((inst.n, inst.n))
        X0 = triple.X + 1e-3 * (noise + noise.T) / 2.0
        _, warm = solve(inst, X0=X0, y0=triple.y)
        if warm.iterations < cold.iterations:
            wins += 1
    _report("warm-start-effect", wins == 10, time.monotonic() - t0, 120,
            f"wins={wins}/10")


def test_09_format_fidelity():
    t0 = time.monotonic()
    instances = sample_instances(seed=909, per_generator=4, n_lo=3, n_hi=10)
    assert len(instances) == 20
    ok = True
    for inst in instances:
        again = read_sdpa(write_sdpa(inst))
        ok = ok and (np.array_equal(inst.C, again.C)
                     and all(a == b for a, b in zip(inst.A, again.A))
                     and np.array_equal(inst.b, again.b))
    fixture = read_sdpa(HAND_FIXTURE)
    ok = ok and (fixture.n == 2 and fixture.m == 1
                 and np.array_equal(fixture.C, np.diag([-1.0, 0.0]))
                 and np.array_equal(fixture.A[0].to_dense(), np.diag([1.0, 0.0]))
                 and np.array_equal(fixture.b, [1.0]))
    _report("format-fidelity", ok, time.monotonic() - t0, 60, "instances=20+fixture")
