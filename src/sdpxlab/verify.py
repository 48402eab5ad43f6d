"""Executable reproduction of every counterexample and refinement relation.

Each case builds a hard-coded instance, runs the relevant refinement
algorithms and/or the solver, and compares against expected values.  Every
expected value carries a provenance tag: PAPER (externally reported
reference value), TRIVIAL (forced by a definition) or DERIVED (computed by
an independent oracle or cross-implementation check).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .auxgraph import aux_graph_stable
from .colors import (
    Algo,
    Partition,
    canonical_labels,
    init_colors,
    joint_encoding_stable,
    refines,
    run_to_stable,
    run_to_stable_many,
    step,
    vcwl_then_multiset_fwl,
)
from .core import (
    SdpInstance,
    SparseSymMatrix,
    permute_instance,
    reorder_constraints,
)
from .nn import _SYMMETRIZED_ARCHS, ARCH_TO_ALGO, Arch, decode, forward
from .pdhg import PdhgConfig, iterates, min_norm_solution
from .relaxations import (
    er_graph,
    max2sat_sdp,
    maxclique_sdp,
    maxcut_sdp,
    mis_sdp,
    random_clauses,
    vertexcover_sdp,
)


@dataclass
class CaseReport:
    case_id: str
    passed: bool
    observed: dict
    expected: dict = field(default_factory=dict)
    tolerance: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"case": self.case_id, "pass": self.passed,
                "observed": self.observed, "expected": self.expected,
                "tolerance": self.tolerance}


def _exp(value, provenance: str) -> dict:
    return {"value": value, "provenance": provenance}


# --- hard-coded instances ----------------------------------------------

def prop_diag_pair_instance() -> SdpInstance:
    """3x3 instance whose diagonal cells the bipartite refinement conflates
    although the optimum assigns them different values."""
    C = np.array([[1.0, 1, 0], [1, 1, 0], [0, 0, 1]])
    A1 = SparseSymMatrix.from_coords(3, [(0, 1, 1.0)])
    A2 = SparseSymMatrix.from_coords(3, [(0, 2, 1.0)])
    return SdpInstance(n=3, C=C, A=(A1, A2), b=np.array([1.0, 1.0]))


def latin_square_instance() -> SdpInstance:
    """6x6 instance with a Latin-square objective and a trace constraint;
    identical row/column multisets defeat the ordered pair refinement."""
    C = np.array([
        [1.0, 2, 3, 4, 5, 6],
        [2, 1, 4, 5, 6, 3],
        [3, 4, 1, 6, 2, 5],
        [4, 5, 6, 1, 3, 2],
        [5, 6, 2, 3, 1, 4],
        [6, 3, 5, 2, 4, 1],
    ])
    A1 = SparseSymMatrix.from_coords(6, [(i, i, 1.0) for i in range(6)])
    return SdpInstance(n=6, C=C, A=(A1,), b=np.array([1.0]))


def tuple_vs_multiset_instance() -> SdpInstance:
    """4x4 instance separating ordered-pair from unordered-pair updates."""
    C = np.array([
        [0.0, 1, 2, 3],
        [1, 0, 4, 2],
        [2, 4, 0, 1],
        [3, 2, 1, 0],
    ])
    A1 = SparseSymMatrix.from_dense(np.ones((4, 4)))
    return SdpInstance(n=4, C=C, A=(A1,), b=np.array([1.0]))


def incomparability_instance() -> SdpInstance:
    """4x4 instance where the ordered row/column update separates a pair
    the joint-pair update cannot."""
    C = np.array([
        [1.0, 0, 4, 2],
        [0, 1, 2, 3],
        [4, 2, 1, 0],
        [2, 3, 0, 1],
    ])
    A1 = SparseSymMatrix.from_dense(np.ones((4, 4)))
    return SdpInstance(n=4, C=C, A=(A1,), b=np.array([1.0]))


def regular_adjacency_instance() -> SdpInstance:
    """6x6 instance whose objective is a 3-regular adjacency matrix; only
    the sparsity-aware update separates (1,6) from (2,5)."""
    C = np.array([
        [0.0, 1, 0, 0, 1, 1],
        [1, 0, 0, 1, 1, 0],
        [0, 0, 0, 1, 1, 1],
        [0, 1, 1, 0, 0, 1],
        [1, 1, 1, 0, 0, 0],
        [1, 0, 1, 1, 0, 0],
    ])
    A1 = SparseSymMatrix.from_coords(6, [(i, i, 1.0) for i in range(6)])
    return SdpInstance(n=6, C=C, A=(A1,), b=np.array([1.0]))


def sequential_pipeline_instance() -> SdpInstance:
    """5x5 instance defeating 'bipartite refinement first, pair refinement
    second' pipelines."""
    A1 = np.array([
        [1.0, 2, 1, 1, 1],
        [2, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
    ])
    A2 = np.zeros((5, 5))
    A2[1, 1] = 1
    A2[1, 2] = A2[2, 1] = 1
    A2[1, 3] = A2[3, 1] = 1
    A3 = np.zeros((5, 5))
    A3[1, 4] = A3[4, 1] = 1
    A3[2, 2] = 1
    A3[2, 3] = A3[3, 2] = 1
    A4 = np.zeros((5, 5))
    A4[2, 4] = A4[4, 2] = 1
    A4[3, 3] = 1
    A4[3, 4] = A4[4, 3] = 1
    A5 = np.zeros((5, 5))
    A5[4, 4] = 1
    mats = tuple(SparseSymMatrix.from_dense(a) for a in (A1, A2, A3, A4, A5))
    return SdpInstance(n=5, C=np.ones((5, 5)), A=mats, b=np.ones(5))


def diag_block_instance() -> SdpInstance:
    """Identity objective with two diagonal-block trace constraints; the
    joint multiset encoding conflates cells (2,2) and (3,3)."""
    A1 = SparseSymMatrix.from_coords(3, [(0, 0, 1.0), (1, 1, 1.0)])
    A2 = SparseSymMatrix.from_coords(3, [(2, 2, 1.0)])
    return SdpInstance(n=3, C=np.eye(3), A=(A1, A2), b=np.array([1.0, 1.0]))


# --- pattern helpers ----------------------------------------------------

def pattern_matches(var: np.ndarray, pattern: str) -> bool:
    """Compare a color matrix against a letter pattern like 'abc/bad/cda'
    up to relabeling."""
    rows = pattern.split("/")
    letters = [ch for row in rows for ch in row]
    if len(letters) != var.size:
        raise ValueError("pattern size does not match matrix")
    return (canonical_labels(letters, [])[0]
            == canonical_labels(var.reshape(-1).tolist(), [])[0])


def _partition_cell(part_or_state, i, j):
    arr = part_or_state.var if isinstance(part_or_state, Partition) \
        else part_or_state.var_colors
    return int(arr[i, j])


# --- counterexample cases ----------------------------------------------

VCWL_DIAG_PATTERN = "abc/bad/cda"
VC2WL_DIAG_PATTERN = "abc/bed/cdf"
PIPELINE_STAGE1_PATTERN = "abeee/bdccc/ecdcc/eccdc/ecccf"
PIPELINE_STAGE2_PATTERN = "abccd/beffg/cfkhi/cfhki/dgiij"


def case_vcwl_fail() -> CaseReport:
    inst = prop_diag_pair_instance()
    p1, _ = run_to_stable(Algo.VCWL, inst)
    p2, _ = run_to_stable(Algo.VC2WL, inst)
    X = min_norm_solution(inst)
    obs = {
        "vcwl_pattern_ok": pattern_matches(p1.var, VCWL_DIAG_PATTERN),
        "vcwl_merges_diag": _partition_cell(p1, 0, 0) == _partition_cell(p1, 2, 2),
        "x11": float(X[0, 0]),
        "x33": float(X[2, 2]),
        "vc2wl_pattern_ok": pattern_matches(p2.var, VC2WL_DIAG_PATTERN),
    }
    ok = (obs["vcwl_pattern_ok"] and obs["vcwl_merges_diag"]
          and abs(obs["x11"] - 0.707) <= 5e-3
          and abs(obs["x33"] - 0.354) <= 5e-3
          and obs["vc2wl_pattern_ok"])
    return CaseReport(
        "vcwl_fail", ok, obs,
        expected={"vcwl_pattern": _exp(VCWL_DIAG_PATTERN, "PAPER"),
                  "x11": _exp(0.707, "PAPER"), "x33": _exp(0.354, "PAPER"),
                  "vc2wl_pattern": _exp(VC2WL_DIAG_PATTERN, "PAPER")},
        tolerance={"x11": 5e-3, "x33": 5e-3})


def case_vc2wl_fail() -> CaseReport:
    inst = latin_square_instance()
    p2, _ = run_to_stable(Algo.VC2WL, inst)
    pf, _ = run_to_stable(Algo.VC2FWL, inst)
    pd, _ = run_to_stable(Algo.DELTA_VC2WL, inst)
    X = min_norm_solution(inst)
    obs = {
        "vc2wl_merges": _partition_cell(p2, 0, 4) == _partition_cell(p2, 1, 3),
        "x15": float(X[0, 4]),
        "x24": float(X[1, 3]),
        "vc2fwl_separates": _partition_cell(pf, 0, 4) != _partition_cell(pf, 1, 3),
        "vc2fwl_classes": pf.n_var_classes,
        "delta_equals_vc2wl": pd == p2,
    }
    ok = (obs["vc2wl_merges"]
          and abs(obs["x15"] - (-0.115)) <= 2e-3
          and abs(obs["x24"] - (-0.172)) <= 2e-3
          and obs["vc2fwl_separates"]
          and obs["vc2fwl_classes"] == 21
          and obs["delta_equals_vc2wl"])
    return CaseReport(
        "vc2wl_fail", ok, obs,
        expected={"x15": _exp(-0.115, "PAPER"), "x24": _exp(-0.172, "PAPER"),
                  "vc2wl_merges": _exp(True, "PAPER"),
                  "vc2fwl_separates": _exp(True, "PAPER"),
                  "vc2fwl_classes": _exp(21, "PAPER"),
                  "delta_equals_vc2wl": _exp(True, "PAPER")},
        tolerance={"x15": 2e-3, "x24": 2e-3})


def case_fwlplus_strict() -> CaseReport:
    inst = tuple_vs_multiset_instance()
    s_fwl = step(Algo.VC2FWL, init_colors(inst), inst)
    s_plus = step(Algo.VC2FWLP, init_colors(inst), inst)
    obs = {
        "fwl_merges": _partition_cell(s_fwl, 0, 1) == _partition_cell(s_fwl, 2, 3),
        "fwlplus_separates":
            _partition_cell(s_plus, 0, 1) != _partition_cell(s_plus, 2, 3),
    }
    ok = obs["fwl_merges"] and obs["fwlplus_separates"]
    return CaseReport("fwlplus_strict", ok, obs,
                      expected={"fwl_merges": _exp(True, "PAPER"),
                                "fwlplus_separates": _exp(True, "PAPER")})


def case_incomparable() -> CaseReport:
    inst = incomparability_instance()
    s_2wl = step(Algo.VC2WL, init_colors(inst), inst)
    s_fwl = step(Algo.VC2FWL, init_colors(inst), inst)
    obs = {
        "vc2wl_separates":
            _partition_cell(s_2wl, 0, 3) != _partition_cell(s_2wl, 1, 2),
        "vc2fwl_merges":
            _partition_cell(s_fwl, 0, 3) == _partition_cell(s_fwl, 1, 2),
    }
    ok = obs["vc2wl_separates"] and obs["vc2fwl_merges"]
    return CaseReport("incomparable", ok, obs,
                      expected={"vc2wl_separates": _exp(True, "PAPER"),
                                "vc2fwl_merges": _exp(True, "PAPER")})


def case_delta_strict() -> CaseReport:
    inst = regular_adjacency_instance()
    p2, _ = run_to_stable(Algo.VC2WL, inst)
    s_delta = step(Algo.DELTA_VC2WL, init_colors(inst), inst)
    obs = {
        "vc2wl_merges": _partition_cell(p2, 0, 5) == _partition_cell(p2, 1, 4),
        "delta_separates":
            _partition_cell(s_delta, 0, 5) != _partition_cell(s_delta, 1, 4),
    }
    ok = obs["vc2wl_merges"] and obs["delta_separates"]
    return CaseReport("delta_strict", ok, obs,
                      expected={"vc2wl_merges": _exp(True, "PAPER"),
                                "delta_separates": _exp(True, "PAPER")})


def case_seq_pipeline_fail() -> CaseReport:
    inst = sequential_pipeline_instance()
    stage1, _ = run_to_stable(Algo.VCWL, inst)
    final = vcwl_then_multiset_fwl(inst)
    X = min_norm_solution(inst)
    obs = {
        "stage1_pattern_ok": pattern_matches(stage1.var, PIPELINE_STAGE1_PATTERN),
        "final_pattern_ok": pattern_matches(final.var, PIPELINE_STAGE2_PATTERN),
        "classes_equal": _partition_cell(final, 0, 2) == _partition_cell(final, 0, 3),
        "x13": float(X[0, 2]),
        "x14": float(X[0, 3]),
    }
    ok = (obs["stage1_pattern_ok"] and obs["final_pattern_ok"]
          and obs["classes_equal"]
          and abs(obs["x13"] - obs["x14"]) > 0.5)
    return CaseReport(
        "seq_pipeline_fail", ok, obs,
        expected={"stage1_pattern": _exp(PIPELINE_STAGE1_PATTERN, "PAPER"),
                  "final_pattern": _exp(PIPELINE_STAGE2_PATTERN, "PAPER"),
                  "classes_equal": _exp(True, "PAPER"),
                  "x13": _exp(-4.889, "PAPER"), "x14": _exp(0.0, "PAPER"),
                  "solution_gap_exceeds": _exp(0.5, "PAPER")})


def case_multiset_encoding_fail() -> CaseReport:
    inst = diag_block_instance()
    part = joint_encoding_stable(inst)
    X = min_norm_solution(inst)
    obs = {
        "classes_equal": _partition_cell(part, 1, 1) == _partition_cell(part, 2, 2),
        "diag": [float(X[i, i]) for i in range(3)],
    }
    ok = (obs["classes_equal"]
          and abs(obs["diag"][0] - 0.5) <= 1e-3
          and abs(obs["diag"][1] - 0.5) <= 1e-3
          and abs(obs["diag"][2] - 1.0) <= 1e-3)
    return CaseReport(
        "multiset_encoding_fail", ok, obs,
        expected={"classes_equal": _exp(True, "PAPER"),
                  "diag": _exp([0.5, 0.5, 1.0], "PAPER")},
        tolerance={"diag": 1e-3})


# --- theorem-consequence checks -----------------------------------------

def _classes(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: the positions sorted by label, and where each
    label's run starts in that order."""
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    return order, np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))


def _class_spreads(values: np.ndarray, classes) -> np.ndarray:
    """Largest max - min of ``values`` along the last axis over the
    positions of one class of ``_classes``, for each leading index (0.0
    without positions)."""
    order, starts = classes
    if not len(order):
        return np.zeros(values.shape[:-1])
    rows = values[..., order]
    return (np.maximum.reduceat(rows, starts, axis=-1)
            - np.minimum.reduceat(rows, starts, axis=-1)).max(axis=-1)


_TRAJECTORY_BLOCK = 64  # iterations whose spreads are checked together


def check_trajectory_refinement(inst: SdpInstance, iters: int = 500,
                                case_id: str = "trajectory") -> CaseReport:
    """Within-class spread of the solver iterates stays at noise level.

    The stable joint-pair coloring is computed first; the solver then runs
    from zero and at every iteration the max spread of X (resp. y) over
    each color class must stay below 1e-7 relative, checked per block of
    ``_TRAJECTORY_BLOCK`` iterations.  A failure reports the first
    iteration over its bound (X before y) and its largest spread.
    """
    part, _ = run_to_stable(Algo.VC2FWL, inst)
    expected = {"max_relative_spread": _exp(1e-7, "DERIVED")}
    keys, classes = ("spread", "y_spread"), (_classes(part.var.reshape(-1)), _classes(part.con))
    rows = tuple(np.empty((_TRAJECTORY_BLOCK, w)) for w in (inst.n * inst.n, inst.m))
    steps, worst = iterates(inst, PdhgConfig.eps), 0.0
    for start in range(0, iters, _TRAJECTORY_BLOCK):
        block = range(start, min(start + _TRAJECTORY_BLOCK, iters))
        for t, state in zip(block, steps):
            rows[0][t - start], rows[1][t - start] = state.X.reshape(-1), state.y
        values = [r[:len(block)] for r in rows]
        bounds = np.stack([1e-7 * np.maximum(1.0, np.abs(v).max(axis=1, initial=0.0))
                           for v in values], axis=1)
        spreads = np.stack([_class_spreads(v, c) for v, c in zip(values, classes)], axis=1)
        over = np.flatnonzero(spreads > bounds)
        if over.size:
            r, w = divmod(int(over[0]), 2)
            return CaseReport(case_id, False, {"iteration": start + r + 1, keys[w]: float(
                spreads[r, w]), "bound": float(bounds[r, w])}, expected=expected)
        worst = max(worst, float((spreads / bounds * 1e-7).max()))
    return CaseReport(case_id, True,
                      {"iterations": iters, "worst_relative_spread": worst},
                      expected=expected, tolerance={"relative_spread": 1e-7})


def check_scale_lemma(inst: SdpInstance, alphas=(0.5, 2.0, 10.0),
                      case_id: str = "scale_lemma") -> CaseReport:
    """Scaling b by a > 0 scales the minimum-norm solution by a."""
    base = min_norm_solution(inst)
    errors = {}
    for a in alphas:
        scaled = SdpInstance(n=inst.n, C=inst.C.copy(), b=a * inst.b,
                             metadata=dict(inst.metadata), table=inst.table)
        Xs = min_norm_solution(scaled)
        target = a * base
        denom = max(float(np.linalg.norm(target)), 1e-12)
        errors[str(a)] = float(np.linalg.norm(Xs - target)) / denom
    ok = all(e <= 1e-3 for e in errors.values())
    return CaseReport(case_id, ok, {"relative_errors": errors},
                      expected={"identity": _exp("min_norm(C,A,a*b) == a*min_norm(C,A,b)",
                                                 "PAPER")},
                      tolerance={"relative_frobenius": 1e-3})


_HIERARCHY_ALGOS = (Algo.VCWL, Algo.VC2WL, Algo.VC2FWL, Algo.VC2FWLP,
                    Algo.DELTA_VC2WL, Algo.VC2IGNWL)


def check_hierarchy(instances) -> CaseReport:
    """Empirical refinement lattice over the supplied instances."""
    relations = {
        "fwlp_refines_fwl": (Algo.VC2FWLP, Algo.VC2FWL),
        "fwlp_refines_2wl": (Algo.VC2FWLP, Algo.VC2WL),
        "fwl_refines_vcwl": (Algo.VC2FWL, Algo.VCWL),
        "2wl_refines_vcwl": (Algo.VC2WL, Algo.VCWL),
        "delta_refines_2wl": (Algo.DELTA_VC2WL, Algo.VC2WL),
    }
    violations = dict.fromkeys([*relations, "ignwl_equals_2wl"], 0)
    batches = {algo: run_to_stable_many(algo, instances) for algo in _HIERARCHY_ALGOS}
    for t in range(len(instances)):
        parts = {algo: batch[t][0] for algo, batch in batches.items()}
        for name, (fine, coarse) in relations.items():
            if not refines(parts[fine], parts[coarse]):
                violations[name] += 1
        if parts[Algo.VC2IGNWL] != parts[Algo.VC2WL]:
            violations["ignwl_equals_2wl"] += 1
    ok = all(v == 0 for v in violations.values())
    return CaseReport("hierarchy", ok,
                      {"instances": len(instances), "violations": violations},
                      expected={"violations": _exp(0, "PAPER")})


def check_aux_graph(instances) -> CaseReport:
    """Auxiliary-graph 1-WL partitions match the direct implementation."""
    direct = run_to_stable_many(Algo.VC2FWL, instances)
    mismatches = sum(aux_graph_stable(s) != part for s, (part, _) in zip(instances, direct))
    return CaseReport("aux_graph", mismatches == 0,
                      {"instances": len(instances), "mismatches": mismatches},
                      expected={"mismatches": _exp(0, "DERIVED")})


# The ordered-update algorithms resolve their row/column asymmetry by
# copying the upper triangle (keeping the tuple-vs-multiset separation the
# incomparability witness needs); the copy is frame-dependent, so full
# cell-partition equivariance is a property of the transpose-invariant
# updates only.  Constraint-order invariance holds for every algorithm.
_EQUIVARIANT_ALGOS = (Algo.VCWL, Algo.VC2FWL)


def _relabels_to(base: Partition, var: np.ndarray, con: np.ndarray) -> bool:
    """Whether cell colors ``var`` and constraint colors ``con``, pulled
    back to ``base``'s frame, canonically relabel to ``base``."""
    cv, cc = canonical_labels(var.reshape(-1).tolist(), con.tolist())
    return (np.array_equal(np.array(cv).reshape(base.var.shape), base.var)
            and np.array_equal(np.array(cc), base.con))


def check_color_equivariance(instances, seed: int = 0) -> CaseReport:
    """Stable partitions permute with the instance (transpose-invariant
    algorithms) and ignore constraint order (every algorithm)."""
    rng = np.random.default_rng(seed)
    perms = [(rng.permutation(inst.n).tolist(), rng.permutation(inst.m).tolist())
             for inst in instances]
    reordered = [reorder_constraints(inst, cperm) for inst, (_, cperm) in zip(instances, perms)]
    permuted = [permute_instance(inst, perm) for inst, (perm, _) in zip(instances, perms)]
    failures, B = 0, len(instances)
    for algo in _HIERARCHY_ALGOS:
        equivariant = algo in _EQUIVARIANT_ALGOS
        batch = [*instances, *reordered, *(permuted if equivariant else ())]
        parts = [part for part, _ in run_to_stable_many(algo, batch)]
        for t, (perm, cperm) in enumerate(perms):
            base, pr = parts[t], parts[B + t]
            if equivariant:
                pp = parts[2 * B + t]
                if not _relabels_to(base, pp.var[np.ix_(perm, perm)], pp.con):
                    failures += 1
                    continue
            failures += not _relabels_to(base, pr.var, pr.con[cperm])
    return CaseReport("equivariance", failures == 0,
                      {"checked": B * len(_HIERARCHY_ALGOS), "failures": failures},
                      expected={"failures": _exp(0, "PAPER")})


# --- forward-pass property checks ---------------------------------------

# tolerance of each forward-pass property, per architecture, read by the
# harness and the CLI; symmetry is exact where the layer averages its
# output with its transpose
NN_TOLERANCES = {arch: {"symmetry": 0.0 if arch in _SYMMETRIZED_ARCHS else 1e-12,
                        "equivariance": 1e-9, "invariance": 1e-12}
                 for arch in Arch}


def _max_abs(diffs) -> float:
    """Largest absolute entry over the arrays ``diffs``; NaN if any holds one."""
    return float(np.max([np.max(np.abs(diff), initial=0.0) for diff in diffs]))


def _respects_coloring(arch: Arch, inst: SdpInstance, states) -> bool:
    """Cells with equal refinement colors at round t have bit-equal
    embeddings at layer t (and likewise for constraints)."""
    wl = init_colors(inst)
    algo = ARCH_TO_ALGO[Arch(arch)]
    for t, st in enumerate(states):
        if t:
            wl = step(algo, wl, inst)
        if (_class_spreads(st.var.reshape(-1, st.var.shape[-1]).T,
                           _classes(wl.var_colors.reshape(-1))).max() != 0.0
                or _class_spreads(st.con.T, _classes(wl.con_colors)).max() != 0.0):
            return False
    return True


def nn_deviations(arch: Arch, inst: SdpInstance, d: int, n_layers: int,
                  seed: int) -> dict:
    """Forward-pass properties from three passes: on ``inst``, on a vertex
    permutation of it and on a constraint reordering of it, each drawn by
    a fresh ``default_rng(0)``.

    Returns the largest deviation over all layers from symmetry, from
    equivariance (also of the decoded output) and from constraint-order
    invariance, keyed like ``NN_TOLERANCES``, and ``coloring``: whether the
    embeddings respect the refinement colors round by round.
    """
    perm = np.random.default_rng(0).permutation(inst.n).tolist()
    cperm = np.random.default_rng(0).permutation(inst.m).tolist()
    states, params = forward(arch, inst, d, n_layers, seed)
    pstates, _ = forward(arch, permute_instance(inst, perm), d, n_layers, seed)
    rstates, _ = forward(arch, reorder_constraints(inst, cperm), d, n_layers, seed)
    ix = np.ix_(perm, perm)
    layers = list(zip(states, pstates, rstates))
    out, pout = decode(states[-1], params), decode(pstates[-1], params)
    return {
        "symmetry": _max_abs(st.var - st.var.transpose(1, 0, 2) for st in states),
        "equivariance": _max_abs([*(pst.var[ix] - st.var for st, pst, _ in layers),
                                  pout[ix] - out]),
        "invariance": _max_abs(diff for st, _, rst in layers
                               for diff in (rst.var - st.var, rst.con[cperm] - st.con)),
        "coloring": _respects_coloring(arch, inst, states),
    }


def case_nn_properties(instances, d: int = 8, n_layers: int = 3,
                       seeds=(0, 1)) -> CaseReport:
    # every architecture is held to the same three properties
    worst = dict.fromkeys(NN_TOLERANCES[Arch.VCMPNN], 0.0)
    respect_failures = 0
    ok = True
    for inst in instances:
        for arch in Arch:
            for seed in seeds:
                dev = nn_deviations(arch, inst, d, n_layers, seed)
                for prop, tol in NN_TOLERANCES[arch].items():
                    worst[prop] = max(worst[prop], dev[prop])
                    ok = ok and dev[prop] <= tol
                if not dev["coloring"]:
                    respect_failures += 1
                    ok = False
    return CaseReport("nn_properties", ok,
                      {"worst": worst, "respect_failures": respect_failures},
                      expected={**{prop: _exp(0.0, "TRIVIAL") for prop in worst},
                                "respect_failures": _exp(0, "DERIVED")},
                      tolerance={a.value: dict(NN_TOLERANCES[a]) for a in Arch})


# --- sampling and the full run ------------------------------------------

def sample_instances(seed: int, per_generator: int, n_lo: int = 4,
                     n_hi: int = 12, generators=None) -> list[SdpInstance]:
    """Seeded instances from the CO relaxation generators, n <= n_hi."""
    rng = np.random.default_rng(seed)
    gens = generators or ("maxcut", "maxclique", "mis", "vertexcover", "max2sat")
    out = []
    for gen in gens:
        for _ in range(per_generator):
            sub = int(rng.integers(0, 2 ** 31))
            if gen == "max2sat":
                nv = int(rng.integers(max(2, n_lo - 1), n_hi))  # matrix side nv+1
                out.append(max2sat_sdp(random_clauses(nv, 2 * nv, sub)))
                continue
            if gen == "vertexcover":
                nn_ = int(rng.integers(n_lo, n_hi))             # matrix side nn_+1
                g = er_graph(nn_, 0.5, sub)
                out.append(vertexcover_sdp(g))
                continue
            nn_ = int(rng.integers(n_lo, n_hi + 1))
            g = er_graph(nn_, 0.5, sub)
            out.append({"maxcut": maxcut_sdp, "maxclique": maxclique_sdp,
                        "mis": mis_sdp}[gen](g))
    return out


def trajectory_instances(seed: int) -> list[tuple[str, SdpInstance]]:
    """(case id, instance) of every report of the ``trajectory`` case."""
    out = [("trajectory_diag_pair", prop_diag_pair_instance()),
           ("trajectory_latin", latin_square_instance())]
    rng = np.random.default_rng(seed)
    for idx in range(3):
        g = er_graph(int(rng.integers(6, 13)), 0.5, int(rng.integers(2 ** 31)))
        out.append((f"trajectory_maxcut_{idx}", maxcut_sdp(g)))
    return out


def _trajectory_cases(seed: int) -> list[CaseReport]:
    return [check_trajectory_refinement(inst, case_id=case_id)
            for case_id, inst in trajectory_instances(seed)]


def _scale_lemma_cases(seed: int) -> list[CaseReport]:
    reports = [check_scale_lemma(prop_diag_pair_instance(),
                                 case_id="scale_lemma_diag_pair")]
    rng = np.random.default_rng(seed)
    for idx in range(2):
        g = er_graph(int(rng.integers(5, 9)), 0.6, int(rng.integers(2 ** 31)))
        reports.append(check_scale_lemma(maxcut_sdp(g),
                                         case_id=f"scale_lemma_maxcut_{idx}"))
    return reports


# case id -> the case's reports at a seed (some cases expand to a few
# reports); ``run_all`` runs them in this order
CASES = {
    "vcwl_fail": lambda seed: [case_vcwl_fail()],
    "vc2wl_fail": lambda seed: [case_vc2wl_fail()],
    "fwlplus_strict": lambda seed: [case_fwlplus_strict()],
    "incomparable": lambda seed: [case_incomparable()],
    "delta_strict": lambda seed: [case_delta_strict()],
    "seq_pipeline_fail": lambda seed: [case_seq_pipeline_fail()],
    "multiset_encoding_fail": lambda seed: [case_multiset_encoding_fail()],
    "trajectory": _trajectory_cases,
    "scale_lemma": _scale_lemma_cases,
    "hierarchy": lambda seed: [
        check_hierarchy(sample_instances(seed, per_generator=10))],
    "aux_graph": lambda seed: [
        check_aux_graph(sample_instances(seed + 1, per_generator=2,
                                         n_lo=3, n_hi=8))],
    "equivariance": lambda seed: [check_color_equivariance(
        sample_instances(seed + 2, per_generator=1, n_lo=4, n_hi=9), seed)],
    "nn_properties": lambda seed: [case_nn_properties(
        sample_instances(seed + 3, per_generator=1, n_lo=4, n_hi=7,
                         generators=("maxcut", "maxclique")))],
}
CASE_IDS = tuple(CASES)


def run_case(case_id: str, seed: int = 0) -> list[CaseReport]:
    """Run one named case (some expand to a few reports)."""
    case = CASES.get(case_id)
    if case is None:
        raise ValueError(f"unknown case {case_id!r}; known: {', '.join(CASE_IDS)}")
    return case(seed)


def run_all(seed: int = 0, case_ids=CASE_IDS) -> tuple[list[CaseReport], bool]:
    reports: list[CaseReport] = []
    for cid in case_ids:
        reports.extend(run_case(cid, seed))
    return reports, all(r.passed for r in reports)
