"""Color refinement over SDP variable cells and constraint nodes.

Six refinement algorithms share one synchronous-round skeleton: every
round each variable cell (i, j) and each constraint k builds a canonical
signature from the previous round's colors, signatures are interned to
fresh dense ids (sorted order, so runs are deterministic), and the
ordered-update variants copy the upper triangle onto the lower one.

The "hash" of the underlying definitions is realized exactly: canonical
signature -> sort -> intern, which is injective per round without
probabilistic hashing.  Coefficient equality inside signatures and
neighbor membership use 12-digit quantization (see core.quantize_key).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    SdpInstance,
    ShapeError,
    StabilizationError,
    ZERO_KEY,
    neighbor_lists,
    quantize_key,
)


class Algo(str, Enum):
    VCWL = "vcwl"
    VC2WL = "vc2wl"
    VC2FWL = "vc2fwl"
    VC2FWLP = "vc2fwl+"
    DELTA_VC2WL = "delta"
    VC2IGNWL = "ignwl"


# Ordered row/column updates are not transpose-invariant; these variants
# copy the upper triangle over the lower one after each round so stable
# classes satisfy class(i,j) == class(j,i) for every algorithm.
SYMMETRIZED_ALGOS = frozenset(
    {Algo.VC2WL, Algo.VC2FWLP, Algo.DELTA_VC2WL, Algo.VC2IGNWL})


@dataclass(frozen=True)
class ColorState:
    """Per-round colors: ids are dense 0..K-1 within each namespace."""

    round: int
    var_colors: np.ndarray
    con_colors: np.ndarray
    algo: Algo | None = None

    @property
    def n(self) -> int:
        return self.var_colors.shape[0]


@dataclass(frozen=True, eq=False)
class Partition:
    """Stable equivalence classes with relabeling-canonical ids.

    Variable classes are numbered by first occurrence in row-major cell
    order; constraint classes continue the numbering in constraint order
    (the two namespaces never share a class).
    """

    var: np.ndarray
    con: np.ndarray
    rounds: int

    @property
    def n_var_classes(self) -> int:
        return len(set(self.var.flat))

    @property
    def n_con_classes(self) -> int:
        return len(set(self.con.flat))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self.var, other.var) and np.array_equal(self.con, other.con)

    def to_json_dict(self) -> dict:
        return {"var": self.var.tolist(), "con": self.con.tolist(), "rounds": self.rounds}


def canonical_labels(var_flat, con_flat) -> tuple[list[int], list[int]]:
    """Relabel by first occurrence: cells row-major, then constraints."""
    vmap: dict[int, int] = {}
    out_var = [vmap.setdefault(c, len(vmap)) for c in var_flat]
    base = len(vmap)
    cmap: dict[int, int] = {}
    out_con = [cmap.setdefault(c, base + len(cmap)) for c in con_flat]
    return out_var, out_con


class _View:
    """Precomputed per-instance structure shared by all algorithms."""

    def __init__(self, inst: SdpInstance):
        self.n = inst.n
        self.m = inst.m
        n = inst.n
        self.qC = [[quantize_key(inst.C[i, j]) for j in range(n)] for i in range(n)]
        self.adjC = [[1 if self.qC[i][j] != ZERO_KEY else 0 for j in range(n)]
                     for i in range(n)]
        cell_nbrs, con_nbrs = neighbor_lists(inst)
        self.cell_nbrs = [tuple((k, quantize_key(v)) for k, v in lst) for lst in cell_nbrs]
        self.con_nbrs = [tuple((cell, quantize_key(v)) for cell, v in lst)
                         for lst in con_nbrs]


def _intern(sigs: list) -> list[int]:
    ids = {sig: idx for idx, sig in enumerate(sorted(set(sigs)))}
    return [ids[s] for s in sigs]


def _densify(colors: list[int]) -> list[int]:
    remap = {c: i for i, c in enumerate(sorted(set(colors)))}
    return [remap[c] for c in colors]


def _init_lists(view: _View, inst: SdpInstance) -> tuple[list[int], list[int]]:
    n = view.n
    var_sigs = [(view.qC[i][j], 1 if i == j else 0) for i in range(n) for j in range(n)]
    con_sigs = [(quantize_key(bk),) for bk in inst.b]
    return _intern(var_sigs), _intern(con_sigs)


def init_colors(inst: SdpInstance) -> ColorState:
    """Round-0 colors from (C_ij, diagonal flag) and b_k."""
    view = _View(inst)
    var, con = _init_lists(view, inst)
    return ColorState(
        round=0,
        var_colors=np.array(var, dtype=np.int64).reshape(view.n, view.n),
        con_colors=np.array(con, dtype=np.int64),
        algo=None,
    )


def _con_parts(view: _View, var: list[int]) -> list[tuple]:
    return [tuple(sorted((qa, var[cell]) for cell, qa in view.con_nbrs[k]))
            for k in range(view.m)]


def _cell_con_part(view: _View, con: list[int], cell: int) -> tuple:
    return tuple(sorted((qa, con[k]) for k, qa in view.cell_nbrs[cell]))


def _step_lists(algo: Algo, view: _View, var: list[int], con: list[int]):
    n = view.n
    rows = [var[i * n:(i + 1) * n] for i in range(n)]
    cols = [var[j::n] for j in range(n)]

    var_sigs: list[tuple] = []
    if algo is Algo.VCWL:
        for i in range(n):
            base = i * n
            for j in range(n):
                var_sigs.append((var[base + j], _cell_con_part(view, con, base + j)))
    elif algo is Algo.VC2WL:
        scol = [tuple(sorted(c)) for c in cols]
        srow = [tuple(sorted(r)) for r in rows]
        for i in range(n):
            base = i * n
            for j in range(n):
                var_sigs.append((var[base + j], scol[j], srow[i],
                                 _cell_con_part(view, con, base + j)))
    elif algo is Algo.VC2FWL:
        for i in range(n):
            base = i * n
            row_i = rows[i]
            for j in range(n):
                col_j = cols[j]
                pairs = tuple(sorted(
                    (a, b) if a <= b else (b, a) for a, b in zip(col_j, row_i)))
                var_sigs.append((var[base + j], pairs,
                                 _cell_con_part(view, con, base + j)))
    elif algo is Algo.VC2FWLP:
        for i in range(n):
            base = i * n
            row_i = rows[i]
            for j in range(n):
                pairs = tuple(sorted(zip(cols[j], row_i)))
                var_sigs.append((var[base + j], pairs,
                                 _cell_con_part(view, con, base + j)))
    elif algo is Algo.DELTA_VC2WL:
        adj = view.adjC
        for i in range(n):
            base = i * n
            row_i = rows[i]
            adj_i = adj[i]
            for j in range(n):
                adj_j = adj[j]
                first = tuple(sorted(zip(cols[j], adj_i)))
                second = tuple(sorted(zip(row_i, adj_j)))
                var_sigs.append((var[base + j], first, second,
                                 _cell_con_part(view, con, base + j)))
    elif algo is Algo.VC2IGNWL:
        scol = [tuple(sorted(c)) for c in cols]
        srow = [tuple(sorted(r)) for r in rows]
        for i in range(n):
            base = i * n
            for j in range(n):
                var_sigs.append((var[base + j], scol[j], srow[i],
                                 _cell_con_part(view, con, base + j),
                                 var[i * n + i], var[j * n + j]))
    else:  # pragma: no cover
        raise ValueError(f"unknown algorithm {algo}")

    new_var = _intern(var_sigs)
    new_con = _intern([(con[k], part) for k, part in enumerate(_con_parts(view, var))])

    if algo in SYMMETRIZED_ALGOS:
        for i in range(n):
            for j in range(i + 1, n):
                new_var[j * n + i] = new_var[i * n + j]
        new_var = _densify(new_var)
    return new_var, new_con


def step(algo: Algo, state: ColorState, inst: SdpInstance) -> ColorState:
    """One synchronous refinement round of ``algo``."""
    algo = Algo(algo)
    if state.algo is not None and state.algo is not algo:
        raise ShapeError(f"state was produced by {state.algo}, not {algo}")
    if state.var_colors.shape != (inst.n, inst.n) or len(state.con_colors) != inst.m:
        raise ShapeError("state does not match instance dimensions")
    view = _View(inst)
    var, con = _step_lists(algo, view, state.var_colors.reshape(-1).tolist(),
                           state.con_colors.tolist())
    return ColorState(
        round=state.round + 1,
        var_colors=np.array(var, dtype=np.int64).reshape(inst.n, inst.n),
        con_colors=np.array(con, dtype=np.int64),
        algo=algo,
    )


def _assert_monotone(old_var, old_con, new_var, new_con):
    # every new class must sit inside one old class; constraint ids are
    # offset so the two namespaces cannot collide in the check
    off = 1 << 60
    back: dict[int, int] = {}
    for o, nw in zip(old_var + old_con, new_var + [c + off for c in new_con]):
        if back.setdefault(nw, o) != o:
            raise StabilizationError("refinement step merged classes (bug)")


def run_to_stable(algo: Algo, inst: SdpInstance,
                  max_rounds: int | None = None) -> tuple[Partition, int]:
    """Iterate ``step`` until the joint partition stops refining.

    Returns the relabeling-canonical stable partition and the number of
    rounds executed (the final round is the one that confirmed
    stability).  ``max_rounds`` defaults to n^2 + m + 1, an upper bound
    on the number of strict refinements.
    """
    algo = Algo(algo)
    view = _View(inst)
    if max_rounds is None:
        max_rounds = inst.n * inst.n + inst.m + 1
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    var, con = _init_lists(view, inst)
    canon = canonical_labels(var, con)
    for rounds_used in range(1, max_rounds + 1):
        new_var, new_con = _step_lists(algo, view, var, con)
        _assert_monotone(var, con, new_var, new_con)
        new_canon = canonical_labels(new_var, new_con)
        if new_canon == canon:
            pv, pc = canon
            return Partition(
                var=np.array(pv, dtype=np.int64).reshape(inst.n, inst.n),
                con=np.array(pc, dtype=np.int64),
                rounds=rounds_used,
            ), rounds_used
        var, con, canon = new_var, new_con, new_canon
    raise StabilizationError(
        f"{algo} did not stabilize within {max_rounds} rounds (impossible for "
        "a monotone step; treat as a bug)")


def refines(p: Partition, q: Partition) -> bool:
    """True iff every class of ``p`` is contained in a class of ``q``."""
    if p.var.shape != q.var.shape or p.con.shape != q.con.shape:
        raise ShapeError("partitions have different index sets")
    seen: dict[tuple[int, int], int] = {}
    for pc, qc in zip(p.var.flat, q.var.flat):
        if seen.setdefault((0, int(pc)), int(qc)) != qc:
            return False
    for pc, qc in zip(p.con, q.con):
        if seen.setdefault((1, int(pc)), int(qc)) != qc:
            return False
    return True


# --- ablation pipelines used by the verification harness ---------------

def _multiset_fwl_stable(var: list[int], n: int,
                         max_rounds: int) -> tuple[list[int], int]:
    """Pure multiset pair refinement, no constraint aggregation."""
    canon = canonical_labels(var, [])[0]
    for rounds_used in range(1, max_rounds + 1):
        rows = [var[i * n:(i + 1) * n] for i in range(n)]
        cols = [var[j::n] for j in range(n)]
        sigs = []
        for i in range(n):
            row_i = rows[i]
            for j in range(n):
                pairs = tuple(sorted(
                    (a, b) if a <= b else (b, a) for a, b in zip(cols[j], row_i)))
                sigs.append((var[i * n + j], pairs))
        new_var = _intern(sigs)
        new_canon = canonical_labels(new_var, [])[0]
        if new_canon == canon:
            return canon, rounds_used
        var, canon = new_var, new_canon
    raise StabilizationError("multiset refinement did not stabilize")


def vcwl_then_multiset_fwl(inst: SdpInstance,
                           max_rounds: int | None = None) -> Partition:
    """Run plain bipartite refinement to stability, then multiset pair
    refinement on its variable colors (constraint aggregation frozen)."""
    if max_rounds is None:
        max_rounds = inst.n * inst.n + inst.m + 1
    stage1, r1 = run_to_stable(Algo.VCWL, inst, max_rounds)
    var, r2 = _multiset_fwl_stable(stage1.var.reshape(-1).tolist(), inst.n, max_rounds)
    pv, pc = canonical_labels(var, stage1.con.tolist())
    return Partition(var=np.array(pv, dtype=np.int64).reshape(inst.n, inst.n),
                     con=np.array(pc, dtype=np.int64), rounds=r1 + r2)


def joint_encoding_stable(inst: SdpInstance,
                          max_rounds: int | None = None) -> Partition:
    """Initialize each cell from (C_ij, multiset of (A_kij, b_k) over all
    k), then run multiset pair refinement; constraints are never revisited."""
    if max_rounds is None:
        max_rounds = inst.n * inst.n + inst.m + 1
    n = inst.n
    qb = [quantize_key(bk) for bk in inst.b]
    cell_nbrs, _ = neighbor_lists(inst)
    sigs = []
    for cell, lst in enumerate(cell_nbrs):
        qa = [ZERO_KEY] * inst.m  # constraints absent from the cell hold zero
        for k, v in lst:
            qa[k] = quantize_key(v)
        sigs.append((quantize_key(inst.C[cell // n, cell % n]), tuple(sorted(zip(qa, qb)))))
    var, rounds = _multiset_fwl_stable(_intern(sigs), n, max_rounds)
    pv, pc = canonical_labels(var, qb)
    return Partition(var=np.array(pv, dtype=np.int64).reshape(n, n),
                     con=np.array(pc, dtype=np.int64), rounds=rounds)
