"""Color refinement over SDP variable cells and constraint nodes.

Six refinement algorithms share one synchronous round on int64 color
arrays.  Each round gives every cell a fixed-width signature row: its
color, its algorithm's columns from ``_SIGNATURES``, and the id of its
multiset of (A_kij, color of k); each constraint gets its color and its
multiset of (A_kij, color of cell).  One stable ``argsort`` of the rows'
``core.order_keys`` interns them exactly; ordered-update variants intern
the upper triangle and copy it to (j, i).  Multisets are interned one
size at a time, never padded.  ``run_to_stable_many`` sorts its
instances by n and refines batches of up to ``_BATCH_CELLS`` padded
cells (B, N, N) in one round loop each.  Round-0 rows start with the
instance index and later rows with the previous color, so no color joins
two instances.  Padded cells hold a sentinel above every real id, never
interned, that each real cell of an instance meets equally often, so it
splits no class.  Coefficients come from ``SdpInstance.int_view``, built
once per instance.  ``tests/oracles.py`` keeps the column-by-column
``np.lexsort`` interning and the pure-Python refinement this replaced as
differential oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import SdpInstance, ShapeError, StabilizationError, _segment_groups, order_keys


class Algo(str, Enum):
    VCWL = "vcwl"
    VC2WL = "vc2wl"
    VC2FWL = "vc2fwl"
    VC2FWLP = "vc2fwl+"
    DELTA_VC2WL = "delta"
    VC2IGNWL = "ignwl"


# Ordered row/column updates are not transpose-invariant; these variants
# give (j, i) the new color of (i, j) for i <= j after each round so stable
# classes satisfy class(i,j) == class(j,i) for every algorithm.
SYMMETRIZED_ALGOS = frozenset(
    {Algo.VC2WL, Algo.VC2FWLP, Algo.DELTA_VC2WL, Algo.VC2IGNWL})


class RoundBudgetError(StabilizationError):
    """A ``max_rounds`` the caller chose ran out before the partition
    stabilized."""


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


def _n_ids(ids: np.ndarray) -> int:
    return int(ids.max()) + 1 if ids.size else 0


def _intern_rows(table: np.ndarray) -> np.ndarray:
    """Dense ids of the rows of a 2-D int64 table in lexicographic order:
    equal rows, equal ids.  One stable ``argsort`` of the rows'
    ``order_keys`` ranks them, whatever the width."""
    rows, width = table.shape
    if rows == 0 or width == 0:
        return np.zeros(rows, dtype=np.int64)
    order = np.argsort(order_keys(table), kind="stable")
    ranked = table[order]
    new = np.empty(rows, dtype=bool)
    new[0] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    ids = np.empty(rows, dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids


def _multiset_ids(codes: np.ndarray, groups) -> np.ndarray:
    """Id of the multiset of ``codes`` over each segment of ``groups``
    (``IntView.by_cell`` or ``by_con``): equal multisets, equal ids.  Each
    size is interned on its own and offset past the sizes before it."""
    out = np.empty(sum(len(members) for members, _ in groups), dtype=np.int64)
    base = 0
    for members, entries in groups:
        out[members] = _intern_rows(np.sort(codes[entries], axis=1)) + base
        base += len(members)
    return out


# --- signature builders: (..., N, N) colors -> (..., N, N, width) int64 ---

def _row_col_ids(V, view):
    """Ids of the sorted column j and the sorted row i of cell (i, j)."""
    n = V.shape[-1]
    rows = np.sort(np.concatenate([V, np.swapaxes(V, -1, -2)], axis=-2), axis=-1)
    ids = _intern_rows(rows.reshape(-1, n)).reshape(V.shape[:-2] + (2 * n,))
    return np.stack(np.broadcast_arrays(ids[..., None, n:], ids[..., :n, None]), axis=-1)


def _pair_codes(V, ordered: bool):
    """Multiset over u of the pair (V[u, j], V[i, u]) of cell (i, j) as
    codes sorted along the last axis; unordered pairs unless ``ordered``."""
    K = _n_ids(V)
    col, row = np.swapaxes(V, -1, -2)[..., None, :, :], V[..., :, None, :]
    codes = col * K + row if ordered else np.minimum(col, row) * K + np.maximum(col, row)
    return np.sort(codes, axis=-1)


def _delta_codes(V, view):
    """Multisets over u of (V[u, j], adj[i, u]) and of (V[i, u], adj[j, u])."""
    adj = view.adj
    first = np.swapaxes(V, -1, -2)[..., None, :, :] * 2 + adj[..., :, None, :]
    second = V[..., :, None, :] * 2 + adj[..., None, :, :]
    return np.concatenate([np.sort(first, axis=-1), np.sort(second, axis=-1)], axis=-1)


def _ign_columns(V, view):
    """The row and column ids plus the colors of (i, i) and (j, j)."""
    d = np.diagonal(V, axis1=-2, axis2=-1)
    diag = np.stack(np.broadcast_arrays(d[..., :, None], d[..., None, :]), axis=-1)
    return np.concatenate([_row_col_ids(V, view), diag], axis=-1)


_SIGNATURES = {
    Algo.VCWL: lambda V, view: np.zeros(V.shape + (0,), dtype=np.int64),
    Algo.VC2WL: _row_col_ids,
    Algo.VC2FWL: lambda V, view: _pair_codes(V, ordered=False),
    Algo.VC2FWLP: lambda V, view: _pair_codes(V, ordered=True),
    Algo.DELTA_VC2WL: _delta_codes,
    Algo.VC2IGNWL: _ign_columns,
}

_BATCH_CELLS = 1024  # padded cells (instances x N^2) of one run_to_stable_many batch


class _Batch:
    """Instances refined together, their ``coo`` entries at offset cells
    and constraints; ``IntView`` ids stay per instance, paired with colors."""

    def __init__(self, insts):
        self.ns, self.ms = (np.array([getattr(s, f) for s in insts]) for f in "nm")
        B, N = len(insts), int(self.ns.max())
        self.shape, self.con_start = (B, N, N), np.cumsum(self.ms) - self.ms
        b, i, j = np.indices(self.shape).reshape(3, -1)
        real = (i < self.ns[b]) & (j < self.ns[b])
        self.real, self.upper = np.flatnonzero(real), np.flatnonzero(real & (i <= j))
        self.mirror = ((b * N + j) * N + i)[self.upper]
        self.cell_inst, self.con_inst = b[self.real], np.repeat(np.arange(B), self.ms)
        self.diag = (i == j)[self.real]
        self.k = np.concatenate([s.coo[0] + o for s, o in zip(insts, self.con_start)])
        self.cell = np.concatenate([(t * N + s.coo[1] // s.n) * N + s.coo[1] % s.n
                                    for t, s in enumerate(insts)])
        views = [s.int_view for s in insts]
        self.C, self.A, self.b, adj = (np.concatenate([getattr(v, f).reshape(-1) for v in views])
                                       for f in ("C", "A", "b", "adj"))
        self.adj = np.zeros(self.shape, dtype=bool)
        self.adj.reshape(-1)[self.real] = adj
        self.by_cell = _segment_groups(self.cell, len(b), np.argsort(self.cell, kind="stable"))
        self.by_con = _segment_groups(self.k, len(self.con_inst), np.arange(len(self.k)))

    def cells(self, ids, at, mirror) -> np.ndarray:
        """(B, N, N) colors: ``ids`` at ``at`` and ``mirror``, else the sentinel."""
        var = np.full(self.shape, _n_ids(ids), dtype=np.int64)
        var.reshape(-1)[at] = var.reshape(-1)[mirror] = ids
        return var

    def init(self) -> tuple[np.ndarray, np.ndarray]:
        """Round-0 colors from (C_ij, diagonal flag) and b_k."""
        var = _intern_rows(np.stack([self.cell_inst, self.C, self.diag], axis=1))
        con = _intern_rows(np.stack([self.con_inst, self.b], axis=1))
        return self.cells(var, self.real, self.real), con

    def refine(self, algo: Algo, var, con) -> tuple[np.ndarray, np.ndarray]:
        """One round of ``algo`` on (B, N, N) and (M,) colors."""
        cell_sets = _multiset_ids(self.A * _n_ids(con) + con[self.k], self.by_cell)
        table = np.concatenate([var[..., None], _SIGNATURES[algo](var, self),
                                cell_sets.reshape(var.shape + (1,))], axis=3)
        at, mirror = (self.upper, self.mirror) if algo in SYMMETRIZED_ALGOS else (self.real,) * 2
        rows = table.reshape(var.size, -1)  # every cell is real: no copy
        new_var = self.cells(_intern_rows(rows if at.size == var.size else rows[at]), at, mirror)
        con_sets = _multiset_ids(self.A * _n_ids(var) + var.reshape(-1)[self.cell], self.by_con)
        return new_var, _intern_rows(np.stack([con, con_sets], axis=1))

    def class_counts(self, var, con) -> np.ndarray:
        """Cell plus constraint classes of each instance."""
        ids = var.reshape(-1)[self.real]
        ids = np.concatenate([ids, _n_ids(ids) + con])
        owner_of_id = np.zeros(_n_ids(ids), dtype=np.int64)
        owner_of_id[ids] = np.concatenate([self.cell_inst, self.con_inst])
        return np.bincount(owner_of_id, minlength=len(self.ns))


def init_colors(inst: SdpInstance) -> ColorState:
    """Round-0 colors from (C_ij, diagonal flag) and b_k."""
    var, con = _Batch([inst]).init()
    return ColorState(round=0, var_colors=var[0], con_colors=con, algo=None)


def step(algo: Algo, state: ColorState, inst: SdpInstance) -> ColorState:
    """One synchronous refinement round of ``algo``."""
    algo = Algo(algo)
    if state.algo is not None and state.algo is not algo:
        raise ShapeError(f"state was produced by {state.algo}, not {algo}")
    if state.var_colors.shape != (inst.n, inst.n) or len(state.con_colors) != inst.m:
        raise ShapeError("state does not match instance dimensions")
    var, con = _Batch([inst]).refine(algo, state.var_colors[None], state.con_colors)
    return ColorState(round=state.round + 1, var_colors=var[0], con_colors=con, algo=algo)


def _assert_monotone(old: Partition, new: Partition) -> None:
    if not refines(new, old):
        raise StabilizationError("refinement step merged classes (bug)")


def _partition(var: np.ndarray, con: np.ndarray, rounds: int) -> Partition:
    pv, pc = canonical_labels(var.reshape(-1).tolist(), con.tolist())
    return Partition(var=np.array(pv, dtype=np.int64).reshape(var.shape),
                     con=np.array(pc, dtype=np.int64), rounds=rounds)


def _round_bound(inst: SdpInstance) -> int:
    """n^2 + m + 1, an upper bound on the number of strict refinements."""
    return inst.n * inst.n + inst.m + 1


def _stabilize(algo: Algo, insts, max_rounds: int | None) -> list[tuple[Partition, int]]:
    """``run_to_stable`` of each instance of one ``_Batch``."""
    batch = _Batch(insts)
    budget = max(map(_round_bound, insts)) if max_rounds is None else max_rounds
    var, con = batch.init()
    count = batch.class_counts(var, con)
    out = [None] * len(insts)
    for rounds_used in range(1, budget + 1):
        new_var, new_con = batch.refine(algo, var, con)
        _assert_monotone(Partition(var, con, 0), Partition(new_var, new_con, 0))
        new_count = batch.class_counts(new_var, new_con)
        # a refinement with as many classes is the same partition
        for t in np.flatnonzero(new_count == count).tolist():
            if out[t] is None:
                n, s = batch.ns[t], batch.con_start[t]
                part = _partition(var[t, :n, :n], con[s:s + batch.ms[t]], rounds_used)
                out[t] = part, rounds_used
        if None not in out:
            return out
        var, con, count = new_var, new_con, new_count
    if max_rounds is not None:
        raise RoundBudgetError(
            f"{algo.value} did not stabilize within max_rounds={max_rounds}")
    raise StabilizationError(
        f"{algo} did not stabilize within {budget} rounds (impossible for "
        "a monotone step; treat as a bug)")


def run_to_stable_many(algo: Algo, instances,
                       max_rounds: int | None = None) -> list[tuple[Partition, int]]:
    """``run_to_stable`` of each instance, in order.  A batch ends its
    round loop once every instance's class count has stopped growing."""
    algo = Algo(algo)
    if max_rounds is not None and max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    batches = []
    for t in sorted(range(len(instances)), key=lambda t: instances[t].n):
        # n ascends, so a batch of k pads to k * (its last n)^2 cells
        if not batches or (len(batches[-1]) + 1) * instances[t].n ** 2 > _BATCH_CELLS:
            batches.append([])
        batches[-1].append(t)
    out = {t: res for batch in batches
           for t, res in zip(batch, _stabilize(algo, [instances[t] for t in batch], max_rounds))}
    return [out[t] for t in range(len(instances))]


def run_to_stable(algo: Algo, inst: SdpInstance,
                  max_rounds: int | None = None) -> tuple[Partition, int]:
    """Iterate ``step`` until the joint partition stops refining.

    Returns the relabeling-canonical stable partition and the number of
    rounds executed (the final round is the one that confirmed
    stability).  ``max_rounds`` defaults to ``_round_bound(inst)``, which
    no monotone refinement can exhaust; a smaller ``max_rounds`` that runs
    out raises ``RoundBudgetError``.  A ``run_to_stable_many`` of one.
    """
    return run_to_stable_many(algo, [inst], max_rounds)[0]


def refines(p: Partition, q: Partition) -> bool:
    """True iff every class of ``p`` is contained in a class of ``q``
    (class ids are nonnegative, as in every ``Partition`` built here)."""
    if p.var.shape != q.var.shape or p.con.shape != q.con.shape:
        raise ShapeError("partitions have different index sets")
    for fine, coarse in ((p.var.reshape(-1), q.var.reshape(-1)), (p.con, q.con)):
        # map each class of p to the q class of one member, then check all
        back = np.empty(_n_ids(fine), dtype=np.int64)
        back[fine] = coarse
        if np.any(back[fine] != coarse):
            return False
    return True


# --- ablation pipelines used by the verification harness ---------------

def _multiset_fwl_stable(var: np.ndarray, max_rounds: int) -> tuple[np.ndarray, int]:
    """Pure multiset pair refinement of dense (n, n) colors, no constraint
    aggregation: the stable colors and the rounds run."""
    n = len(var)
    for rounds_used in range(1, max_rounds + 1):
        table = np.concatenate([var[:, :, None], _pair_codes(var, ordered=False)], axis=2)
        new_var = _intern_rows(table.reshape(n * n, -1)).reshape(n, n)
        if _n_ids(new_var) == _n_ids(var):
            return var, rounds_used
        var = new_var
    raise StabilizationError("multiset refinement did not stabilize")


def vcwl_then_multiset_fwl(inst: SdpInstance) -> Partition:
    """Run plain bipartite refinement to stability, then multiset pair
    refinement on its variable colors (constraint aggregation frozen)."""
    stage1, r1 = run_to_stable(Algo.VCWL, inst)
    var, r2 = _multiset_fwl_stable(stage1.var, _round_bound(inst))
    return _partition(var, stage1.con, r1 + r2)


def joint_encoding_stable(inst: SdpInstance) -> Partition:
    """Initialize each cell from (C_ij, multiset of (A_kij, b_k) over all
    k), then run multiset pair refinement; constraints are never revisited.

    The multiset over all k is read from the pairs with A_kij != 0: the
    rest are (0, b_k) over the other constraints, fixed by those pairs."""
    view, (k, _, _), n = inst.int_view, inst.coo, inst.n
    joint = _multiset_ids(view.A * _n_ids(view.b) + view.b[k], view.by_cell)
    var = _intern_rows(np.stack([view.C.reshape(-1), joint], axis=1)).reshape(n, n)
    var, rounds = _multiset_fwl_stable(var, _round_bound(inst))
    return _partition(var, view.b, rounds)
