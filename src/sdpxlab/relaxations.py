"""Seeded builders mapping combinatorial/control inputs to SDP instances.

All maximization problems are negated into the canonical minimization
form; additive constants dropped along the way are recorded in
``instance.metadata`` as ``offset``/``scale`` so that
``co_value(inst, obj) = offset + scale * obj`` recovers the original
problem-scale value.  Same seed always yields a bit-identical instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (SdpInstance, SdpxlabError, ShapeError, coords_table, lexsort_repeats,
                   symmetrize)

PAIRING_RETRIES = 100  # seeds the pairing model tries before giving up
LMI_MARGIN = 0.1  # stability margin of the recovered system matrix
LMI_RETRIES = 10  # seeds the system recovery tries before giving up


@dataclass(frozen=True)
class Graph:
    """Simple undirected weighted graph; edges stored as (u, v, w), u < v."""

    n_nodes: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n_nodes < 0:
            raise ShapeError(f"node count must be >= 0, got {self.n_nodes}")
        u, v = self.endpoints().T
        loop, outside = u == v, (u < 0) | (u >= v) | (v >= self.n_nodes)
        _, again = lexsort_repeats(u, v)
        bad = loop | outside | again | ~np.isfinite([e[2] for e in self.edges])
        if bad.any():
            e = int(np.argmax(bad))
            if loop[e]:
                raise ShapeError(f"self-loop at node {u[e]}")
            if outside[e]:
                raise ShapeError(f"bad edge ({u[e]},{v[e]}) for {self.n_nodes} nodes")
            if again[e]:
                raise ShapeError(f"duplicate edge ({u[e]},{v[e]})")
            raise ShapeError(f"non-finite weight on edge ({u[e]},{v[e]})")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def endpoints(self) -> np.ndarray:
        """(n_edges, 2) int64 array of the edges' (u, v), in edge order."""
        return np.array([e[:2] for e in self.edges], dtype=np.int64).reshape(-1, 2)

    def non_edges(self) -> np.ndarray:
        """(count, 2) int64 array of the non-edges (i, j), i < j, row-major."""
        free = np.triu(np.ones((self.n_nodes, self.n_nodes), dtype=bool), 1)
        free[tuple(self.endpoints().T)] = False
        return np.argwhere(free)


@dataclass(frozen=True)
class ClauseMatrix:
    """k x n matrix over {-1, 0, +1}; each clause row has 1 or 2 literals."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=np.int64)
        if arr.ndim != 2:
            raise ShapeError("clause matrix must be 2-dimensional")
        if not np.all(np.isin(arr, (-1, 0, 1))):
            raise ShapeError("clause entries must be in {-1, 0, 1}")
        nnz = np.count_nonzero(arr, axis=1)
        if arr.shape[0] and not np.all((nnz >= 1) & (nnz <= 2)):
            raise ShapeError("each clause must have 1 or 2 literals")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def n_vars(self) -> int:
        return self.matrix.shape[1]


def er_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with unit weights."""
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must be in [0,1], got {p}")
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, 1)  # row-major: the order of one draw per pair
    keep = rng.random(len(i)) < p
    return Graph(n_nodes=n, edges=tuple((u, v, 1.0) for u, v in
                                        zip(i[keep].tolist(), j[keep].tolist())))


def regular_graph(n: int, d: int, seed: int) -> Graph:
    """d-regular graph by the pairing model, rejecting loops/multi-edges."""
    if n * d % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if not 0 <= d < n:
        raise ValueError(f"degree must satisfy 0 <= d < n, got d={d}")
    for attempt in range(PAIRING_RETRIES):
        rng = np.random.default_rng(seed + attempt)
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        pairs = np.sort(stubs.reshape(-1, 2), axis=1)
        edges = np.unique(pairs[:, 0] * n + pairs[:, 1])  # sorted like (u, v)
        if len(edges) == len(pairs) and np.all(pairs[:, 0] < pairs[:, 1]):
            return Graph(n_nodes=n, edges=tuple((u, v, 1.0) for u, v in
                                                zip(*(a.tolist() for a in np.divmod(edges, n)))))
    raise SdpxlabError(f"pairing model failed after {PAIRING_RETRIES} retries")


def maxcut_sdp(g: Graph) -> SdpInstance:
    """Cut relaxation: min sum_e (w_e/2) X_uv over PSD X with unit diagonal.

    The CO cut value is (sum w)/2 minus the reported objective.
    """
    n = g.n_nodes
    C = np.zeros((n, n))
    for u, v, w in g.edges:
        C[u, v] = C[v, u] = w / 4.0
    total_w = sum(w for _, _, w in g.edges)
    d = np.arange(n)
    return SdpInstance(n=n, C=C, b=np.ones(n), table=coords_table(n, d, d, d, np.ones(n)),
                       metadata={"problem": "maxcut", "offset": total_w / 2.0,
                                 "scale": -1.0})


def _theta_like(n: int, zero_pairs: np.ndarray) -> tuple:
    """(C, table, b): C = -J, trace one, X_ij = 0 on each row of ``zero_pairs``."""
    d = np.arange(n)
    k = np.concatenate([np.zeros(n, np.int64), np.arange(1, len(zero_pairs) + 1)])
    table = coords_table(n, k, np.concatenate([d, zero_pairs[:, 0]]),
                         np.concatenate([d, zero_pairs[:, 1]]), np.ones(len(k)))
    b = np.zeros(len(zero_pairs) + 1)
    b[0] = 1.0
    return -np.ones((n, n)), table, b


def maxclique_sdp(g: Graph) -> SdpInstance:
    """Clique-number relaxation: maximize <J, X>, trace one, X zero on
    non-edges.  The relaxation value is the negated objective."""
    C, table, b = _theta_like(g.n_nodes, g.non_edges())
    return SdpInstance(n=g.n_nodes, C=C, b=b, table=table,
                       metadata={"problem": "maxclique", "offset": 0.0, "scale": -1.0})


def mis_sdp(g: Graph) -> SdpInstance:
    """Independence-number relaxation: like the clique form but X vanishes
    on edges instead of non-edges."""
    C, table, b = _theta_like(g.n_nodes, g.endpoints())
    return SdpInstance(n=g.n_nodes, C=C, b=b, table=table,
                       metadata={"problem": "mis", "offset": 0.0, "scale": -1.0})


def vertexcover_sdp(g: Graph) -> SdpInstance:
    """Cover relaxation over an (n+1)-dimensional matrix indexed {0} + V.

    Objective sum_i (1 + X_0i)/2 becomes C_0i = 1/4 with the constant n/2
    in metadata; every diagonal is pinned to 1 and each edge adds the
    constraint X_ij + X_00 - X_0i - X_0j = 0.
    """
    n = g.n_nodes + 1
    C = np.zeros((n, n))
    C[0, 1:] = 0.25
    C[1:, 0] = 0.25
    i, j = g.endpoints().T + 1
    zero = np.zeros_like(i)
    d = np.arange(n)
    k = np.concatenate([d, np.repeat(n + np.arange(len(i)), 4)])
    rows = np.concatenate([d, np.stack([zero, zero, zero, i], axis=1).reshape(-1)])
    cols = np.concatenate([d, np.stack([zero, i, j, j], axis=1).reshape(-1)])
    vals = np.concatenate([np.ones(n), np.tile([1.0, -0.5, -0.5, 0.5], len(i))])
    b = np.concatenate([np.ones(n), np.zeros(len(i))])
    return SdpInstance(n=n, C=C, b=b, table=coords_table(n, k, rows, cols, vals),
                       metadata={"problem": "vertexcover",
                                 "offset": g.n_nodes / 2.0, "scale": 1.0})


def max2sat_sdp(cm: ClauseMatrix) -> SdpInstance:
    """Homogenized satisfiability relaxation over an (n+1)-matrix.

    The quadratic objective (x^T A^T A x - 2 1^T A x)/8 is lifted with the
    diagonal of A^T A dropped (constant under X_ii = 1, tracked in
    metadata); all n+1 diagonal entries are constrained to 1.
    """
    Amat = cm.matrix.astype(np.float64)
    nv = cm.n_vars
    n = nv + 1
    G = Amat.T @ Amat
    col_sums = Amat.sum(axis=0)
    C = np.zeros((n, n))
    C[:nv, :nv] = G - np.diag(np.diag(G))
    C[:nv, nv] = -col_sums
    C[nv, :nv] = -col_sums
    C = symmetrize(C / 8.0)
    d = np.arange(n)
    return SdpInstance(n=n, C=C, b=np.ones(n), table=coords_table(n, d, d, d, np.ones(n)),
                       metadata={"problem": "max2sat",
                                 "offset": float(np.trace(G)) / 8.0, "scale": 1.0})


def random_clauses(n_vars: int, k: int, seed: int) -> ClauseMatrix:
    """k random 2-literal clauses over n_vars variables with random signs."""
    if n_vars < 2:
        raise ValueError("need at least 2 variables for 2-literal clauses")
    rng = np.random.default_rng(seed)
    rows = np.zeros((k, n_vars), dtype=np.int64)
    for c in range(k):
        i, j = rng.choice(n_vars, size=2, replace=False)
        rows[c, i] = 1 if rng.random() < 0.5 else -1
        rows[c, j] = 1 if rng.random() < 0.5 else -1
    return ClauseMatrix(matrix=rows)


def lmi_sdp(n: int, m: int, seed: int) -> SdpInstance:
    """Stability-certificate instance built around a known feasible point.

    A random trace-one positive definite P is sampled, a system matrix is
    recovered from the vectorized equation sym(A_sys^T P) = -LMI_MARGIN/2 * I
    (dense least-squares solve), and m sparse direction vectors turn the
    matrix inequality into scalar constraints satisfied exactly by P.  A
    trace constraint is appended last; the objective is random symmetric.
    """
    if n < 1 or m < 0:
        raise ShapeError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    for attempt in range(LMI_RETRIES):
        rng = np.random.default_rng(seed + attempt)
        B = rng.standard_normal((n, n))
        P = B @ B.T + 0.1 * np.eye(n)
        P /= np.trace(P)

        op = np.zeros((n * n, n * n))
        for col in range(n * n):
            E = np.zeros((n, n))
            E.flat[col] = 1.0
            op[:, col] = (E.T @ P + P @ E).reshape(-1)
        target = (-LMI_MARGIN * np.eye(n)).reshape(-1)
        sol, _, _, _ = np.linalg.lstsq(op, target, rcond=None)
        A_sys = sol.reshape(n, n)
        if np.linalg.norm(A_sys.T @ P + P @ A_sys
                          + LMI_MARGIN * np.eye(n)) > 1e-8:
            continue  # inconsistent solve; resample

        dense = np.zeros((m, n, n))
        for ak in dense:
            v = np.zeros(n)
            pos = rng.choice(n, size=min(2, n), replace=False)
            v[pos] = np.where(rng.random(len(pos)) < 0.5, 1.0, -1.0)
            ak[:] = symmetrize(A_sys @ np.outer(v, v))
        i, j = np.triu_indices(n)
        d = np.arange(n)
        table = coords_table(
            n, np.concatenate([np.repeat(np.arange(m), len(i)), np.full(n, m)]),
            np.concatenate([np.tile(i, m), d]), np.concatenate([np.tile(j, m), d]),
            np.concatenate([dense[:, i, j].reshape(-1), np.ones(n)]))
        kept = np.zeros((m + 1, n, n))  # each constraint's stored entries
        tk, ti, tj, tv = table
        kept[tk, ti, tj] = kept[tk, tj, ti] = tv
        b = [float(np.einsum("ij,ij->", ak, P)) for ak in kept[:m]] + [1.0]
        C = symmetrize(rng.standard_normal((n, n)))
        return SdpInstance(n=n, C=C, b=np.array(b), table=table,
                           metadata={"problem": "lmi", "offset": 0.0, "scale": 1.0})
    raise SdpxlabError(f"system recovery failed after {LMI_RETRIES} retries")


def lp_to_sdp(c, A, b) -> SdpInstance:
    """Embed an equality-form LP: diagonal data plus off-diagonal zero pins."""
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if A.ndim != 2 or A.shape != (len(b), len(c)):
        raise ShapeError(f"LP data shapes inconsistent: A{A.shape}, c{c.shape}, b{b.shape}")
    n, rows = len(c), len(b)
    i, j = np.triu_indices(n, 1)
    d = np.tile(np.arange(n), rows)
    table = coords_table(
        n, np.concatenate([np.repeat(np.arange(rows), n), rows + np.arange(len(i))]),
        np.concatenate([d, i]), np.concatenate([d, j]),
        np.concatenate([A.reshape(-1), np.ones(len(i))]))
    return SdpInstance(n=n, C=np.diag(c), b=np.concatenate([b, np.zeros(len(i))]),
                       table=table,
                       metadata={"problem": "lp", "offset": 0.0, "scale": 1.0})


def co_value(inst: SdpInstance, obj: float) -> float:
    """Map an SDP objective back to the original problem scale."""
    meta = inst.metadata
    return meta["offset"] + meta["scale"] * obj
