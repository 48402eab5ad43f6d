"""Independent oracles used only by the test suite.

Each oracle re-derives a quantity along a different computational path
than the implementation it checks: eigenvalues by inertia bisection
instead of LAPACK, solver objectives by a penalty method instead of
primal-dual iteration, metrics by direct loop evaluation instead of
vectorized contractions.  The exceptions are copies of code the library
replaced, kept to check the replacement against: the fixed-weight PDHG
loop and the restart rule written out around it (``pdhg.iterates`` must
do the same arithmetic bit for bit and restart at the same steps with
the same weights),
the sorted, sign-normalised spectral projection (``pdhg.project_psd``), the
entry-by-entry relabeling and reordering loops (``core.permute_instance``,
``core.reorder_constraints``), and the readers of the dense (m, n, n)
constraint stack and of the per-matrix coordinates that the flat COO form
replaced (``core.apply_A``, ``core.apply_A_adjoint``,
``core.constraint_rank``, ``core.neighbor_lists``,
``colors.joint_encoding_stable``), the pure-Python 1-WL on the auxiliary
graph that the flat edge arrays of ``sdpxlab.auxgraph`` replaced
(``reference_aux_graph_stable``), the set-based refinement containment
that the back-map of ``colors.refines`` replaced (``set_refines``), the
pure-Python color refinement
that the int64 signature table of ``sdpxlab.colors`` replaced: per-cell
signature tuples, sorted and interned each round (``reference_step``,
``reference_run_to_stable`` and the two ablation pipelines), and the
per-cell forward layer that the segment sums of ``sdpxlab.nn`` replaced:
one MLP call and one sorted row sum per cell, constraint or row
(``reference_layer``, ``reference_triangular_attention``, ``csum``), and
the verify property checks that ``verify.nn_deviations`` and one
class-spread reduction replaced: one forward pass per property and one
loop per color class (``nn_symmetry_deviation``,
``nn_equivariance_deviation``, ``nn_invariance_deviation``,
``nn_coloring_respect``, ``reference_trajectory_refinement``), the
row-order segment sums that the per-column sorts of ``nn._segment_sum``
and ``nn._pair_sum`` replaced (``row_segment_sum``, ``row_pair_sum``),
the ``np.lexsort`` interning that the byte-key sort of
``colors._intern_rows`` replaced (``lexsort_intern_rows``), and the
SDPA reader that parsed and checked one entry line at a time and the
writer that read ``-C`` one cell at a time, which the column-wise reader
and writer of ``sdpxlab.sdpa`` replaced (``reference_read_sdpa``,
``reference_write_sdpa``), and the per-matrix forms that the entry table
of ``SdpInstance`` replaced: the matrices sliced from a table and the
flat COO form built from the matrices (``matrices_from_table``,
``reference_coo``), and the constructors and generators that one
vectorized check, ``core.coords_table``, replaced: the per-triple matrix
constructors
(``reference_from_coords``, ``reference_from_dense``), the per-edge
graph check and the per-pair graph samplers (``reference_check_graph``,
``reference_er_graph``, ``reference_regular_graph``), and the generators
that built one matrix per constraint (``reference_maxcut_sdp``,
``reference_maxclique_sdp``, ``reference_mis_sdp``,
``reference_vertexcover_sdp``, ``reference_max2sat_sdp``,
``reference_lmi_sdp``, ``reference_lp_to_sdp``).
"""

from __future__ import annotations

import math

import numpy as np


class PivotBreakdown(RuntimeError):
    pass


def _inertia_below(M: np.ndarray, x: float) -> int:
    """Negative-pivot count of the LDL^T factorization of M - xI, which by
    Sylvester's law equals the number of eigenvalues below x."""
    A = M - x * np.eye(M.shape[0])
    neg = 0
    for k in range(A.shape[0]):
        piv = A[k, k]
        if piv == 0.0:
            raise PivotBreakdown
        if piv < 0:
            neg += 1
        if k + 1 < A.shape[0]:
            col = A[k + 1:, k].copy()
            A[k + 1:, k + 1:] -= np.outer(col, col) / piv
    return neg


def _count_below(M: np.ndarray, x: float) -> int:
    scale = max(1.0, float(np.max(np.abs(M))))
    for shift in (0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1e-11):
        try:
            return _inertia_below(M, x + shift * scale)
        except PivotBreakdown:
            continue
    raise PivotBreakdown(f"no usable shift at x={x}")


def bisection_eigvals(M: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues (ascending) by bisection on the inertia count."""
    M = (M + M.T) / 2.0
    n = M.shape[0]
    bound = float(np.max(np.sum(np.abs(M), axis=1))) + 1.0  # Gershgorin
    out = []
    for i in range(n):
        lo, hi = -bound, bound
        while hi - lo > tol:
            mid = (lo + hi) / 2.0
            if _count_below(M, mid) >= i + 1:
                hi = mid
            else:
                lo = mid
        out.append((lo + hi) / 2.0)
    return np.array(out)


def _oracle_project(M: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((M + M.T) / 2.0)
    return (v * np.clip(w, 0.0, None)) @ v.T


def penalty_objective(inst, n_starts: int = 5,
                      mu_ladder=(1e2, 1e3, 1e4, 1e5),
                      step_tol: float = 1e-8, max_steps: int = 50000,
                      seed: int = 0) -> float:
    """Objective estimate by accelerated projected gradient, with adaptive
    momentum restarts, on the quadratic-penalty relaxation, warm-started
    over an increasing penalty ladder, best of several random starts."""
    dense = np.stack([a.to_dense() for a in inst.A])
    C, b = inst.C, inst.b
    flat = dense.reshape(inst.m, -1)
    lam = float(np.linalg.eigvalsh(flat @ flat.T).max())
    rng = np.random.default_rng(seed)
    best_val = None
    best_pen = np.inf
    for _ in range(n_starts):
        Z = rng.standard_normal((inst.n, inst.n))
        X = _oracle_project((Z + Z.T) / 2.0)
        for mu in mu_ladder:
            eta = 1.0 / (2.0 * mu * lam)
            Xp = X.copy()
            tk = 1.0
            for _step in range(max_steps):
                tn = (1.0 + np.sqrt(1.0 + 4.0 * tk * tk)) / 2.0
                Y = X + ((tk - 1.0) / tn) * (X - Xp)
                r = np.einsum("kij,ij->k", dense, Y) - b
                grad = C + 2.0 * mu * np.einsum("k,kij->ij", r, dense)
                Xn = _oracle_project(Y - eta * grad)
                # adaptive restart (O'Donoghue & Candes 2015): drop the
                # momentum once the gradient mapping points uphill
                tk = 1.0 if np.sum((Y - Xn) * (Xn - X)) > 0 else tn
                Xp, X = X, Xn
                if np.linalg.norm(X - Xp) <= step_tol * max(1.0, np.linalg.norm(Xp)):
                    break
        r = np.einsum("kij,ij->k", dense, X) - b
        pen = float(np.sum(C * X) + mu_ladder[-1] * np.dot(r, r))
        if pen < best_pen:
            best_pen = pen
            best_val = float(np.sum(C * X))
    return best_val


def loop_apply_A(inst, X) -> np.ndarray:
    """Constraint map evaluated entry by entry from the sparse coords."""
    out = np.zeros(inst.m)
    for k, ak in enumerate(inst.A):
        acc = 0.0
        for i, j, v in ak.coords():
            acc += v * X[i, j]
            if i != j:
                acc += v * X[j, i]
        out[k] = acc
    return out


def loop_constraint_residual(inst, X) -> float:
    vals = loop_apply_A(inst, X)
    return float(sum(abs(vals[k] - inst.b[k]) for k in range(inst.m)) / inst.m)


def loop_objective(inst, X) -> float:
    acc = 0.0
    for i in range(inst.n):
        for j in range(inst.n):
            acc += inst.C[i, j] * X[i, j]
    return float(acc)


def maxcut_triangle_objective() -> float:
    """Optimum of the unit triangle cut relaxation by brute force over the
    exchangeable family X = (1-t) I + t J (optimal by symmetry)."""
    best = np.inf
    for t in np.linspace(-0.5, 1.0, 300001):
        val = 1.5 * t  # <C, X> with C = J/4 off-diagonal
        if val < best:
            best = val
    return best


def reference_iterates(inst, eps: float, X0=None, y0=None, omega: float = 1.0):
    """The PDHG loop as it stood before ``pdhg.iterates`` replaced it, with
    the primal weight omega added: step sizes alpha = omega/sqrt(lambda_max),
    beta = 0.9/(alpha*lambda_max), extrapolation weight theta = 1.  Yields
    (X, y, primal_res, step_res) after each step; a weight sent into the
    generator sets the step sizes of the steps after it.  ``pdhg.iterates``
    must match it bit for bit up to its first restart."""
    from sdpxlab.core import apply_A, apply_A_adjoint, symmetrize
    from sdpxlab.pdhg import lambda_max_op, project_psd

    lam = lambda_max_op(inst)
    theta = 1.0
    X = np.zeros((inst.n, inst.n)) if X0 is None else project_psd(symmetrize(X0))
    y = np.zeros(inst.m) if y0 is None else np.asarray(y0, dtype=np.float64).copy()
    while True:
        alpha = omega / math.sqrt(lam)
        beta = 0.9 / (alpha * lam)
        Z = (X - alpha * (apply_A_adjoint(inst, y) + inst.C)) / (1.0 + alpha * eps)
        Xn = project_psd(Z)
        W = Xn + theta * (Xn - X)
        yn = y + beta * (apply_A(inst, W) - inst.b)
        step_res = float(np.linalg.norm(Xn - X)) / max(1.0, float(np.linalg.norm(X)))
        primal = float(np.max(np.abs(apply_A(inst, Xn) - inst.b))) if inst.m else 0.0
        X, y = Xn, yn
        sent = yield X, y, primal, step_res
        if sent is not None:
            omega = sent


def _reference_stop(inst, eps, tol, kkt_stop, X, y, primal, step_res) -> bool:
    """The stopping test of ``pdhg.solve``, with the cone distance taken
    from a full projection of the slack."""
    from sdpxlab.core import apply_A_adjoint
    from sdpxlab.pdhg import project_psd

    if primal > tol or step_res > tol:
        return False
    S = inst.C + eps * X + apply_A_adjoint(inst, y)
    if float(np.linalg.norm(S - project_psd(S))) > tol:
        return False
    S = inst.C + apply_A_adjoint(inst, y)
    return not kkt_stop or abs(float(np.einsum("ij,ij->", X, S))) <= tol


def reference_solve(inst, eps: float = 1e-6, tol: float = 1e-6,
                    max_iters: int = 20000, X0=None, y0=None,
                    kkt_stop: bool = False):
    """The stopping rules of ``pdhg.solve`` as they stood before it ran on
    ``pdhg.iterates``, around ``reference_iterates`` at a fixed weight of 1.
    Returns (X, y, iterations, converged)."""
    converged = False
    t = 0
    for X, y, primal, step_res in reference_iterates(inst, eps, X0, y0):
        t += 1
        converged = _reference_stop(inst, eps, tol, kkt_stop, X, y, primal, step_res)
        if converged or t == max_iters:
            break
    return X, y, t, converged


def reference_restarted_solve(inst, eps: float = 1e-6, tol: float = 1e-6,
                              max_iters: int = 20000, X0=None, y0=None,
                              omega: float = 1.0, kkt_stop: bool = False):
    """``reference_solve`` with the restart rule of ``pdhg.iterates``
    written out step by step: the fixed-point residual of each step is the norm of
    (X_t - X_{t-1}, y_t - y_{t-1}) in the metric [[I/a, -A*], [-A, I/b]],
    with A* applied to the dual difference directly; a restart comes once
    it is at most 0.2 of its value at the first step of the restart period,
    if that value is positive, and moves the weight to exp(log(D_X/D_y)/2 + log(omega)/2), D_X and D_y
    being the distances from the last restart point (the start as given),
    unless one is at most 1e-10.  Returns
    (X, y, iterations, converged, restarts, omega)."""
    from sdpxlab.core import apply_A_adjoint, symmetrize
    from sdpxlab.pdhg import lambda_max_op, project_psd

    lam = lambda_max_op(inst)
    zero_X, zero_y = np.zeros((inst.n, inst.n)), np.zeros(inst.m)
    prev_X = zero_X if X0 is None else project_psd(symmetrize(X0))
    prev_y = zero_y if y0 is None else np.asarray(y0, dtype=np.float64)
    mark_X = zero_X if X0 is None else np.asarray(X0, dtype=np.float64)
    mark_y = prev_y
    steps = reference_iterates(inst, eps, X0, y0, omega)
    X, y, primal, step_res = next(steps)
    t, restarts, first_res = 1, 0, None
    while True:
        converged = _reference_stop(inst, eps, tol, kkt_stop, X, y, primal, step_res)
        if converged or t == max_iters:
            break
        alpha = omega / math.sqrt(lam)
        beta = 0.9 / (alpha * lam)
        dX, dy = X - prev_X, y - prev_y
        res2 = (np.sum(dX * dX) / alpha + np.sum(dy * dy) / beta
                - 2.0 * np.sum(apply_A_adjoint(inst, dy) * dX))
        res = math.sqrt(max(float(res2), 0.0))
        if first_res is None:
            first_res = res
        sent = None
        if first_res > 0.0 and res <= 0.2 * first_res:
            dist_X = float(np.linalg.norm(X - mark_X))
            dist_y = float(np.linalg.norm(y - mark_y))
            if dist_X > 1e-10 and dist_y > 1e-10:
                omega = math.exp(0.5 * math.log(dist_X / dist_y) + 0.5 * math.log(omega))
            sent, mark_X, mark_y = omega, X, y
            restarts, first_res = restarts + 1, None
        prev_X, prev_y = X, y
        X, y, primal, step_res = steps.send(sent)
        t += 1
    return X, y, t, converged, restarts, omega


def reference_eig_sym(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvector columns of a symmetric
    matrix, each column's largest-magnitude component made positive: the
    decomposition ``pdhg.project_psd`` used before it called ``eigh``
    directly."""
    from sdpxlab.core import NumericalError, symmetrize

    arr = symmetrize(M)
    try:
        w, v = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    lead = np.abs(v).argmax(axis=0)
    signs = np.sign(v[lead, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return w, v * signs


def reference_project_psd(M) -> np.ndarray:
    """``pdhg.project_psd`` as it stood before: full sorted decomposition,
    eigenvalues clamped at zero."""
    from sdpxlab.core import symmetrize

    arr = symmetrize(M)
    if not np.any(arr[~np.eye(arr.shape[0], dtype=bool)]):
        # diagonal input: clamp in place, exactly
        return np.diag(np.maximum(np.diag(arr), 0.0))
    eigvals, eigvecs = reference_eig_sym(arr)
    clamped = np.maximum(eigvals, 0.0)
    out = (eigvecs * clamped) @ eigvecs.T
    return symmetrize(out)


def loop_permute_instance(inst, perm):
    """``core.permute_instance`` with C relabeled entry by entry."""
    from sdpxlab.core import SdpInstance, SparseSymMatrix

    perm = list(perm)
    C = np.zeros_like(inst.C)
    for i in range(inst.n):
        for j in range(inst.n):
            C[perm[i], perm[j]] = inst.C[i, j]
    A = tuple(
        SparseSymMatrix.from_coords(
            inst.n, [(perm[i], perm[j], v) for i, j, v in ak.coords()])
        for ak in inst.A)
    return SdpInstance(n=inst.n, C=C, A=A, b=inst.b.copy(),
                       metadata=dict(inst.metadata))


def loop_reorder_constraints(inst, perm):
    """``core.reorder_constraints`` with (A_k, b_k) moved one at a time."""
    from sdpxlab.core import SdpInstance

    perm = list(perm)
    A: list = [None] * inst.m
    b = np.zeros(inst.m)
    for k in range(inst.m):
        A[perm[k]] = inst.A[k]
        b[perm[k]] = inst.b[k]
    return SdpInstance(n=inst.n, C=inst.C.copy(), A=tuple(A), b=b,
                       metadata=dict(inst.metadata))


def dense_stack(inst) -> np.ndarray:
    """The constraints as a dense (m, n, n) stack, the form the instance
    cached before the flat COO form replaced it."""
    out = np.zeros((inst.m, inst.n, inst.n))
    for k, ak in enumerate(inst.A):
        out[k] = ak.to_dense()
    return out


def dense_apply_A(inst, X) -> np.ndarray:
    """Constraint map as an einsum over the dense stack."""
    return np.einsum("kij,ij->k", dense_stack(inst), np.asarray(X, dtype=np.float64))


def dense_apply_A_adjoint(inst, y) -> np.ndarray:
    """Adjoint map as an einsum over the dense stack."""
    if inst.m == 0:
        return np.zeros((inst.n, inst.n))
    return np.einsum("k,kij->ij", np.asarray(y, dtype=np.float64), dense_stack(inst))


def dense_constraint_rank(inst, tol: float = 1e-9) -> int:
    """Rank of the Gram matrix of the vectorized dense A_k (no size guard)."""
    if inst.m == 0:
        return 0
    v = dense_stack(inst).reshape(inst.m, -1)
    w = np.linalg.eigvalsh(v @ v.T)
    return int(np.count_nonzero(w > tol * max(1.0, float(w[-1]))))


def loop_neighbor_lists(inst):
    """``core.neighbor_lists`` built from each matrix's upper-triangle
    coordinates, mirroring off-diagonal entries, then sorting by cell;
    returned as tuples, like the library's cached lists."""
    n = inst.n
    cell_nbrs = [[] for _ in range(n * n)]
    con_nbrs = [[] for _ in range(inst.m)]
    for k, ak in enumerate(inst.A):
        for i, j, v in ak.coords():
            cell_nbrs[i * n + j].append((k, v))
            con_nbrs[k].append((i * n + j, v))
            if i != j:
                cell_nbrs[j * n + i].append((k, v))
                con_nbrs[k].append((j * n + i, v))
    for lst in con_nbrs:
        lst.sort()
    return tuple(map(tuple, cell_nbrs)), tuple(map(tuple, con_nbrs))


def matrices_from_table(n: int, m: int, k, rows, cols, vals):
    """Constraint matrices 0..m-1 of an entry table sorted by (k, row,
    col): the values that quantize to zero dropped, each matrix holding
    read-only slices of the table that is left."""
    from sdpxlab.core import SparseSymMatrix, quantize_array

    keep = quantize_array(vals) != 0.0
    k, rows, cols, vals = k[keep], rows[keep], cols[keep], vals[keep]
    for a in (rows, cols, vals):
        a.flags.writeable = False
    ends = np.searchsorted(k, np.arange(m + 1)).tolist()
    return tuple(SparseSymMatrix(n=n, rows=rows[s:e], cols=cols[s:e], vals=vals[s:e])
                 for s, e in zip(ends, ends[1:]))


def reference_aux_graph_stable(inst):
    """``auxgraph.aux_graph_stable`` as pure-Python 1-WL: per node, a
    sorted tuple of (edge key, source color) pairs read from
    ``core.neighbor_lists``, interned by first occurrence each round."""
    from sdpxlab.colors import Partition, canonical_labels
    from sdpxlab.core import neighbor_lists, quantize_key

    n, m = inst.n, inst.m
    n_var = n * n
    con_base = n_var
    tri_base = n_var + m

    def var_id(i, j):
        return i * n + j

    def tri_id(i, u, j):
        return tri_base + (i * n + u) * n + j

    qC = [[quantize_key(inst.C[i, j]) for j in range(n)] for i in range(n)]

    # initial colors, tagged per node family so namespaces stay disjoint
    colors: list = [None] * (tri_base + n ** 3)
    for i in range(n):
        for j in range(n):
            colors[var_id(i, j)] = (0, qC[i][j], 1 if i == j else 0)
    for k in range(m):
        colors[con_base + k] = (1, quantize_key(inst.b[k]))
    for i in range(n):
        for u in range(n):
            for j in range(n):
                a, b = qC[i][u], qC[u][j]
                colors[tri_id(i, u, j)] = (2, (a, b) if a <= b else (b, a))

    # incoming adjacency: node -> list of (edge_color_key, source node);
    # edge keys 0 (triple -> cell) and 1 (cell -> triple) are no
    # quantize_key of a nonzero value
    in_edges: list[list[tuple[int, int]]] = [[] for _ in range(len(colors))]
    for i in range(n):
        for j in range(n):
            vid = var_id(i, j)
            for u in range(n):
                t = tri_id(i, u, j)
                in_edges[vid].append((0, t))
                in_edges[t].append((1, var_id(i, u)))
                in_edges[t].append((1, var_id(u, j)))
    cell_nbrs, con_nbrs = neighbor_lists(inst)
    for cell, lst in enumerate(cell_nbrs):
        for k, v in lst:
            in_edges[cell].append((quantize_key(v), con_base + k))
    for k, lst in enumerate(con_nbrs):
        for cell, v in lst:
            in_edges[con_base + k].append((quantize_key(v), cell))

    cur = canonical_labels(colors, [])[0]
    # at most one strict refinement per node, plus the confirming round
    for rounds_used in range(1, len(colors) + 2):
        sigs = [(cur[x], tuple(sorted((ec, cur[src]) for ec, src in in_edges[x])))
                for x in range(len(cur))]
        nxt = canonical_labels(sigs, [])[0]
        if nxt == cur:
            break
        cur = nxt
    pv, pc = canonical_labels(cur[:n_var], cur[con_base:con_base + m])
    return Partition(var=np.array(pv, dtype=np.int64).reshape(n, n),
                     con=np.array(pc, dtype=np.int64), rounds=rounds_used)


def set_refines(p, q) -> bool:
    """``colors.refines`` by sets: ``p`` refines ``q`` iff no class of
    ``p`` pairs with two classes of ``q``."""
    return all(len(set(zip(a.flat, b.flat))) == len(set(a.flat))
               for a, b in ((p.var, q.var), (p.con, q.con)))


def reference_coo(inst):
    """``SdpInstance.coo`` built from the entries of the matrices ``inst.A``."""
    from sdpxlab.core import entry_table

    n = inst.n
    k, i, j, v = entry_table(inst.A)
    off = i != j
    k = np.concatenate([k, k[off]])
    cell = np.concatenate([i * n + j, j[off] * n + i[off]])
    v = np.concatenate([v, v[off]])
    order = np.lexsort((cell, k))
    return k[order], cell[order], v[order]


class _View:
    """Precomputed per-instance structure shared by all algorithms."""

    def __init__(self, inst):
        from sdpxlab.core import ZERO_KEY, neighbor_lists, quantize_key

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


def _init_lists(view: _View, inst) -> tuple[list[int], list[int]]:
    from sdpxlab.core import quantize_key

    n = view.n
    var_sigs = [(view.qC[i][j], 1 if i == j else 0) for i in range(n) for j in range(n)]
    con_sigs = [(quantize_key(bk),) for bk in inst.b]
    return _intern(var_sigs), _intern(con_sigs)


def _con_parts(view: _View, var: list[int]) -> list[tuple]:
    return [tuple(sorted((qa, var[cell]) for cell, qa in view.con_nbrs[k]))
            for k in range(view.m)]


def _cell_con_part(view: _View, con: list[int], cell: int) -> tuple:
    return tuple(sorted((qa, con[k]) for k, qa in view.cell_nbrs[cell]))


def _step_lists(algo, view: _View, var: list[int], con: list[int]):
    from sdpxlab.colors import SYMMETRIZED_ALGOS, Algo

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


def _assert_monotone(old_var, old_con, new_var, new_con):
    from sdpxlab.core import StabilizationError

    # every new class must sit inside one old class; constraint ids are
    # offset so the two namespaces cannot collide in the check
    off = 1 << 60
    back: dict[int, int] = {}
    for o, nw in zip(old_var + old_con, new_var + [c + off for c in new_con]):
        if back.setdefault(nw, o) != o:
            raise StabilizationError("refinement step merged classes (bug)")


def reference_init(inst) -> tuple[list[int], list[int]]:
    """``colors.init_colors`` as flat (cell, constraint) color lists."""
    return _init_lists(_View(inst), inst)


def reference_step(algo, inst, var: list[int], con: list[int]):
    """One round of ``colors.step`` on flat color lists."""
    from sdpxlab.colors import Algo

    return _step_lists(Algo(algo), _View(inst), var, con)


def _reference_partition(var, con, n, rounds):
    from sdpxlab.colors import Partition, canonical_labels

    pv, pc = canonical_labels(var, con)
    return Partition(var=np.array(pv, dtype=np.int64).reshape(n, n),
                     con=np.array(pc, dtype=np.int64), rounds=rounds)


def reference_run_to_stable(algo, inst, max_rounds=None):
    """``colors.run_to_stable`` as it stood before the signature table:
    per-cell Python tuples, sorted and interned each round."""
    from sdpxlab.colors import Algo, canonical_labels
    from sdpxlab.core import StabilizationError

    algo = Algo(algo)
    view = _View(inst)
    if max_rounds is None:
        max_rounds = inst.n * inst.n + inst.m + 1
    var, con = _init_lists(view, inst)
    canon = canonical_labels(var, con)
    for rounds_used in range(1, max_rounds + 1):
        new_var, new_con = _step_lists(algo, view, var, con)
        _assert_monotone(var, con, new_var, new_con)
        new_canon = canonical_labels(new_var, new_con)
        if new_canon == canon:
            return _reference_partition(var, con, inst.n, rounds_used), rounds_used
        var, con, canon = new_var, new_con, new_canon
    raise StabilizationError(f"{algo} did not stabilize within {max_rounds} rounds")


def _multiset_fwl_stable(var: list[int], n: int,
                         max_rounds: int) -> tuple[list[int], int]:
    """Pure multiset pair refinement, no constraint aggregation."""
    from sdpxlab.colors import canonical_labels
    from sdpxlab.core import StabilizationError

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


def reference_vcwl_then_multiset_fwl(inst, max_rounds=None):
    """``colors.vcwl_then_multiset_fwl`` on the reference refinement."""
    from sdpxlab.colors import Algo

    if max_rounds is None:
        max_rounds = inst.n * inst.n + inst.m + 1
    stage1, r1 = reference_run_to_stable(Algo.VCWL, inst, max_rounds)
    var, r2 = _multiset_fwl_stable(stage1.var.reshape(-1).tolist(), inst.n, max_rounds)
    return _reference_partition(var, stage1.con.tolist(), inst.n, r1 + r2)


def reference_joint_encoding_stable(inst, max_rounds=None):
    """``colors.joint_encoding_stable`` reading every A_kij, zeros
    included, from the dense stack, on the reference pair refinement."""
    from sdpxlab.core import quantize_key

    if max_rounds is None:
        max_rounds = inst.n * inst.n + inst.m + 1
    n = inst.n
    qb = [quantize_key(bk) for bk in inst.b]
    dense = dense_stack(inst)
    sigs = []
    for i in range(n):
        for j in range(n):
            joint = tuple(sorted((quantize_key(dense[k, i, j]), qb[k])
                                 for k in range(inst.m)))
            sigs.append((quantize_key(inst.C[i, j]), joint))
    var, rounds = _multiset_fwl_stable(_intern(sigs), n, max_rounds)
    return _reference_partition(var, qb, n, rounds)


# --- the row-order reductions that ``nn`` and ``colors`` replaced ----------

_SIGN = np.uint64(1 << 63)


def _row_keys(rows: np.ndarray, seg) -> np.ndarray:
    """One byte-string key per row: ``seg``, then the row as big-endian
    uint64s that order like the floats (-0.0 as +0.0)."""
    n_rows, d = rows.shape
    bits = (rows + 0.0).view(np.uint64)
    keys = np.empty((n_rows, d + 1), dtype=">u8")
    keys[:, 0] = seg
    keys[:, 1:] = bits ^ ((bits >> np.uint64(63)) * (_SIGN - np.uint64(1)) | _SIGN)
    return keys.view(np.dtype((np.void, 8 * (d + 1)))).reshape(-1)


def row_segment_sum(rows: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    """(n_seg, d) sums of the rows of each segment ``seg == s``, each added
    by position after sorting by (segment, row values in lexicographic
    order), so equal multisets give bit-equal sums; empty segments sum to
    0.  The sort key is ``_row_keys``, compared as one byte string."""
    from sdpxlab.core import _segment_groups

    d = rows.shape[1]
    order = np.argsort(_row_keys(rows, seg), kind="stable")
    out = np.empty((n_seg, d))
    for members, entries in _segment_groups(seg, n_seg, order):
        out[members] = rows[entries].sum(axis=1)
    return out


def row_pair_sum(n: int, d: int, block_rows) -> np.ndarray:
    """(n, n, d) sums over u of the rows that ``block_rows(ib)`` returns as
    a (len(ib), n, n, d) array indexed [i, j, u], one block of i at a
    time, each (i, j) added in ``row_segment_sum`` order."""
    from sdpxlab.nn import _BLOCK_ROWS

    out = np.empty((n * n, d))
    step = max(1, _BLOCK_ROWS // (n * n))
    for lo in range(0, n, step):
        rows = block_rows(slice(lo, lo + step))
        b = len(rows) * n                   # segments (i, j) of the block
        seg = np.repeat(np.arange(b), n)
        out[lo * n:lo * n + b] = row_segment_sum(rows.reshape(-1, d), seg, b)
    return out.reshape(n, n, d)


def lexsort_intern_rows(table: np.ndarray) -> np.ndarray:
    """Dense ids of the rows of a 2-D int64 table in lexicographic order:
    equal rows, equal ids; one ``np.lexsort`` key per column."""
    rows, width = table.shape
    if rows == 0 or width == 0:
        return np.zeros(rows, dtype=np.int64)
    order = np.lexsort(table.T[::-1])
    ranked = table[order]
    new = np.empty(rows, dtype=bool)
    new[0] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    ids = np.empty(rows, dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids


# --- the per-cell forward layer that ``nn.layer`` replaced ----------------

def _nn_quantized(values) -> np.ndarray:
    """Coefficients as the refinement sees them: rounded to the quantum."""
    from sdpxlab.core import quantize_value

    arr = np.asarray(values, dtype=np.float64)
    return np.array([quantize_value(v) for v in arr.reshape(-1)]).reshape(arr.shape)


def csum(stack: np.ndarray, d: int) -> np.ndarray:
    """Sum of row vectors in canonical (lexicographically sorted) order."""
    if len(stack) == 0:
        return np.zeros(d)
    order = np.lexsort(stack.T[::-1])
    return stack[order].sum(axis=0)


def _neighbor_messages(inst, H, hc, lp, d):
    from sdpxlab.core import neighbor_lists, quantize_value

    n = inst.n
    cell_nbrs, con_nbrs = neighbor_lists(inst)
    flat_h = H.reshape(n * n, d)
    m_cv = np.zeros((n, n, d))
    msg_cv = lp["msg_cv"]
    for cell, lst in enumerate(cell_nbrs):
        if not lst:
            continue
        inp = np.array([[quantize_value(v)] for _, v in lst])
        kh = np.stack([hc[k] for k, _ in lst])
        out = msg_cv(np.concatenate([inp, kh], axis=1))
        m_cv[cell // n, cell % n] = csum(out, d)
    msg_vc = lp["msg_vc"]
    m_vc = np.zeros((inst.m, d))
    for k, lst in enumerate(con_nbrs):
        if not lst:
            continue
        inp = np.array([[quantize_value(v)] for _, v in lst])
        ch = np.stack([flat_h[cell] for cell, _ in lst])
        out = msg_vc(np.concatenate([inp, ch], axis=1))
        m_vc[k] = csum(out, d)
    return m_cv, m_vc


def _ign_message(H: np.ndarray, pars, d: int) -> np.ndarray:
    n = H.shape[0]
    diag = H[np.arange(n), np.arange(n)]                       # (n, d)
    row_sums = np.stack([csum(H[i], d) for i in range(n)])     # (n, d)
    trace = csum(diag, d)
    total = csum(H.reshape(n * n, d), d)
    eye = np.eye(n)
    ones = np.ones((n, n))
    ops = [
        H,
        ones[:, :, None] * trace,
        ones[:, :, None] * total,
        eye[:, :, None] * diag[:, None, :],
        eye[:, :, None] * row_sums[:, None, :],
        eye[:, :, None] * trace,
        eye[:, :, None] * total,
        row_sums[:, None, :] + row_sums[None, :, :],
        diag[:, None, :] + diag[None, :, :],
    ]
    out = np.zeros((n, n, d))
    for op, w in zip(ops, pars.ws):
        out = out + op @ w
    return out


def reference_triangular_attention(H: np.ndarray, pars
                                   ) -> tuple[np.ndarray, np.ndarray]:
    """Attention output (n,n,d) and scores alpha (n,n,n) indexed [i,j,l]."""
    n, _, d = H.shape
    Q = H @ pars.w_q
    K = H @ pars.w_k
    V1 = H @ pars.w_v1
    V2 = H @ pars.w_v2
    scores = np.einsum("ild,ljd->ilj", Q, K) / math.sqrt(d)
    out = np.zeros((n, n, d))
    alpha = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            s = scores[i, :, j]
            e = np.exp(s - s.max())
            denom = np.sort(e).sum()
            a = e / denom
            vals = V1[i] * V2[:, j]                  # (n, d), row l
            out[i, j] = csum(a[:, None] * vals, d)
            alpha[i, j] = a
    return out, alpha


def reference_layer(arch, state, inst, params):
    """One forward layer of ``arch``; layer index picks the weights."""
    from sdpxlab.core import ShapeError
    from sdpxlab.nn import _SYMMETRIZED_ARCHS, Arch, EmbeddingState, _layer_norm

    arch = Arch(arch)
    if params.arch is not arch:
        raise ShapeError(f"params built for {params.arch}, not {arch}")
    n, d = inst.n, params.d
    if state.var.shape != (n, n, d) or state.con.shape[0] != inst.m:
        raise ShapeError("embedding state does not match the instance")
    if state.layer >= len(params.layers):
        raise ShapeError(f"no weights for layer {state.layer}")
    lp = params.layers[state.layer]
    H, hc = state.var, state.con
    m_cv, m_vc = _neighbor_messages(inst, H, hc, lp, d)

    if arch is Arch.VCMPNN:
        new_var = lp["upd_v"](np.concatenate([H, m_cv], axis=-1))
    elif arch in (Arch.VC2MPNN, Arch.DELTA_VC2MPNN):
        if arch is Arch.VC2MPNN:
            row_in = lp["msg_row"](H)          # (n, n, d), [i, u]
            col_in = lp["msg_col"](H)          # read as [u, j]
            m_row = np.stack([csum(row_in[i], d) for i in range(n)])
            m_col = np.stack([csum(col_in[:, j], d) for j in range(n)])
            m_row_ij = np.broadcast_to(m_row[:, None, :], (n, n, d))
            m_col_ij = np.broadcast_to(m_col[None, :, :], (n, n, d))
        else:
            adj = (_nn_quantized(inst.C) != 0).astype(np.float64)
            m_row_ij = np.zeros((n, n, d))
            m_col_ij = np.zeros((n, n, d))
            for i in range(n):
                for j in range(n):
                    row_inp = np.concatenate([H[i], adj[:, j][:, None]], axis=1)
                    col_inp = np.concatenate([H[:, j], adj[i][:, None]], axis=1)
                    m_row_ij[i, j] = csum(lp["msg_row"](row_inp), d)
                    m_col_ij[i, j] = csum(lp["msg_col"](col_inp), d)
        new_var = lp["upd_v"](
            np.concatenate([H, m_col_ij, m_row_ij, m_cv], axis=-1))
    elif arch is Arch.VC2FMPNN:
        mapped = lp["map"](H)
        msg_vv = lp["msg_vv"]
        m_vv = np.zeros((n, n, d))
        for i in range(n):
            for j in range(n):
                pairs = mapped[:, j] + mapped[i]        # row u: MAP(h_uj)+MAP(h_iu)
                m_vv[i, j] = csum(msg_vv(pairs), d)
        new_var = lp["upd_v"](np.concatenate([H, m_vv, m_cv], axis=-1))
    elif arch is Arch.VC2IGN:
        m_ign = _ign_message(H, lp["ign"], d)
        new_var = lp["upd_v"](np.concatenate([H, m_ign, m_cv], axis=-1))
    elif arch is Arch.VCET:
        normed = _layer_norm(H, lp["ln_gamma"], lp["ln_beta"])
        tri, _ = reference_triangular_attention(normed, lp["attn"])
        m_et = lp["ffn"](H + tri)
        new_var = lp["upd_v"](np.concatenate([H, m_et, m_cv], axis=-1))
    else:  # pragma: no cover
        raise ValueError(f"unknown architecture {arch}")

    if arch in _SYMMETRIZED_ARCHS:
        # averaged rather than copied: a copy from the upper triangle is
        # frame-dependent and breaks permutation equivariance
        new_var = (new_var + new_var.transpose(1, 0, 2)) / 2.0
    new_con = (lp["upd_c"](np.concatenate([hc, m_vc], axis=-1))
               if inst.m else hc)
    return EmbeddingState(var=new_var, con=new_con, layer=state.layer + 1)


def reference_forward(arch, inst, d: int, n_layers: int, seed: int):
    """``nn.forward`` with every layer run by ``reference_layer``."""
    from sdpxlab.nn import build_params, init_embeddings

    params = build_params(arch, d, n_layers, seed)
    states = [init_embeddings(inst, params)]
    for _ in range(n_layers):
        states.append(reference_layer(arch, states[-1], inst, params))
    return states, params


def reference_delta_pair_messages(H: np.ndarray, adj: np.ndarray, lp):
    """The delta layer's row and column pair messages on all n³ rows:
    ``msg_row`` on [h_iu, adj_uj] and ``msg_col`` on [h_uj, adj_iu], each
    (i, j) summed over u by ``row_pair_sum``, in blocks of consecutive i.
    This is the path that ``nn._delta_messages`` replaced, in the row
    order that it keeps."""

    n, _, d = H.shape
    adj = adj.astype(np.float64)[..., None]

    def rows(h, a):                         # (b, n, n, d + 1)
        shape = np.broadcast_shapes(h.shape[:3], a.shape[:3])
        return np.concatenate([np.broadcast_to(h, shape + (d,)),
                               np.broadcast_to(a, shape + (1,))], axis=-1)
    m_row = row_pair_sum(n, d, lambda ib: lp["msg_row"](
        rows(H[ib][:, None], adj.transpose(1, 0, 2)[None])))
    m_col = row_pair_sum(n, d, lambda ib: lp["msg_col"](
        rows(H.transpose(1, 0, 2)[None], adj[ib][:, None])))
    return m_row, m_col


# --- the property checks that ``verify.nn_deviations`` and
# ``verify._class_spread`` replaced -----------------------------------------

def nn_symmetry_deviation(arch, inst, d: int, n_layers: int, seed: int) -> float:
    from sdpxlab.nn import forward

    states, _ = forward(arch, inst, d, n_layers, seed)
    dev = 0.0
    for st in states:
        dev = max(dev, float(np.max(np.abs(st.var - st.var.transpose(1, 0, 2)))))
    return dev


def nn_equivariance_deviation(arch, inst, d: int, n_layers: int, seed: int,
                              perm_seed: int = 0) -> float:
    from sdpxlab.core import permute_instance
    from sdpxlab.nn import decode, forward

    rng = np.random.default_rng(perm_seed)
    perm = rng.permutation(inst.n).tolist()
    states, params = forward(arch, inst, d, n_layers, seed)
    pstates, _ = forward(arch, permute_instance(inst, perm), d, n_layers, seed)
    dev = 0.0
    for st, pst in zip(states, pstates):
        pulled = pst.var[np.ix_(perm, perm)]
        dev = max(dev, float(np.max(np.abs(pulled - st.var))))
    out = decode(states[-1], params)
    pout = decode(pstates[-1], params)
    dev = max(dev, float(np.max(np.abs(pout[np.ix_(perm, perm)] - out))))
    return dev


def nn_invariance_deviation(arch, inst, d: int, n_layers: int, seed: int,
                            perm_seed: int = 0) -> float:
    from sdpxlab.core import reorder_constraints
    from sdpxlab.nn import forward

    rng = np.random.default_rng(perm_seed)
    cperm = rng.permutation(inst.m).tolist()
    states, _ = forward(arch, inst, d, n_layers, seed)
    rstates, _ = forward(arch, reorder_constraints(inst, cperm), d, n_layers, seed)
    dev = 0.0
    for st, rst in zip(states, rstates):
        dev = max(dev, float(np.max(np.abs(rst.var - st.var))))
        if inst.m:
            pulled = rst.con[cperm]
            dev = max(dev, float(np.max(np.abs(pulled - st.con))))
    return dev


def nn_coloring_respect(arch, inst, d: int, n_layers: int, seed: int) -> bool:
    """Cells with equal refinement colors at round t must have bit-equal
    embeddings at layer t (and likewise for constraints)."""
    from sdpxlab.colors import init_colors, step
    from sdpxlab.nn import ARCH_TO_ALGO, Arch, forward

    states, _ = forward(arch, inst, d, n_layers, seed)
    wl = init_colors(inst)
    algo = ARCH_TO_ALGO[Arch(arch)]
    for t, st in enumerate(states):
        for cls in set(wl.var_colors.reshape(-1).tolist()):
            rows, cols = np.nonzero(wl.var_colors == cls)
            sub = st.var[rows, cols]
            if not np.all(sub == sub[0]):
                return False
        for cls in set(wl.con_colors.tolist()):
            idx = np.nonzero(wl.con_colors == cls)[0]
            sub = st.con[idx]
            if not np.all(sub == sub[0]):
                return False
        if t < len(states) - 1:
            wl = step(algo, wl, inst)
    return True


def reference_trajectory_refinement(inst, iters: int = 500, cfg=None,
                                    case_id: str = "trajectory"):
    """``verify.check_trajectory_refinement`` with one ``np.ptp`` per class
    of at least two cells (or constraints); a failure reports the spread of
    the first class over its bound."""
    from itertools import islice

    from sdpxlab.colors import Algo, run_to_stable
    from sdpxlab.pdhg import PdhgConfig, iterates
    from sdpxlab.verify import CaseReport, _exp

    part, _ = run_to_stable(Algo.VC2FWL, inst)
    var_groups = []
    for cls in range(part.n_var_classes):
        idx = np.nonzero(part.var.reshape(-1) == cls)[0]
        if len(idx) > 1:
            var_groups.append(idx)
    con_ids = sorted(set(part.con.tolist()))
    con_groups = [np.nonzero(part.con == cls)[0]
                  for cls in con_ids if np.count_nonzero(part.con == cls) > 1]
    cfg = cfg or PdhgConfig()
    worst = 0.0
    for state in islice(iterates(inst, cfg.eps), iters):
        xf = state.X.reshape(-1)
        bound = 1e-7 * max(1.0, float(np.max(np.abs(state.X))))
        for idx in var_groups:
            spread = float(np.ptp(xf[idx]))
            worst = max(worst, spread / bound * 1e-7)
            if spread > bound:
                return CaseReport(case_id, False,
                                  {"iteration": state.t, "spread": spread,
                                   "bound": bound},
                                  expected={"max_relative_spread": _exp(1e-7, "DERIVED")})
        ybound = 1e-7 * max(1.0, float(np.max(np.abs(state.y))) if inst.m else 1.0)
        for idx in con_groups:
            spread = float(np.ptp(state.y[idx]))
            worst = max(worst, spread / ybound * 1e-7)
            if spread > ybound:
                return CaseReport(case_id, False,
                                  {"iteration": state.t, "y_spread": spread,
                                   "bound": ybound},
                                  expected={"max_relative_spread": _exp(1e-7, "DERIVED")})
    return CaseReport(case_id, True,
                      {"iterations": iters, "worst_relative_spread": worst},
                      expected={"max_relative_spread": _exp(1e-7, "DERIVED")},
                      tolerance={"relative_spread": 1e-7})


_HEADER_JUNK = str.maketrans({c: " " for c in "{}(),;"})


def _clean_split(line: str) -> list[str]:
    return line.translate(_HEADER_JUNK).split()


def reference_read_sdpa(text: str):
    """``sdpa.read_sdpa`` as a loop over entry lines: each line parsed and
    checked in turn, each constraint built by ``from_coords``."""
    import warnings

    from sdpxlab.core import (
        SdpaParseError,
        SdpInstance,
        SparseSymMatrix,
        UnsupportedFormatError,
        symmetrize,
    )

    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1)
             if ln.strip() and not ln.lstrip().startswith(('"', "*"))]
    if len(lines) < 3:
        last = lines[-1][0] if lines else 1
        raise SdpaParseError(last, "truncated header")

    def parse_int(no, tok, what):
        try:
            return int(tok)
        except ValueError:
            raise SdpaParseError(no, f"bad {what}: {tok!r}") from None

    def parse_float(no, tok, what):
        try:
            v = float(tok)
        except ValueError:
            raise SdpaParseError(no, f"bad {what}: {tok!r}") from None
        if not math.isfinite(v):
            raise SdpaParseError(no, f"non-finite {what}: {tok!r}")
        return v

    def parse_first_int(no, ln, what):
        toks = _clean_split(ln)
        if not toks:
            raise SdpaParseError(no, f"missing {what}")
        return parse_int(no, toks[0], what)

    no, ln = lines[0]
    m = parse_first_int(no, ln, "constraint count")
    if m < 0:
        raise SdpaParseError(no, f"negative constraint count {m}")
    if m == 0 and (len(lines) == 3 or _clean_split(lines[3][1])):
        lines.insert(3, (lines[2][0], ""))  # the empty rhs line, dropped as blank
    if len(lines) < 4:
        raise SdpaParseError(lines[-1][0], "truncated header")

    no, ln = lines[1]
    nblocks = parse_first_int(no, ln, "block count")
    if nblocks < 1:
        raise SdpaParseError(no, f"bad block count {nblocks}")

    no, ln = lines[2]
    toks = _clean_split(ln)
    if len(toks) != nblocks:
        raise SdpaParseError(no, f"expected {nblocks} block sizes, got {len(toks)}")
    sizes = [parse_int(no, t, "block size") for t in toks]
    for s in sizes:
        if s < 0:
            raise UnsupportedFormatError(
                f"line {no}: diagonal block of size {s} not supported")
        if s == 0:
            raise SdpaParseError(no, "zero block size")
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])

    no, ln = lines[3]
    toks = _clean_split(ln)
    if len(toks) != m:
        raise SdpaParseError(no, f"expected {m} rhs values, got {len(toks)}")
    b = np.array([parse_float(no, t, "rhs value") for t in toks])

    entries: list[dict[tuple[int, int], float]] = [dict() for _ in range(m + 1)]
    for no, ln in lines[4:]:
        toks = ln.split()
        if len(toks) != 5:
            raise SdpaParseError(no, f"expected 'k blk i j value', got {ln.strip()!r}")
        k = parse_int(no, toks[0], "matrix index")
        blk = parse_int(no, toks[1], "block index")
        i = parse_int(no, toks[2], "row index")
        j = parse_int(no, toks[3], "column index")
        v = parse_float(no, toks[4], "value")
        if not (0 <= k <= m):
            raise SdpaParseError(no, f"matrix index {k} out of range 0..{m}")
        if not (1 <= blk <= nblocks):
            raise SdpaParseError(no, f"block index {blk} out of range 1..{nblocks}")
        if not (1 <= i <= sizes[blk - 1] and 1 <= j <= sizes[blk - 1]):
            raise SdpaParseError(no, f"entry ({i},{j}) outside block of size {sizes[blk - 1]}")
        gi = int(offsets[blk - 1]) + i - 1
        gj = int(offsets[blk - 1]) + j - 1
        if gi > gj:
            gi, gj = gj, gi
        if (gi, gj) in entries[k]:
            raise SdpaParseError(no, f"duplicate entry ({i},{j}) in matrix {k}")
        entries[k][(gi, gj)] = v

    f0 = np.zeros((n, n))
    for (i, j), v in entries[0].items():
        f0[i, j] = v
        f0[j, i] = v
    C = symmetrize(-f0)

    A = []
    for k in range(1, m + 1):
        ak = SparseSymMatrix.from_coords(n, [(i, j, v) for (i, j), v in entries[k].items()])
        if len(ak.vals) == 0:
            warnings.warn(
                f"linearly dependent constraints: constraint {k} has no nonzero entries",
                stacklevel=2)
        A.append(ak)
    return SdpInstance(n=n, C=C, A=tuple(A), b=b)


def reference_write_sdpa(inst) -> str:
    """``sdpa.write_sdpa`` reading ``-C`` one cell at a time and writing
    each constraint's lines from its own coordinates."""
    out = [str(inst.m), "1", str(inst.n),
           " ".join(f"{v:.17g}" for v in inst.b)]
    f0 = -inst.C
    for i in range(inst.n):
        for j in range(i, inst.n):
            if f0[i, j] != 0.0:
                out.append(f"0 1 {i + 1} {j + 1} {f0[i, j]:.17g}")
    for k, ak in enumerate(inst.A, start=1):
        for i, j, v in ak.coords():
            out.append(f"{k} 1 {i + 1} {j + 1} {v:.17g}")
    return "\n".join(out) + "\n"


def reference_from_coords(n: int, coords):
    """``SparseSymMatrix.from_coords`` as a loop over the triples: each one
    range-checked, swapped to i <= j, checked against the earlier ones and
    for finiteness in turn; the entries that quantize to zero dropped and
    the rest sorted."""
    from sdpxlab.core import (
        ZERO_KEY,
        NonFiniteError,
        ShapeError,
        SparseSymMatrix,
        quantize_key,
    )

    if n <= 0:
        raise ShapeError(f"side length must be positive, got {n}")
    seen: dict[tuple[int, int], float] = {}
    for i, j, v in coords:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ShapeError(f"coordinate ({i},{j}) out of range for n={n}")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise ShapeError(f"duplicate coordinate ({i},{j})")
        v = float(v)
        if not math.isfinite(v):
            raise NonFiniteError(f"non-finite value {v} at ({i},{j})")
        seen[(i, j)] = v
    kept = sorted((ij, v) for ij, v in seen.items() if quantize_key(v) != ZERO_KEY)
    rows = np.array([ij[0] for ij, _ in kept], dtype=np.int64)
    cols = np.array([ij[1] for ij, _ in kept], dtype=np.int64)
    vals = np.array([v for _, v in kept], dtype=np.float64)
    for a in (rows, cols, vals):
        a.flags.writeable = False
    return SparseSymMatrix(n=n, rows=rows, cols=cols, vals=vals)


def reference_from_dense(m):
    """``SparseSymMatrix.from_dense`` as a loop over the upper triangle."""
    from sdpxlab.core import ZERO_KEY, quantize_key, symmetrize

    arr = symmetrize(m)
    n = arr.shape[0]
    coords = [(i, j, arr[i, j]) for i in range(n) for j in range(i, n)
              if quantize_key(arr[i, j]) != ZERO_KEY]
    return reference_from_coords(n, coords)


def reference_check_graph(n_nodes: int, edges) -> None:
    """``Graph``'s edge check as a loop: raise ``ShapeError`` at the first
    self-loop, edge out of order or range, repeated edge or non-finite
    weight."""
    from sdpxlab.core import ShapeError

    if n_nodes < 0:
        raise ShapeError(f"node count must be >= 0, got {n_nodes}")
    seen = set()
    for u, v, w in edges:
        if u == v:
            raise ShapeError(f"self-loop at node {u}")
        if not (0 <= u < v < n_nodes):
            raise ShapeError(f"bad edge ({u},{v}) for {n_nodes} nodes")
        if (u, v) in seen:
            raise ShapeError(f"duplicate edge ({u},{v})")
        if not np.isfinite(w):
            raise ShapeError(f"non-finite weight on edge ({u},{v})")
        seen.add((u, v))


def reference_er_graph(n: int, p: float, seed: int):
    """``relaxations.er_graph`` drawing one scalar per node pair in turn."""
    from sdpxlab.relaxations import Graph

    rng = np.random.default_rng(seed)
    edges = tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < p)
    return Graph(n_nodes=n, edges=edges)


def reference_regular_graph(n: int, d: int, seed: int):
    """``relaxations.regular_graph`` checking the pairs one at a time."""
    from sdpxlab.core import SdpxlabError
    from sdpxlab.relaxations import PAIRING_RETRIES, Graph

    for attempt in range(PAIRING_RETRIES):
        rng = np.random.default_rng(seed + attempt)
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        edges = set()
        for u, v in stubs.reshape(-1, 2).tolist():
            if u == v or (min(u, v), max(u, v)) in edges:
                break
            edges.add((min(u, v), max(u, v)))
        else:
            return Graph(n_nodes=n, edges=tuple((u, v, 1.0) for u, v in sorted(edges)))
    raise SdpxlabError(f"pairing model failed after {PAIRING_RETRIES} retries")


def _diag_constraints(n: int) -> list:
    return [reference_from_coords(n, [(i, i, 1.0)]) for i in range(n)]


def reference_maxcut_sdp(g):
    """``relaxations.maxcut_sdp`` building one matrix per constraint."""
    from sdpxlab.core import SdpInstance

    n = g.n_nodes
    C = np.zeros((n, n))
    for u, v, w in g.edges:
        C[u, v] = C[v, u] = w / 4.0
    total_w = sum(w for _, _, w in g.edges)
    return SdpInstance(n=n, C=C, A=tuple(_diag_constraints(n)), b=np.ones(n),
                       metadata={"problem": "maxcut", "offset": total_w / 2.0,
                                 "scale": -1.0})


def _reference_theta_like(n: int, zero_pairs, problem: str):
    from sdpxlab.core import SdpInstance

    C = -np.ones((n, n))
    A = [reference_from_coords(n, [(i, i, 1.0) for i in range(n)])]
    b = [1.0]
    for i, j in zero_pairs:
        A.append(reference_from_coords(n, [(i, j, 1.0)]))
        b.append(0.0)
    return SdpInstance(n=n, C=C, A=tuple(A), b=np.array(b),
                       metadata={"problem": problem, "offset": 0.0, "scale": -1.0})


def reference_maxclique_sdp(g):
    """``relaxations.maxclique_sdp`` pinning the non-edges one at a time."""
    present = {(u, v) for u, v, _ in g.edges}
    return _reference_theta_like(
        g.n_nodes, [(i, j) for i in range(g.n_nodes) for j in range(i + 1, g.n_nodes)
                    if (i, j) not in present], "maxclique")


def reference_mis_sdp(g):
    """``relaxations.mis_sdp`` pinning the edges one at a time."""
    return _reference_theta_like(g.n_nodes, [(u, v) for u, v, _ in g.edges], "mis")


def reference_vertexcover_sdp(g):
    """``relaxations.vertexcover_sdp`` building one matrix per constraint."""
    from sdpxlab.core import SdpInstance

    n = g.n_nodes + 1
    C = np.zeros((n, n))
    C[0, 1:] = 0.25
    C[1:, 0] = 0.25
    A = _diag_constraints(n)
    b = [1.0] * n
    for u, v, _ in g.edges:
        i, j = u + 1, v + 1
        A.append(reference_from_coords(
            n, [(0, 0, 1.0), (0, i, -0.5), (0, j, -0.5), (i, j, 0.5)]))
        b.append(0.0)
    return SdpInstance(n=n, C=C, A=tuple(A), b=np.array(b),
                       metadata={"problem": "vertexcover",
                                 "offset": g.n_nodes / 2.0, "scale": 1.0})


def reference_max2sat_sdp(cm):
    """``relaxations.max2sat_sdp`` building one matrix per constraint."""
    from sdpxlab.core import SdpInstance, symmetrize

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
    return SdpInstance(n=n, C=C, A=tuple(_diag_constraints(n)), b=np.ones(n),
                       metadata={"problem": "max2sat",
                                 "offset": float(np.trace(G)) / 8.0, "scale": 1.0})


def reference_lmi_sdp(n: int, m: int, seed: int):
    """``relaxations.lmi_sdp`` building one matrix per constraint from its
    dense form, the rhs read from the matrix's own dense form."""
    from sdpxlab.core import SdpInstance, symmetrize
    from sdpxlab.relaxations import LMI_MARGIN, LMI_RETRIES

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
        if np.linalg.norm(A_sys.T @ P + P @ A_sys + LMI_MARGIN * np.eye(n)) > 1e-8:
            continue
        A = []
        b = []
        for _ in range(m):
            v = np.zeros(n)
            pos = rng.choice(n, size=min(2, n), replace=False)
            v[pos] = np.where(rng.random(len(pos)) < 0.5, 1.0, -1.0)
            ak = reference_from_dense(symmetrize(A_sys @ np.outer(v, v)))
            A.append(ak)
            b.append(float(np.einsum("ij,ij->", ak.to_dense(), P)))
        A.append(reference_from_coords(n, [(i, i, 1.0) for i in range(n)]))
        b.append(1.0)
        C = symmetrize(rng.standard_normal((n, n)))
        return SdpInstance(n=n, C=C, A=tuple(A), b=np.array(b),
                           metadata={"problem": "lmi", "offset": 0.0, "scale": 1.0})
    raise AssertionError("system recovery failed")


def reference_lp_to_sdp(c, A, b):
    """``relaxations.lp_to_sdp`` building one matrix per LP row and pin."""
    from sdpxlab.core import SdpInstance

    c = np.asarray(c, dtype=np.float64).reshape(-1)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    n = len(c)
    mats = [reference_from_coords(n, [(i, i, row[i]) for i in range(n)]) for row in A]
    rhs = list(b)
    for i in range(n):
        for j in range(i + 1, n):
            mats.append(reference_from_coords(n, [(i, j, 1.0)]))
            rhs.append(0.0)
    return SdpInstance(n=n, C=np.diag(c), A=tuple(mats), b=np.array(rhs),
                       metadata={"problem": "lp", "offset": 0.0, "scale": 1.0})
