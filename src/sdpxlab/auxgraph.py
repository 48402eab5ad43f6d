"""Reduction of the folklore pair refinement to 1-WL on an auxiliary graph.

Builds the directed, edge-colored graph with n^2 variable nodes, m
constraint nodes and n^3 triple nodes (i, u, j), wired so that one
folklore round corresponds to two 1-WL rounds:

  * each triple node receives from variable nodes (i, u) and (u, j),
  * each variable node (i, j) receives from its n triple nodes and from
    the constraints touching it (edges colored by A_kij),
  * each constraint node receives from its variable cells (same colors).

Initial colors live in disjoint namespaces: variables get (C_ij, diag
flag), constraints get b_k, triples get the unordered pair {C_iu, C_uj}.
Standard synchronous 1-WL with edge-colored signatures then runs until
the joint partition stabilizes; the result restricted to variable and
constraint nodes is returned.
"""

from __future__ import annotations

from .colors import Partition, StabilizationError, canonical_labels
from .core import SdpInstance, SizeGuardError, neighbor_lists, quantize_key

import numpy as np

AUX_N_CAP = 24

_EDGE_TRI_TO_VAR = 0
_EDGE_VAR_TO_TRI = 1


def aux_graph_stable(inst: SdpInstance) -> Partition:
    """Stable variable/constraint partition via 1-WL on the auxiliary graph."""
    n, m = inst.n, inst.m
    if n > AUX_N_CAP:
        raise SizeGuardError(
            f"auxiliary graph needs n^3 = {n ** 3} triple nodes; capped at n <= {AUX_N_CAP}")

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

    # incoming adjacency: node -> list of (edge_color_key, source node)
    in_edges: list[list[tuple[int, int]]] = [[] for _ in range(len(colors))]
    for i in range(n):
        for j in range(n):
            vid = var_id(i, j)
            for u in range(n):
                t = tri_id(i, u, j)
                in_edges[vid].append((_EDGE_TRI_TO_VAR, t))
                in_edges[t].append((_EDGE_VAR_TO_TRI, var_id(i, u)))
                in_edges[t].append((_EDGE_VAR_TO_TRI, var_id(u, j)))
    cell_nbrs, con_nbrs = neighbor_lists(inst)
    for cell, lst in enumerate(cell_nbrs):
        for k, v in lst:
            in_edges[cell].append((quantize_key(v), con_base + k))
    for k, lst in enumerate(con_nbrs):
        for cell, v in lst:
            in_edges[con_base + k].append((quantize_key(v), cell))

    # first-occurrence labels intern the signatures: equal ids iff equal
    cur = canonical_labels(colors, [])[0]
    rounds_used = 0
    # at most one strict refinement per node, plus the confirming round
    for rounds_used in range(1, len(colors) + 2):
        sigs = [(cur[x], tuple(sorted((ec, cur[src]) for ec, src in in_edges[x])))
                for x in range(len(cur))]
        nxt = canonical_labels(sigs, [])[0]
        if nxt == cur:
            break
        cur = nxt
    else:  # pragma: no cover
        raise StabilizationError("auxiliary-graph refinement did not stabilize")

    pv, pc = canonical_labels(cur[:n_var], cur[con_base:con_base + m])
    return Partition(var=np.array(pv, dtype=np.int64).reshape(n, n),
                     con=np.array(pc, dtype=np.int64), rounds=rounds_used)
