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

Nodes are numbered cells (i*n + j), then constraints (n^2 + k), then
triples (n^2 + m + (i*n + u)*n + j), and colors are one int64 array over
them.  The in-edges are three parallel arrays (destination, edge color,
source), sorted by destination once: edge color 0 for triple -> cell, 1
for cell -> triple, and 2 + ``IntView.A`` for the entries of ``coo``.  A
round codes each edge as (edge color, source color), sorts the codes of
each node, writes them after the node's own color into one row padded
with -1, and interns all rows with one ``colors._intern_rows``.
``tests/oracles.py`` keeps the pure-Python 1-WL this replaced.
"""

from __future__ import annotations

import numpy as np

from .colors import Partition, _intern_rows, _n_ids, _partition
from .core import SdpInstance, SizeGuardError, StabilizationError

AUX_N_CAP = 24


def aux_graph_stable(inst: SdpInstance) -> Partition:
    """Stable variable/constraint partition via 1-WL on the auxiliary graph."""
    n, m = inst.n, inst.m
    if n > AUX_N_CAP:
        raise SizeGuardError(
            f"auxiliary graph needs n^3 = {n ** 3} triple nodes; capped at n <= {AUX_N_CAP}")
    view, (k, cell, _) = inst.int_view, inst.coo
    n_var, tri_base = n * n, n * n + m
    i, u, j = (a.reshape(-1) for a in np.indices((n, n, n)))
    tri = tri_base + np.arange(n ** 3)

    # initial colors: (family, id, id) rows, interned once
    C = view.C.reshape(-1)
    pair = np.sort(np.stack([C[i * n + u], C[u * n + j]], axis=1), axis=1)
    init = np.concatenate([
        np.stack([np.zeros(n_var, np.int64), C, np.eye(n, dtype=np.int64).reshape(-1)], axis=1),
        np.stack([np.ones(m, np.int64), view.b, np.zeros(m, np.int64)], axis=1),
        np.concatenate([np.full((n ** 3, 1), 2), pair], axis=1)])
    cur = _intern_rows(init)

    edge_color = 2 + view.A
    dst = np.concatenate([i * n + j, tri, tri, cell, n_var + k])
    ec = np.concatenate([np.zeros(n ** 3, np.int64), np.ones(2 * n ** 3, np.int64),
                         edge_color, edge_color])
    src = np.concatenate([tri, i * n + u, u * n + j, n_var + k, cell])
    by_dst = np.argsort(dst, kind="stable")
    dst, ec, src = dst[by_dst], ec[by_dst], src[by_dst]
    degree = np.bincount(dst, minlength=len(cur))
    slot = 1 + np.arange(len(dst)) - (np.cumsum(degree) - degree)[dst]
    # row: own color, then the sorted in-edge codes; codes are >= 0, so the
    # -1 padding after them also fixes the in-degree
    table = np.full((len(cur), 1 + int(degree.max())), -1, dtype=np.int64)
    span = int(ec.max()) + 1  # codes of a round lie in 0..span*K-1

    # at most one strict refinement per node, plus the confirming round
    for rounds in range(1, len(cur) + 2):
        K = _n_ids(cur)
        code = ec * K + cur[src]
        table[:, 0] = cur
        table[dst, slot] = code[np.argsort(dst * (span * K) + code)]
        nxt = _intern_rows(table)
        if _n_ids(nxt) == K:  # nxt refines cur, so as many classes is cur
            break
        cur = nxt
    else:  # pragma: no cover
        raise StabilizationError("auxiliary-graph refinement did not stabilize")
    return _partition(cur[:n_var].reshape(n, n), cur[n_var:tri_base], rounds)
