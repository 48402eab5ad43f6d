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

Nodes are numbered cells (i*n + j), then triples (n^2 + (i*n + u)*n + j),
then constraints (n^2 + n^3 + k).  The in-edges are three arrays
(destination, edge color, source) sorted by destination once: edge color
0 for triple -> cell, 1 for cell -> triple, 2 + ``IntView.A`` for ``coo``
entries.  A round writes each node's sorted (edge color, source color)
codes after its own color into one row padded with -1, and interns the
cell and triple rows and, offset past them, the constraint rows (so a
dense constraint does not widen the n^3 triple rows).
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
    n_var, n_main = n * n, n * n + n ** 3
    i, u, j = (a.reshape(-1) for a in np.indices((n, n, n)))
    tri = n_var + np.arange(n ** 3)

    # initial colors: (family, id, id) rows, interned once
    C = view.C.reshape(-1)
    pair = np.sort(np.stack([C[i * n + u], C[u * n + j]], axis=1), axis=1)
    init = np.concatenate([
        np.stack([np.zeros(n_var, np.int64), C, np.eye(n, dtype=np.int64).reshape(-1)], axis=1),
        np.concatenate([np.full((n ** 3, 1), 2), pair], axis=1),
        np.stack([np.ones(m, np.int64), view.b, np.zeros(m, np.int64)], axis=1)])
    cur = _intern_rows(init)

    edge_color = 2 + view.A
    dst = np.concatenate([i * n + j, tri, tri, cell, n_main + k])
    ec = np.concatenate([np.zeros(n ** 3, np.int64), np.ones(2 * n ** 3, np.int64),
                         edge_color, edge_color])
    src = np.concatenate([tri, i * n + u, u * n + j, n_main + k, cell])
    by_dst = np.argsort(dst, kind="stable")
    dst, ec, src = dst[by_dst], ec[by_dst], src[by_dst]
    degree = np.bincount(dst, minlength=len(cur))
    slot = 1 + np.arange(len(dst)) - (np.cumsum(degree) - degree)[dst]
    split = np.searchsorted(dst, n_main)  # the constraints' in-edges come last
    # rows: own color, then the sorted in-edge codes; codes are >= 0, so the
    # -1 padding after them also fixes the in-degree
    tables = [np.full((rows, 1 + int(deg.max(initial=0))), -1, dtype=np.int64)
              for rows, deg in ((n_main, degree[:n_main]), (m, degree[n_main:]))]
    span = int(ec.max()) + 1  # codes of a round lie in 0..span*K-1

    # at most one strict refinement per node, plus the confirming round
    for rounds in range(1, len(cur) + 2):
        K = _n_ids(cur)
        code = ec * K + cur[src]
        code = code[np.argsort(dst * (span * K) + code)]
        tables[0][:, 0], tables[1][:, 0] = cur[:n_main], cur[n_main:]
        tables[0][dst[:split], slot[:split]] = code[:split]
        tables[1][dst[split:] - n_main, slot[split:]] = code[split:]
        main = _intern_rows(tables[0])
        nxt = np.concatenate([main, _n_ids(main) + _intern_rows(tables[1])])
        if _n_ids(nxt) == K:  # nxt refines cur, so as many classes is cur
            break
        cur = nxt
    else:  # pragma: no cover
        raise StabilizationError("auxiliary-graph refinement did not stabilize")
    return _partition(cur[:n_var].reshape(n, n), cur[n_main:], rounds)
