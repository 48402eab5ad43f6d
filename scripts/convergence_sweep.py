#!/usr/bin/env python3
"""Convergence of the default continuation across generator families.

Runs ``pdhg.solve_continuation`` at the default ``PdhgConfig`` on a grid
of five families (max-cut, max-2-SAT, MIS, clique, vertex cover) × side
n × graph seeds 0-2, and prints one line per instance with its
iterations per stage and why it stopped: ``converged``, or the reason of
the first stage that did not converge (``failed_stage``).  A total line
follows.  ER graphs use p=0.5 for clique and p=0.3 otherwise; max-2-SAT
draws 3n clauses over n variables.

Usage: python scripts/convergence_sweep.py [n ...]   (default: 12 16 20)
"""

import sys

from sdpxlab.pdhg import continuation_outcome, solve_continuation
from sdpxlab.relaxations import (
    er_graph,
    max2sat_sdp,
    maxclique_sdp,
    maxcut_sdp,
    mis_sdp,
    random_clauses,
    vertexcover_sdp,
)

FAMILIES = {
    "maxcut": lambda n, seed: maxcut_sdp(er_graph(n, 0.3, seed)),
    "max2sat": lambda n, seed: max2sat_sdp(random_clauses(n, 3 * n, seed)),
    "mis": lambda n, seed: mis_sdp(er_graph(n, 0.3, seed)),
    "clique": lambda n, seed: maxclique_sdp(er_graph(n, 0.5, seed)),
    "vc": lambda n, seed: vertexcover_sdp(er_graph(n, 0.3, seed)),
}
SIDES = (12, 16, 20)
SEEDS = (0, 1, 2)


def main(sides=SIDES) -> int:
    instances = converged = iterations = 0
    for family, build in FAMILIES.items():
        for n in sides:
            for seed in SEEDS:
                _, stages = solve_continuation(build(n, seed))
                reason, failed = continuation_outcome(stages)
                instances += 1
                converged += failed is None
                iterations += sum(s.iterations for s in stages)
                where = "" if failed is None else f" failed_stage={failed}"
                print(f"family={family} n={n} seed={seed} "
                      f"stage_iters={','.join(str(s.iterations) for s in stages)} "
                      f"reason={reason}{where}")
    print(f"event=total instances={instances} converged={converged} "
          f"iterations={iterations}")
    return 0


if __name__ == "__main__":
    sys.exit(main(tuple(int(a) for a in sys.argv[1:]) or SIDES))
