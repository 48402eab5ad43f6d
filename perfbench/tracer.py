"""Span recorder that wraps the library's public functions from outside.

The library imports many functions by name (``pdhg`` holds its own
reference to ``core.apply_A``, ``verify`` to ``colors.run_to_stable``), so
a wrapper is installed at every module attribute of the ``sdpxlab``
package that holds the original function object.  Private helpers are
never wrapped.  ``uninstall`` restores the originals, so untraced passes
run the library exactly as shipped.

Spans carry name, start, end, parent span and op id, and are kept in
flat arrays until the run ends.  Counters (iterations, rounds, converged
solves) are accumulated per group, where a group is one set-up repeat or
one timed pass.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from array import array
from collections import defaultdict

LAYERS = ("sdpa", "relaxations", "core", "pdhg", "colors", "auxgraph", "nn",
          "verify", "bench")


def _enum_value(x) -> str:
    return getattr(x, "value", x)


def algo_name(algo) -> str:
    """Metric name of a refinement algorithm ("vc2fwl+" becomes "vc2fwlp")."""
    return _enum_value(algo).replace("+", "p")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.cur_op = -1
        self.op_group: list[str] = []   # op id -> group label
        self.group = "none"
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._installed: list[tuple[object, str, object]] = []

    # --- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.cur_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def start_op(self, group: str) -> int:
        self.group = group
        self.cur_op = len(self.op_group)
        self.op_group.append(group)
        return self.cur_op

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[self.group][key] += value

    # --- wrapping --------------------------------------------------------

    def _wrap(self, fn, name_of, on_result):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap the traced public functions at every attribute holding them."""
        import sdpxlab
        from sdpxlab import auxgraph, colors, core, nn, pdhg, relaxations, sdpa, verify

        def fixed(name):
            return lambda args, kwargs: name

        def algo_span(args, kwargs):
            return "colors." + algo_name(args[0] if args else kwargs["algo"])

        def arch_name(args, kwargs):
            arch = args[0] if args else kwargs["arch"]
            return "nn." + _enum_value(arch)

        def case_name(args, kwargs):
            return "verify." + (args[0] if args else kwargs["case_id"])

        def on_rounds(args, kwargs, result):
            algo = args[0] if args else kwargs["algo"]
            self.count("colors.%s.rounds" % algo_name(algo), result[1])
            self.count("colors.rounds", result[1])

        def on_solve(args, kwargs, result):
            stats = result[1]
            self.count("pdhg.iters", stats.iterations)
            self.count("pdhg.solves")
            self.count("pdhg.converged", 1.0 if stats.converged else 0.0)

        def on_continuation(args, kwargs, result):
            for k, stats in enumerate(result[1]):
                self.count("pdhg.stage%d.iters" % k, stats.iterations)

        def on_psd(args, kwargs, result):
            solve = self._ids.get("pdhg.solve")
            if any(self.name_id[i] == solve for i in self.stack):
                self.count("pdhg.project_psd.in_solve")

        traced = [
            (sdpa.read_sdpa, fixed("sdpa.read_sdpa"), None),
            (sdpa.write_sdpa, fixed("sdpa.write_sdpa"), None),
            (core.apply_A, fixed("core.apply_A"), None),
            (core.apply_A_adjoint, fixed("core.apply_A_adjoint"), None),
            (core.neighbor_lists, fixed("core.neighbor_lists"), None),
            (pdhg.project_psd, fixed("pdhg.project_psd"), on_psd),
            (pdhg.lambda_max_op, fixed("pdhg.lambda_max_op"), None),
            (pdhg.solve, fixed("pdhg.solve"), on_solve),
            (pdhg.solve_continuation, fixed("pdhg.solve_continuation"), on_continuation),
            (colors.run_to_stable, algo_span, on_rounds),
            (colors.canonical_labels, fixed("colors.canonical_labels"), None),
            (colors.step, fixed("colors.step"), None),
            (auxgraph.aux_graph_stable, fixed("auxgraph.aux_graph_stable"), None),
            (nn.forward, arch_name, None),
            (nn.layer, fixed("nn.layer"), None),
            (nn.triangular_attention, fixed("nn.triangular_attention"), None),
            (nn.decode, fixed("nn.decode"), None),
            (verify.run_case, case_name, None),
        ]
        for gen in ("er_graph", "random_clauses", "maxcut_sdp", "maxclique_sdp",
                    "mis_sdp", "vertexcover_sdp", "max2sat_sdp"):
            traced.append((getattr(relaxations, gen), fixed("relaxations." + gen), None))
        wrappers = {id(fn): self._wrap(fn, name_of, on_result)
                    for fn, name_of, on_result in traced}
        for mod in (sdpxlab, auxgraph, colors, core, nn, pdhg, relaxations, sdpa, verify):
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None and callable(val):
                    self._installed.append((mod, attr, val))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._installed):
            setattr(mod, attr, val)
        self._installed.clear()

    # --- summaries -------------------------------------------------------

    def summarise(self, group: str) -> dict[str, list[float]]:
        """name -> [calls, inclusive seconds, self seconds] over one group."""
        ops = {i for i, g in enumerate(self.op_group) if g == group}
        child = defaultdict(float)
        picked = []
        for idx in range(len(self.start)):
            if self.op[idx] in ops:
                dur = self.end[idx] - self.start[idx]
                picked.append((idx, dur))
                if self.parent[idx] >= 0:
                    child[self.parent[idx]] += dur
        out: dict[str, list[float]] = {}
        for idx, dur in picked:
            row = out.setdefault(self.names[self.name_id[idx]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[idx]
        return out

    def write(self, path, header: dict) -> None:
        """Dump every span as one JSON line after a header line."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({**header, "names": self.names,
                                 "op_group": self.op_group,
                                 "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for i in range(len(self.start)):
                fh.write("[%d,%.9f,%.9f,%d,%d]\n" % (
                    self.name_id[i], self.start[i], self.end[i], self.parent[i], self.op[i]))


def _layer_self(summary) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_s) in summary.items():
        out[name.split(".", 1)[0]] += self_s
    return out


def layer_metrics(tracer: Tracer, pass_groups: list[str], setup_groups: list[str]
                  ) -> tuple[dict[str, float], list[dict[str, float]]]:
    """Per-layer metric values: medians over traced passes (set-up layers
    over set-up repeats), and the values of each traced pass."""
    from sdpxlab.colors import Algo
    from sdpxlab.nn import Arch
    from sdpxlab.verify import CASE_IDS
    algos = [algo_name(a) for a in Algo]

    def one(group):
        s = tracer.summarise(group)
        calls = lambda n: s.get(n, (0, 0.0, 0.0))[0]
        secs = lambda n: s.get(n, (0, 0.0, 0.0))[1]
        c = tracer.counters.get(group, {})
        iters = c.get("pdhg.iters", 0.0)
        rounds = c.get("colors.rounds", 0.0)
        solves = c.get("pdhg.solves", 0.0)
        m = {
            "sdpa.read_sdpa.s": secs("sdpa.read_sdpa"),
            "sdpa.read_sdpa.calls": calls("sdpa.read_sdpa"),
            "core.apply_A.s": secs("core.apply_A"),
            "core.apply_A.calls": calls("core.apply_A"),
            "core.apply_A_adjoint.s": secs("core.apply_A_adjoint"),
            "core.apply_A_adjoint.calls": calls("core.apply_A_adjoint"),
            "core.neighbor_lists.s": secs("core.neighbor_lists"),
            "core.neighbor_lists.calls": calls("core.neighbor_lists"),
            "pdhg.iters": iters,
            "pdhg.s_per_iter": secs("pdhg.solve") / iters if iters else 0.0,
            "pdhg.project_psd.s": secs("pdhg.project_psd"),
            "pdhg.project_psd.per_iter":
                c.get("pdhg.project_psd.in_solve", 0.0) / iters if iters else 0.0,
            "pdhg.lambda_max_op.s": secs("pdhg.lambda_max_op"),
            "pdhg.lambda_max_op.calls": calls("pdhg.lambda_max_op"),
            "pdhg.converged_frac": c.get("pdhg.converged", 0.0) / solves if solves else 0.0,
            "colors.s_per_round":
                sum(secs("colors." + a) for a in algos) / rounds
                if rounds else 0.0,
            "colors.canonical_labels.s": secs("colors.canonical_labels"),
            "colors.step.s": secs("colors.step"),
            "colors.step.calls": calls("colors.step"),
            "auxgraph.aux_graph_stable.s": secs("auxgraph.aux_graph_stable"),
            "nn.layer.s": secs("nn.layer"),
            "nn.layer.calls": calls("nn.layer"),
            "nn.triangular_attention.s": secs("nn.triangular_attention"),
        }
        for k in range(4):
            m["pdhg.stage%d.iters" % k] = c.get("pdhg.stage%d.iters" % k, 0.0)
        for a in algos:
            m["colors.%s.s" % a] = secs("colors." + a)
            m["colors.%s.rounds" % a] = c.get("colors.%s.rounds" % a, 0.0)
        for a in Arch:
            m["nn.%s.s" % a.value] = secs("nn." + a.value)
        for case in CASE_IDS:
            m["verify.%s.s" % case] = secs("verify." + case)
        for layer, self_s in _layer_self(s).items():
            m[layer + ".self_s"] = self_s
        return m

    per_pass = [one(g) for g in pass_groups]
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    setup = [tracer.summarise(g) for g in setup_groups]
    out["sdpa.write_sdpa.s"] = statistics.median(
        s.get("sdpa.write_sdpa", (0, 0.0, 0.0))[1] for s in setup)
    out["relaxations.gen.s"] = statistics.median(
        sum(v[1] for k, v in s.items() if k.startswith("relaxations.")) for s in setup)
    return out, per_pass
