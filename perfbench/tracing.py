"""Outside-in per-layer tracing of one audit.

``Tracer.install`` rebinds the public functions that ``cli.run_audit``
reaches, in the modules that look them up, with wrappers that time each
call and count its work; ``uninstall`` restores the originals. Nothing in
the package changes.

Layers are the package modules. Each span records calls, busy seconds and
self seconds (busy minus the spans it encloses in the same thread). Spans in
worker threads (the flip stage with ``workers > 1``) add their busy time, so
a layer's seconds can exceed the wall time of the audit.
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict

from multiplicity import branch_bound, cli, profiles

# (module, attribute, layer) of every rebound function. ``cli`` and
# ``profiles`` import the builders and paths by name, so they are rebound
# there; ``solve`` and the node LP are looked up on ``branch_bound``.
_SPANS = (
    (cli, "run_audit", "cli.run_audit"),
    (cli, "load_dataset", "datasets.load"),
    (cli, "build_baseline_mip", "formulations.build"),
    (profiles, "build_disc_mip", "formulations.build"),
    (profiles, "build_flip_mip", "formulations.build"),
    (branch_bound, "solve", "branch_bound.solve"),
    (branch_bound, "solve_lp_with_fixings", "simplex.lp"),
    (cli, "discrepancy_path", "profiles.discrepancy_path"),
    (cli, "ambiguity_path", "profiles.ambiguity_path"),
    (cli, "fit_pool", "pool.fit_pool"),
    (cli, "adhoc_measures", "pool.adhoc_measures"),
)

# Counts that must repeat exactly between two traced audits of one workload.
DETERMINISTIC_COUNTS = ("branch_bound.solve.nodes", "simplex.lp.calls", "simplex.lp.pivots")


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals = []
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module, name, layer in _SPANS:
            original = getattr(module, name)
            self._originals.append((module, name, original))
            setattr(module, name, self._span(layer, original))

    def uninstall(self) -> None:
        while self._originals:
            module, name, original = self._originals.pop()
            setattr(module, name, original)

    # -- spans -----------------------------------------------------------

    def _span(self, layer, fn):
        observe = getattr(self, "_observe_" + layer.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if layer == "branch_bound.solve":
                kwargs["node_log"] = self._node_log(kwargs.get("node_log"))
            elif layer == "simplex.lp":
                self._local.heuristic_candidate = False
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.calls[layer] += 1
                    self.busy[layer] += elapsed
                    self.self_time[layer] += elapsed - children
            if observe is not None:
                observe(result, args)
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    # -- per-layer observations -------------------------------------------

    def _observe_formulations_build(self, model, args) -> None:
        heuristic = model.metadata.get("incumbent_heuristic")
        if heuristic is not None:
            model.metadata["incumbent_heuristic"] = self._heuristic(heuristic)

    def _heuristic(self, fn):
        span = self._span("formulations.heuristic", fn)

        def wrapper(values):
            candidate = span(values)
            # branch_bound offers the candidate right after this returns and
            # before the next node LP, so an incumbent logged in between is
            # the heuristic's.
            self._local.heuristic_candidate = candidate is not None
            return candidate

        return wrapper

    def _node_log(self, inner):
        def log(wall, nodes, upper, lower):
            if getattr(self._local, "heuristic_candidate", False):
                self._local.heuristic_candidate = False
                self._add("formulations.heuristic.hits", 1)
            if inner is not None:
                inner(wall, nodes, upper, lower)

        return log

    def _observe_simplex_lp(self, sol, args) -> None:
        self._add("simplex.lp.pivots", sol.n_pivots)
        self._add("simplex.lp.infeasible", sol.status == "infeasible")

    def _observe_branch_bound_solve(self, result, args) -> None:
        self._add("branch_bound.solve.nodes", result.nodes_explored)
        self._add("branch_bound.solve.certified", result.certified)
        if not result.certified:
            # Every objective weights binaries with nonnegative counts, so a
            # solve without an incumbent or node bound is bracketed by
            # [0, sum of the objective].
            upper = result.upper_bound
            if upper is None:
                upper = float(args[0].lp.objective.sum())
            lower = result.lower_bound if math.isfinite(result.lower_bound) else 0.0
            self._add("branch_bound.solve.open_gap", max(0.0, upper - max(lower, 0.0)))

    def _observe_profiles_discrepancy_path(self, out, args) -> None:
        self._add("profiles.discrepancy_path.solves", len(out[1]))

    def _observe_profiles_ambiguity_path(self, out, args) -> None:
        self._add("profiles.ambiguity_path.solves", len(out[2]))

    def _observe_pool_fit_pool(self, models, args) -> None:
        self._add("pool.fit_pool.models", len(models))
        self._add("pool.fit_pool.unconverged", sum(not m.converged for m in models))

    # -- report ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced since the last reset."""
        calls, busy, count = self.calls, self.busy, self.counts
        lp_calls = calls["simplex.lp"]
        pivots = count["simplex.lp.pivots"]
        solves = calls["branch_bound.solve"]
        nodes = count["branch_bound.solve.nodes"]
        heuristic_calls = calls["formulations.heuristic"]

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "pool.fit_pool.s": busy["pool.fit_pool"],
            "pool.fit_pool.models": count["pool.fit_pool.models"],
            "pool.fit_pool.unconverged": count["pool.fit_pool.unconverged"],
            "pool.adhoc_measures.s": busy["pool.adhoc_measures"],
            "simplex.lp.calls": lp_calls,
            "simplex.lp.pivots": pivots,
            "simplex.lp.pivots_per_call": ratio(pivots, lp_calls),
            "simplex.lp.s": busy["simplex.lp"],
            "simplex.lp.us_per_pivot": ratio(1e6 * busy["simplex.lp"], pivots),
            "simplex.lp.infeasible_share": ratio(count["simplex.lp.infeasible"], lp_calls),
            "branch_bound.solve.calls": solves,
            "branch_bound.solve.nodes": nodes,
            "branch_bound.solve.s": busy["branch_bound.solve"],
            "branch_bound.solve.self_s": self.self_time["branch_bound.solve"],
            "branch_bound.solve.nodes_per_s": ratio(nodes, busy["branch_bound.solve"]),
            "branch_bound.solve.certified_share": ratio(
                count["branch_bound.solve.certified"], solves
            ),
            "branch_bound.solve.open_gap": count["branch_bound.solve.open_gap"],
            "profiles.discrepancy_path.s": busy["profiles.discrepancy_path"],
            "profiles.discrepancy_path.solves": count["profiles.discrepancy_path.solves"],
            "profiles.ambiguity_path.s": busy["profiles.ambiguity_path"],
            "profiles.ambiguity_path.solves": count["profiles.ambiguity_path.solves"],
            "formulations.build.calls": calls["formulations.build"],
            "formulations.build.s": busy["formulations.build"],
            "formulations.heuristic.calls": heuristic_calls,
            "formulations.heuristic.s": busy["formulations.heuristic"],
            "formulations.heuristic.hit_ratio": ratio(
                count["formulations.heuristic.hits"], heuristic_calls
            ),
            "datasets.load.s": busy["datasets.load"],
            "cli.run_audit.self_s": self.self_time["cli.run_audit"],
        }
