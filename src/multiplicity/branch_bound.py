"""Branch-and-bound over mixed binary/continuous minimization programs.

The engine works the way the measurement algorithms need it to: it returns
an incumbent (upper bound), a global lower bound, and a certification status,
and it stays useful when a budget runs out.  Because every objective in this
package is an integer mistake/agreement count, node bounds are ceiled to the
next integer before pruning and a gap below 1 certifies optimality.

Search order is deterministic: best-first on the ceiled LP bound with FIFO
tie-breaking, branching on the most fractional binary (lowest index on
ties), floor branch enqueued first.  Runs budgeted by node limit are
therefore exactly reproducible; a time-limited run reproduces the status
but not necessarily the node count.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import InfeasibleWarmStartError, InternalConsistencyError
from .simplex import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    LinearProgram,
    solve_lp_with_fixings,
)

INT_TOL = 1e-6
CERT_GAP = 1.0 - 1e-6

STATUS_CERTIFIED = "certified_optimal"
STATUS_GAP = "feasible_with_gap"
STATUS_INFEASIBLE = "infeasible"
STATUS_NO_INCUMBENT = "no_incumbent"


@dataclass(frozen=True)
class MipModel:
    """A built integer program: LP relaxation plus the binary index set.

    ``objective_offset`` is a constant added to the LP objective; every
    objective value and bound a solve reports includes it.
    """

    lp: LinearProgram
    binary_vars: tuple
    objective_sense: str = "min"
    metadata: dict = field(default_factory=dict)
    objective_offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "binary_vars", tuple(self.binary_vars))
        if self.objective_sense != "min":
            raise ValueError("only minimization models are supported")
        for j in self.binary_vars:
            if not (0 <= j < self.lp.n_vars):
                raise ValueError(f"binary index {j} out of range")
            if self.lp.var_lo[j] < -INT_TOL or self.lp.var_hi[j] > 1 + INT_TOL:
                raise ValueError(f"binary variable {j} must have bounds [0, 1]")
        groups = self.metadata.get("groups", {})
        seen: set = set()
        for name, idx in groups.items():
            overlap = seen.intersection(idx)
            if overlap:
                raise ValueError(f"metadata group {name} overlaps {overlap}")
            seen.update(idx)


@dataclass(frozen=True)
class SolveBudget:
    """Stops a solve at a node count or at an absolute ``time.monotonic()``
    deadline; solves that share a budget share its deadline."""

    deadline: Optional[float] = None
    node_limit: Optional[int] = None


@dataclass(frozen=True)
class SolveResult:
    status: str
    incumbent: Optional[np.ndarray]
    upper_bound: Optional[float]
    lower_bound: float
    nodes_explored: int
    wall_time: float
    lower_bound_hint: Optional[float] = None

    @property
    def certified(self) -> bool:
        return self.status == STATUS_CERTIFIED


def check_feasible(model: MipModel, assignment) -> tuple:
    """Validate a full variable assignment; returns (ok, violation report)."""
    values = np.asarray(assignment, dtype=float)
    lp = model.lp
    violations = []
    if values.size != lp.n_vars:
        return False, [f"assignment covers {values.size} of {lp.n_vars} variables"]
    low = values < lp.var_lo - INT_TOL
    high = values > lp.var_hi + INT_TOL
    for j in np.flatnonzero(low | high):
        violations.append(
            f"variable {j} = {values[j]:.6g} outside "
            f"[{lp.var_lo[j]:.6g}, {lp.var_hi[j]:.6g}]"
        )
    for j in model.binary_vars:
        if abs(values[j] - round(values[j])) > INT_TOL:
            violations.append(f"binary variable {j} = {values[j]:.6g} not integral")
    if lp.n_rows:
        activity = lp.row_coefs @ values
        scale = 1.0 + np.abs(lp.row_rhs)
        for k, rel in enumerate(lp.row_relations):
            resid = activity[k] - lp.row_rhs[k]
            bad = (
                (rel == LESS_EQUAL and resid > INT_TOL * scale[k])
                or (rel == GREATER_EQUAL and resid < -INT_TOL * scale[k])
                or (rel == EQUAL and abs(resid) > INT_TOL * scale[k])
            )
            if bad:
                violations.append(
                    f"row {k} ({rel} {lp.row_rhs[k]:.6g}) violated: "
                    f"activity {activity[k]:.6g}"
                )
    return not violations, violations


def solve(
    model: MipModel,
    budget: Optional[SolveBudget] = None,
    warm_start=None,
    lower_bound_hint: Optional[float] = None,
    node_log: Optional[Callable[[float, int, float, float], None]] = None,
) -> SolveResult:
    """Best-first branch-and-bound returning the (upper, lower, incumbent)
    solver contract tuple."""
    budget = budget or SolveBudget()
    binaries = np.array(model.binary_vars, dtype=int)
    offset = model.objective_offset
    start = time.monotonic()

    def count(values) -> float:
        return float(round(float(np.dot(model.lp.objective, values)) + offset))

    incumbent = None
    upper: Optional[float] = None
    if warm_start is not None:
        ok, report = check_feasible(model, warm_start)
        if not ok:
            raise InfeasibleWarmStartError("; ".join(report))
        incumbent = np.asarray(warm_start, dtype=float).copy()
        upper = count(incumbent)

    # (ceiled bound, fifo, fixings, lp values); the root waits unsolved, so
    # a solve that starts past its deadline solves no LP.
    heap: list = [(-math.inf, 0, {}, None)]
    fifo = 1
    nodes = 0

    def exhausted() -> bool:
        if budget.node_limit is not None and nodes >= budget.node_limit:
            return True
        return budget.deadline is not None and time.monotonic() > budget.deadline

    heuristic = model.metadata.get("incumbent_heuristic")

    def offer_incumbent(values, obj: float) -> None:
        nonlocal incumbent, upper
        if upper is None or obj < upper:
            incumbent, upper = np.asarray(values, dtype=float).copy(), obj
            if node_log is not None:
                node_log(time.monotonic() - start, nodes, upper, current_lower())

    def try_heuristic(lp_values) -> None:
        if heuristic is None:
            return
        candidate = heuristic(lp_values)
        if candidate is None:
            return
        ok, _ = check_feasible(model, candidate)
        if ok:
            offer_incumbent(candidate, count(candidate))

    def evaluate(fixings: dict, floor_bound: float):
        """Solve a node LP; returns (kind, bound, values)."""
        nonlocal nodes
        nodes += 1
        sol = solve_lp_with_fixings(model.lp, fixings)
        if sol.status == "infeasible":
            return
        if sol.status != "optimal":
            raise InternalConsistencyError(f"node LP ended with {sol.status}")
        value = sol.objective_value + offset
        bound = max(math.ceil(value - INT_TOL), floor_bound)
        frac = np.abs(sol.values[binaries] - np.round(sol.values[binaries]))
        if binaries.size == 0 or frac.max() <= INT_TOL:
            if upper is None or bound < upper:
                offer_incumbent(sol.values, float(round(value)))
            return
        try_heuristic(sol.values)
        if upper is not None and bound >= upper:
            return
        nonlocal fifo
        heapq.heappush(heap, (bound, fifo, fixings, sol.values))
        fifo += 1

    def current_lower() -> float:
        cands = []
        if heap:
            cands.append(float(heap[0][0]))
        if upper is not None:
            cands.append(upper)
        if not cands:
            return -math.inf
        lower = min(cands)
        if lower_bound_hint is not None:
            lower = max(lower, lower_bound_hint)
        if upper is not None:
            lower = min(lower, upper)
        return lower

    while heap and not exhausted():
        lower = current_lower()
        if upper is not None and upper - lower < CERT_GAP:
            break
        bound, _, fixings, values = heapq.heappop(heap)
        if upper is not None and bound >= upper:
            continue
        if values is None:
            evaluate(fixings, bound)
            continue
        frac_dist = np.abs(values[binaries] - 0.5)
        frac_dist[np.abs(values[binaries] - np.round(values[binaries])) <= INT_TOL] = np.inf
        branch_var = int(binaries[np.argmin(frac_dist)])
        for value in (0.0, 1.0):  # floor branch first
            child = dict(fixings)
            child[branch_var] = value
            evaluate(child, bound)

    wall = time.monotonic() - start
    lower = current_lower()
    if incumbent is not None:
        if upper - lower < CERT_GAP:
            status, lower = STATUS_CERTIFIED, upper
        else:
            status = STATUS_GAP
        result_upper = upper
    elif not heap:
        # A completed search with no incumbent means no integral solution.
        status, result_upper, lower = STATUS_INFEASIBLE, None, math.inf
    else:
        status, result_upper = STATUS_NO_INCUMBENT, None
    return SolveResult(
        status=status,
        incumbent=incumbent,
        upper_bound=result_upper,
        lower_bound=lower,
        nodes_explored=nodes,
        wall_time=wall,
        lower_bound_hint=lower_bound_hint,
    )
