"""Branch-and-bound over mixed binary/continuous minimization programs.

The engine works the way the measurement algorithms need it to: it returns
an incumbent (upper bound), a global lower bound, and a certification status,
and it stays useful when a budget runs out.  Because every objective in this
package is an integer mistake/agreement count, node bounds are ceiled to the
next integer before pruning and a gap below 1 certifies optimality.

From a ``MipModel`` the engine reads its LP relaxation, its binary indices,
its objective offset and, if present, ``metadata["incumbent_heuristic"]``:
a callable that maps a fractional node LP solution to a candidate
assignment (or None), kept only if ``check_feasible`` accepts it.  Every
other metadata entry belongs to whoever built the model.

Every node LP is solved by the kernel's dual simplex.  A node below the
root starts from its parent's final basis, so a queued node keeps its LP
values (to branch on) and that basis (to start its children), never a
tableau.  The root LP starts from the slack basis, or from a ``root_start``
basis of a related program (the previous program of a path, or a program
with one row fewer); the solve reports its root LP's final basis as
``root_basis`` for the next one.  A node LP the simplex cannot decide
("stalled") raises ``InternalConsistencyError``: pruning it as infeasible
could cut off the optimum.

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
from .simplex import Basis, LinearProgram, solve_lp_with_fixings, violated_rows

INT_TOL = 1e-6
CERT_GAP = 1.0 - 1e-6

STATUS_CERTIFIED = "certified_optimal"
STATUS_GAP = "feasible_with_gap"
STATUS_INFEASIBLE = "infeasible"
STATUS_NO_INCUMBENT = "no_incumbent"


@dataclass(frozen=True)
class MipModel:
    """A built minimization program: LP relaxation plus the binary index set.

    ``objective_offset`` is a constant added to the LP objective; every
    objective value and bound a solve reports includes it.
    """

    lp: LinearProgram
    binary_vars: tuple
    metadata: dict = field(default_factory=dict)
    objective_offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "binary_vars", tuple(self.binary_vars))
        for j in self.binary_vars:
            if not (0 <= j < self.lp.n_vars):
                raise ValueError(f"binary index {j} out of range")
            if self.lp.var_lo[j] < -INT_TOL or self.lp.var_hi[j] > 1 + INT_TOL:
                raise ValueError(f"binary variable {j} must have bounds [0, 1]")


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
    root_basis: Optional[Basis] = None  # None when no root LP ran or it was infeasible

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
    binaries = np.asarray(model.binary_vars, dtype=int)
    fractional = np.abs(values[binaries] - np.round(values[binaries])) > INT_TOL
    for j in binaries[fractional]:
        violations.append(f"binary variable {j} = {values[j]:.6g} not integral")
    for k in violated_rows(lp, values, INT_TOL):
        violations.append(
            f"row {k} ({lp.row_relations[k]} {lp.row_rhs[k]:.6g}) violated: "
            f"activity {lp.row_coefs[k] @ values:.6g}"
        )
    return not violations, violations


def solve(
    model: MipModel,
    budget: Optional[SolveBudget] = None,
    warm_start=None,
    lower_bound_hint: Optional[float] = None,
    node_log: Optional[Callable[[float, int, float, float], None]] = None,
    root_start: Optional[Basis] = None,
) -> SolveResult:
    """Best-first branch-and-bound returning the (upper, lower, incumbent)
    solver contract tuple.  ``root_start`` warm-starts the root LP (see
    ``solve_lp_with_fixings``); without it the root starts from the slack
    basis."""
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

    # (ceiled bound, fifo, fixings, lp values, lp basis); the root waits
    # unsolved with its starting basis, so a solve that starts past its
    # deadline solves no LP.
    heap: list = [(-math.inf, 0, {}, None, root_start)]
    fifo = 1
    nodes = 0
    root_basis = None

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

    def evaluate(fixings: dict, floor_bound: float, start):
        """Solve a node LP, warm from the parent's basis ``start`` if given:
        offer an integral solution as an incumbent, or queue a fractional
        one for branching unless its bound is pruned.  Returns the LP's
        final basis (None when it is infeasible)."""
        nonlocal nodes, fifo
        nodes += 1
        sol = solve_lp_with_fixings(model.lp, fixings, start=start)
        if sol.status == "infeasible":
            return None
        if sol.status != "optimal":
            raise InternalConsistencyError(f"node LP ended with {sol.status}")
        value = sol.objective_value + offset
        bound = max(math.ceil(value - INT_TOL), floor_bound)
        frac = np.abs(sol.values[binaries] - np.round(sol.values[binaries]))
        if binaries.size == 0 or frac.max() <= INT_TOL:
            if upper is None or bound < upper:
                offer_incumbent(sol.values, float(round(value)))
            return sol.basis
        try_heuristic(sol.values)
        if upper is None or bound < upper:
            heapq.heappush(heap, (bound, fifo, fixings, sol.values, sol.basis))
            fifo += 1
        return sol.basis

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
        bound, _, fixings, values, basis = heapq.heappop(heap)
        if upper is not None and bound >= upper:
            continue
        if values is None:  # the root, with its starting basis
            root_basis = evaluate(fixings, bound, basis)
            continue
        frac_dist = np.abs(values[binaries] - 0.5)
        frac_dist[np.abs(values[binaries] - np.round(values[binaries])) <= INT_TOL] = np.inf
        branch_var = int(binaries[np.argmin(frac_dist)])
        for value in (0.0, 1.0):  # floor branch first
            child = dict(fixings)
            child[branch_var] = value
            evaluate(child, bound, basis)

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
        root_basis=root_basis,
    )
