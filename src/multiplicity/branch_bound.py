"""Branch-and-bound over mixed binary/continuous minimization programs.

The engine works the way the measurement algorithms need it to: it returns
an incumbent (upper bound), a global lower bound, and a certification status,
and it stays useful when a budget runs out.  Because every objective in this
package is an integer mistake/agreement count, node bounds are ceiled to the
next integer before pruning and a gap below 1 certifies optimality: the
package's one certification rule.  A warm start that meets a proven
``lower_bound_hint`` certifies with 0 nodes; an incumbent below it raises.

From a ``MipModel`` the engine reads its LP relaxation, its binary indices,
its objective offset and, if present, ``metadata["incumbent_heuristic"]``:
a callable that maps a fractional node LP solution to a candidate
assignment (or None), kept only if ``check_feasible`` accepts it, as is a
node LP solution whose binaries are integral within INT_TOL, rounded: a
binary just off integral can slip a Big-M row past its tolerance.  A node
whose rounding fails is branched on, or keeps its bound when it fixes
every binary.  Every other metadata entry belongs to whoever built the
model.

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
tie-breaking, branching on the most fractional binary that the node has
not fixed (lowest index on ties), floor branch enqueued first.  Runs
budgeted by node limit are therefore exactly reproducible; a time-limited
run reproduces the status but not necessarily the node count.
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
        binaries = np.array(self.binary_vars, dtype=np.int64)
        outside = (binaries < 0) | (binaries >= self.lp.n_vars)
        if outside.any():
            raise ValueError(f"binary index {binaries[outside][0]} out of range")
        loose = (self.lp.var_lo[binaries] < -INT_TOL) | (self.lp.var_hi[binaries] > 1 + INT_TOL)
        if loose.any():
            raise ValueError(f"binary variable {binaries[loose][0]} must have bounds [0, 1]")

    def count(self, values) -> int:
        """The objective of an integral assignment, offset included, as the
        integer it is."""
        return int(round(float(np.dot(self.lp.objective, values)) + self.objective_offset))


@dataclass(frozen=True)
class SolveBudget:
    """Stops a solve at a node count or at an absolute ``time.monotonic()``
    deadline; solves that share a budget share its deadline."""

    deadline: Optional[float] = None
    node_limit: Optional[int] = None

    def expired(self) -> bool:
        """Whether the deadline has passed: the one deadline rule of a solve
        step, read by branch-and-bound and by the labeling pass."""
        return self.deadline is not None and time.monotonic() > self.deadline


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
    activity = lp.activity(values)
    for k in violated_rows(lp, values, INT_TOL):
        violations.append(
            f"row {k} ({lp.row_relations[k]} {lp.row_rhs[k]:.6g}) violated: "
            f"activity {activity[k]:.6g}"
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
    solver contract tuple.  An incumbent below ``lower_bound_hint``, a proven
    bound, raises.  ``root_start`` warm-starts the root LP (see
    ``solve_lp_with_fixings``); without it the root starts from the slack
    basis."""
    budget = budget or SolveBudget()
    binaries = np.array(model.binary_vars, dtype=int)
    offset = model.objective_offset
    start = time.monotonic()

    incumbent = None
    upper: Optional[float] = None
    if warm_start is not None:
        ok, report = check_feasible(model, warm_start)
        if not ok:
            raise InfeasibleWarmStartError("; ".join(report))
        incumbent = np.asarray(warm_start, dtype=float).copy()
        upper = float(model.count(incumbent))

    # (ceiled bound, fifo, fixings, lp values, lp basis); the root waits
    # unsolved with its starting basis, so a solve that starts past its
    # deadline solves no LP.
    heap: list = [(-math.inf, 0, {}, None, root_start)]
    fifo = 1
    nodes = 0
    root_basis = None
    held = math.inf  # the least bound of a node left with no binary to branch on

    def exhausted() -> bool:
        limit = budget.node_limit
        return (limit is not None and nodes >= limit) or budget.expired()

    heuristic = model.metadata.get("incumbent_heuristic")

    def offer(candidate) -> bool:
        """Take ``candidate`` as the incumbent if ``check_feasible`` accepts
        it and it costs less; returns whether it is feasible."""
        nonlocal incumbent, upper
        if candidate is None or not check_feasible(model, candidate)[0]:
            return False
        obj = float(model.count(candidate))
        if upper is None or obj < upper:
            incumbent, upper = np.asarray(candidate, dtype=float).copy(), obj
            if node_log is not None:
                node_log(time.monotonic() - start, nodes, upper, current_lower())
        return True

    def evaluate(fixings: dict, floor_bound: float, start):
        """Solve a node LP, warm from the parent's basis ``start`` if given:
        offer a solution whose binaries are integral within INT_TOL as an
        incumbent, rounded, when ``check_feasible`` accepts it, or queue it
        for branching unless its bound is pruned.  Returns the LP's final
        basis (None when it is infeasible)."""
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
            rounded = sol.values.copy()
            rounded[binaries] = np.round(rounded[binaries])
            if offer(rounded):
                return sol.basis
        if heuristic is not None:
            offer(heuristic(sol.values))
        if upper is None or bound < upper:
            heapq.heappush(heap, (bound, fifo, fixings, sol.values, sol.basis))
            fifo += 1
        return sol.basis

    def current_lower() -> float:
        waiting = float(heap[0][0]) if heap else math.inf
        lower = min(waiting, held, math.inf if upper is None else upper)
        if lower == math.inf:
            return -math.inf
        if lower_bound_hint is not None:
            lower = max(lower, lower_bound_hint)
        return lower if upper is None else min(lower, upper)

    while heap and not exhausted():
        lower = current_lower()
        if upper is not None and upper - lower < CERT_GAP:
            break
        bound, _, fixings, values, basis = heapq.heappop(heap)
        if values is None:  # the root, with its starting basis
            root_basis = evaluate(fixings, bound, basis)
            continue
        frac_dist = np.abs(values[binaries] - 0.5)
        frac_dist[np.isin(binaries, list(fixings))] = np.inf
        if not np.isfinite(frac_dist).any():  # keeps its bound, yields no incumbent
            held = min(held, float(bound))
            continue
        branch_var = int(binaries[np.argmin(frac_dist)])
        for value in (0.0, 1.0):  # floor branch first
            child = dict(fixings)
            child[branch_var] = value
            evaluate(child, bound, basis)

    wall = time.monotonic() - start
    if upper is not None and lower_bound_hint is not None and upper < lower_bound_hint:
        raise InternalConsistencyError(
            f"an incumbent costs {upper:g}, below its lower bound {lower_bound_hint:g}"
        )
    lower = current_lower()
    if incumbent is not None:
        if upper - lower < CERT_GAP:
            status, lower = STATUS_CERTIFIED, upper
        else:
            status = STATUS_GAP
        result_upper = upper
    elif not heap and held == math.inf:
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
