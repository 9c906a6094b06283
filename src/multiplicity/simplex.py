"""Dense bounded-variable simplex for box-constrained linear programs.

All variables carry finite bounds (every variable in the integer programs
built by this package lives in [0,1], [-1,0] or [-1,1]), which rules out
unbounded problems and lets nonbasic variables sit at either bound.

A program is solved either cold, by two-phase primal simplex, or warm, by
dual simplex from the final basis of a related program with the same
objective: one that fixed fewer variables (a branch-and-bound parent), had
other right-hand sides (the previous program of a path), or lacked a row
(``basis_with_row`` extends its basis by that row's slack).  None of these
changes moves a reduced cost, so the basis stays dual feasible and only its
primal infeasibilities need repair.

Implementation notes:

* rows are turned into equalities with one slack per row whose bounds encode
  the relation; slack bounds are derived from the variable box, so they stay
  finite;
* an artificial variable per row provides the cold identity starting basis;
  rows whose slack already absorbs the residual start with the slack basic
  instead, so phase 1 only runs when some residual is out of range;
* primal pricing is Dantzig's rule with a permanent switch to Bland's rule
  after 5*(rows+cols) degenerate steps, which guarantees termination;
* the primal leaving row is the first to block (lowest basic index on
  ties), unless its pivot is below SMALL_PIVOT: then Harris's rule takes
  the largest pivot among the rows that block within the feasibility
  tolerance;
* the dual leaves on the row with the largest bound violation (lowest basic
  index on ties) and enters the column with the smallest |z_j / alpha_rj|
  (lowest index on ties), with the same larger-pivot guard within the
  optimality tolerance; it proves infeasibility only from a row whose range
  over the nonbasic boxes misses its bounds, and a node it cannot finish
  within DUAL_ITERATION_LIMIT pivots is solved cold instead;
* the tableau B^-1 A is updated by explicit pivots and refactorized from
  scratch every REFACTOR_INTERVAL pivots to keep drift in check.

Everything is deterministic: identical inputs (and starting bases) produce
identical pivot sequences and bit-identical solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import InternalConsistencyError

FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-7
PIVOT_TOL = 1e-9
SMALL_PIVOT = 1e-3  # below this the ratio test switches to Harris's rule
DEGENERATE_STEP = 1e-12
REFACTOR_INTERVAL = 256
DUAL_ITERATION_LIMIT = 1000

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)


@dataclass(frozen=True)
class LinearProgram:
    """min objective . v  subject to  row_coefs v (rel) row_rhs,  lo <= v <= hi."""

    objective: np.ndarray
    row_coefs: np.ndarray
    row_relations: tuple
    row_rhs: np.ndarray
    var_lo: np.ndarray
    var_hi: np.ndarray

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        coefs = np.asarray(self.row_coefs, dtype=float)
        if coefs.ndim != 2:
            coefs = coefs.reshape(0, obj.size) if coefs.size == 0 else np.atleast_2d(coefs)
        rhs = np.asarray(self.row_rhs, dtype=float)
        lo = np.asarray(self.var_lo, dtype=float)
        hi = np.asarray(self.var_hi, dtype=float)
        n = obj.size
        if coefs.shape[1] != n and coefs.shape[0] > 0:
            raise ValueError("row coefficient width must match variable count")
        if coefs.shape[0] != rhs.size or coefs.shape[0] != len(self.row_relations):
            raise ValueError("row count mismatch between coefs, relations and rhs")
        if lo.size != n or hi.size != n:
            raise ValueError("bound vectors must match variable count")
        for rel in self.row_relations:
            if rel not in _RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("all variable bounds must be finite")
        if np.any(lo > hi + 1e-12):
            raise ValueError("found a variable with lo > hi")
        for name, arr in (
            ("objective", obj),
            ("row_coefs", coefs),
            ("row_rhs", rhs),
            ("var_lo", lo),
            ("var_hi", hi),
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "row_relations", tuple(self.row_relations))

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.row_rhs.size


@dataclass(frozen=True)
class Basis:
    """A simplex basis over the columns [structurals | slacks | artificials]:
    the basic column of each row, and which nonbasic columns sit at their
    upper bound (entries of basic columns are ignored)."""

    columns: np.ndarray
    at_upper: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | iteration_limit (every variable is boxed)
    values: Optional[np.ndarray]
    objective_value: float
    n_pivots: int = 0  # every pivot and bound flip, warm attempt included
    basis: Optional[Basis] = None  # final basis of an optimal solve


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a box-bounded LP to a vertex optimum, or prove infeasibility."""
    return solve_lp_with_fixings(lp, {})


def solve_lp_with_fixings(
    lp: LinearProgram, fixings: dict, start: Optional[Basis] = None
) -> LpSolution:
    """Solve ``lp`` with some variables pinned to fixed values.

    The fixed variables' bounds collapse to their values in the tableau;
    a fixing outside the variable's bounds makes the program infeasible.

    Without ``start`` the program is solved cold by two-phase primal
    simplex.  ``start`` is a nonsingular basis of ``lp``'s shape that is
    dual feasible for it: the ``basis`` of an optimal solution of ``lp``
    under a subset of ``fixings``, of a program that differs from ``lp``
    only in its right-hand sides, or such a basis extended by
    ``basis_with_row``.  The solve refactors from it and repairs it by dual
    simplex, then confirms optimality with the primal pricing.  If the dual
    stops short of an answer (its iteration limit, or no pivot and no proof
    of infeasibility), the program is solved cold after all.
    """
    lo = lp.var_lo.copy()
    hi = lp.var_hi.copy()
    for j, value in fixings.items():
        if value < lp.var_lo[j] - 1e-9 or value > lp.var_hi[j] + 1e-9:
            return LpSolution("infeasible", None, float("nan"))
        lo[j] = hi[j] = float(value)
    state = _Tableau(lp, lo, hi)
    if state.infeasible_by_bounds:
        return LpSolution("infeasible", None, float("nan"))
    if start is None or not state.m:
        return _solve_cold(lp, state, lo, hi)
    if start.columns.shape != (state.m,) or start.at_upper.shape != (state.n_ext,):
        raise ValueError("starting basis does not match the program's shape")
    status, warm_pivots = state.warm_optimize(start, DUAL_ITERATION_LIMIT)
    if status == "infeasible":
        return LpSolution("infeasible", None, float("nan"), warm_pivots)
    if status == "optimal":
        return _optimal_solution(lp, state, lo, hi, warm_pivots)
    cold = _solve_cold(lp, _Tableau(lp, lo, hi), lo, hi)
    return replace(cold, n_pivots=cold.n_pivots + warm_pivots)


def _solve_cold(lp, state, lo, hi) -> LpSolution:
    """Two-phase primal simplex from the identity starting basis."""
    state.start_cold()
    iteration_limit = state.iteration_limit
    pivots = 0

    if state.needs_phase1:
        status, used = state.optimize(state.phase1_cost, iteration_limit, stop_at=1e-9)
        pivots += used
        if status == "iteration_limit":
            return LpSolution("iteration_limit", None, float("nan"), pivots)
        if state.current_objective(state.phase1_cost) > FEASIBILITY_TOL:
            return LpSolution("infeasible", None, float("nan"), pivots)
    state.fix_artificials()

    status, used = state.optimize(state.phase2_cost, iteration_limit - pivots)
    pivots += used
    if status == "iteration_limit":
        return LpSolution("iteration_limit", None, float("nan"), pivots)
    return _optimal_solution(lp, state, lo, hi, pivots)


def _optimal_solution(lp, state, lo, hi, pivots) -> LpSolution:
    """Check the final vertex against the bounds and rows, and package it."""
    values = state.structural_values()
    if np.any(values < lo - 1e-6) or np.any(values > hi + 1e-6):
        raise InternalConsistencyError("simplex returned out-of-bounds values")
    bad = violated_rows(lp, values, 1e-6)
    if bad.size:
        k = bad[0]
        raise InternalConsistencyError(
            f"simplex solution violates row {k}: residual "
            f"{lp.row_coefs[k] @ values - lp.row_rhs[k]:.3e}"
        )
    objective = float(np.dot(lp.objective, values))
    values.flags.writeable = False
    basis = Basis(state.basis, state.at_upper)
    basis.columns.flags.writeable = False
    basis.at_upper.flags.writeable = False
    return LpSolution("optimal", values, objective, pivots, basis)


def basis_with_row(basis: Basis, row: int) -> Basis:
    """``basis`` extended to the program with one more row inserted at
    index ``row``, that row's slack basic and its artificial nonbasic.

    Slack and artificial columns of the rows at and past ``row`` shift by
    one.  The extended basis matrix is block triangular with a unit block
    for the new slack, so it is nonsingular when ``basis`` is; the new row's
    dual is 0, so every reduced cost, and dual feasibility, carries over.
    """
    m = basis.columns.size
    n = basis.at_upper.size - 2 * m
    old = np.arange(n + 2 * m)
    moved = old + (old >= n + row) + (old >= n + m + row)
    at_upper = np.zeros(n + 2 * (m + 1), dtype=bool)
    at_upper[moved] = basis.at_upper
    columns = np.insert(moved[basis.columns], row, n + row)
    return Basis(columns, at_upper)


def violated_rows(lp: LinearProgram, values: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the rows of ``lp`` that ``values`` violates by more than
    ``tol * (1 + |rhs|)``."""
    if lp.n_rows == 0:
        return np.empty(0, dtype=int)
    resid = lp.row_coefs @ values - lp.row_rhs
    slack = tol * (1.0 + np.abs(lp.row_rhs))
    rel = np.asarray(lp.row_relations, dtype="<U2")
    bad = ((resid > slack) & (rel != GREATER_EQUAL)) | (
        (resid < -slack) & (rel != LESS_EQUAL)
    )
    return np.flatnonzero(bad)


class _Tableau:
    """Mutable simplex state over [structurals | slacks | artificials]."""

    def __init__(self, lp: LinearProgram, var_lo: np.ndarray, var_hi: np.ndarray):
        n, m = lp.n_vars, lp.n_rows
        self.m = m
        self.n_struct = n
        self.n_ext = n + 2 * m
        self.iteration_limit = 200 * (m + self.n_ext) + 2000
        self.infeasible_by_bounds = False

        lo = np.concatenate([var_lo, np.zeros(m), np.zeros(m)])
        hi = np.concatenate([var_hi, np.zeros(m), np.zeros(m)])

        A = np.zeros((m, self.n_ext))
        if m:
            A[:, :n] = lp.row_coefs
            A[:, n : n + m] = np.eye(m)
            A[:, n + m :] = np.eye(m)

        # Slack bounds from the relation and the reachable activity range.
        pos = np.clip(lp.row_coefs, 0.0, None) if m else np.zeros((0, n))
        neg = np.clip(lp.row_coefs, None, 0.0) if m else np.zeros((0, n))
        act_min = pos @ var_lo + neg @ var_hi
        act_max = pos @ var_hi + neg @ var_lo
        for k, rel in enumerate(lp.row_relations):
            b = lp.row_rhs[k]
            s_lo, s_hi = b - act_max[k], b - act_min[k]
            if rel == LESS_EQUAL:
                s_lo = max(s_lo, 0.0)
            elif rel == GREATER_EQUAL:
                s_hi = min(s_hi, 0.0)
            else:
                s_lo = s_hi = 0.0
            if s_lo > s_hi + 1e-9:
                self.infeasible_by_bounds = True
                return
            lo[n + k] = s_lo
            hi[n + k] = max(s_hi, s_lo)

        self.A = A
        self.lo = lo
        self.hi = hi
        self.b = lp.row_rhs.astype(float).copy()
        self.phase2_cost = np.concatenate([lp.objective, np.zeros(2 * m)])
        self._pivots_since_refactor = 0
        self._degenerate_steps = 0
        self._use_bland = False

    def start_cold(self) -> None:
        """Identity starting basis: slack where its bounds absorb the
        residual, artificial otherwise, with the phase-1 costs that drive
        the artificials to zero."""
        n, m, lo, hi = self.n_struct, self.m, self.lo, self.hi
        self.at_upper = np.zeros(self.n_ext, dtype=bool)
        self.basis = np.empty(m, dtype=int)
        self.phase1_cost = np.zeros(self.n_ext)
        residual_target = self.b - self.A[:, :n] @ lo[:n]
        self.needs_phase1 = False
        for k in range(m):
            t = residual_target[k]
            s_lo, s_hi = lo[n + k], hi[n + k]
            if s_lo - FEASIBILITY_TOL <= t <= s_hi + FEASIBILITY_TOL:
                self.basis[k] = n + k
            else:
                s_at = s_lo if t < s_lo else s_hi
                self.at_upper[n + k] = s_at == s_hi and s_hi > s_lo
                r = t - s_at
                a = n + m + k
                self.basis[k] = a
                lo[a], hi[a] = min(0.0, r), max(0.0, r)
                self.phase1_cost[a] = 1.0 if r > 0 else -1.0
                if abs(r) > FEASIBILITY_TOL:
                    self.needs_phase1 = True
        self.T = self.A.copy()  # B^-1 A with B = I initially
        self.Tb = self.b.copy()

    # -- state helpers -------------------------------------------------

    def fix_artificials(self) -> None:
        art = slice(self.n_struct + self.m, self.n_ext)
        self.lo[art] = 0.0
        self.hi[art] = 0.0
        self.at_upper[art] = False

    def _full_values(self) -> np.ndarray:
        x = np.where(self.at_upper, self.hi, self.lo)
        if self.m:
            xn = x.copy()
            xn[self.basis] = 0.0
            x_basic = self.Tb - self.T @ xn
            x[self.basis] = x_basic
        return x

    def structural_values(self) -> np.ndarray:
        return self._full_values()[: self.n_struct]

    def current_objective(self, cost: np.ndarray) -> float:
        return float(np.dot(cost, self._full_values()))

    def _refactor(self) -> None:
        if self.m == 0:
            return
        B = self.A[:, self.basis]
        self.T = np.linalg.solve(B, self.A)
        self.Tb = np.linalg.solve(B, self.b)
        self._pivots_since_refactor = 0

    def _pivot(self, row: int, enter: int) -> None:
        """Exchange the basic variable of ``row`` for column ``enter``."""
        piv = self.T[row, enter]
        self.T[row] /= piv
        self.Tb[row] /= piv
        col = self.T[:, enter].copy()
        col[row] = 0.0
        self.T -= np.outer(col, self.T[row])
        self.Tb -= col * self.Tb[row]
        self.basis[row] = enter
        self._pivots_since_refactor += 1

    # -- main loops -----------------------------------------------------

    def optimize(self, cost, iteration_limit, stop_at=None):
        """Run bounded-variable simplex iterations for the given objective.

        Returns ("optimal" | "iteration_limit", pivots_used).
        """
        if self.m == 0:
            # No rows: each variable sits at whichever bound its cost prefers.
            take_upper = cost[: self.n_struct] < 0
            self.at_upper[: self.n_struct] = take_upper
            return "optimal", 0
        pivots = 0
        while pivots < iteration_limit:
            if self._pivots_since_refactor >= REFACTOR_INTERVAL:
                self._refactor()

            x = self._full_values()
            if stop_at is not None and float(np.dot(cost, x)) <= stop_at:
                return "optimal", pivots

            z = cost - cost[self.basis] @ self.T
            nonbasic = np.ones(self.n_ext, dtype=bool)
            nonbasic[self.basis] = False
            free = nonbasic & (self.hi > self.lo)
            eligible = free & (
                (~self.at_upper & (z < -OPTIMALITY_TOL))
                | (self.at_upper & (z > OPTIMALITY_TOL))
            )
            if not eligible.any():
                return "optimal", pivots

            if self._use_bland:
                enter = int(np.argmax(eligible))
            else:
                scores = np.where(eligible, np.abs(z), -1.0)
                enter = int(np.argmax(scores))

            direction = -1.0 if self.at_upper[enter] else 1.0
            d = direction * self.T[:, enter]
            x_basic = x[self.basis]
            lb, ub = self.lo[self.basis], self.hi[self.basis]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(
                    d > PIVOT_TOL,
                    (x_basic - lb) / np.where(d > PIVOT_TOL, d, 1.0),
                    np.where(
                        d < -PIVOT_TOL,
                        (ub - x_basic) / np.where(d < -PIVOT_TOL, -d, 1.0),
                        np.inf,
                    ),
                )
            ratio = np.maximum(ratio, 0.0)
            t_flip = self.hi[enter] - self.lo[enter]
            min_ratio = float(ratio.min()) if ratio.size else np.inf

            pivots += 1
            if t_flip <= min_ratio + 1e-12:
                # Entering variable runs to its opposite bound; no basis change.
                self.at_upper[enter] = not self.at_upper[enter]
                step = t_flip
            else:
                candidates = np.flatnonzero(ratio <= min_ratio + 1e-9)
                leave_row = int(candidates[np.argmin(self.basis[candidates])])
                if abs(d[leave_row]) < SMALL_PIVOT:
                    leave_row = _harris_row(d, x_basic, lb, ub, ratio, self.basis)
                    min_ratio = float(ratio[leave_row])
                leaving = int(self.basis[leave_row])
                self.at_upper[leaving] = d[leave_row] < 0
                self._pivot(leave_row, enter)
                step = min_ratio

            if step < DEGENERATE_STEP:
                self._degenerate_steps += 1
                if self._degenerate_steps > 5 * (self.m + self.n_ext):
                    self._use_bland = True
            else:
                self._degenerate_steps = 0
        return "iteration_limit", pivots

    def warm_optimize(self, start: Basis, dual_limit: int):
        """Dual simplex from ``start``, then the primal pricing to confirm
        optimality.

        Returns ("optimal" | "infeasible" | "stalled", pivots_used); a
        stalled solve has not been decided and belongs to the cold path.
        """
        # the artificials keep their initial bounds [0, 0]
        self.basis = start.columns.copy()
        self.at_upper = start.at_upper.copy()
        self._refactor()
        status, pivots = self.dual_optimize(dual_limit)
        if status == "optimal":
            status, used = self.optimize(self.phase2_cost, self.iteration_limit)
            pivots += used
        return (status if status in ("optimal", "infeasible") else "stalled"), pivots

    def dual_optimize(self, iteration_limit):
        """Run bounded dual simplex iterations from a dual feasible basis
        until every basic variable lies within its bounds.

        Returns ("optimal" | "infeasible" | "iteration_limit" | "stalled",
        pivots_used).
        """
        cost = self.phase2_cost
        pivots = 0
        while True:
            if self._pivots_since_refactor >= REFACTOR_INTERVAL:
                self._refactor()

            x_basic = self._full_values()[self.basis]
            below = self.lo[self.basis] - x_basic
            violation = np.maximum(below, x_basic - self.hi[self.basis])
            worst = float(violation.max())
            if worst <= FEASIBILITY_TOL:
                return "optimal", pivots
            if pivots >= iteration_limit:
                return "iteration_limit", pivots
            rows = np.flatnonzero(violation == worst)
            row = int(rows[np.argmin(self.basis[rows])])
            rise = below[row] > 0

            # x_B[row] = Tb[row] - T[row] . x_N rises as a column at its lower
            # bound with alpha < 0 increases, or one at its upper bound with
            # alpha > 0 decreases; signed so that alpha < 0 helps at lower.
            alpha = self.T[row] if rise else -self.T[row]
            nonbasic = np.ones(self.n_ext, dtype=bool)
            nonbasic[self.basis] = False
            eligible = (
                nonbasic
                & (self.hi > self.lo)
                & np.where(self.at_upper, alpha > PIVOT_TOL, alpha < -PIVOT_TOL)
            )
            if not eligible.any():
                if self._row_misses_bounds(row, nonbasic):
                    return "infeasible", pivots
                return "stalled", pivots

            z = cost - cost[self.basis] @ self.T
            dual_slack = np.maximum(np.where(self.at_upper, -z, z), 0.0)
            size = np.where(eligible, np.abs(alpha), 1.0)
            ratio = np.where(eligible, dual_slack / size, np.inf)
            enter = int(np.argmin(ratio))
            if size[enter] < SMALL_PIVOT:
                relaxed = np.where(eligible, (dual_slack + OPTIMALITY_TOL) / size, np.inf)
                enter = _largest_pivot(ratio, relaxed, size, np.arange(self.n_ext))

            self.at_upper[self.basis[row]] = not rise
            self._pivot(row, enter)
            pivots += 1

    def _row_misses_bounds(self, row: int, nonbasic: np.ndarray) -> bool:
        """Whether the basic variable of ``row`` misses its bounds by more
        than FEASIBILITY_TOL for every value of the nonbasic variables in
        their boxes, which proves the program infeasible."""
        alpha = self.T[row, nonbasic]
        at_lo = alpha * self.lo[nonbasic]
        at_hi = alpha * self.hi[nonbasic]
        highest = self.Tb[row] - np.minimum(at_lo, at_hi).sum()
        lowest = self.Tb[row] - np.maximum(at_lo, at_hi).sum()
        j = self.basis[row]
        return (
            highest < self.lo[j] - FEASIBILITY_TOL
            or lowest > self.hi[j] + FEASIBILITY_TOL
        )


def _harris_row(d, x_basic, lb, ub, ratio, basis) -> int:
    """Leaving row by Harris's ratio test: the largest pivot among the rows
    that block no later than the longest step that keeps every basic
    variable within FEASIBILITY_TOL of its bounds.

    Used where the plain choice would pivot on an element below
    SMALL_PIVOT.  Dividing by it scales the tableau's rounding errors, and
    the step a basic variable takes within its tolerance, by its inverse:
    a degenerate step on a pivot of 1e-5 left tableau entries near 1e5 and
    a vertex that violated a row by 2.6e-5.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        relaxed = np.where(
            d > PIVOT_TOL,
            (x_basic - lb + FEASIBILITY_TOL) / np.where(d > PIVOT_TOL, d, 1.0),
            np.where(
                d < -PIVOT_TOL,
                (ub - x_basic + FEASIBILITY_TOL) / np.where(d < -PIVOT_TOL, -d, 1.0),
                np.inf,
            ),
        )
    return _largest_pivot(ratio, relaxed, np.abs(d), basis)


def _largest_pivot(ratio, relaxed, size, labels) -> int:
    """Among the entries whose ratio is at most the smallest relaxed ratio,
    the one with the largest pivot ``size`` (lowest label on ties)."""
    candidates = np.flatnonzero(ratio <= max(float(relaxed.min()), 0.0))
    size = size[candidates]
    best = candidates[size == size.max()]
    return int(best[np.argmin(labels[best])])
