"""Dense bounded-variable simplex for box-constrained linear programs.

All variables carry finite bounds (every variable in the integer programs
built by this package lives in [0,1], [-1,0] or [-1,1]), which rules out
unbounded problems and lets nonbasic variables sit at either bound.

Every program is solved the same way: bounded dual simplex from a dual
feasible basis, then the primal pricing to confirm optimality.  Without a
starting basis the solve starts from the slack basis with each structural
at the bound its cost prefers (the upper bound when its cost is negative):
its duals are 0, so every reduced cost is the variable's own cost and the
basis is dual feasible for every program.  A warm start is the final basis
of a related program with the same objective: one that fixed fewer
variables (a branch-and-bound parent), had other right-hand sides (the
previous program of a path), or lacked a row (``basis_with_row`` extends
its basis by that row's slack).  None of these changes moves a reduced
cost, so the basis stays dual feasible and only its primal
infeasibilities need repair.

A solve ends "optimal", "infeasible", or "stalled" when it cannot decide:
its pivot limit ran out, or a violated row has no pivot above PIVOT_TOL and
no proof of infeasibility.

Implementation notes:

* rows are turned into equalities with one slack per row whose bounds encode
  the relation; slack bounds are derived from the variable box, so they stay
  finite;
* the dual leaves on the row with the largest bound violation (lowest basic
  index on ties) and enters the column with the smallest |z_j / alpha_rj|
  (lowest index on ties); when that pivot is below SMALL_PIVOT it takes the
  largest pivot among the columns within the optimality tolerance of that
  ratio.  It proves infeasibility only from a row whose range over the
  nonbasic boxes misses its bounds;
* primal pricing is Dantzig's rule with a permanent switch to Bland's rule
  after 5*(rows+cols) degenerate steps, which guarantees termination;
* the primal leaving row is the first to block (lowest basic index on
  ties), unless its pivot is below SMALL_PIVOT: then Harris's rule takes
  the largest pivot among the rows that block within the feasibility
  tolerance;
* the dual and the primal pricing share one limit of 200*(rows+cols) + 2000
  pivots per solve, cols counting the slacks;
* the tableau B^-1 A is updated by explicit pivots and refactorized from
  scratch every REFACTOR_INTERVAL pivots to keep drift in check.

Everything is deterministic: identical inputs (and starting bases) produce
identical pivot sequences and bit-identical solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import InternalConsistencyError

FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-7
PIVOT_TOL = 1e-9
SMALL_PIVOT = 1e-3  # below this the ratio test switches to Harris's rule
DEGENERATE_STEP = 1e-12
REFACTOR_INTERVAL = 256

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
    """A simplex basis over the columns [structurals | slacks]: the basic
    column of each row, and which nonbasic columns sit at their upper bound
    (entries of basic columns are ignored)."""

    columns: np.ndarray
    at_upper: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | stalled (every variable is boxed)
    values: Optional[np.ndarray]
    objective_value: float
    n_pivots: int = 0  # every pivot and bound flip
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

    The solve starts from ``start`` or, without it, from the slack basis.
    ``start`` is a nonsingular basis of ``lp``'s shape that is dual
    feasible for it: the ``basis`` of an optimal solution of ``lp`` under a
    subset of ``fixings``, of a program that differs from ``lp`` only in
    its right-hand sides, or such a basis extended by ``basis_with_row``.
    The solve repairs it by dual simplex, then confirms optimality with the
    primal pricing; a solve that cannot decide returns "stalled".
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
    if start is not None and (
        start.columns.shape != (state.m,) or start.at_upper.shape != (state.n_ext,)
    ):
        raise ValueError("starting basis does not match the program's shape")
    status = state.solve(start)
    if status != "optimal":
        return LpSolution(status, None, float("nan"), state.pivots)
    return _optimal_solution(lp, state, lo, hi)


def _optimal_solution(lp, state, lo, hi) -> LpSolution:
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
    return LpSolution("optimal", values, objective, state.pivots, basis)


def basis_with_row(basis: Basis, row: int) -> Basis:
    """``basis`` extended to the program with one more row inserted at
    index ``row``, that row's slack basic.

    Slack columns of the rows at and past ``row`` shift by one.  The
    extended basis matrix is block triangular with a unit block for the new
    slack, so it is nonsingular when ``basis`` is; the new row's dual is 0,
    so every reduced cost, and dual feasibility, carries over.
    """
    n = basis.at_upper.size - basis.columns.size
    old = np.arange(basis.at_upper.size)
    moved = old + (old >= n + row)
    at_upper = np.zeros(old.size + 1, dtype=bool)
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
    """Mutable simplex state over [structurals | slacks]."""

    def __init__(self, lp: LinearProgram, var_lo: np.ndarray, var_hi: np.ndarray):
        n, m = lp.n_vars, lp.n_rows
        self.m = m
        self.n_ext = n + m
        self.iteration_limit = 200 * (m + self.n_ext) + 2000
        self.infeasible_by_bounds = False

        lo = np.concatenate([var_lo, np.zeros(m)])
        hi = np.concatenate([var_hi, np.zeros(m)])

        # Slack bounds from the relation and the reachable activity range.
        pos = np.clip(lp.row_coefs, 0.0, None)
        neg = np.clip(lp.row_coefs, None, 0.0)
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

        self.A = np.hstack([lp.row_coefs, np.eye(m)])
        self.lo = lo
        self.hi = hi
        self.b = lp.row_rhs
        self.cost = np.concatenate([lp.objective, np.zeros(m)])
        self.pivots = 0
        self._pivots_since_refactor = 0
        self._degenerate_steps = 0
        self._use_bland = False

    # -- state helpers -------------------------------------------------

    def _full_values(self) -> np.ndarray:
        x = np.where(self.at_upper, self.hi, self.lo)
        xn = x.copy()
        xn[self.basis] = 0.0
        x[self.basis] = self.Tb - self.T @ xn
        return x

    def structural_values(self) -> np.ndarray:
        return self._full_values()[: self.n_ext - self.m]

    def _refactor(self) -> None:
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

    def solve(self, start: Optional[Basis]) -> str:
        """Dual simplex from ``start``, or from the slack basis with each
        structural at the bound its cost prefers, then the primal pricing to
        confirm optimality.  Returns "optimal", "infeasible" or "stalled"."""
        if start is None:
            n = self.n_ext - self.m
            self.basis = np.arange(n, self.n_ext)
            self.at_upper = np.concatenate([self.cost[:n] < 0, np.zeros(self.m, dtype=bool)])
            self.T, self.Tb = self.A.copy(), self.b.copy()  # B = I: nothing to factor
        else:
            self.basis = start.columns.copy()
            self.at_upper = start.at_upper.copy()
            self._refactor()
        status = self._dual()
        return self._primal() if status == "optimal" else status

    def _primal(self) -> str:
        """Bounded primal simplex iterations from a primal feasible basis.

        Returns "optimal", or "stalled" when the pivot limit runs out.
        """
        cost = self.cost
        while self.pivots < self.iteration_limit:
            if self._pivots_since_refactor >= REFACTOR_INTERVAL:
                self._refactor()

            x = self._full_values()
            z = cost - cost[self.basis] @ self.T
            nonbasic = np.ones(self.n_ext, dtype=bool)
            nonbasic[self.basis] = False
            free = nonbasic & (self.hi > self.lo)
            eligible = free & (
                (~self.at_upper & (z < -OPTIMALITY_TOL))
                | (self.at_upper & (z > OPTIMALITY_TOL))
            )
            if not eligible.any():
                return "optimal"

            if self._use_bland:
                enter = int(np.argmax(eligible))
            else:
                scores = np.where(eligible, np.abs(z), -1.0)
                enter = int(np.argmax(scores))

            direction = -1.0 if self.at_upper[enter] else 1.0
            d = direction * self.T[:, enter]
            x_basic = x[self.basis]
            lb, ub = self.lo[self.basis], self.hi[self.basis]
            ratio = np.maximum(_primal_ratios(d, x_basic - lb, ub - x_basic), 0.0)
            t_flip = self.hi[enter] - self.lo[enter]
            min_ratio = float(ratio.min()) if ratio.size else np.inf

            self.pivots += 1
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
        return "stalled"

    def _dual(self) -> str:
        """Bounded dual simplex iterations from a dual feasible basis until
        every basic variable lies within its bounds.

        Returns "optimal" (primal feasible), "infeasible", or "stalled"
        when the pivot limit runs out or a violated row has no pivot and no
        proof of infeasibility.
        """
        cost = self.cost
        while True:
            if self._pivots_since_refactor >= REFACTOR_INTERVAL:
                self._refactor()

            x_basic = self._full_values()[self.basis]
            below = self.lo[self.basis] - x_basic
            violation = np.maximum(below, x_basic - self.hi[self.basis])
            worst = float(violation.max(initial=0.0))
            if worst <= FEASIBILITY_TOL:
                return "optimal"
            if self.pivots >= self.iteration_limit:
                return "stalled"
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
                    return "infeasible"
                return "stalled"

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
            self.pivots += 1

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
    relaxed = _primal_ratios(
        d, x_basic - lb + FEASIBILITY_TOL, ub - x_basic + FEASIBILITY_TOL
    )
    return _largest_pivot(ratio, relaxed, np.abs(d), basis)


def _primal_ratios(d, room_down, room_up):
    """The step at which each basic variable, moving by -d per unit step,
    uses up its room: ``room_down`` / d where d > PIVOT_TOL, ``room_up`` / -d
    where d < -PIVOT_TOL, and inf where it does not move."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            d > PIVOT_TOL,
            room_down / np.where(d > PIVOT_TOL, d, 1.0),
            np.where(d < -PIVOT_TOL, room_up / np.where(d < -PIVOT_TOL, -d, 1.0), np.inf),
        )


def _largest_pivot(ratio, relaxed, size, labels) -> int:
    """Among the entries whose ratio is at most the smallest relaxed ratio,
    the one with the largest pivot ``size`` (lowest label on ties)."""
    candidates = np.flatnonzero(ratio <= max(float(relaxed.min()), 0.0))
    size = size[candidates]
    best = candidates[size == size.max()]
    return int(best[np.argmin(labels[best])])
