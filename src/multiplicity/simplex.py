"""Dense bounded-variable simplex for box-constrained linear programs.

All variables carry finite bounds (every variable in the integer programs
built by this package lives in [0,1], [-1,0] or [-1,1]), which rules out
unbounded problems and lets nonbasic variables sit at either bound.

Every program is solved the same way: bounded dual simplex from a dual
feasible basis.  Without a starting basis the solve starts from the slack
basis with each column at the bound its cost prefers (the upper bound when
its cost is below -OPTIMALITY_TOL): its duals are 0, so every reduced cost
is the column's own cost and the basis is dual feasible for every program.
A warm start is the final basis of a related program with the same
objective: one that fixed fewer variables (a branch-and-bound parent), had
other right-hand sides (the previous program of a path), or lacked a row
(``basis_with_row`` extends its basis by that row's slack; this is how a
leaf's working set of rows grows).  None of these changes moves a reduced
cost, so the basis stays dual feasible and only its primal
infeasibilities need repair.

Every variable is boxed, so any basis becomes dual feasible once each
nonbasic column sits at the bound its reduced cost prefers.  When the dual
reaches a primal feasible basis that is not dual feasible (a start that was
not, or a reduced cost that drifted past the tolerance), every column on
the wrong bound flips to its other bound and the dual runs again; the solve
ends "optimal" once nothing flips.

A solve ends "optimal", "infeasible", or "stalled" when it cannot decide:
its pivot limit ran out, or a violated row has no pivot above PIVOT_TOL and
no proof of infeasibility.

Implementation notes:

* a program keeps the entries of its rows; a tableau is dense over the
  rows it holds, and a check of a point reads row activities;
* rows are turned into equalities with one slack per row whose bounds encode
  the relation; slack bounds are derived from the variable box, so they stay
  finite;
* the dual leaves on the row with the largest bound violation (lowest basic
  index on ties) and enters the column with the smallest |z_j / alpha_rj|
  (lowest index on ties); when that pivot is below SMALL_PIVOT it takes the
  largest pivot among the columns within the optimality tolerance of that
  ratio, or follows Bland's rule after DEGENERATE_PIVOTS zero-ratio
  pivots in a row.  It proves infeasibility only from a row whose range
  over the nonbasic boxes misses its bounds;
* one rule decides when a point meets a row, in every LP and every check
  of a point: it misses the row's right-hand side by at most ROW_TOL
  (``violated_rows``).  The dual's stop test works to FEASIBILITY_TOL.
  A row of the tableau combines the program's rows, so a miss that a
  proof finds there can grow from their slips.  The first proof therefore
  widens every slack's box by ROW_TOL less FEASIBILITY_TOL
  (``_relax_rows``) and is checked again, and the dual goes on in the
  widened boxes when it fails.  So a proof shows that the rows cannot all
  be met within ROW_TOL less FEASIBILITY_TOL, and an optimal point meets
  each within ROW_TOL.  The least objective of such a point is the
  optimum less ROW_TOL times the summed sizes of the row duals, which the
  tableau's slack columns give;
* the limit of 200*(rows+cols) + 2000 pivots per solve, cols counting the
  slacks, counts dual pivots and bound flips alike (the flips that place
  the cold start's columns excepted);
* the tableau B^-1 A is updated by explicit pivots and refactorized from
  scratch every REFACTOR_INTERVAL pivots, and when a point the dual would
  end on misses its own rows by more than FEASIBILITY_TOL.

Everything is deterministic: identical inputs (and starting bases) produce
identical pivot sequences and bit-identical solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import InternalConsistencyError

ROW_TOL = 1e-6  # a point meets a row that it misses by at most this much
FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-7
PIVOT_TOL = 1e-9
SMALL_PIVOT = 1e-3  # below this the dual ratio test takes the largest pivot
DEGENERATE_PIVOTS = 50  # zero-ratio pivots in a row before Bland's rule
WHOLE_ROWS = 128  # a leaf of at most this many rows starts with all of them
REFACTOR_INTERVAL = 256

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)


class LinearProgram:
    """min objective . v  subject to  A v (rel) row_rhs,  lo <= v <= hi.

    A is kept as the ``entries`` of its rows, built from the dense
    ``row_coefs`` or by ``from_entries``: (row, column, value) arrays of its
    nonzeros, in row order, read as ``dense`` rows or row ``activity``."""

    def __init__(self, objective, row_coefs, row_relations, row_rhs, var_lo, var_hi):
        n = np.asarray(objective).size
        coefs = np.asarray(row_coefs, dtype=float)
        if coefs.ndim != 2:
            coefs = coefs.reshape(0, n) if coefs.size == 0 else np.atleast_2d(coefs)
        if coefs.shape[1] != n and coefs.shape[0] > 0:
            raise ValueError("row coefficient width must match variable count")
        rows, cols = np.nonzero(coefs)
        entries = rows, cols, coefs[rows, cols]
        self._set(objective, entries, row_relations, row_rhs, var_lo, var_hi, len(coefs))

    @classmethod
    def from_entries(cls, objective, entries, row_relations, row_rhs, var_lo, var_hi):
        """The program whose rows have the (row, column, value) ``entries``."""
        lp = cls.__new__(cls)
        lp._set(objective, entries, row_relations, row_rhs, var_lo, var_hi)
        return lp

    def _set(self, objective, entries, relations, rhs, lo, hi, n_rows=None):
        obj, rhs, lo, hi = (np.asarray(a, dtype=float) for a in (objective, rhs, lo, hi))
        rows, cols = (np.asarray(a, dtype=np.intp) for a in entries[:2])
        vals = np.asarray(entries[2], dtype=float)
        if len(relations) != rhs.size or n_rows not in (None, rhs.size):
            raise ValueError("row count mismatch between coefs, relations and rhs")
        if np.count_nonzero(rows[1:] < rows[:-1]):
            raise ValueError("entries must be in row order")
        if lo.size != obj.size or hi.size != obj.size:
            raise ValueError("bound vectors must match variable count")
        for rel in set(relations) - set(_RELATIONS):
            raise ValueError(f"unknown relation {rel!r}")
        if np.count_nonzero(np.isfinite(lo) & np.isfinite(hi)) < lo.size:
            raise ValueError("all variable bounds must be finite")
        if np.count_nonzero(lo > hi + 1e-12):
            raise ValueError("found a variable with lo > hi")
        nonzero = vals != 0.0
        self.entries = rows[nonzero], cols[nonzero], vals[nonzero]
        for arr in (obj, rhs, lo, hi) + self.entries:
            arr.setflags(write=False)
        self.objective, self.row_rhs, self.var_lo, self.var_hi = obj, rhs, lo, hi
        self.row_relations = tuple(relations)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.row_rhs.size

    @property
    def row_coefs(self) -> np.ndarray:
        return self.dense(np.arange(self.n_rows))

    def dense(self, rows) -> np.ndarray:
        """The dense form of the rows ``rows`` (distinct indices, any order)."""
        r, c, v = self.entries
        at = np.full(self.n_rows, len(rows))  # rows not asked for land past the end
        at[rows] = np.arange(len(rows))
        out = np.zeros((len(rows) + 1, self.n_vars))
        out[at[r], c] = v
        return out[:-1]

    def activity(self, values) -> np.ndarray:
        """The row activities A v of the point ``values``."""
        r, c, v = self.entries
        return np.bincount(r, weights=v * np.asarray(values)[c], minlength=self.n_rows)


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
    least_objective: float = float("nan")  # of a point within ROW_TOL of the rows


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a box-bounded LP to a vertex optimum, or prove infeasibility."""
    return solve_lp_with_fixings(lp, {})


def solve_lp_with_fixings(
    lp: LinearProgram, fixings: dict, start: Optional[Basis] = None
) -> LpSolution:
    """Solve ``lp`` with some variables pinned to fixed values; a fixing
    outside its variable's bounds makes the program infeasible.

    With a ``start`` or no fixings, one tableau holds every row and column,
    the fixed columns' bounds collapsed, and the solution carries its final
    basis.  ``start`` is a nonsingular, dual feasible basis of ``lp``'s
    shape: the ``basis`` of an optimal solution of ``lp`` under a subset of
    ``fixings`` or of a program with other right-hand sides, or such a
    basis extended by ``basis_with_row``.

    Fixings without a start make a leaf: its fixed columns leave the
    tableau for the right-hand sides, so its point holds them exactly, and
    its solution has no basis.  Its working set of rows starts with every
    row when it has at most WHOLE_ROWS, and empty otherwise.  The rows that
    a round's point misses by more than FEASIBILITY_TOL join it, most
    missed first and at most one per free variable, and the next round
    starts from the last round's basis with their slacks basic.  A
    restriction relaxes the leaf, so its infeasibility is the leaf's.
    Pivots count over all rounds; a solve that cannot decide is "stalled".
    """
    boxes = _fixed_boxes(lp, fixings)
    if boxes is None:
        return LpSolution("infeasible", None, float("nan"))
    lo, hi = boxes
    if start is not None and (
        start.columns.shape != (lp.n_rows,) or start.at_upper.shape != (lp.n_vars + lp.n_rows,)
    ):
        raise ValueError("starting basis does not match the program's shape")
    leaf = start is None and bool(fixings)
    rhs, rel = lp.row_rhs, np.asarray(lp.row_relations, dtype="<U2")
    if leaf:
        values, free = np.where(lo == hi, lo, 0.0), np.flatnonzero(lo != hi)
        rhs = rhs - lp.activity(values)
    else:
        values, free = np.zeros(lp.n_vars), slice(None)
    work = np.arange(0 if leaf and lp.n_rows > WHOLE_ROWS else lp.n_rows)
    pivots = 0
    while True:
        coefs = lp.dense(work)[:, free]
        state = _Tableau(lp.objective[free], coefs, rel[work], rhs[work], lo[free], hi[free])
        if state.infeasible_by_bounds:
            return LpSolution("infeasible", None, float("nan"), pivots)
        state.pivots = pivots
        status, pivots = state.solve(start), state.pivots
        if status != "optimal":
            return LpSolution(status, None, float("nan"), pivots)
        values[free] = state.structural_values()
        if work.size == lp.n_rows:
            break
        excess = _excess(rel, lp.row_rhs, lp.activity(values))
        excess[work] = 0.0  # a row joins the set once
        missed = np.flatnonzero(excess > FEASIBILITY_TOL)
        if not missed.size:
            break
        missed = missed[np.argsort(-excess[missed], kind="stable")[: max(free.size, 1)]]
        start = Basis(state.basis, state.at_upper)
        for row in range(work.size, work.size + missed.size):
            start = basis_with_row(start, row)
        work = np.append(work, missed)
    return _optimal_solution(lp, state, values, lo, hi, not leaf)


def _fixed_boxes(lp: LinearProgram, fixings: dict):
    """The variable boxes of ``lp`` with each fixed variable's collapsed to
    its value, or None when a value lies outside its box."""
    cols = np.fromiter(fixings, dtype=np.int64, count=len(fixings))
    values = np.fromiter(fixings.values(), dtype=float, count=len(fixings))
    if np.count_nonzero((values < lp.var_lo[cols] - 1e-9) | (values > lp.var_hi[cols] + 1e-9)):
        return None
    lo, hi = lp.var_lo.copy(), lp.var_hi.copy()
    lo[cols] = hi[cols] = values
    return lo, hi


def _optimal_solution(lp, state, values, lo, hi, with_basis) -> LpSolution:
    """Check the final point ``values`` against the bounds and rows of
    ``lp`` (ROW_TOL), and package it with its least objective within
    ROW_TOL of the rows and, ``with_basis``, the tableau's final basis."""
    if np.count_nonzero(values < lo - ROW_TOL) or np.count_nonzero(values > hi + ROW_TOL):
        raise InternalConsistencyError("simplex returned out-of-bounds values")
    bad = violated_rows(lp, values)
    if bad.size:
        k = bad[0]
        residual = lp.activity(values)[k] - lp.row_rhs[k]
        raise InternalConsistencyError(f"simplex solution violates row {k} by {residual:.3e}")
    objective = float(np.dot(lp.objective, values))
    # the row duals y = c_B B^-1, B^-1 being the slack columns of the tableau
    duals = state.cost[state.basis] @ state.T[:, state.n_ext - state.m :]
    for arr in (values, state.basis, state.at_upper):
        arr.flags.writeable = False
    basis = Basis(state.basis, state.at_upper) if with_basis else None
    least = objective - ROW_TOL * float(np.abs(duals).sum())
    return LpSolution("optimal", values, objective, state.pivots, basis, least)


def basis_with_row(basis: Basis, row: int) -> Basis:
    """``basis`` extended to the program with one more row inserted at
    index ``row``, that row's slack basic.

    Slack columns of the rows at and past ``row`` shift by one.  The
    extended basis matrix is block triangular with a unit block for the new
    slack, so it is nonsingular when ``basis`` is; the new row's dual is 0,
    so every reduced cost, and dual feasibility, carries over.  It starts
    each flip root from the baseline's basis, and each round of a leaf's
    working set from the last round's.
    """
    slack = basis.at_upper.size - basis.columns.size + row
    columns = basis.columns + (basis.columns >= slack)
    return Basis(
        np.concatenate([columns[:row], [slack], columns[row:]]),
        np.concatenate([basis.at_upper[:slack], [False], basis.at_upper[slack:]]),
    )


def violated_rows(lp: LinearProgram, values: np.ndarray, tol: float = ROW_TOL) -> np.ndarray:
    """Indices of the rows of ``lp`` that ``values`` misses by more than
    ``tol``: by default, the rows it does not meet."""
    rel = np.asarray(lp.row_relations, dtype="<U2")
    return np.flatnonzero(_excess(rel, lp.row_rhs, lp.activity(values)) > tol)


def _excess(rel, rhs, activity) -> np.ndarray:
    """How far the row ``activity`` of a point misses each row, of
    relation ``rel`` and right-hand side ``rhs``: positive exactly on the
    rows it violates."""
    resid = activity - rhs
    return np.where(
        rel == GREATER_EQUAL, -resid, np.where(rel == LESS_EQUAL, resid, np.abs(resid))
    )


def _slack_boxes(coefs, rel, rhs, var_lo, var_hi):
    """The box of each row's slack (row . v + slack = rhs) from its
    relation and its activity range over the variable boxes, or None when
    some box is empty by more than ROW_TOL less FEASIBILITY_TOL, the
    widening of ``_relax_rows``."""
    pos = np.maximum(coefs, 0.0)
    neg = np.minimum(coefs, 0.0)
    rel = np.asarray(rel, dtype="<U2")
    s_lo = rhs - (pos @ var_hi + neg @ var_lo)
    s_hi = rhs - (pos @ var_lo + neg @ var_hi)
    s_lo = np.where((rel == LESS_EQUAL) & (0.0 > s_lo), 0.0, s_lo)
    s_hi = np.where((rel == GREATER_EQUAL) & (0.0 < s_hi), 0.0, s_hi)
    s_lo[rel == EQUAL] = s_hi[rel == EQUAL] = 0.0
    if np.count_nonzero(s_lo > s_hi + ROW_TOL - FEASIBILITY_TOL):
        return None
    return s_lo, s_hi


class _Tableau:
    """Mutable simplex state over [structurals | slacks]."""

    def __init__(self, cost, coefs, rel, rhs, var_lo, var_hi):
        m, n = coefs.shape
        self.m = m
        self.n_ext = n + m
        self.iteration_limit = 200 * (m + self.n_ext) + 2000
        self.infeasible_by_bounds = False
        self.relaxed = False

        self.A = np.hstack([coefs, np.eye(m)])
        boxes = _slack_boxes(coefs, rel, rhs, var_lo, var_hi)
        if boxes is None:
            self.infeasible_by_bounds = True
            return
        self.lo = np.concatenate([var_lo, boxes[0]])
        self.hi = np.concatenate([var_hi, boxes[1]])
        if (boxes[0] > boxes[1]).any():  # some row is met only within its tolerance
            self._relax_rows()
        self.b = rhs
        self.cost = np.concatenate([cost, np.zeros(m)])
        self.pivots = 0
        self._pivots_since_refactor = 0

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
        column at the bound its cost prefers, repairing lost dual
        feasibility by bound flips.  Returns "optimal", "infeasible" or
        "stalled"."""
        if start is None:
            self.basis = np.arange(self.n_ext - self.m, self.n_ext)
            self.at_upper = np.zeros(self.n_ext, dtype=bool)
            self.T, self.Tb = self.A.copy(), self.b.copy()  # B = I: nothing to factor
            self._flip_to_preferred_bounds()
        else:
            self.basis = start.columns.copy()
            self.at_upper = start.at_upper.copy()
            self._refactor()
        while True:
            status = self._dual()
            if status != "optimal":
                return status
            flips = self._flip_to_preferred_bounds()
            if not flips:
                return "optimal"
            self.pivots += flips

    def _flip_to_preferred_bounds(self) -> int:
        """Move every free nonbasic column whose reduced cost has the wrong
        sign for its bound by more than OPTIMALITY_TOL to its other bound,
        which makes the basis dual feasible.  Returns the number moved."""
        z = self.cost - self.cost[self.basis] @ self.T
        nonbasic = np.ones(self.n_ext, dtype=bool)
        nonbasic[self.basis] = False
        wrong = (
            nonbasic
            & (self.hi > self.lo)
            & np.where(self.at_upper, z > OPTIMALITY_TOL, z < -OPTIMALITY_TOL)
        )
        self.at_upper[wrong] = ~self.at_upper[wrong]
        return int(wrong.sum())

    def _dual(self) -> str:
        """Bounded dual simplex iterations until every basic variable lies
        within its bounds.

        Returns "optimal" (primal feasible), "infeasible", or "stalled"
        when the pivot limit runs out or a violated row has no pivot and no
        proof of infeasibility.  A proof counts once the slack boxes are
        widened (``_relax_rows``); the first widens them.

        After DEGENERATE_PIVOTS zero-ratio pivots in a row it follows
        Bland's rule, which cannot cycle, until a pivot moves the dual
        objective: it leaves on the violated row with the lowest basic
        index and enters the lowest column of smallest ratio.
        """
        cost = self.cost
        degenerate = 0
        while True:
            if self._pivots_since_refactor >= REFACTOR_INTERVAL:
                self._refactor()

            x = self._full_values()
            x_basic = x[self.basis]
            below = self.lo[self.basis] - x_basic
            violation = np.maximum(below, x_basic - self.hi[self.basis])
            worst = float(violation.max(initial=0.0))
            if worst <= FEASIBILITY_TOL:
                if not self._pivots_since_refactor or (
                    np.abs(self.A @ x - self.b).max(initial=0.0) <= FEASIBILITY_TOL
                ):
                    return "optimal"
                self._refactor()  # the pivots' rounding moved x off its rows
                continue
            if self.pivots >= self.iteration_limit:
                return "stalled"
            bland = degenerate >= DEGENERATE_PIVOTS
            rows = np.flatnonzero(
                violation > FEASIBILITY_TOL if bland else violation == worst
            )
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
                if not self._row_misses_bounds(row, nonbasic):
                    return "stalled"
                if self.relaxed:
                    return "infeasible"
                self._relax_rows()
                if self._row_misses_bounds(row, nonbasic):
                    return "infeasible"
                continue

            z = cost - cost[self.basis] @ self.T
            dual_slack = np.maximum(np.where(self.at_upper, -z, z), 0.0)
            size = np.where(eligible, np.abs(alpha), 1.0)
            ratio = np.where(eligible, dual_slack / size, np.inf)
            enter = int(np.argmin(ratio))
            if size[enter] < SMALL_PIVOT and not bland:
                relaxed = np.where(eligible, (dual_slack + OPTIMALITY_TOL) / size, np.inf)
                enter = _largest_pivot(ratio, relaxed, size)
            degenerate = degenerate + 1 if ratio[enter] == 0.0 else 0

            self.at_upper[self.basis[row]] = not rise
            self._pivot(row, enter)
            self.pivots += 1

    def _relax_rows(self) -> None:
        """Widen every slack's box by ROW_TOL less FEASIBILITY_TOL, the
        slip that the dual's stop test adds.  Reduced costs stay as they
        are, so the basis stays dual feasible."""
        n = self.n_ext - self.m
        self.lo[n:] -= ROW_TOL - FEASIBILITY_TOL
        self.hi[n:] += ROW_TOL - FEASIBILITY_TOL
        self.relaxed = True

    def _row_misses_bounds(self, row: int, nonbasic: np.ndarray) -> bool:
        """Whether the basic variable of ``row`` misses its bounds by more
        than FEASIBILITY_TOL for every value of the nonbasic variables in
        their boxes, which proves the program infeasible in the current
        slack boxes."""
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


def _largest_pivot(ratio, relaxed, size) -> int:
    """Among the entries whose ratio is at most the smallest relaxed ratio,
    the one with the largest pivot ``size`` (lowest index on ties)."""
    candidates = np.flatnonzero(ratio <= max(float(relaxed.min()), 0.0))
    return int(candidates[np.argmax(size[candidates])])
