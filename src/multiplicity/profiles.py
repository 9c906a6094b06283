"""Path algorithms: discrepancy and ambiguity across an epsilon grid.

Both paths take one ``ClassifierBank`` as their context: the training set,
the baseline h0 with its exact risk, and the margin gamma.  Both measures
are computed per level set, exactly when every solve certifies and as
[lower, upper] intervals otherwise.  Ambiguity and group burden count cell
weights in one per-cell flip table (``PathologicalPool``, one flip solve
per cell of ``dataset.cells``, solved one after another in cell order).
All level-set membership tests compare integer mistake counts; floating
rates never decide anything.  Both paths solve every program through one
step (``_solve``): warm start, solve, decode, and add the classifier to
the bank, the audit's one scorer of classifiers on the training cells
(sides, mistakes, conflicts with h0, margin).  Every step ends in
branch-and-bound, the one certifier.  On data with at most three features
the step first consults the labeling pass (``labelings``), which the bank
runs once for both paths: its proven bound is the solve's hint, and the
classifier it may propose is a warm start that meets the hint, so
branch-and-bound certifies it with 0 nodes.  The programs of one path
are near-copies, so every root LP but the first starts from a related
optimal basis: a disc program differs from the previous one only in the
level row's right-hand side, and a flip program is the baseline program
plus its flip row.

Interval bookkeeping exploits that level sets are nested: a valid lower
bound at some epsilon is valid at every larger epsilon and a valid upper
bound is valid at every smaller one.  Discrepancy lower bounds come from the
bank, which scores every classifier the audit finds once: a classifier
that clears the margin lies in every level set whose threshold admits its
mistakes, so its conflict count bounds discrepancy at all of them,
whichever epsilon's solve found it.  Upper bounds are propagated by a
backward running min.
Uncertified discrepancy uppers are additionally capped by the triangle-
inequality bound 2 * baseline_risk + epsilon (``EpsilonGrid.caps``), which
certified values must satisfy on their own (a violation is a solver bug
and raises).
All of this runs on integer count arrays over the whole grid, and each
measure stays one table of counts (``Measures``) from the path to the
report: a ``MeasureValue`` of exact shares is built only when a row is
read.  A ``MultiplicityProfile`` checks its tables once, in integers: each
side is monotone in epsilon and discrepancy stays within the cap.

The same bounds decide which discrepancy programs are solved at all:
discrepancy is a monotone step function of epsilon, so once the bounds of
an unsolved point meet, its value is proven without a solve (see
``discrepancy_path``).  The bank also supplies the flip solves' warm starts.
"""

from __future__ import annotations

import bisect
import math
import time
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from . import branch_bound as bnb
from .branch_bound import SolveBudget, SolveResult
from .core import Dataset, InternalConsistencyError, LinearClassifier, RiskReport
from .datasets import InputError
from .formulations import (
    DEFAULT_GAMMA,
    assignment_from_classifier,
    build_disc_mip,
    build_flip_mip,
    classifier_from_solution,
    margin_clearance,
    margin_floor,
)
from .labelings import certify, labeling_bounds
from .simplex import basis_with_row


@dataclass(frozen=True)
class EpsilonGrid:
    """Strictly increasing error tolerances, each an exact multiple of 1/n."""

    values: tuple
    n: int

    def __post_init__(self):
        vals = tuple(v if type(v) is Fraction else Fraction(v) for v in self.values)
        if not vals:
            raise ValueError("epsilon grid must be nonempty")
        # every check runs on the integers of each value p/q, in lowest terms
        nums, dens = [v.numerator for v in vals], [v.denominator for v in vals]
        if any(p < 0 or p > q for p, q in zip(nums, dens)):
            raise ValueError("epsilon values must lie in [0, 1]")
        if any(r * q <= p * s for p, q, r, s in zip(nums, dens, nums[1:], dens[1:])):
            raise ValueError("epsilon values must be strictly increasing")
        for v, q in zip(vals, dens):
            if self.n % q:
                raise ValueError(f"epsilon {v} is not a multiple of 1/{self.n}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def snapped(cls, values, n: int) -> "EpsilonGrid":
        """Round arbitrary tolerances down to the nearest multiple of 1/n."""
        snapped = sorted({Fraction(math.floor(Fraction(v) * n), n) for v in values})
        return cls(values=tuple(snapped), n=n)

    @classmethod
    def default(cls, n: int, baseline_rate: Fraction) -> "EpsilonGrid":
        """Multiples of 1/n from 0 to min(0.1, 2 * baseline risk), plus the
        1% point (floored to the grid) that reports usually quote."""
        top = min(Fraction(1, 10), 2 * baseline_rate)
        k_top = math.floor(top * n)
        ks = set(range(0, k_top + 1))
        ks.add(math.floor(Fraction(1, 100) * n))
        return cls(values=tuple(Fraction(k, n) for k in sorted(ks)), n=n)

    @cached_property
    def counts(self) -> np.ndarray:
        """Integer mistake allowances n*eps for each grid value."""
        return np.array([v.numerator * (self.n // v.denominator) for v in self.values])

    def thresholds(self, base_mistakes: int):
        """Integer mistake budgets base + n*eps for each grid value."""
        return (base_mistakes + self.counts).tolist()

    def caps(self, base_mistakes: int) -> np.ndarray:
        """The triangle-inequality cap on discrepancy (Proposition 1),
        min(1, 2 * risk + eps), as counts min(n, 2 * base + n*eps) for each
        grid value."""
        return np.minimum(self.n, 2 * base_mistakes + self.counts)


@dataclass(frozen=True)
class MeasureValue:
    """A measured quantity with exact rational bounds.

    certified means the solve closed its gap, in which case lower == upper.
    The two can also coincide without certification (ad-hoc estimates).
    """

    lower: Fraction
    upper: Fraction
    certified: bool

    def __post_init__(self):
        object.__setattr__(self, "lower", Fraction(self.lower))
        object.__setattr__(self, "upper", Fraction(self.upper))
        if not 0 <= self.lower <= self.upper:
            raise ValueError(f"invalid bounds [{self.lower}, {self.upper}]")
        if self.certified and self.lower != self.upper:
            raise ValueError("certified values must have matching bounds")

    @property
    def value(self) -> Fraction:
        return self.lower


@dataclass(frozen=True, eq=False)
class Measures(Sequence):
    """One measure across a grid as integer counts out of ``total``: entry
    i lies in [lower[i], upper[i]] / total, and ``certified[i]`` when its
    solve closed the gap.  The columns are read-only copies, checked here
    once over every entry as ``MeasureValue`` checks one.

    The table is also a read-only sequence: an index gives the entry's
    ``MeasureValue``, built when read.
    """

    lower: np.ndarray
    upper: np.ndarray
    certified: np.ndarray
    total: int

    def __post_init__(self):
        for name, dtype in (("lower", np.int64), ("upper", np.int64), ("certified", bool)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        low, up = self.lower, self.upper
        if not len(low) == len(up) == len(self.certified):
            raise ValueError("every column needs one entry per grid value")
        if np.any((low < 0) | (low > up) | (up > self.total)):
            raise ValueError(f"bounds must satisfy 0 <= lower <= upper <= {self.total}")
        if np.any(self.certified & (low != up)):
            raise ValueError("certified values must have matching bounds")

    def __len__(self) -> int:
        return len(self.lower)

    def __getitem__(self, i: int) -> MeasureValue:
        return MeasureValue(
            Fraction(int(self.lower[i]), self.total),
            Fraction(int(self.upper[i]), self.total),
            bool(self.certified[i]),
        )


@dataclass(frozen=True, eq=False)
class MultiplicityProfile:
    """Per-epsilon multiplicity measures around a baseline classifier: one
    ``Measures`` per side over ``grid`` (None when the side was not
    measured), with counts out of the baseline's n, and ``witnesses``: the
    discrepancy witness at each grid value, None where there is none (empty
    when no side has witnesses).

    Each side must be monotone in epsilon and the discrepancy upper bound
    must stay within ``grid.caps``; a breach is a solver bug and raises.
    """

    baseline: RiskReport
    grid: EpsilonGrid
    discrepancy: Optional[Measures] = None
    ambiguity: Optional[Measures] = None
    witnesses: tuple = ()

    def __post_init__(self):
        n = self.baseline.n
        if self.grid.n != n:
            raise ValueError("grid denominator does not match the baseline's n")
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        if self.witnesses and len(self.witnesses) != len(self.grid.values):
            raise ValueError("witnesses need one entry per grid value")
        for side in ("discrepancy", "ambiguity"):
            m = getattr(self, side)
            if m is None:
                continue
            if m.total != n or len(m) != len(self.grid.values):
                raise ValueError(f"{side} needs one count out of {n} per grid value")
            if np.any(np.diff(m.lower) < 0) or np.any(np.diff(m.upper) < 0):
                raise InternalConsistencyError(f"{side} is not monotone in epsilon")
        if self.discrepancy is not None:
            above = self.discrepancy.upper > self.grid.caps(self.baseline.mistakes)
            if above.any():
                eps = self.grid.values[np.argmax(above)]
                raise InternalConsistencyError(f"discrepancy bound violated at eps={eps}")


@dataclass(frozen=True, eq=False)
class PathologicalPool:
    """The flip stage's per-cell table, in ``dataset.cells`` order: each
    cell's minimal-error flipped classifier (None where its solve found
    none), the bounds on that classifier's mistake count, and whether its
    solve certified."""

    classifiers: tuple
    mistakes_lower: np.ndarray
    mistakes_upper: np.ndarray
    certified: np.ndarray
    baseline_mistakes: int

    def __post_init__(self):
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        for name in ("mistakes_lower", "mistakes_upper", "certified"):
            v = np.array(getattr(self, name))
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        low, up = self.mistakes_lower, self.mistakes_upper
        if np.any((low > up) | (self.certified & (low != up))):
            raise InternalConsistencyError("flip mistake bounds are inconsistent")


def _nested_bounds(lowers: np.ndarray, uppers: np.ndarray):
    """Bounds propagated across nested level sets: a lower bound holds at
    every larger epsilon, an upper bound at every smaller one."""
    return np.maximum.accumulate(lowers), np.minimum.accumulate(uppers[::-1])[::-1]


def _int_bounds(result: SolveResult, n: int):
    """Integer objective bounds from a solve: (lower count, upper count).
    ``bnb.solve`` reports integral bounds (node bounds ceiled, incumbents
    rounded), so they are read as they are; an absent bound is 0 or n."""
    upper = n if result.upper_bound is None else int(result.upper_bound)
    lower = 0 if result.lower_bound == -math.inf else int(result.lower_bound)
    return max(0, min(lower, upper)), upper


class ClassifierBank:
    """Every classifier an audit finds, each scored once on ``dataset.cells``:
    the audit's one scorer of classifiers on the training set.

    Row r holds ``classifiers[r]`` with its ``sides`` (which cells it
    predicts +1, the tie rule of ``predictions``), its exact weighted
    ``mistakes``, its ``conflicts`` with h0, its smallest training |score|
    (``margins``) and whether that ``clears`` the margin
    (``margin_clearance``), and the cells it puts on the other side of h0
    with a score that a flip row accepts (``margin_floor``).  Rows keep
    insertion order: h0, its negation, then each distinct classifier
    ``add`` is given.

    A classifier that clears the margin and makes m mistakes lies in every
    level set whose threshold is at least m, so its conflict count bounds
    discrepancy there from below (``best_placed``), and it is a feasible
    warm start of the flip program of every cell it flips (``flipping``).
    The bank is also the context of both paths: the training set, h0 and
    its exact ``risk``, the margin ``gamma`` and the labeling pass
    (``labelings``).  A caller that runs both paths hands one bank to each.
    """

    def __init__(
        self, dataset: Dataset, h0: LinearClassifier, gamma: float = DEFAULT_GAMMA
    ):
        cells = dataset.cells
        self.dataset, self.h0, self.gamma = dataset, h0, gamma
        self.weights = cells.pos + cells.neg
        self.base_side = cells.X @ np.asarray(h0.coefficients) > 0.0
        self.classifiers, self.sides, self.mistakes, self.conflicts = [], [], [], []
        self.margins, self.clears = [], []
        self._flips, self._order, self._rows = [], [], {}
        self._labelings = None  # (thresholds, the pass's LabelingBounds or None)
        self.add(h0)
        self.add(h0.negated())
        self.risk = RiskReport(self.mistakes[0], dataset.n)

    def add(self, g: LinearClassifier) -> int:
        """The row of g, scored and appended on first sight."""
        row = self._rows.get(g.coefficients)
        if row is not None:
            return row
        cells = self.dataset.cells
        scores = cells.X @ np.asarray(g.coefficients)
        side = scores > 0.0
        row = self._rows[g.coefficients] = len(self.classifiers)
        self.classifiers.append(g)
        self.sides.append(side)
        self.mistakes.append(int(cells.neg[side].sum() + cells.pos[~side].sum()))
        self.conflicts.append(int(self.weights[side != self.base_side].sum()))
        margin, clears = margin_clearance(g, self.dataset, self.gamma)
        self.margins.append(margin)
        self.clears.append(clears)
        self._flips.append(
            np.where(self.base_side, -scores, scores) >= margin_floor(self.gamma)
        )
        bisect.insort(self._order, row, key=self.mistakes.__getitem__)
        return row

    def labelings(self, thresholds, budget: Optional[SolveBudget] = None):
        """The labeling pass over the bank's cells (``labeling_bounds``):
        candidates for every flip program and for the disc program at each
        of the mistake ``thresholds``, or None where the pass does not
        apply or stopped at the ``budget``'s deadline.  Only a pass that
        the deadline did not cut short is kept, once per thresholds."""
        key = tuple(thresholds)
        if self._labelings is None or self._labelings[0] != key:
            bounds = labeling_bounds(self.dataset, self.base_side, key, budget)
            if bounds is None and budget is not None and budget.expired():
                return None
            self._labelings = key, bounds
        return self._labelings[1]

    def flipping(self, cell: int):
        """The classifiers that flip ``cell`` with margin, fewest mistakes
        first, ties in insertion order."""
        return (self.classifiers[r] for r in self._order if self._flips[r][cell])

    def best_placed(self, thresholds, pinned=()):
        """At each of the increasing mistake ``thresholds``: the row with the
        most conflicts among the classifiers placed at or before it, and that
        count (-1 and 0 where none is).  A classifier that clears the margin
        is placed at the first threshold its mistakes fit.  Each
        ``(row, index, count)`` of ``pinned`` places a classifier that does
        not clear it at grid index ``index`` with ``count`` conflicts.  Ties
        go to the nearest placement, then to the latest row."""
        size, total = len(thresholds), len(self.classifiers)
        clear = np.flatnonzero(self.clears)
        pinned = np.array(pinned, dtype=np.int64).reshape(-1, 3)
        rows = np.concatenate([clear, pinned[:, 0]])
        place = np.concatenate(
            [np.searchsorted(thresholds, np.take(self.mistakes, clear)), pinned[:, 1]]
        )
        count = np.concatenate([np.take(self.conflicts, clear), pinned[:, 2]])
        fits = place < size
        key = np.full(size, -1, dtype=np.int64)
        np.maximum.at(
            key, place[fits], (count[fits] * size + place[fits]) * total + rows[fits]
        )
        key = np.maximum.accumulate(key)
        return np.where(key < 0, -1, key % total), np.maximum(key, 0) // (size * total)


def discrepancy_path(
    bank: ClassifierBank,
    grid: EpsilonGrid,
    budget: Optional[SolveBudget] = None,
    node_log=None,
):
    """Discrepancy at every epsilon of ``grid`` around the bank's h0, on its
    dataset and margin, solving the agreement-minimizing model only where
    the profile is still open.

    Solve order: the first grid point, then the last, then repeatedly the
    middle point of the first run of unsolved points whose bounds are still
    open.  Lower bounds come from ``bank`` (each solve's witness joins it):
    a classifier that clears the margin counts at the first grid point
    whose threshold base + n * eps admits its mistakes and at every point
    right of it, wherever it was found; a witness that does not clear it
    counts at and right of its own solve.  Each point's lower bound is the
    best count placed at or left of it.  Upper bounds hold at every smaller
    epsilon and are capped by the triangle inequality,
    min(1, 2 * risk + epsilon).  The loop stops once every point is solved
    or closed, so certified solves skip every point whose bounds meet,
    while solves that stop at a budget leave their neighbours open.

    An unsolved point whose bounds meet is reported certified at that value.
    Each solve warm-starts from, and each point reports as its witness, the
    best classifier placed at or left of it, possibly found at a larger
    epsilon, or h0 as the warm start when there is none.

    Returns (profile with the discrepancy side filled, list of
    (epsilon, SolveResult) pairs in ascending epsilon, one per solve).
    """
    dataset, h0, base = bank.dataset, bank.h0, bank.risk
    n = dataset.n
    if grid.n != n:
        raise ValueError("grid denominator does not match dataset weight")

    eps_values = grid.values
    size = len(eps_values)
    thresholds = grid.thresholds(base.mistakes)
    caps = grid.caps(base.mistakes)
    # Upper discrepancy counts of n; an unsolved point is bounded by n.
    raw_up = np.full(size, n, dtype=np.int64)
    solved = {}  # grid index -> SolveResult
    pinned = []  # (row, grid index, count) of witnesses that miss the margin
    best, counts = bank.best_placed(thresholds)
    labelings = bank.labelings(thresholds, budget)
    index, root = 0, None
    while index is not None:
        eps = eps_values[index]
        result, row = _solve(
            bank, build_disc_mip(dataset, h0, eps, bank.gamma), budget,
            [bank.classifiers[best[index]] if best[index] >= 0 else h0],
            f"witness at eps={eps}", node_log=node_log, root_start=root,
            labelings=None if labelings is None else labelings.disc[index],
        )
        solved[index] = result
        root = root if result.root_basis is None else result.root_basis
        # MIP minimizes agreements: incumbent -> discrepancy lower bound,
        # global bound -> discrepancy upper bound.
        low_cnt, up_cnt = _int_bounds(result, n)
        raw_up[index] = n - low_cnt
        if row is not None:
            mistakes = bank.mistakes[row]
            if result.certified and mistakes > thresholds[index]:
                raise InternalConsistencyError(
                    f"witness at eps={eps} lies outside its level set "
                    f"({mistakes} vs {base.mistakes} + {eps} * {n})"
                )
            if not bank.clears[row]:
                pinned.append((row, index, n - up_cnt))
        best, counts = bank.best_placed(thresholds, pinned)
        if result.certified and counts[index] != n - up_cnt:
            raise InternalConsistencyError(
                f"banked classifiers bound discrepancy at eps={eps} by "
                f"{counts[index]}, but its certified solve found {n - up_cnt}"
            )
        lows, ups = _nested_bounds(counts, np.minimum(raw_up, caps))
        index = _next_solve(solved, lows, ups)

    # An unsolved point is closed by the solved points around it, so it
    # reports its propagated value, certified.  A certified upper bound
    # that a larger epsilon's bound tightens is a solver bug.
    certified = np.ones(size, dtype=bool)
    certified[list(solved)] = [r.certified for r in solved.values()]
    capped = np.minimum(raw_up, caps)
    if any(r.certified and ups[i] != capped[i] for i, r in solved.items()):
        raise InternalConsistencyError("tightening moved a certified value")
    witnesses = tuple(bank.classifiers[r] if r >= 0 else None for r in best.tolist())
    profile = MultiplicityProfile(
        base, grid, discrepancy=Measures(lows, ups, certified, n), witnesses=witnesses
    )
    return profile, [(eps_values[i], solved[i]) for i in sorted(solved)]


def _next_solve(solved, lows, ups):
    """Grid index to solve next, or None once every point is solved or
    closed (lower == upper).  The last point goes first after the first;
    then the middle of the first run of unsolved open points."""
    unsettled = lows < ups
    unsettled[list(solved)] = False
    last = len(lows) - 1
    if unsettled[last]:
        return last
    if not unsettled.any():
        return None
    start = int(np.argmax(unsettled))
    stop = start + int(np.argmin(unsettled[start:]))  # the last point is settled
    return (start + stop) // 2


def _solve(
    bank, model, budget, candidates, what, hint=None, node_log=None, root_start=None,
    labelings=None,
):
    """Solve one path program, warm-started from the first of ``candidates``
    that it accepts, with ``hint`` as its ``lower_bound_hint`` and its root
    LP started from ``root_start`` (the slack basis when None).

    ``labelings`` are the labeling pass's candidates for the program, or
    None.  ``certify`` checks them first on leaves of ``model`` (and of the
    disc program at epsilon = 1): its bound joins ``hint``, and the
    classifier it proposes is the warm start when the program accepts it at
    that cost, so that ``bnb.solve`` certifies it with 0 nodes.  The result's
    ``wall_time`` covers the whole step, leaf LPs included.

    No path program is infeasible when h0 clears the margin (h0 lies in
    every level set and its negation flips every cell), so an infeasible
    one raises.  When h0 does not, no program may represent it, and an
    infeasible one is an input error: gamma is too large.  The decoded
    incumbent joins ``bank``, which scores it; a certified one that scores
    a training point inside the margin band, where the indicator semantics
    are not exact, warns.  Returns (result, the incumbent's bank row or
    None).
    """
    started = time.monotonic()
    warm = _encode(model, bank.dataset, candidates)
    if labelings is not None:
        at_warm = None if warm is None else model.count(warm)
        bound, found = certify(model, bank, labelings, at_warm, budget)
        hint = bound if hint is None else max(hint, bound)
        if found is not None:
            realized = _encode(model, bank.dataset, [found], bound)
            warm = warm if realized is None else realized
    result = bnb.solve(
        model, budget=budget, warm_start=warm, lower_bound_hint=hint,
        node_log=node_log, root_start=root_start,
    )
    result = replace(result, wall_time=time.monotonic() - started)
    if result.status == bnb.STATUS_INFEASIBLE:
        if not bank.clears[0]:
            raise InputError(
                f"the program of the {what} is infeasible: h0's smallest training "
                f"|score|, {bank.margins[0]:.2g}, lies inside the margin "
                f"gamma={bank.gamma:g}; use a smaller --gamma"
            )
        raise InternalConsistencyError(f"the program of the {what} is infeasible")
    if result.incumbent is None:
        return result, None
    row = bank.add(classifier_from_solution(model, result.incumbent))
    if result.certified and not bank.clears[row]:
        warnings.warn(
            f"certified {what} has margin {bank.margins[row]:.2e} "
            f"below gamma={bank.gamma:.2e}",
            RuntimeWarning,
        )
    return result, row


def _encode(model, dataset, classifiers, cost=None):
    """The assignment of the first of ``classifiers`` that ``model``
    accepts (at objective ``cost``, when given), or None."""
    for g in classifiers:
        assignment = assignment_from_classifier(model, dataset, g)
        if bnb.is_feasible(model, assignment) and cost in (None, model.count(assignment)):
            return assignment
    return None


def ambiguity_path(
    bank: ClassifierBank,
    grid: EpsilonGrid,
    budget: Optional[SolveBudget] = None,
    node_log=None,
    baseline: Optional[SolveResult] = None,
):
    """Fit the minimal-error flipped classifier of each cell of the bank's
    dataset around its h0, then count the weight of the cells whose flip
    lies inside each level set.

    A flip program depends on an example only through its feature vector,
    so each cell of ``dataset.cells`` takes one solve (``build_flip_mip``
    by cell index), in ``dataset.cells`` order, one after another.  Each
    solve warm-starts from the first feasible classifier of ``bank`` that
    flips its cell with margin, in mistake order with ties in insertion
    order: the negated baseline (which flips every cell when h0 clears the
    margin), then the bank's other classifiers (such as the discrepancy
    witnesses), then every flip classifier found by an earlier solve, which
    joins the bank.  A certified flip classifier that does not flip its
    cell is a solver bug and raises.

    ``baseline`` is the result of the baseline program's solve.  A flip
    program is the baseline program plus one row, so the baseline's proven
    ``lower_bound`` bounds every flip solve: each reports at least that
    many mistakes and certifies once its incumbent reaches it.  (h0's own
    mistake count is such a bound only when h0 is proven optimal.)  The
    final basis of the baseline's root LP (its ``root_basis``) with the
    flip row's slack basic (``basis_with_row``) starts every flip root LP.

    Returns (profile with the ambiguity side filled, PathologicalPool, results).
    """
    dataset, h0, base = bank.dataset, bank.h0, bank.risk
    n = dataset.n
    if grid.n != n:
        raise ValueError("grid denominator does not match dataset weight")
    hint = root = None
    if baseline is not None:
        hint, root = baseline.lower_bound, baseline.root_basis

    thresholds = grid.thresholds(base.mistakes)
    labelings = bank.labelings(thresholds, budget)
    results, classifiers = [], []
    for c in range(len(dataset.cells.X)):
        model = build_flip_mip(dataset, h0, c, bank.gamma)
        start = None if root is None else basis_with_row(root, model.metadata["flip_row"])
        result, row = _solve(
            bank, model, budget, bank.flipping(c), f"flip classifier of cell {c}",
            hint=hint, node_log=node_log, root_start=start,
            labelings=None if labelings is None else labelings.flips[c],
        )
        if result.certified and bank.sides[row][c] == bank.base_side[c]:
            raise InternalConsistencyError(
                f"certified flip classifier of cell {c} does not flip it"
            )
        results.append(result)
        classifiers.append(None if row is None else bank.classifiers[row])

    lower, upper = np.array([_int_bounds(r, n) for r in results], dtype=np.int64).T
    pool_out = PathologicalPool(
        classifiers=classifiers,
        mistakes_lower=lower,
        mistakes_upper=upper,
        certified=[r.certified for r in results],
        baseline_mistakes=base.mistakes,
    )

    # Counts read at increasing thresholds are already monotone.
    profile = MultiplicityProfile(
        base, grid, ambiguity=_flippable(pool_out, bank.weights, thresholds)
    )
    return profile, pool_out, results


def _flippable(pool: PathologicalPool, cell_weights, thresholds):
    """Weight of the cells that some classifier with at most t mistakes
    provably flips (lower count) and may flip (upper count), for every
    threshold t of ``thresholds`` at once; cell c of the per-cell flip
    table ``pool`` counts ``cell_weights[c]``.

    A cell's mistakes upper bound (its incumbent) proves it flippable; its
    lower bound (the node bound) proves it is not.  Each bound is sorted
    once over the cells and read off cumulative weights by binary search,
    so memory stays O(cells + thresholds).

    Returns the ``Measures`` over ``thresholds`` out of the total of
    ``cell_weights``, certified where the two counts meet.
    """
    at = np.asarray(thresholds)
    counts = []
    for bounds in (pool.mistakes_upper, pool.mistakes_lower):
        order = np.argsort(bounds)
        cumulative = np.concatenate(([0], np.cumsum(cell_weights[order])))
        counts.append(cumulative[np.searchsorted(bounds[order], at, side="right")])
    low, up = counts
    return Measures(low, up, low == up, int(cell_weights.sum()))


def merge_profiles(
    disc_profile: MultiplicityProfile, amb_profile: MultiplicityProfile
) -> MultiplicityProfile:
    """The discrepancy side and witnesses of ``disc_profile`` with the
    ambiguity side of ``amb_profile``, on their one grid."""
    if disc_profile.baseline != amb_profile.baseline:
        raise ValueError("profiles disagree on the baseline risk")
    if disc_profile.grid != amb_profile.grid:
        raise ValueError("profiles were built on different epsilon grids")
    return replace(disc_profile, ambiguity=amb_profile.ambiguity)


def burden_path(pool: PathologicalPool, dataset: Dataset, thresholds) -> dict:
    """Ambiguity restricted to each group's weight in every cell, at every
    mistake threshold at once: each group's ``Measures``, one entry per
    threshold, in the order of ``thresholds``."""
    return {
        group: _flippable(pool, cell_weights, thresholds)
        for group, cell_weights in dataset.group_weights.items()
    }
