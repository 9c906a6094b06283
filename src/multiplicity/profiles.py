"""Path algorithms: discrepancy and ambiguity across an epsilon grid.

Both measures are computed per level set, exactly when every solve
certifies and as [lower, upper] intervals otherwise.  Ambiguity and group
burden count cell weights in one per-cell flip table (``PathologicalPool``,
one flip solve per cell of ``dataset.cells``, solved one after another in
cell order).  All level-set membership tests compare integer mistake
counts; floating rates never decide anything.  Both paths solve every
program through one step (``_solve``): warm start, solve, decode, and the
margin audit of certified classifiers.  The programs of one path are
near-copies, so every root LP but the first starts from a related optimal
basis: a disc program differs from the previous one only in the level
row's right-hand side, and a flip program is the baseline program plus its
flip row.

Interval bookkeeping exploits that level sets are nested: a valid lower
bound at some epsilon is valid at every larger epsilon and a valid upper
bound is valid at every smaller one, so raw per-epsilon discrepancy
intervals are tightened by a forward running max / backward running min
before assembly.
Uncertified discrepancy uppers are additionally capped by the triangle-
inequality bound 2 * baseline_risk + epsilon, which certified values must
satisfy on their own (a violation is a solver bug and raises).
All of this runs on integer count arrays over the whole grid; a
``MeasureValue`` is built once per distinct reported value.

The same propagation decides which discrepancy programs are solved at all:
discrepancy is a monotone step function of epsilon, so once the bounds of
the solved points meet at an unsolved point, its value is proven without a
solve (see ``discrepancy_path``).
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import branch_bound as bnb
from .branch_bound import MipModel, SolveBudget, SolveResult
from .core import (
    Dataset,
    InternalConsistencyError,
    LinearClassifier,
    RiskReport,
    empirical_risk,
)
from .formulations import (
    DEFAULT_GAMMA,
    assignment_from_classifier,
    build_disc_mip,
    build_flip_mip,
    classifier_from_solution,
    margin_clearance,
)
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
        if any(v.numerator < 0 or v.numerator > v.denominator for v in vals):
            raise ValueError("epsilon values must lie in [0, 1]")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("epsilon values must be strictly increasing")
        for v in vals:
            if self.n % v.denominator:
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


@dataclass(frozen=True)
class ProfileEntry:
    epsilon: Fraction
    discrepancy: Optional[MeasureValue]
    ambiguity: Optional[MeasureValue]


@dataclass(frozen=True)
class MultiplicityProfile:
    """Per-epsilon multiplicity measures around a baseline classifier."""

    baseline: RiskReport
    entries: tuple
    witnesses: dict

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for side in ("discrepancy", "ambiguity"):
            seq = [getattr(e, side) for e in self.entries if getattr(e, side)]
            pairs = zip(seq, seq[1:])  # entries of one step share their value
            if any(
                b is not a and (b.lower < a.lower or b.upper < a.upper) for a, b in pairs
            ):
                raise InternalConsistencyError(f"{side} is not monotone in epsilon")
        mistakes, n = self.baseline.mistakes, self.baseline.n
        for e in self.entries:
            if e.discrepancy and _above_cap(e.discrepancy.upper, e.epsilon, mistakes, n):
                raise InternalConsistencyError(
                    f"discrepancy bound violated at eps={e.epsilon}"
                )


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
    n: int

    def __post_init__(self):
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        for name in ("mistakes_lower", "mistakes_upper", "certified"):
            v = np.array(getattr(self, name))
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        low, up = self.mistakes_lower, self.mistakes_upper
        if np.any((low > up) | (self.certified & (low != up))):
            raise InternalConsistencyError("flip mistake bounds are inconsistent")


def _above_cap(upper: Fraction, eps: Fraction, mistakes: int, n: int) -> bool:
    """upper > min(1, 2 * mistakes / n + eps), decided in integers."""
    return upper.numerator > upper.denominator or _cap_slack(upper, eps, mistakes, n)[0] < 0


def _cap_slack(upper: Fraction, eps: Fraction, mistakes: int, n: int):
    """2 * mistakes / n + eps - upper as an unreduced (numerator, denominator)."""
    b, q = eps.denominator, upper.denominator
    return (2 * mistakes * b + eps.numerator * n) * q - upper.numerator * n * b, n * b * q


def _nested_bounds(lowers: np.ndarray, uppers: np.ndarray):
    """Bounds propagated across nested level sets: a lower bound holds at
    every larger epsilon, an upper bound at every smaller one."""
    return np.maximum.accumulate(lowers), np.minimum.accumulate(uppers[::-1])[::-1]


def _tighten(lowers, uppers, certified, caps=None):
    """Propagate count bounds across nested level sets after capping the
    uppers; a certified value that moves is a solver bug and raises."""
    if caps is not None:
        uppers = np.minimum(uppers, caps)
    lows, ups = _nested_bounds(lowers, uppers)
    if np.any(certified & ((lows != lowers) | (ups != uppers))):
        raise InternalConsistencyError("tightening moved a certified value")
    return lows, ups


def _measures(lowers, uppers, certified, total: int) -> list:
    """A MeasureValue with shares lower/total and upper/total per entry;
    entries with equal counts share one object, so each distinct value is
    built and checked once."""
    made = {}
    out = []
    for key in zip(lowers.tolist(), uppers.tolist(), certified.tolist()):
        m = made.get(key)
        if m is None:
            m = made[key] = MeasureValue(
                Fraction(key[0], total), Fraction(key[1], total), key[2]
            )
        out.append(m)
    return out


def _int_bounds(result: SolveResult, n: int):
    """Integer objective bounds from a solve: (lower count, upper count).
    ``bnb.solve`` reports integral bounds (node bounds ceiled, incumbents
    rounded), so they are read as they are; an absent bound is 0 or n."""
    upper = n if result.upper_bound is None else int(result.upper_bound)
    lower = 0 if result.lower_bound == -math.inf else int(result.lower_bound)
    return max(0, min(lower, upper)), upper


def discrepancy_path(
    dataset: Dataset,
    h0: LinearClassifier,
    grid: EpsilonGrid,
    budget: Optional[SolveBudget] = None,
    gamma: float = DEFAULT_GAMMA,
    node_log=None,
):
    """Discrepancy at every epsilon of ``grid``, solving the
    agreement-minimizing model only where the profile is still open.

    Solve order: the first grid point, then the last, then repeatedly the
    middle point of the first run of unsolved points whose bounds are still
    open.  Bounds are propagated across nested level sets after each solve:
    a lower bound holds at every larger epsilon, an upper bound at every
    smaller one.  The cap min(1, 2 * risk + epsilon) of the reported uppers
    plays no part: a lower bound carried to an unsolved point from a smaller
    epsilon is at most the cap there, which is below the cap at the point
    unless both are 1, so the cap never closes a point.
    The loop stops once every point is solved or closed, so certified
    solves skip every point between two equal values, while solves that
    stop at a budget leave their neighbours open and every point is solved.

    An unsolved point whose bounds meet is reported certified at that value.
    Each solve warm-starts from, and each unsolved point reports as its
    witness, the best witness found at or left of it (the nearest one
    whenever solves certify), or h0 as the warm start when there is none.
    That witness lies in the point's level set because level sets nest.

    Returns (profile with the discrepancy side filled, list of
    (epsilon, SolveResult) pairs in ascending epsilon, one per solve).
    """
    base = empirical_risk(h0, dataset)
    n = dataset.n
    if grid.n != n:
        raise ValueError("grid denominator does not match dataset weight")

    eps_values = grid.values
    size = len(eps_values)
    # Discrepancy in counts of n; an unsolved point is bounded by [0, n].
    raw_low, raw_up = np.zeros(size, dtype=np.int64), np.full(size, n, dtype=np.int64)
    solved = {}  # grid index -> SolveResult
    found = {}  # grid index -> witness of that solve
    index, root = 0, None
    while index is not None:
        eps = eps_values[index]
        best = int(_best_left(found, raw_low)[index])
        result, witness = _solve(
            build_disc_mip(dataset, h0, eps, gamma), dataset, budget,
            [found[best] if best >= 0 else h0], f"witness at eps={eps}",
            node_log=node_log, root_start=root,
        )
        solved[index], root = result, result.root_basis
        # MIP minimizes agreements: incumbent -> discrepancy lower bound,
        # global bound -> discrepancy upper bound.
        low_cnt, up_cnt = _int_bounds(result, n)
        raw_low[index], raw_up[index] = n - up_cnt, n - low_cnt
        if witness is not None:
            mistakes = empirical_risk(witness, dataset).mistakes
            if result.certified and mistakes > base.mistakes + eps * n:
                raise InternalConsistencyError(
                    f"witness at eps={eps} lies outside its level set "
                    f"({mistakes} vs {base.mistakes} + {eps} * {n})"
                )
            found[index] = witness
        lows, ups = _nested_bounds(raw_low, raw_up)
        index = _next_solve(solved, lows, ups)

    # An unsolved point is closed by the solved points around it, so it
    # reports its propagated value, certified.
    is_solved = np.zeros(size, dtype=bool)
    is_solved[list(solved)] = True
    certified = np.ones(size, dtype=bool)
    certified[list(solved)] = [r.certified for r in solved.values()]
    caps = np.minimum(n, 2 * base.mistakes + grid.counts)
    tight_low, tight_up = _tighten(
        np.where(is_solved, raw_low, lows), np.where(is_solved, raw_up, ups),
        certified, caps,
    )
    measures = _measures(tight_low, tight_up, certified, n)
    entries = tuple(
        ProfileEntry(epsilon=eps, discrepancy=m, ambiguity=None)
        for eps, m in zip(eps_values, measures)
    )
    witnesses = {
        eps: found[i]
        for eps, i in zip(eps_values, _best_left(found, raw_low).tolist())
        if i >= 0
    }
    profile = MultiplicityProfile(baseline=base, entries=entries, witnesses=witnesses)
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


def _best_left(found, raw_low) -> np.ndarray:
    """For every grid point, the index of the best witness found at or left
    of it (highest discrepancy lower bound, the nearest on ties, which is
    the nearest one whenever its solves certify), or -1 where there is none.
    It lies in the level set of the point because level sets nest."""
    size = len(raw_low)
    key = np.full(size, -1, dtype=np.int64)
    at = np.fromiter(found, dtype=np.int64, count=len(found))
    key[at] = raw_low[at] * size + at
    best = np.maximum.accumulate(key)
    return np.where(best < 0, -1, best % size)


def _safe_warm(model: MipModel, dataset: Dataset, h: LinearClassifier):
    candidate = assignment_from_classifier(model, dataset, h)
    ok, _ = bnb.check_feasible(model, candidate)
    return candidate if ok else None


def _solve(
    model, dataset, budget, candidates, what, hint=None, node_log=None, root_start=None
):
    """Solve one path program, warm-started from the first of ``candidates``
    that it accepts, with ``hint`` as its ``lower_bound_hint`` and its root
    LP started from ``root_start`` (cold when None).  No path
    program is infeasible (h0 lies in every level set and its negation
    flips every cell), so an infeasible one raises.  Warns when a certified
    classifier scores a training point inside the margin band, where the
    indicator semantics are not exact.  Returns (result, classifier or None).
    """
    warm = None
    for g in candidates:
        warm = _safe_warm(model, dataset, g)
        if warm is not None:
            break
    result = bnb.solve(
        model, budget=budget, warm_start=warm, lower_bound_hint=hint,
        node_log=node_log, root_start=root_start,
    )
    if result.status == bnb.STATUS_INFEASIBLE:
        raise InternalConsistencyError(f"the program of the {what} is infeasible")
    if result.incumbent is None:
        return result, None
    h = classifier_from_solution(model, result.incumbent)
    if result.certified:
        gamma = model.metadata["gamma"]
        min_margin, clear = margin_clearance(h, dataset, gamma)
        if not clear:
            warnings.warn(
                f"certified {what} has margin {min_margin:.2e} below gamma={gamma:.2e}",
                RuntimeWarning,
            )
    return result, h


def ambiguity_path(
    dataset: Dataset,
    h0: LinearClassifier,
    grid: EpsilonGrid,
    budget: Optional[SolveBudget] = None,
    gamma: float = DEFAULT_GAMMA,
    lower_bound_hint: Optional[float] = None,
    seed_pool: Sequence[LinearClassifier] = (),
    node_log=None,
    baseline_root=None,
):
    """Fit the minimal-error flipped classifier of each cell, then count the
    weight of the cells whose flip lies inside each level set.

    A flip program depends on an example only through its feature vector,
    so each cell of ``dataset.cells`` takes one solve (``build_flip_mip``
    by cell index), in ``dataset.cells`` order, one after another.  Each
    solve warm-starts from the first feasible classifier of one bank, kept
    in mistake order with ties in insertion order: the negated baseline
    (which flips every point and is always feasible), then ``seed_pool``,
    then every flip classifier found by an earlier solve.  A certified flip
    classifier that does not flip its cell is a solver bug and raises.

    ``lower_bound_hint`` is a proven lower bound on the baseline program's
    optimum, such as the baseline solve's ``lower_bound``.  A flip program
    is the baseline program plus one row, so it bounds every flip solve:
    each reports at least that many mistakes and certifies once its
    incumbent reaches it.  h0's own mistake count is such a bound only when
    h0 is proven optimal.

    ``baseline_root`` is the final basis of the baseline solve's root LP
    (its ``root_basis``).  That basis with the flip row's slack basic
    (``basis_with_row``) starts every flip root LP.

    Returns (profile with the ambiguity side filled, PathologicalPool, results).
    """
    base = empirical_risk(h0, dataset)
    n = dataset.n
    if grid.n != n:
        raise ValueError("grid denominator does not match dataset weight")

    cells = dataset.cells
    base_side = cells.X @ np.asarray(h0.coefficients) > 0.0
    bank: list = []  # (mistakes, classifier), stable in mistake order
    for g in (h0.negated(), *seed_pool):
        _bank_add(bank, g, dataset)

    results, classifiers, root = [], [], None
    for c in range(len(cells.X)):
        model = build_flip_mip(dataset, h0, c, gamma)
        if baseline_root is not None:
            root = basis_with_row(baseline_root, model.metadata["flip_row"])
        result, g = _solve(
            model, dataset, budget, (h for _, h in bank), f"flip classifier of cell {c}",
            hint=lower_bound_hint, node_log=node_log, root_start=root,
        )
        if g is not None:
            if result.certified and (cells.X[c] @ g.coefficients > 0.0) == base_side[c]:
                raise InternalConsistencyError(
                    f"certified flip classifier of cell {c} does not flip it"
                )
            _bank_add(bank, g, dataset)
        results.append(result)
        classifiers.append(g)

    lower, upper = np.array([_int_bounds(r, n) for r in results], dtype=np.int64).T
    pool_out = PathologicalPool(
        classifiers=classifiers,
        mistakes_lower=lower,
        mistakes_upper=upper,
        certified=[r.certified for r in results],
        baseline_mistakes=base.mistakes,
        n=n,
    )

    # Counts read at increasing thresholds are already monotone.
    thresholds = grid.thresholds(base.mistakes)
    low, up, total = _flippable(pool_out, cells.pos + cells.neg, thresholds)
    measures = _measures(low, up, low == up, total)
    entries = tuple(
        ProfileEntry(epsilon=eps, discrepancy=None, ambiguity=m)
        for eps, m in zip(grid.values, measures)
    )
    profile = MultiplicityProfile(baseline=base, entries=entries, witnesses={})
    return profile, pool_out, results


def _bank_add(bank: list, g: LinearClassifier, dataset: Dataset) -> None:
    """Insert g into the warm-start bank after every entry with at most as
    many mistakes."""
    entry = (empirical_risk(g, dataset).mistakes, g)
    bisect.insort(bank, entry, key=lambda t: t[0])


def _flippable(pool: PathologicalPool, cell_weights, thresholds):
    """Weight of the cells that some classifier with at most t mistakes
    provably flips (lower count) and may flip (upper count), for every
    threshold t of ``thresholds`` at once; cell c of the per-cell flip
    table ``pool`` counts ``cell_weights[c]``.

    A cell's mistakes upper bound (its incumbent) proves it flippable; its
    lower bound (the node bound) proves it is not.  Each bound is sorted
    once over the cells and read off cumulative weights by binary search,
    so memory stays O(cells + thresholds).

    Returns (lower counts, upper counts) as arrays over ``thresholds``,
    and the total of ``cell_weights``.
    """
    at = np.asarray(thresholds)
    counts = []
    for bounds in (pool.mistakes_upper, pool.mistakes_lower):
        order = np.argsort(bounds)
        cumulative = np.concatenate(([0], np.cumsum(cell_weights[order])))
        counts.append(cumulative[np.searchsorted(bounds[order], at, side="right")])
    return counts[0], counts[1], int(cell_weights.sum())


def merge_profiles(
    disc_profile: MultiplicityProfile, amb_profile: MultiplicityProfile
) -> MultiplicityProfile:
    """Both sides in one profile; entries pair by position on one grid."""
    if disc_profile.baseline != amb_profile.baseline:
        raise ValueError("profiles disagree on the baseline risk")
    disc, amb = disc_profile.entries, amb_profile.entries
    if [e.epsilon for e in disc] != [e.epsilon for e in amb]:
        raise ValueError("profiles were built on different epsilon grids")
    entries = tuple(
        ProfileEntry(epsilon=d.epsilon, discrepancy=d.discrepancy, ambiguity=a.ambiguity)
        for d, a in zip(disc, amb)
    )
    return MultiplicityProfile(
        baseline=disc_profile.baseline,
        entries=entries,
        witnesses=dict(disc_profile.witnesses),
    )


@dataclass(frozen=True)
class BoundCheckReport:
    slacks: tuple  # (epsilon, slack) pairs, slack = 2*risk + eps - upper

    @property
    def min_slack(self) -> Fraction:
        return min(s for _, s in self.slacks)


def check_discrepancy_bound(profile: MultiplicityProfile) -> BoundCheckReport:
    """Triangle-inequality sanity bound: discrepancy <= 2 * risk + epsilon.

    Any violation indicates a solver or decoding bug and raises.
    """
    mistakes, n = profile.baseline.mistakes, profile.baseline.n
    slacks = []
    for e in profile.entries:
        if e.discrepancy is None:
            continue
        num, den = _cap_slack(e.discrepancy.upper, e.epsilon, mistakes, n)
        if num < 0:
            raise InternalConsistencyError(
                f"discrepancy {e.discrepancy.upper} exceeds bound "
                f"{2 * profile.baseline.rate + e.epsilon} at eps={e.epsilon}"
            )
        slacks.append((e.epsilon, Fraction(num, den)))
    return BoundCheckReport(slacks=tuple(slacks))


def group_burden(pool: PathologicalPool, dataset: Dataset, epsilon) -> dict:
    """Ambiguity restricted to each group's weight in every cell."""
    threshold = pool.baseline_mistakes + int(Fraction(epsilon) * pool.n)
    return {group: m for group, (m,) in burden_path(pool, dataset, [threshold]).items()}


def burden_path(pool: PathologicalPool, dataset: Dataset, thresholds) -> dict:
    """``group_burden`` at every mistake threshold at once: each group's
    list of measures, one per threshold, in the order of ``thresholds``."""
    burden = {}
    for group, cell_weights in dataset.group_weights.items():
        low, up, total = _flippable(pool, cell_weights, thresholds)
        burden[group] = _measures(low, up, low == up, total)
    return burden
