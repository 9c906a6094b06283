"""Path algorithms: discrepancy and ambiguity across an epsilon grid.

Both measures are computed per level set, exactly when every solve
certifies and as [lower, upper] intervals otherwise.  All level-set
membership tests compare integer mistake counts; floating rates never
decide anything.

Interval bookkeeping exploits that level sets are nested: a valid lower
bound at some epsilon is valid at every larger epsilon and a valid upper
bound is valid at every smaller one, so raw per-epsilon intervals are
tightened by a forward running max / backward running min before assembly.
Uncertified discrepancy uppers are additionally capped by the triangle-
inequality bound 2 * baseline_risk + epsilon, which certified values must
satisfy on their own (a violation is a solver bug and raises).
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import branch_bound as bnb
from .branch_bound import MipModel, SolveBudget, SolveResult
from .core import (
    Dataset,
    InternalConsistencyError,
    LinearClassifier,
    MissingGroupError,
    RiskReport,
    empirical_risk,
    predictions,
)
from .formulations import (
    FormulationParams,
    assignment_from_classifier,
    build_disc_mip,
    build_flip_mip,
    classifier_from_solution,
    margin_clearance,
)

# Examples are batched in fixed-size waves so the warm-start pool snapshot
# seen by each solve is independent of worker count and timing.
POOL_BLOCK = 8


@dataclass(frozen=True)
class EpsilonGrid:
    """Strictly increasing error tolerances, each an exact multiple of 1/n."""

    values: tuple
    n: int

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        if not vals:
            raise ValueError("epsilon grid must be nonempty")
        if any(v < 0 or v > 1 for v in vals):
            raise ValueError("epsilon values must lie in [0, 1]")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("epsilon values must be strictly increasing")
        for v in vals:
            if (v * self.n).denominator != 1:
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

    def thresholds(self, base_mistakes: int):
        """Integer mistake budgets base + n*eps for each grid value."""
        return [base_mistakes + int(v * self.n) for v in self.values]


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
        base = self.baseline.rate
        for side in ("discrepancy", "ambiguity"):
            seq = [getattr(e, side) for e in self.entries if getattr(e, side)]
            pairs = list(zip(seq, seq[1:]))
            if any(b.lower < a.lower or b.upper < a.upper for a, b in pairs):
                raise InternalConsistencyError(f"{side} is not monotone in epsilon")
        for e in self.entries:
            if e.discrepancy and e.discrepancy.upper > min(1, 2 * base + e.epsilon):
                raise InternalConsistencyError(
                    f"discrepancy bound violated at eps={e.epsilon}"
                )

    def entry(self, epsilon) -> ProfileEntry:
        eps = Fraction(epsilon)
        for e in self.entries:
            if e.epsilon == eps:
                return e
        raise KeyError(f"no entry for epsilon {eps}")


@dataclass(frozen=True)
class FlipRecord:
    """Per-example minimal-error flipped classifier and its risk bounds."""

    index: int
    classifier: LinearClassifier
    mistakes_lower: int
    mistakes_upper: int
    risk: MeasureValue
    flip_verified: bool
    certified: bool


@dataclass(frozen=True)
class PathologicalPool:
    entries: tuple
    baseline_mistakes: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))


def _tighten(measures: Sequence[MeasureValue], caps=None):
    """Propagate bounds across nested level sets and apply per-entry caps."""
    lowers = [m.lower for m in measures]
    uppers = [m.upper for m in measures]
    if caps is not None:
        uppers = [min(u, c) for u, c in zip(uppers, caps)]
    for i in range(1, len(lowers)):
        lowers[i] = max(lowers[i], lowers[i - 1])
    for i in range(len(uppers) - 2, -1, -1):
        uppers[i] = min(uppers[i], uppers[i + 1])
    out = []
    for m, lo, up in zip(measures, lowers, uppers):
        if m.certified and (lo != m.lower or up != m.upper):
            raise InternalConsistencyError("tightening moved a certified value")
        out.append(MeasureValue(lo, up, m.certified))
    return out


def _int_bounds(result: SolveResult, n: int):
    """Integer objective bounds from a solve: (lower count, upper count)."""
    upper = n if result.upper_bound is None else int(round(result.upper_bound))
    lower = 0 if result.lower_bound == -math.inf else int(math.ceil(result.lower_bound - 1e-6))
    return max(0, min(lower, upper)), upper


def discrepancy_path(
    dataset: Dataset,
    h0: LinearClassifier,
    grid: EpsilonGrid,
    budget: Optional[SolveBudget] = None,
    params: Optional[FormulationParams] = None,
    node_log=None,
):
    """Solve the agreement-minimizing model for every epsilon, ascending,
    warm-starting each solve with the previous witness (level sets nest, so
    the previous witness stays feasible).

    Returns (profile with the discrepancy side filled, list of SolveResult).
    """
    params = params or FormulationParams()
    base = empirical_risk(h0, dataset)
    n = dataset.n
    if grid.n != n:
        raise ValueError("grid denominator does not match dataset weight")

    raw = []
    witnesses = {}
    results = []
    prev = h0
    for eps in grid.values:
        model = build_disc_mip(dataset, h0, eps, params)
        warm = _safe_warm(model, dataset, prev)
        result = bnb.solve(model, budget=budget, warm_start=warm, node_log=node_log)
        results.append(result)
        if result.status == bnb.STATUS_INFEASIBLE:
            raise InternalConsistencyError(
                "level-set model reported infeasible; the baseline itself should "
                "be feasible whenever its scores clear the margin"
            )
        low_cnt, up_cnt = _int_bounds(result, n)
        # MIP minimizes agreements: incumbent -> discrepancy lower bound,
        # global bound -> discrepancy upper bound.
        disc = MeasureValue(
            lower=Fraction(n - up_cnt, n),
            upper=Fraction(n - low_cnt, n),
            certified=result.certified,
        )
        raw.append(disc)
        if result.incumbent is not None:
            witness = classifier_from_solution(model, result.incumbent)
            _audit_witness(witness, dataset, params, base, eps, result.certified)
            witnesses[eps] = witness
            prev = witness

    caps = [min(Fraction(1), 2 * base.rate + eps) for eps in grid.values]
    tightened = _tighten(raw, caps)
    entries = tuple(
        ProfileEntry(epsilon=eps, discrepancy=m, ambiguity=None)
        for eps, m in zip(grid.values, tightened)
    )
    profile = MultiplicityProfile(baseline=base, entries=entries, witnesses=witnesses)
    return profile, results


def _safe_warm(model: MipModel, dataset: Dataset, h: Optional[LinearClassifier]):
    if h is None:
        return None
    candidate = assignment_from_classifier(model, dataset, h)
    ok, _ = bnb.check_feasible(model, candidate)
    return candidate if ok else None


def _audit_witness(witness, dataset, params, base, eps, certified):
    min_margin, clear = margin_clearance(witness, dataset, params.gamma)
    if certified and not clear:
        warnings.warn(
            f"certified witness at eps={eps} has margin {min_margin:.2e} "
            f"below gamma={params.gamma:.2e}",
            RuntimeWarning,
        )
    risk = empirical_risk(witness, dataset)
    if certified and risk.mistakes > base.mistakes + eps * dataset.n:
        raise InternalConsistencyError(
            f"witness at eps={eps} lies outside its level set "
            f"({risk.mistakes} vs {base.mistakes} + {eps} * {dataset.n})"
        )


def ambiguity_path(
    dataset: Dataset,
    h0: LinearClassifier,
    grid: EpsilonGrid,
    budget: Optional[SolveBudget] = None,
    workers: int = 1,
    params: Optional[FormulationParams] = None,
    baseline_certified: bool = True,
    seed_pool: Sequence[LinearClassifier] = (),
    node_log=None,
):
    """Fit the minimal-error flipped classifier for every example, then count
    how many fall inside each level set.

    Flip models only depend on the example's feature vector (through its
    baseline prediction), so each cell of ``dataset.cells`` takes one solve,
    for its first example.
    Solves run in fixed-size waves over a worker pool; each wave warm-starts
    from the classifiers committed by earlier waves plus the negated
    baseline (which flips every point and is always feasible), so results
    are deterministic regardless of worker count.

    Returns (profile with the ambiguity side filled, PathologicalPool, results).
    """
    params = params or FormulationParams()
    base = empirical_risk(h0, dataset)
    n = dataset.n
    if grid.n != n:
        raise ValueError("grid denominator does not match dataset weight")
    hint = float(base.mistakes) if baseline_certified else None

    cell_of = dataset.cells.index
    reps = [int(i) for i in np.unique(cell_of, return_index=True)[1]]

    pool: list = [h0.negated()]
    pool.extend(seed_pool)
    pool_risks = [empirical_risk(g, dataset).mistakes for g in pool]
    rep_results = {}

    def solve_one(index: int, snapshot):
        model = build_flip_mip(dataset, h0, index, params)
        warm = None
        for _, g in snapshot:
            warm = _safe_warm(model, dataset, g)
            if warm is not None:
                break
        result = bnb.solve(
            model, budget=budget, warm_start=warm,
            lower_bound_hint=hint, node_log=node_log,
        )
        if result.status == bnb.STATUS_INFEASIBLE:
            raise InternalConsistencyError(
                f"flip model infeasible for example {index}; a unit-l1 classifier "
                "aligned against the baseline sign always flips a nonzero point"
            )
        g = (
            classifier_from_solution(model, result.incumbent)
            if result.incumbent is not None
            else None
        )
        return result, g

    max_workers = max(1, int(workers))
    for block_start in range(0, len(reps), POOL_BLOCK):
        block = reps[block_start : block_start + POOL_BLOCK]
        snapshot = sorted(zip(pool_risks, pool), key=lambda t: t[0])
        if max_workers == 1 or len(block) == 1:
            outcomes = [solve_one(i, snapshot) for i in block]
        else:
            with ThreadPoolExecutor(max_workers=max_workers) as px:
                outcomes = list(px.map(lambda i: solve_one(i, snapshot), block))
        for i, (result, g) in zip(block, outcomes):  # commit in index order
            rep_results[i] = (result, g)
            if g is not None:
                if result.certified:
                    min_margin, clear = margin_clearance(g, dataset, params.gamma)
                    if not clear:
                        warnings.warn(
                            f"certified flip classifier for example {i} has margin "
                            f"{min_margin:.2e} below gamma={params.gamma:.2e}",
                            RuntimeWarning,
                        )
                pool.append(g)
                pool_risks.append(empirical_risk(g, dataset).mistakes)

    records = []
    base_preds = predictions(h0, dataset)
    flip_preds = {
        i: predictions(g, dataset)
        for i, (_, g) in rep_results.items()
        if g is not None
    }
    for i, ex in enumerate(dataset.examples):
        rep = reps[cell_of[i]]
        result, g = rep_results[rep]
        low_cnt, up_cnt = _int_bounds(result, n)
        low_cnt = max(low_cnt, base.mistakes if baseline_certified else 0)
        flip_ok = g is not None and bool(flip_preds[rep][i] != base_preds[i])
        records.append(
            FlipRecord(
                index=i,
                classifier=g,
                mistakes_lower=low_cnt,
                mistakes_upper=up_cnt,
                risk=MeasureValue(
                    Fraction(low_cnt, n), Fraction(up_cnt, n), result.certified
                ),
                flip_verified=flip_ok,
                certified=result.certified,
            )
        )
    pool_out = PathologicalPool(
        entries=tuple(records), baseline_mistakes=base.mistakes, n=n
    )

    raw = []
    for threshold in grid.thresholds(base.mistakes):
        # incumbent risk (upper bound) proves a point flippable; the node
        # lower bound proves it is not.
        low_sum = sum(
            ex.weight for r, ex in zip(records, dataset.examples)
            if r.mistakes_upper <= threshold
        )
        up_sum = sum(
            ex.weight for r, ex in zip(records, dataset.examples)
            if r.mistakes_lower <= threshold
        )
        raw.append(
            MeasureValue(
                lower=Fraction(low_sum, n),
                upper=Fraction(up_sum, n),
                certified=low_sum == up_sum,
            )
        )
    tightened = _tighten(raw)
    entries = tuple(
        ProfileEntry(epsilon=eps, discrepancy=None, ambiguity=m)
        for eps, m in zip(grid.values, tightened)
    )
    profile = MultiplicityProfile(baseline=base, entries=entries, witnesses={})
    results = [rep_results[i][0] for i in reps]
    return profile, pool_out, results


def merge_profiles(
    disc_profile: MultiplicityProfile, amb_profile: MultiplicityProfile
) -> MultiplicityProfile:
    if disc_profile.baseline != amb_profile.baseline:
        raise ValueError("profiles disagree on the baseline risk")
    by_eps = {e.epsilon: e for e in amb_profile.entries}
    entries = []
    for e in disc_profile.entries:
        amb = by_eps.get(e.epsilon)
        entries.append(
            ProfileEntry(
                epsilon=e.epsilon,
                discrepancy=e.discrepancy,
                ambiguity=amb.ambiguity if amb else None,
            )
        )
    return MultiplicityProfile(
        baseline=disc_profile.baseline,
        entries=tuple(entries),
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

    A certified violation indicates a solver or decoding bug and raises.
    """
    base = profile.baseline.rate
    slacks = []
    for e in profile.entries:
        if e.discrepancy is None:
            continue
        bound = 2 * base + e.epsilon
        slack = bound - e.discrepancy.upper
        if slack < 0:
            raise InternalConsistencyError(
                f"discrepancy {e.discrepancy.upper} exceeds bound {bound} "
                f"at eps={e.epsilon}"
            )
        slacks.append((e.epsilon, slack))
    return BoundCheckReport(slacks=tuple(slacks))


def group_burden(pool: PathologicalPool, dataset: Dataset, epsilon) -> dict:
    """Ambiguity restricted to each group's weight-expanded examples."""
    if any(ex.group is None for ex in dataset.examples):
        raise MissingGroupError("every example needs a group tag")
    eps = Fraction(epsilon)
    threshold = pool.baseline_mistakes + int(eps * pool.n)
    totals: dict = {}
    low: dict = {}
    up: dict = {}
    for record, ex in zip(pool.entries, dataset.examples):
        totals[ex.group] = totals.get(ex.group, 0) + ex.weight
        if record.mistakes_upper <= threshold:
            low[ex.group] = low.get(ex.group, 0) + ex.weight
        if record.mistakes_lower <= threshold:
            up[ex.group] = up.get(ex.group, 0) + ex.weight
    out = {}
    for group in sorted(totals):
        lo = Fraction(low.get(group, 0), totals[group])
        hi = Fraction(up.get(group, 0), totals[group])
        out[group] = MeasureValue(lower=lo, upper=hi, certified=lo == hi)
    return out


def accuracy_disparity(h: LinearClassifier, dataset: Dataset) -> Fraction:
    """Largest pairwise gap between group error rates."""
    if any(ex.group is None for ex in dataset.examples):
        raise MissingGroupError("every example needs a group tag")
    preds = predictions(h, dataset)
    mistakes: dict = {}
    totals: dict = {}
    for p, ex in zip(preds, dataset.examples):
        totals[ex.group] = totals.get(ex.group, 0) + ex.weight
        if p != ex.label:
            mistakes[ex.group] = mistakes.get(ex.group, 0) + ex.weight
    rates = [Fraction(mistakes.get(g, 0), totals[g]) for g in sorted(totals)]
    return max(rates) - min(rates)


def tiebreak_count(
    candidates: Sequence[LinearClassifier],
    dataset: Dataset,
    baseline: LinearClassifier,
    epsilon,
    secondary=accuracy_disparity,
    secondary_tolerance: Fraction = Fraction(0),
):
    """Count level-set candidates whose secondary criterion is within
    tolerance of the best.

    Candidates come from witnesses and pathological pools; since the level
    set is not enumerated exhaustively the count is a lower bound on the
    number of competing models.  Returns (count, ranked candidate list).
    """
    if not candidates:
        raise ValueError("candidate list must be nonempty")
    eps = Fraction(epsilon)
    base = empirical_risk(baseline, dataset)
    threshold = base.mistakes + int(eps * dataset.n)
    for h in candidates:
        risk = empirical_risk(h, dataset)
        if risk.mistakes > threshold:
            raise ValueError(
                f"candidate with {risk.mistakes} mistakes is outside the "
                f"{eps}-level set (threshold {threshold})"
            )
    scored = sorted(
        ((secondary(h, dataset), i, h) for i, h in enumerate(candidates)),
        key=lambda t: (t[0], t[1]),
    )
    best = scored[0][0]
    tol = Fraction(secondary_tolerance)
    within = [(s, h) for s, _, h in scored if s - best <= tol]
    return len(within), within
