"""Lower bounds and proposed optima for the path programs of data with at
most three features, from the linear labelings of the cells.

A path program depends on its classifier w only through the side of each
cell, the sign of w.x_c.  A labeling L of the cells sets every indicator
of a program: u(L)_c = 1 exactly when L_c differs from the program's
reference label.  Under a flip program a labeling costs its weighted
mistakes, and under a disc program its weighted agreements with h0.
A feasible point of a disc or flip program scores every cell it pins at
least gamma away from 0 on its pinned side.  Moving w slightly off the
cells it scores 0 gives a strict labeling that costs no more and passes
the program's filter: its mistakes fit the level set's threshold (disc),
and the flip cell lies on the other side of h0 (flip).  So the cheapest
strict labeling that passes the filter bounds the program from below.

Few labelings are linear when d is small.  Take cells that span R^d.
Every strict linear labeling is realized arbitrarily close to a
hyperplane through d affinely independent cells, with those cells placed
on either side.  In R^{d+1} the closure of the labeling's region of the
cells' central arrangement is then a pointed cone, and each of its
extreme rays lies on the planes of d independent cells (Cover, IEEE
Trans. Electron. Comput. 1965; Johnson and Preparata, TCS 1978).
``labeling_bounds`` therefore takes, for every d-subset of independent
cells, the plane through them in both orientations.  Every cell on that
plane takes both sides.  This gives a superset of the strict linear
labelings: 2^(d+1) C(m, d) of them when no plane holds more than d cells.
The pass streams the subsets in chunks and keeps, for each program, the
CANDIDATES cheapest distinct labelings that pass the program's filter,
ties broken by their packed sides, however the subsets are chunked.  It
runs when d <= 3 and C(m, d) * m <= WORK_BUDGET.  It gives no bounds
when the cells do not span R^d, when some plane holds more than
MAX_ON_PLANE cells, or when the deadline passes before its last chunk.

Signs are decided in floating point with a rounding-error bound.  A cell
whose score v.x_c lies within the bound of 0 counts as on the plane.
A subset whose plane normal v lies within its bound of 0 is tested in
exact rational arithmetic, and dropped only when it is dependent.

``certify`` checks one program's candidates in cost order.  It proves a
lower bound and proposes a classifier; it certifies nothing, which is
left to branch-and-bound's gap rule.  A candidate is checked on a leaf of
the program: its LP with every indicator fixed to the candidate (u_c = 1
where the candidate leaves the cell's reference label).  The leaf keeps
the program's pinning, flip, level and l1 rows, and ``solve_lp_by_rows``
solves it with the dual simplex of every node LP, over a working set of
those rows that grows until the leaf's point meets them all, so a leaf
of many cells is one small tableau.  It decides as a node LP does:
a row is met within its tolerance, and a leaf is infeasible only when
its rows, each widened by that tolerance, cannot all be met.  An
infeasible leaf fails its candidate, and a leaf the simplex cannot
decide raises, as a node LP does.  The first feasible leaf's classifier
is proposed with the bound, which its candidate costs.
Only a pure cell that the candidate gets wrong is left unpinned, and the
leaf point may score it inside the margin band.  Then the same labeling's
leaf of the realizer, the disc program at epsilon = 1, which admits every
classifier and pins every cell, gives the proposal when it is feasible,
and otherwise the first later labeling of the same cost whose point
clears the margin; the point inside the band is proposed only when none
does.  The scan stops early once the bound reaches the cost of the
caller's warm start, and no leaf LP starts past the deadline.  A failed
check raises the bound:

* an exact program pins every cell by its two-sided rows or by the flip
  row: every disc program, and a flip program whose other cells are all
  mixed.  There every feasible point is a labeling that clears gamma, so
  a cost whose labelings all fail is excluded, and the scan goes on to
  the next cost;
* an error-minimizing program may keep a pure cell it gets wrong inside
  the margin band.  Such a point costs more than its own strict labeling,
  so failed labelings of a higher cost exclude nothing.  The cheapest
  cost b is different.  A point of cost b has a strict labeling of cost
  b, since none is cheaper, and that labeling leaves exactly the point's
  mistaken pure cells unpinned, so the point lies in its leaf.  So
  when every labeling of cost b fails, the bound becomes b + 1, the
  labelings of cost b + 1 are checked, and the scan stops.

The caller hands the bound to branch-and-bound as its hint, with the
proposed classifier's assignment as the warm start when the program
accepts it; a warm start that meets the bound certifies with 0 nodes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, count, islice, permutations, product
from typing import NamedTuple, Optional

import numpy as np

from .core import Dataset, InternalConsistencyError, LinearClassifier
from .formulations import build_disc_mip, classifier_from_solution, margin_clearance
from .simplex import solve_lp_by_rows

MAX_FEATURES = 3
WORK_BUDGET = 20_000_000  # C(m, d) * m of the largest pass
MAX_ON_PLANE = 12  # a plane holds at most this many cells, or the pass stops
CANDIDATES = 16  # labelings kept, and checked at most, per program
CHUNK_CELLS = 1 << 22  # labelings times cells per chunk, before deduplication


class Candidates(NamedTuple):
    """One program's cheapest distinct labelings that pass its filter, in
    order of cost (then of their packed sides).

    ``sides[i]`` is True where labeling i puts a cell on the +1 side, and
    ``costs[i]`` is the program's objective under it.  Every labeling of
    the superset that passes the filter and costs less than ``limit``
    (inf when nothing was cut off) is among them."""

    sides: np.ndarray
    costs: np.ndarray
    limit: float


class LabelingBounds(NamedTuple):
    """The pass's candidates for the flip program of every cell, in
    ``dataset.cells`` order, and for the disc program at every mistake
    threshold."""

    flips: tuple
    disc: tuple


class _NoBounds(Exception):
    """The cells do not span R^d, a plane holds more than MAX_ON_PLANE
    cells, or the deadline passed."""


def labeling_bounds(
    dataset: Dataset, base_side: np.ndarray, thresholds, budget=None
) -> Optional[LabelingBounds]:
    """Run the pass over the cells of ``dataset`` around h0, whose side on
    each cell is ``base_side``.  It keeps candidates for every flip program
    and for the disc program at each mistake threshold of ``thresholds``.
    Returns None where the pass does not apply, or when it stops between
    chunks because the ``budget`` (a ``SolveBudget``, or None) expired; the
    first chunk always runs."""
    cells = dataset.cells
    X, d = cells.X, dataset.d
    m = len(X)
    if d > MAX_FEATURES or m <= d or math.comb(m, d) * m > WORK_BUDGET:
        return None
    weights = cells.pos + cells.neg
    thresholds = np.asarray(thresholds, dtype=np.int64)
    # mistakes = pos total + sides . (neg - pos); agreements with h0 =
    # weight h0 puts on -1 + sides . (+-weight, + where h0 puts +1)
    offsets = int(cells.pos.sum()), int(weights[~base_side].sum())
    slopes = cells.neg - cells.pos, np.where(base_side, weights, -weights)
    flips = [_Store() for _ in range(m)]
    # A labeling enters the disc programs at the first threshold its
    # mistakes fit, its band, and every larger threshold only adds rivals:
    # one that is not among the cheapest of its band is among the cheapest
    # of no threshold.  So each band keeps its own cheapest, and each
    # threshold's candidates are those of its band and all bands below.
    bands = [_Store() for _ in thresholds]
    try:
        for sides in _labelings(X, d, budget):
            mistakes, agreements = (
                b + np.einsum("ij,j->i", sides, a) for b, a in zip(offsets, slopes)
            )
            band = np.searchsorted(thresholds, mistakes)
            band_limits = np.array([s.limit for s in bands] + [-math.inf])
            live = (mistakes <= max(s.limit for s in flips)) | (
                agreements <= band_limits[band]
            )
            if not live.any():
                continue
            _, first = np.unique(_keys(sides[live]), return_index=True)
            rows = np.flatnonzero(live)[first]
            sides, mistakes, agreements = sides[rows], mistakes[rows], agreements[rows]
            band = band[rows]
            flip_ok = (sides != base_side) & (
                mistakes[:, None] <= [s.limit for s in flips]
            )
            for f in np.flatnonzero(flip_ok.any(axis=0)):
                flips[f].offer(sides, mistakes, flip_ok[:, f])
            disc_ok = agreements <= band_limits[band]
            for b in sorted(set(band[disc_ok].tolist())):
                bands[b].offer(sides, agreements, disc_ok & (band == b))
    except _NoBounds:
        return None
    disc, below = [], _Store()
    for store in bands:
        if store.sides is not None:
            below.offer(store.sides, store.costs, store.costs <= below.limit)
            below.limit = min(below.limit, store.limit)
        disc.append(below.candidates())
    if any(c.sides is None for c in disc) or any(s.sides is None for s in flips):
        return None  # no labeling passes a filter: leave it to branch-and-bound
    return LabelingBounds(flips=tuple(s.candidates() for s in flips), disc=tuple(disc))


class _Store:
    """The cheapest distinct labelings offered so far, at most CANDIDATES,
    ties broken by packed sides, holding every offered labeling that costs
    less than ``limit``.  Callers offer every labeling that costs at most
    ``limit``, so the store ends the same in any order of offers."""

    def __init__(self):
        self.keys = self.sides = self.costs = None
        self.limit = math.inf

    def offer(self, sides, costs, rows) -> None:
        """Take the labelings ``sides[rows]``, distinct and each at most
        ``limit``: every one as cheap as the CANDIDATES-th cheapest, ties
        included."""
        rows = np.flatnonzero(rows)
        if not rows.size:
            return
        costs = costs[rows]
        if rows.size > CANDIDATES:
            kth = int(np.partition(costs, CANDIDATES - 1)[CANDIDATES - 1])
            rows, costs = rows[costs <= kth], costs[costs <= kth]
            self.limit = min(self.limit, kth)
        sides = sides[rows]
        keys = _keys(sides)
        if self.sides is not None:
            keys = np.concatenate([self.keys, keys])
            sides = np.concatenate([self.sides, sides])
            costs = np.concatenate([self.costs, costs])
        _, first = np.unique(keys, return_index=True)
        order = first[np.argsort(costs[first], kind="stable")][:CANDIDATES]
        if order.size == CANDIDATES:
            self.limit = min(self.limit, int(costs[order[-1]]))
        self.keys, self.sides, self.costs = keys[order], sides[order], costs[order]

    def candidates(self) -> Candidates:
        return Candidates(self.sides, self.costs, self.limit)


def _keys(sides: np.ndarray) -> np.ndarray:
    """One opaque, sortable key per row of ``sides``: its packed bits."""
    packed = np.ascontiguousarray(np.packbits(sides, axis=1))
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def _labelings(X: np.ndarray, d: int, budget=None):
    """The superset, in chunks: a boolean array per chunk, True where a
    labeling puts a cell on the +1 side.  A chunk may repeat a labeling.
    Once the ``budget`` (a ``SolveBudget``, or None) has expired, it raises
    ``_NoBounds`` instead of building any chunk after the first.

    The cells span R^d exactly when some cell lies off the plane of some d
    independent cells.  A score outside its rounding-error bound proves
    both, so a pass that finds none raises ``_NoBounds`` at its end."""
    m = len(X)
    spans = False
    subsets = combinations(range(m), d)
    per_chunk = max(1, (CHUNK_CELLS >> (d + 1)) // m)
    norms = np.abs(X).sum(axis=1)
    for k in count():
        chunk = np.array(list(islice(subsets, per_chunk)), dtype=np.int64)
        if not chunk.size:
            if not spans:
                raise _NoBounds
            return
        if k and budget is not None and budget.expired():
            raise _NoBounds
        normal = _normals(X[chunk])
        # |computed - exact| <= _rounding(d) * the product of the rows'
        # l1 norms, for a normal's coordinates and for a cell's score
        scale = _rounding(d) * norms[chunk].prod(axis=1)
        undecided = np.flatnonzero((np.abs(normal) <= scale[:, None]).all(axis=1))
        dependent = [i for i in undecided if _dependent(X[chunk[i]])]
        if dependent:
            normal, scale = np.delete(normal, dependent, 0), np.delete(scale, dependent)
        scores = normal @ X.T
        signs = np.where(np.abs(scores) > scale[:, None] * norms, np.sign(scores), 0)
        spans = spans or bool(signs.any())
        if signs.size:
            yield _expand(signs.astype(np.int8)) > 0


def _normals(M: np.ndarray) -> np.ndarray:
    """The normal of the plane through the d rows of each (d, d+1) block
    of ``M``: v_j = (-1)^j times the minor without column j, so that v.x
    is the determinant of x stacked on the block (Leibniz formula).  In
    ``M``'s dtype, so an object array of ``Fraction`` gives exact normals."""
    d = M.shape[1]
    normal = np.zeros((len(M), d + 1), dtype=M.dtype)
    for j in range(d + 1):
        minor = np.delete(M, j, axis=2)
        for sign, perm in _leibniz(d):
            term = (-1) ** j * sign
            for i, k in enumerate(perm):
                term = term * minor[:, i, k]
            normal[:, j] += term
    return normal


def _leibniz(d: int):
    """(sign, permutation) of every term of a d x d determinant."""
    out = []
    for perm in permutations(range(d)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        out.append((-1 if inversions % 2 else 1, perm))
    return out


def _rounding(d: int) -> float:
    """gamma_K = K u / (1 - K u) for K = (d+1)! + 2(d+1) roundings, more
    than any term of a (d+1)-order Leibniz sum passes through."""
    k = math.factorial(d + 1) + 2 * (d + 1)
    u = 2.0**-53
    return k * u / (1 - k * u)


def _dependent(rows: np.ndarray) -> bool:
    """Whether the rows are linearly dependent, in exact arithmetic."""
    exact = np.array([[[Fraction(v) for v in row] for row in rows]], dtype=object)
    return not _normals(exact).any()


def _expand(signs: np.ndarray) -> np.ndarray:
    """Every labeling that agrees with a row of ``signs`` where it is
    nonzero, in both orientations: a row with z zeros gives 2^(z+1)."""
    rows = []
    zeros = signs == 0
    counts = zeros.sum(axis=1)
    for z in sorted(set(counts.tolist())):
        if z > MAX_ON_PLANE:
            raise _NoBounds
        block = signs[counts == z]
        where = np.nonzero(zeros[counts == z])[1].reshape(len(block), z)
        patterns = np.array(list(product((-1, 1), repeat=z)), dtype=np.int8)
        out = np.repeat(block, len(patterns), axis=0)
        at = np.repeat(where, len(patterns), axis=0)
        np.put_along_axis(out, at, np.tile(patterns, (len(block), 1)), axis=1)
        rows.append(out)
    out = np.concatenate(rows)
    return np.concatenate([out, -out])


# -- certification ---------------------------------------------------------


def certify(model, bank, candidates: Candidates, at_warm=None, budget=None):
    """Check ``candidates``, the pass's labelings of ``model``, in cost
    order on leaves of ``model`` until the bound reaches ``at_warm``, the
    cost of the caller's warm start (None without one).  ``bank`` is the
    audit's ``ClassifierBank``: its training set, h0 and margin, from which
    the realizer is built when a leaf point falls in the band.  No leaf LP
    starts once the ``budget`` (a ``SolveBudget``, or None) has expired.

    Returns (the proven lower bound on the program's objective, the
    classifier of a feasible leaf whose candidate costs the bound, or
    None), preferring one that clears the margin (see the module's
    docstring)."""
    exact = model.metadata["pinned"].all()
    costs = candidates.costs.tolist()
    bound, banded = costs[0], None
    for i, cost in enumerate(costs):
        if cost > bound or (at_warm is not None and at_warm <= bound):
            break
        if budget is not None and budget.expired():
            break
        sides = candidates.sides[i]
        found = _leaf(model, sides)
        if found is not None and not margin_clearance(found, bank.dataset, bank.gamma)[1]:
            # only mistaken pure cells lie in the band, so the point costs
            # more than the cheapest cost, which no bound rule below skips
            banded = found if banded is None else banded
            found = _leaf(build_disc_mip(bank.dataset, bank.h0, 1, bank.gamma), sides)
        if found is not None:
            return bound, found
        if (i + 1 < len(costs) and costs[i + 1] == cost) or cost >= candidates.limit:
            continue  # the cost still has labelings to check, or unseen ones
        # Every labeling that costs ``cost`` failed its check.
        if exact:
            bound = costs[i + 1] if i + 1 < len(costs) else cost + 1
        elif cost == costs[0]:
            bound = cost + 1
    return bound, banded


def _leaf(model, sides) -> Optional[LinearClassifier]:
    """The classifier of an optimal point of ``model``'s LP with every
    indicator fixed to the labeling ``sides`` (u_c = 1 where it leaves the
    cell's reference label), solved over a working set of its rows, or
    None when that leaf is infeasible.  A leaf that the simplex cannot
    decide raises, as a node LP does in branch-and-bound."""
    indicators = sides != (model.metadata["reference"] > 0)
    sol = solve_lp_by_rows(model.lp, dict(enumerate(indicators.astype(float))))
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":
        raise InternalConsistencyError(f"labeling leaf LP ended with {sol.status}")
    return classifier_from_solution(model, sol.values)
