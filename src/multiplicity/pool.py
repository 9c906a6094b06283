"""Penalized-logistic-regression pool: the cheap multiplicity comparator.

Fits a grid of elastic-net logistic models by cyclic coordinate descent,
every (alpha, fold) path in one batch where a cross-validation fold is the
full data with that fold's weights set to zero.  Picks a baseline by 5-fold
cross-validated error and reads ambiguity and discrepancy off the pool.
Pool estimates are lower bounds by construction (the pool is a subset of
the level set), so every emitted value is marked uncertified.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import (
    Dataset,
    LinearClassifier,
    RiskReport,
    SingleClassError,
    empirical_risk,
    predictions,
)
from .profiles import EpsilonGrid, MeasureValue, MultiplicityProfile, ProfileEntry

CD_TOL = 1e-7
CD_MAX_SWEEPS = 10_000
# glmnet-style guard: a pure ridge path has no finite zeroing lambda, so the
# lambda_max formula substitutes a small floor for alpha.
ALPHA_FLOOR = 1e-3
N_FOLDS = 5


@dataclass(frozen=True)
class PenaltyGrid:
    """Elastic-net mixing values and a geometric lambda path per value."""

    alphas: tuple = tuple(round(0.1 * k, 1) for k in range(11))
    lambdas_per_alpha: int = 100
    lambda_min_ratio: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if any(a < 0 or a > 1 for a in self.alphas):
            raise ValueError("alpha values must lie in [0, 1]")
        if self.lambdas_per_alpha < 1:
            raise ValueError("need at least one lambda per alpha")

    @property
    def size(self) -> int:
        return len(self.alphas) * self.lambdas_per_alpha

    def lambda_path(self, lambda_max: float) -> np.ndarray:
        if self.lambdas_per_alpha == 1:
            return np.array([lambda_max])
        return lambda_max * np.power(
            self.lambda_min_ratio,
            np.arange(self.lambdas_per_alpha) / (self.lambdas_per_alpha - 1),
        )


@dataclass(frozen=True)
class PoolModel:
    classifier: LinearClassifier
    raw_coefficients: tuple
    alpha: float
    lam: float
    train_risk: RiskReport
    cv_risk: float
    converged: bool


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


def _cd_fit(X, targets, weights, ridge, l1, w_init):
    """Cyclic coordinate descent on k weighted elastic-net logistic losses.

    Fit i has example weights ``weights[i]`` (k x n), start ``w_init[i]``
    (k x p) and penalties ``ridge[i]`` and ``l1[i]``.  Each coordinate step
    minimizes the quadratic majorizer built from the 0.25 curvature bound of
    the logistic loss, with soft-thresholding for the l1 part; the intercept
    (column 0) takes the same step with no penalty.  A fit leaves the batch
    after the sweep in which it converged, so it makes the same updates it
    would make alone.  Returns (coefficients, converged), one row per fit.
    """
    w, w_out = w_init.copy(), w_init.copy()
    converged = np.zeros(len(w), dtype=bool)
    live = np.arange(len(w))
    scores = w @ X.T
    n_total = weights.sum(axis=1)
    curv = 0.25 * (weights @ (X * X)) / n_total[:, None]
    for _ in range(CD_MAX_SWEEPS):
        max_delta = np.zeros(len(live))
        for j in range(X.shape[1]):
            lam2, lam1 = (ridge, l1) if j else (0.0, 0.0)
            h = curv[:, j] + lam2
            moves = h > 0.0  # all-zero column with no ridge: coefficient inert
            h = np.where(moves, h, 1.0)
            mu = _sigmoid(scores)
            grad = np.einsum("kn,kn->k", weights, (mu - targets) * X[:, j]) / n_total
            raw = w[:, j] - (grad + lam2 * w[:, j]) / h
            new = np.copysign(np.maximum(np.abs(raw) - lam1 / h, 0.0), raw)
            delta = np.where(moves, new - w[:, j], 0.0)
            scores += delta[:, None] * X[:, j]
            w[:, j] = np.where(moves, new, w[:, j])
            max_delta = np.maximum(max_delta, np.abs(delta))
        done = max_delta < CD_TOL
        w_out[live[done]] = w[done]
        converged[live[done]] = True
        live, w, scores, weights, n_total, curv, ridge, l1 = (
            a[~done] for a in (live, w, scores, weights, n_total, curv, ridge, l1)
        )
        if not len(live):
            break
    w_out[live] = w
    return w_out, converged


def _null_intercept(targets, weights) -> float:
    p = float(weights @ targets) / weights.sum()
    if p <= 0.0 or p >= 1.0:
        raise SingleClassError("pool fitting needs both classes present")
    return math.log(p / (1.0 - p))


def _lambda_max(X, targets, weights, alpha) -> float:
    """Smallest lambda that zeroes every non-intercept coefficient.

    A hair of relative headroom keeps the head-of-path coefficients exactly
    zero despite the round trip through division by alpha.
    """
    n_total = weights.sum()
    w0 = _null_intercept(targets, weights)
    mu = _sigmoid(np.full(X.shape[0], w0))
    grads = np.abs(weights * (mu - targets) @ X[:, 1:]) / n_total
    top = float(grads.max()) if grads.size else 1.0
    return max(top, 1e-12) * (1.0 + 1e-10) / max(alpha, ALPHA_FLOOR)


def _fold_assignment(n_examples: int, seed: int) -> np.ndarray:
    order = list(range(n_examples))
    random.Random(seed).shuffle(order)
    folds = np.empty(n_examples, dtype=int)
    for pos, idx in enumerate(order):
        folds[idx] = pos % N_FOLDS
    return folds


def fit_pool(
    dataset: Dataset, grid: Optional[PenaltyGrid] = None, seed: int = 0
) -> list:
    """Fit the (alpha, lambda) grid and cross-validate every model.

    One coordinate-descent batch walks every path from lambda_max down,
    warm-started along it.  Per alpha its rows are the full data, then each
    usable fold (held-out part nonempty, training part with both classes)
    as the full weights with that fold zeroed.  Deterministic for a fixed
    seed: fold assignment, path order and the sweeps have no randomness.
    """
    grid = grid or PenaltyGrid()
    X, y = dataset.X, dataset.y
    targets = (y + 1) / 2.0
    weights = dataset.weights.astype(float)
    folds = _fold_assignment(len(y), seed)
    held = [folds == f for f in range(N_FOLDS)]
    held = np.array(
        [np.zeros(len(y), dtype=bool)]
        + [h for h in held if h.any() and len(set(y[~h])) == 2]
    )
    n_rows = len(held)
    lambdas = np.array(
        [grid.lambda_path(_lambda_max(X, targets, weights, a)) for a in grid.alphas]
    )
    lam_rows = np.repeat(lambdas, n_rows, axis=0)
    alphas = np.repeat(grid.alphas, n_rows)
    fit_weights = np.tile(weights * ~held, (len(grid.alphas), 1))
    w = np.zeros((len(fit_weights), X.shape[1]))
    w[:, 0] = [_null_intercept(targets, row) for row in fit_weights]
    coefs, converged, wrong = [], [], []
    for lam in lam_rows.T:
        w, done = _cd_fit(X, targets, fit_weights, lam * (1.0 - alphas), lam * alphas, w)
        coefs.append(w)
        converged.append(done)
        wrong.append((w @ X.T > 0.0) != (y > 0))
    wrong = np.array(wrong).reshape(len(wrong), len(grid.alphas), n_rows, -1)
    errors = np.einsum("larn,rn->la", wrong, weights * held)
    total = float((weights * held).sum())

    models = []
    for a, alpha in enumerate(grid.alphas):
        for li, lam in enumerate(lambdas[a]):
            w = coefs[li][a * n_rows]
            clf = LinearClassifier.from_raw(w)
            models.append(
                PoolModel(
                    classifier=clf,
                    raw_coefficients=tuple(float(v) for v in w),
                    alpha=float(alpha),
                    lam=float(lam),
                    train_risk=empirical_risk(clf, dataset),
                    cv_risk=float(errors[li, a]) / total if total else math.inf,
                    converged=bool(converged[li][a * n_rows]),
                )
            )
    return models


def pool_baseline_index(models: Sequence[PoolModel]) -> int:
    """Minimum 5-fold CV error; ties go to larger lambda, then larger alpha."""
    best = min(
        range(len(models)),
        key=lambda i: (models[i].cv_risk, -models[i].lam, -models[i].alpha, i),
    )
    return best


def adhoc_measures(
    models: Sequence[PoolModel], dataset: Dataset, grid: EpsilonGrid
) -> MultiplicityProfile:
    """Pool-based ambiguity and discrepancy around the pool's CV baseline.

    Level-set membership uses exact mistake counts.  Every entry is marked
    uncertified: with only a pool in hand these are lower-bound estimates of
    the exact measures, not bracketing intervals.
    """
    if not models:
        raise ValueError("pool must be nonempty")
    base_idx = pool_baseline_index(models)
    base = models[base_idx]
    base_preds = predictions(base.classifier, dataset)
    n = dataset.n
    if grid.n != n:
        raise ValueError("grid denominator does not match dataset weight")

    pred_matrix = np.stack([predictions(m.classifier, dataset) for m in models])
    entries = []
    for eps, threshold in zip(grid.values, grid.thresholds(base.train_risk.mistakes)):
        in_set = [
            k for k, m in enumerate(models) if m.train_risk.mistakes <= threshold
        ]
        conflicts = pred_matrix[in_set] != base_preds[None, :]
        flipped_any = conflicts.any(axis=0)
        ambiguity = Fraction(int(dataset.weights[flipped_any].sum()), n)
        discrepancy = Fraction(
            max(int(dataset.weights[row].sum()) for row in conflicts), n
        )
        entries.append(
            ProfileEntry(
                epsilon=eps,
                discrepancy=MeasureValue(discrepancy, discrepancy, certified=False),
                ambiguity=MeasureValue(ambiguity, ambiguity, certified=False),
            )
        )
    return MultiplicityProfile(
        baseline=base.train_risk, entries=tuple(entries), witnesses={}
    )
