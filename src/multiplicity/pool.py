"""Penalized-logistic-regression pool: the cheap multiplicity comparator.

Fits a grid of elastic-net logistic models by proximal Newton (glmnet's
IRLS with coordinate descent inside; Friedman, Hastie & Tibshirani 2010),
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
MAX_ITER = 100  # Newton steps per fit, and coordinate sweeps per step
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


def _objective(X, targets, weights, n_total, ridge, l1, w):
    """Penalized weighted logistic loss of each row of ``w``."""
    scores, beta = w @ X.T, w[:, 1:]
    loss = np.einsum("kn,kn->k", weights, np.logaddexp(0.0, scores) - targets * scores)
    return loss / n_total + 0.5 * ridge * (beta**2).sum(1) + l1 * np.abs(beta).sum(1)


def _cd_fit(X, targets, weights, ridge, l1, w_init):
    """Batched proximal Newton on k weighted elastic-net logistic losses.

    Fit i has example weights ``weights[i]`` (k x n), start ``w_init[i]``
    (k x p) and penalties ``ridge[i]`` and ``l1[i]``.  Each Newton step
    eliminates the unpenalized intercept (column 0), which is strongly
    correlated with binary features, from the quadratic model by its Schur
    complement; coordinate descent with covariance updates minimizes the
    rest, and the intercept step follows in closed form.  The step is halved
    until the penalized objective does not rise or it moves no coordinate by
    ``CD_TOL``; in the latter case the fit has converged and leaves the
    batch.  Returns (coefficients, converged), one row per fit.
    """
    w = w_init.copy()
    converged = np.zeros(len(w), dtype=bool)
    live = np.arange(len(w))
    n_total = weights.sum(axis=1)
    for _ in range(MAX_ITER):
        wl, wt, nt, lam2, lam1 = (a[live] for a in (w, weights, n_total, ridge, l1))
        mu = _sigmoid(wl @ X.T)
        grad = (wt * (mu - targets)) @ X / nt[:, None]
        hess = np.einsum("kn,ni,nj->kij", wt * mu * (1.0 - mu) / nt[:, None], X, X)
        h00, h0r = hess[:, 0, 0], hess[:, 0, 1:]
        red_hess = hess[:, 1:, 1:] - h0r[:, :, None] * h0r[:, None, :] / h00[:, None, None]
        red_grad = grad[:, 1:] - h0r * (grad[:, :1] / h00[:, None])  # tracks beta
        diag = np.einsum("kjj->kj", red_hess) + lam2[:, None]
        diag[diag <= 0.0] = np.inf  # no curvature and no ridge: inert
        beta = wl[:, 1:].copy()
        for _ in range(MAX_ITER):
            before = beta.copy()
            for j in range(beta.shape[1]):
                raw = beta[:, j] - (red_grad[:, j] + lam2 * beta[:, j]) / diag[:, j]
                new = np.copysign(np.maximum(np.abs(raw) - lam1 / diag[:, j], 0.0), raw)
                red_grad += red_hess[:, :, j] * (new - beta[:, j])[:, None]
                beta[:, j] = new
            if np.abs(beta - before).max(initial=0.0) < CD_TOL:
                break
        beta -= wl[:, 1:]
        step = np.column_stack([-(grad[:, 0] + np.einsum("kj,kj->k", h0r, beta)) / h00, beta])
        args = (X, targets, wt, nt, lam2, lam1)
        start, reach, size = _objective(*args, wl), np.abs(step).max(1), np.ones(len(live))
        while True:
            rise = _objective(*args, wl + size[:, None] * step) > start
            rise &= size * reach >= CD_TOL  # a shorter step ends the fit anyway
            if not rise.any():
                break
            size[rise] *= 0.5
        w[live] = wl + size[:, None] * step
        done = size * reach < CD_TOL
        converged[live[done]] = True
        live = live[~done]
        if not len(live):
            break
    return w, converged


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

    One proximal-Newton batch walks every path from lambda_max down,
    warm-started along it.  Per alpha its rows are the full data, then each
    usable fold (held-out part nonempty, training part with both classes)
    as the full weights with that fold zeroed.  A model is converged when
    all of these fits are.  Deterministic for a fixed seed: fold
    assignment, path order and the fit have no randomness.
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
                    converged=bool(converged[li][a * n_rows : (a + 1) * n_rows].all()),
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
