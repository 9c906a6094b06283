"""Penalized-logistic-regression pool: the cheap multiplicity comparator.

Fits a grid of elastic-net logistic models by proximal Newton (glmnet's
IRLS, Friedman, Hastie & Tibshirani 2010; each quadratic subproblem solved
exactly on its warm support, coordinate descent where the support changes)
over the distinct feature cells.  The lambda path is walked in blocks of
``LAMBDA_BLOCK`` lambdas: one batch fits every (lambda in block, alpha,
fold) problem, where a cross-validation fold is the full data with that
fold's weights set to zero.  Picks a baseline by 5-fold cross-validated
error, scored on the rows, and reads ambiguity and discrepancy off the pool.
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

from .core import Dataset, LinearClassifier, RiskReport, SingleClassError
from .profiles import EpsilonGrid, MeasureValue, MultiplicityProfile, ProfileEntry

CD_TOL = 1e-7
MAX_ITER = 100  # Newton steps per fit, and coordinate sweeps per step
# glmnet-style guard: a pure ridge path has no finite zeroing lambda, so the
# lambda_max formula substitutes a small floor for alpha.
ALPHA_FLOOR = 1e-3
N_FOLDS = 5
LAMBDA_BLOCK = 10  # consecutive lambdas of every path fitted in one batch


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


def _objective(X, pos, weights, n_total, ridge, l1, w):
    """Penalized weighted logistic loss of each row of ``w``: per cell, its
    total weight times logaddexp(0, score) less its positive weight times
    the score."""
    scores, beta = w @ X.T, w[:, 1:]
    loss = np.einsum("kc,kc->k", weights, np.logaddexp(0.0, scores))
    loss -= np.einsum("kc,kc->k", pos, scores)
    return loss / n_total + 0.5 * ridge * (beta**2).sum(1) + l1 * np.abs(beta).sum(1)


def _cd_sweep(beta, red_grad, red_hess, diag, ridge, l1):
    """One coordinate-descent sweep over each row of ``beta``, in place, that
    keeps ``red_grad`` (the gradient before ridge) current.  Returns the largest move."""
    before = beta.copy()
    for j in range(beta.shape[1]):
        raw = beta[:, j] - (red_grad[:, j] + ridge * beta[:, j]) / diag[:, j]
        new = np.copysign(np.maximum(np.abs(raw) - l1 / diag[:, j], 0.0), raw)
        red_grad += red_hess[:, :, j] * (new - beta[:, j])[:, None]
        beta[:, j] = new
    return np.abs(beta - before).max(initial=0.0)


def _support_solve(system, rhs, l1, beta, inert):
    """Minimize each quadratic model, of gradient ``system @ b - rhs`` plus
    the l1 term, on the support S of ``beta`` (inert coordinates excluded)
    with its signs s: system_SS b_S = rhs_S - l1*s_S, and b = 0 off S.
    Returns the solutions and which are minimizers: signs on S kept,
    |gradient| <= l1 off S, and finite."""
    sign = np.sign(beta)
    on = (sign != 0.0) & ~inert
    matrix = np.where(on[:, :, None] & on[:, None, :], system, np.eye(beta.shape[1]))
    try:
        trial = np.linalg.solve(matrix, np.where(on, rhs - l1[:, None] * sign, 0.0)[..., None])
    except np.linalg.LinAlgError:
        return beta, np.zeros(len(beta), dtype=bool)
    grad, trial = (system @ trial)[..., 0] - rhs, trial[..., 0]
    kept = np.where(on, np.sign(trial) == sign, np.abs(grad) <= l1[:, None])
    return trial, kept.all(1) & np.isfinite(trial).all(1)


def _cd_fit(X, pos, neg, ridge, l1, w_init):
    """Batched proximal Newton on k weighted elastic-net logistic losses.

    ``X`` holds the distinct feature cells.  Fit i gives cell c the
    positive weight ``pos[i, c]`` and the negative weight ``neg[i, c]``
    (both k x cells), and has start ``w_init[i]`` (k x p) and penalties
    ``ridge[i]`` and ``l1[i]``; its loss is the sum over cells of
    (pos + neg) * logaddexp(0, s) - pos * s at score s.  Each Newton step
    eliminates the unpenalized intercept (column 0), which is strongly
    correlated with binary features, from the quadratic model by its Schur
    complement and solves the rest exactly on the current support (Lee, Sun
    & Saunders 2014); a fit whose solution leaves that support runs one
    coordinate-descent sweep and tries again, until a sweep moves no
    coordinate by ``CD_TOL``.  The intercept step follows in closed form.
    The step is halved until the penalized objective does not rise or it
    moves no coordinate by ``CD_TOL``; then the fit has converged and
    leaves the batch.  Returns (coefficients, converged), one row per fit.
    """
    w = w_init.copy()
    converged = np.zeros(len(w), dtype=bool)
    live = np.arange(len(w))
    weights = pos + neg
    n_total = weights.sum(axis=1)
    p = X.shape[1]
    outer = (X[:, :, None] * X[:, None, :]).reshape(len(X), p * p)  # Hessian by one matmul
    value = _objective(X, pos, weights, n_total, ridge, l1, w)
    for _ in range(MAX_ITER):
        wl, wp, wt, nt, lam2, lam1 = (a[live] for a in (w, pos, weights, n_total, ridge, l1))
        mu = _sigmoid(wl @ X.T)
        grad = (wt * mu - wp) @ X / nt[:, None]
        hess = ((wt * mu * (1.0 - mu) / nt[:, None]) @ outer).reshape(-1, p, p)
        h00, h0r = hess[:, 0, 0], hess[:, 0, 1:]
        red_hess = hess[:, 1:, 1:] - h0r[:, :, None] * h0r[:, None, :] / h00[:, None, None]
        red_grad = grad[:, 1:] - h0r * (grad[:, :1] / h00[:, None])  # tracks beta
        system = red_hess + lam2[:, None, None] * np.eye(p - 1)
        inert = np.einsum("kjj->kj", system) <= 0.0  # no curvature and no ridge
        diag = np.where(inert, np.inf, np.einsum("kjj->kj", system))
        beta = wl[:, 1:].copy()
        rhs = (red_hess @ beta[..., None])[..., 0] - red_grad
        for _ in range(MAX_ITER):
            trial, ok = _support_solve(system, rhs, lam1, beta, inert)
            beta[ok] = trial[ok]
            diag[ok] = np.inf  # a solved fit sits the sweeps out
            if ok.all() or _cd_sweep(beta, red_grad, red_hess, diag, lam2, lam1) < CD_TOL:
                break
        beta -= wl[:, 1:]
        step = np.column_stack([-(grad[:, 0] + np.einsum("kj,kj->k", h0r, beta)) / h00, beta])
        args = (X, wp, wt, nt, lam2, lam1)
        start, reach, size = value[live], np.abs(step).max(1), np.ones(len(live))
        while True:
            trial_value = _objective(*args, wl + size[:, None] * step)
            # a step shorter than CD_TOL ends the fit anyway
            rise = (trial_value > start) & (size * reach >= CD_TOL)
            if not rise.any():
                break
            size[rise] *= 0.5
        w[live] = wl + size[:, None] * step
        value[live] = trial_value
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
    folds[order] = np.arange(n_examples) % N_FOLDS
    return folds


def fit_pool(
    dataset: Dataset, grid: Optional[PenaltyGrid] = None, seed: int = 0
) -> list:
    """Fit the (alpha, lambda) grid and cross-validate every model.

    Per alpha the fits are the full data, then each usable fold (held-out
    part nonempty, training part with both classes) as the full weights
    with that fold zeroed, each as per-cell positive and negative weights.
    Every path runs from lambda_max down in blocks of ``LAMBDA_BLOCK``
    consecutive lambdas (the last block may be shorter): one
    proximal-Newton batch fits the block's (lambda, alpha, fold) problems,
    lambda-major, each warm-started from its path's solution at the last
    lambda of the previous block (the null model for the first block).  A
    model is converged when all of its fits are.  The lambdas, the
    held-out and the training mistakes are computed on the rows.
    Deterministic for a fixed seed: fold assignment, path order and the fit
    have no randomness.
    """
    grid = grid or PenaltyGrid()
    X, y, cells, n = dataset.X, dataset.y, dataset.cells, dataset.n
    targets = (y + 1) / 2.0
    weights = dataset.weights.astype(float)
    folds = _fold_assignment(len(y), seed)
    held = [folds == f for f in range(N_FOLDS)]
    held = np.array(
        [np.zeros(len(y), dtype=bool)]
        + [h for h in held if h.any() and len(set(y[~h])) == 2]
    )
    lambdas = np.array(
        [grid.lambda_path(_lambda_max(X, targets, weights, a)) for a in grid.alphas]
    )
    n_alphas, n_lambdas = lambdas.shape
    fit_weights = weights * ~held
    w = np.zeros((len(held), X.shape[1]))
    w[:, 0] = [_null_intercept(targets, row) for row in fit_weights]
    w = np.tile(w, (n_alphas, 1))
    # per-cell positive and negative weights of each fold's fit
    pos, neg = (
        np.array([np.bincount(cells.index, row, len(cells.X)) for row in fit_weights * side])
        for side in (y > 0, y < 0)
    )
    alphas = np.repeat(grid.alphas, len(held))
    coefs = np.empty((n_lambdas, len(w), X.shape[1]))
    converged = np.empty((n_lambdas, len(w)), dtype=bool)
    for first in range(0, n_lambdas, LAMBDA_BLOCK):
        block = slice(first, first + LAMBDA_BLOCK)
        lam = np.repeat(lambdas[:, block].T, len(held), axis=1)  # lambda x fit
        size = len(lam)
        fit, done = _cd_fit(
            cells.X, np.tile(pos, (size * n_alphas, 1)), np.tile(neg, (size * n_alphas, 1)),
            (lam * (1.0 - alphas)).ravel(), (lam * alphas).ravel(), np.tile(w, (size, 1)),
        )
        coefs[block] = fit.reshape(size, *w.shape)
        converged[block] = done.reshape(size, len(w))
        w = coefs[block][-1]
    coefs = coefs.reshape(n_lambdas, n_alphas, len(held), -1)
    errors = np.zeros((n_lambdas, n_alphas))
    for r, rows in enumerate(held[1:], 1):  # the full-data fits hold nothing out
        wrong = (coefs[:, :, r] @ X[rows].T > 0.0) != (y[rows] > 0)
        errors += wrong @ weights[rows]
    total = float((weights * held).sum())
    cv_risks = (errors / total if total else np.full_like(errors, math.inf)).T.ravel()
    done = converged.reshape(coefs.shape[:3]).all(2).T.ravel()
    # models run alpha-major; each is the full-data fit of its alpha
    raw = coefs[:, :, 0].transpose(1, 0, 2).reshape(-1, X.shape[1])
    # l1 norms summed column by column, in coefficient order, so each one is
    # bit-identical to LinearClassifier.from_raw's; zero rows stay as they are
    norms = np.abs(raw[:, 0])
    for column in raw[:, 1:].T:
        norms = norms + np.abs(column)
    units = raw / np.where(norms == 0.0, 1.0, norms)[:, None]
    classifiers = [LinearClassifier(tuple(u)) for u in units.tolist()]
    mistakes = ((units @ X.T > 0.0) != (y > 0)) @ dataset.weights
    alpha_of = np.repeat(grid.alphas, n_lambdas)
    return [
        PoolModel(
            classifier=clf, raw_coefficients=tuple(w.tolist()), alpha=float(alpha),
            lam=float(lam), train_risk=RiskReport(mistakes=int(k), n=n),
            cv_risk=float(cv), converged=bool(ok),
        )
        for clf, w, alpha, lam, k, cv, ok in zip(
            classifiers, raw, alpha_of, lambdas.ravel(), mistakes, cv_risks, done
        )
    ]


def pool_baseline_index(models: Sequence[PoolModel]) -> int:
    """Minimum 5-fold CV error; ties go to larger lambda, then larger alpha."""
    return min(
        range(len(models)),
        key=lambda i: (models[i].cv_risk, -models[i].lam, -models[i].alpha, i),
    )


def adhoc_measures(
    models: Sequence[PoolModel], dataset: Dataset, grid: EpsilonGrid
) -> MultiplicityProfile:
    """Pool-based ambiguity and discrepancy around the pool's CV baseline.

    Level sets use exact mistake counts, so each is a prefix of the models
    sorted by them: ambiguity is the weight of a prefix OR of conflicts with
    the baseline, discrepancy a prefix max of conflict weights.  Every entry
    is marked uncertified: with only a pool in hand these are lower-bound
    estimates of the exact measures, not bracketing intervals.
    """
    if not models:
        raise ValueError("pool must be nonempty")
    base_idx = pool_baseline_index(models)
    base = models[base_idx]
    n = dataset.n
    if grid.n != n:
        raise ValueError("grid denominator does not match dataset weight")

    units = np.array([m.classifier.coefficients for m in models])
    positive = units @ dataset.X.T > 0.0  # the tie rule of ``predictions``
    mistakes = np.array([m.train_risk.mistakes for m in models])
    order = np.argsort(mistakes, kind="stable")
    conflicts = (positive != positive[base_idx])[order]
    ambiguity = np.logical_or.accumulate(conflicts) @ dataset.weights
    discrepancy = np.maximum.accumulate(conflicts @ dataset.weights)
    # the baseline is in every level set, so no prefix is empty
    budgets = grid.thresholds(base.train_risk.mistakes)
    ends = np.searchsorted(mistakes[order], budgets, side="right") - 1

    def uncertified(counts):
        values = (Fraction(int(c), n) for c in counts[ends])
        return [MeasureValue(v, v, certified=False) for v in values]

    measures = zip(grid.values, uncertified(discrepancy), uncertified(ambiguity))
    entries = tuple(ProfileEntry(*m) for m in measures)
    return MultiplicityProfile(baseline=base.train_risk, entries=entries, witnesses={})
