"""Penalized-logistic-regression pool: the cheap multiplicity comparator.

Fits a grid of elastic-net logistic models by proximal Newton (glmnet's
IRLS, Friedman, Hastie & Tibshirani 2010; each quadratic subproblem solved
exactly on its warm support, coordinate descent where the support changes
or the system there is singular) over the distinct feature cells.  The
Newton kernel runs with the batch of fits on the last, contiguous axis of
every array, and solves the support systems by elimination without
pivoting, so one singular system fails only its own fit.  The lambda
path is walked in blocks of ``LAMBDA_BLOCK`` lambdas: one batch fits every
(lambda in block, alpha, fold) problem, where a cross-validation fold is
the full data with that fold's weights set to zero.  Picks a baseline by
5-fold cross-validated error and reads ambiguity and discrepancy off the
pool, every count scored on the cells with their weights.
The fitted pool is one ``Pool`` table of per-model arrays, from the fit
through the measures to ``pool.json``; a ``PoolModel`` row is built only
when someone reads one.
Pool estimates are lower bounds by construction (the pool is a subset of
the level set), so every emitted value is marked uncertified.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import L1_TOL, Dataset, LinearClassifier, RiskReport, SingleClassError
from .profiles import EpsilonGrid, Measures, MultiplicityProfile

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
        if not all(0.0 <= a <= 1.0 for a in self.alphas):
            raise ValueError("alpha values must lie in [0, 1]")
        if self.lambdas_per_alpha < 1:
            raise ValueError("need at least one lambda per alpha")
        # NaN fails both comparisons; a ratio above 1 would make the path rise
        if not 0.0 < self.lambda_min_ratio <= 1.0:
            raise ValueError(
                f"lambda_min_ratio must lie in (0, 1], got {self.lambda_min_ratio!r}"
            )

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
    """One model of a ``Pool``, as objects."""

    classifier: LinearClassifier
    raw_coefficients: tuple
    alpha: float
    lam: float
    train_risk: RiskReport
    cv_risk: float
    converged: bool


def _l1_norms(rows: np.ndarray) -> np.ndarray:
    """The l1 norm of each row, summed column by column in coefficient
    order, so each one is bit-identical to ``LinearClassifier``'s."""
    norms = np.zeros(len(rows))
    for column in rows.T:
        norms = norms + np.abs(column)
    return norms


# Pool's per-model columns and their dtypes.
_COLUMNS = {
    "alphas": float,
    "lambdas": float,
    "coefficients": float,
    "raw_coefficients": float,
    "mistakes": np.int64,
    "cv_risks": float,
    "converged": bool,
}


@dataclass(frozen=True, eq=False)
class Pool(Sequence):
    """A fitted pool as one table: row i of every column describes model i.

    ``coefficients`` holds the unit-l1 rescaling of each row of
    ``raw_coefficients`` (the zero vector stays zero), ``mistakes`` the
    weighted training mistakes out of ``n``, and ``cv_risks`` the
    cross-validated error (inf when no fold is usable).  The columns are
    read-only copies.  The checks that ``LinearClassifier`` and
    ``RiskReport`` make on one object run here once, over every row.

    The pool is also a read-only sequence: an index gives a ``PoolModel``,
    built when read, and a slice gives a ``Pool`` of those rows.
    """

    alphas: np.ndarray
    lambdas: np.ndarray
    coefficients: np.ndarray
    raw_coefficients: np.ndarray
    mistakes: np.ndarray
    cv_risks: np.ndarray
    converged: np.ndarray
    n: int

    def __post_init__(self):
        for name, dtype in _COLUMNS.items():
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if len({len(getattr(self, name)) for name in _COLUMNS}) != 1:
            raise ValueError("every column needs one entry per model")
        norms = _l1_norms(self.coefficients)
        off = (norms != 0.0) & (np.abs(norms - 1.0) > L1_TOL)
        if off.any():
            raise ValueError(f"coefficients must have unit l1 norm, got {norms[off][0]}")
        if (np.abs(self.coefficients) > 1.0 + L1_TOL).any():
            raise ValueError("every coefficient must lie in [-1, 1]")
        if self.n <= 0:
            raise ValueError("n must be positive")
        if ((self.mistakes < 0) | (self.mistakes > self.n)).any():
            raise ValueError(f"mistakes must lie in [0, {self.n}]")

    def __len__(self) -> int:
        return len(self.alphas)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return dataclasses.replace(self, **{c: getattr(self, c)[i] for c in _COLUMNS})
        return PoolModel(
            classifier=LinearClassifier(tuple(self.coefficients[i].tolist())),
            raw_coefficients=tuple(self.raw_coefficients[i].tolist()),
            alpha=float(self.alphas[i]),
            lam=float(self.lambdas[i]),
            train_risk=RiskReport(mistakes=int(self.mistakes[i]), n=self.n),
            cv_risk=float(self.cv_risks[i]),
            converged=bool(self.converged[i]),
        )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


def _objective(X, pos, weights, n_total, ridge, l1, w):
    """Penalized weighted logistic loss of each column of ``w`` (p x k;
    ``pos`` and ``weights`` are cells x k): per cell, its total weight
    times logaddexp(0, score) less its positive weight times the score.
    logaddexp(0, s) is taken as max(s, 0) + log1p(exp(-|s|))."""
    scores, beta = X @ w, w[1:]
    softplus = np.maximum(scores, 0.0) + np.log1p(np.exp(-np.abs(scores)))
    loss = np.einsum("ck,ck->k", weights, softplus) - np.einsum("ck,ck->k", pos, scores)
    return loss / n_total + 0.5 * ridge * (beta**2).sum(0) + l1 * np.abs(beta).sum(0)


def _cd_sweep(beta, red_grad, red_hess, diag, ridge, l1):
    """One coordinate-descent sweep over each column of ``beta``, in place,
    that keeps ``red_grad`` (the gradient before ridge) current.  Returns
    each column's largest move."""
    before = beta.copy()
    for j in range(len(beta)):
        raw = beta[j] - (red_grad[j] + ridge * beta[j]) / diag[j]
        new = np.copysign(np.maximum(np.abs(raw) - l1 / diag[j], 0.0), raw)
        red_grad += red_hess[:, j] * (new - beta[j])
        beta[j] = new
    return np.abs(beta - before).max(0, initial=0.0)


def _spd_solve(matrix, rhs):
    """Solve ``matrix[:, :, i] x = rhs[:, i]`` for every fit i by Gaussian
    elimination without pivoting, overwriting both arguments.  Valid for
    symmetric positive definite systems; a fit with a pivot that is not
    positive, or a solution that is not finite, gets a NaN solution."""
    n = len(rhs)
    with np.errstate(all="ignore"):  # a zero or tiny pivot fails its fit below
        for j in range(n - 1):
            factor = matrix[j + 1 :, j] / matrix[j, j]
            matrix[j + 1 :, j + 1 :] -= factor[:, None] * matrix[j, j + 1 :]
            rhs[j + 1 :] -= factor * rhs[j]
        for j in reversed(range(n)):
            rhs[j] -= np.einsum("ik,ik->k", matrix[j, j + 1 :], rhs[j + 1 :])
            rhs[j] /= matrix[j, j]
    failed = (np.einsum("jjk->jk", matrix) <= 0.0).any(0) | ~np.isfinite(rhs).all(0)
    if failed.any():
        rhs[:, failed] = np.nan
    return rhs


def _support_solve(system, rhs, l1, beta, inert):
    """Minimize each quadratic model, of gradient ``system @ b - rhs`` plus
    the l1 term, on the support S of ``beta`` (inert coordinates excluded)
    with its signs s: system_SS b_S = rhs_S - l1*s_S, and b = 0 off S.
    Every argument has the fits on its last axis.  Returns the solutions
    and which are minimizers: signs on S kept and |gradient| <= l1 off S.
    The masked system, padded with the identity off S, is positive
    semidefinite; a singular one fails only its own fit, whose NaN
    solution keeps no sign."""
    sign = np.sign(beta)
    on = (sign != 0.0) & ~inert
    if on.all():  # nothing to mask, and no coordinate off S to check
        trial = _spd_solve(system.copy(), rhs - l1 * sign)
        return trial, (np.sign(trial) == sign).all(0)
    eye = np.eye(len(beta))[:, :, None]
    matrix = np.where(on[:, None] & on[None, :], system, eye)
    trial = _spd_solve(matrix, np.where(on, rhs - l1 * sign, 0.0))
    grad = np.einsum("ijk,jk->ik", system, trial) - rhs
    kept = np.where(on, np.sign(trial) == sign, np.abs(grad) <= l1)
    return trial, kept.all(0)


def _cd_fit(X, pos, neg, ridge, l1, w_init):
    """Batched proximal Newton on k weighted elastic-net logistic losses.

    ``X`` holds the distinct feature cells.  Fit i gives cell c the
    positive weight ``pos[i, c]`` and the negative weight ``neg[i, c]``
    (both k x cells), and has start ``w_init[i]`` (k x p) and penalties
    ``ridge[i]`` and ``l1[i]``; its loss is the sum over cells of
    (pos + neg) * logaddexp(0, s) - pos * s at score s.  Inside, the fits
    run on the last, contiguous axis of every array (coefficients p x k,
    cell weights cells x k, Hessians p x p x k), so each operation spans
    the batch.  Each Newton step eliminates the unpenalized intercept
    (column 0), which is strongly correlated with binary features, from the
    quadratic model by its Schur complement and solves the rest exactly on
    the current support (Lee, Sun & Saunders 2014); a fit whose solution
    leaves that support, or whose system is singular there, runs one
    coordinate-descent sweep and tries again, until its sweep moves no
    coordinate by ``CD_TOL``.  The intercept step follows in closed form.
    The step is halved until the penalized objective does not rise or it
    moves no coordinate by ``CD_TOL``; then the fit has converged and
    leaves the batch.  A lone fit runs as two copies of itself, because a
    matrix product of one column rounds differently from one of several:
    so no fit's result depends on the others in its batch, bit for bit.
    Returns (coefficients, converged), one row per fit.
    """
    if len(w_init) == 1:
        coefs, converged = _cd_fit(X, *(a.repeat(2, 0) for a in (pos, neg, ridge, l1, w_init)))
        return coefs[:1], converged[:1]
    cells, p = X.shape
    w, converged = w_init.copy(), np.zeros(len(w_init), dtype=bool)
    # the live fits' columns, compacted by ``take`` whenever fits converge (a
    # fancy index would leave them strided); ``fits`` stacks weights and penalties
    live, wl, fits = np.arange(len(w)), w.T.copy(), np.vstack([pos.T, (pos + neg).T, ridge, l1])
    wp, wt, lam2, lam1 = fits[:cells], fits[cells:-2], fits[-2], fits[-1]
    nt = wt.sum(0)
    # the Hessian of every fit by one matmul: (p*p x cells) @ (cells x k)
    outer = (X[:, :, None] * X[:, None, :]).reshape(cells, p * p).T.copy()
    value = _objective(X, wp, wt, nt, lam2, lam1, wl)
    for _ in range(MAX_ITER):
        mu = _sigmoid(X @ wl)
        wt_mu = wt * mu
        grad = X.T @ (wt_mu - wp) / nt
        hess = (outer @ (wt_mu * (1.0 - mu) / nt)).reshape(p, p, -1)
        h00, h0r = hess[0, 0], hess[0, 1:]
        red_hess = hess[1:, 1:] - h0r[:, None] * h0r[None, :] / h00
        red_grad = grad[1:] - h0r * (grad[0] / h00)  # tracks beta
        system = red_hess + 0.0  # red_hess + lam2 * I: off the diagonal that adds 0.0
        diag = np.einsum("jjk->jk", system)
        diag += lam2
        inert = diag <= 0.0  # no curvature and no ridge
        beta = wl[1:].copy()
        rhs = np.einsum("ijk,jk->ik", red_hess, beta) - red_grad
        todo = np.arange(len(lam1))  # the fits still solving for their step
        for tries in range(MAX_ITER):
            cols = (..., todo if tries else slice(None))  # the first try takes views
            trial, ok = _support_solve(*(a[cols] for a in (system, rhs, lam1, beta, inert)))
            if tries:
                beta[:, todo[ok]] = trial[:, ok]
            else:  # a masked copy costs a fraction of that scatter
                np.copyto(beta, trial, where=ok)
            todo = todo[~ok]
            if not len(todo):
                break
            cols = (..., todo)
            part, part_grad, curv = beta[cols], red_grad[cols], np.where(inert, np.inf, diag)[cols]
            moves = _cd_sweep(part, part_grad, red_hess[cols], curv, lam2[todo], lam1[todo])
            beta[cols], red_grad[cols] = part, part_grad
            todo = todo[moves >= CD_TOL]
            if not len(todo):
                break
        step = np.empty_like(wl)
        step[1:] = beta - wl[1:]
        step[0] = -(grad[0] + np.einsum("jk,jk->k", h0r, step[1:])) / h00
        args = (X, wp, wt, nt, lam2, lam1)
        reach, size, trial_w = np.abs(step).max(0), np.ones(len(lam1)), wl + step
        while True:
            trial_value = _objective(*args, trial_w)
            # a step shorter than CD_TOL ends the fit anyway
            rise = (trial_value > value) & (size * reach >= CD_TOL)
            if not rise.any():
                break
            size[rise] *= 0.5
            trial_w = wl + size * step
        wl, value, done = trial_w, trial_value, size * reach < CD_TOL
        if done.any():
            w[live[done]], converged[live[done]] = wl.T[done], True
            keep = np.flatnonzero(~done)
            keep = keep.repeat(2 if len(keep) == 1 else 1)  # see above
            live, wl, value, nt = live[keep], wl.take(keep, 1), value[keep], nt[keep]
            fits = fits.take(keep, 1)
            wp, wt, lam2, lam1 = fits[:cells], fits[cells:-2], fits[-2], fits[-1]
            if not len(live):
                break
    w[live] = wl.T
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
) -> Pool:
    """Fit the (alpha, lambda) grid and cross-validate every model.

    Per alpha the fits are the full data, then each usable fold (held-out
    part nonempty, training part with both classes) as the full weights
    with that fold zeroed, each as per-cell positive and negative weights.
    Every path runs from lambda_max down in blocks of ``LAMBDA_BLOCK``
    consecutive lambdas (the last block may be shorter): one
    proximal-Newton batch fits the block's (lambda, alpha, fold) problems,
    lambda-major, each warm-started from its path's solution at the last
    lambda of the previous block (the null model for the first block).  A
    model is converged when all of its fits are.  The lambdas are computed
    on the rows; the held-out and the training mistakes on the cells, fold
    r's held-out weight being the full weight less its fit's weight.
    Returns the pool alpha-major, each model being the full-data fit of
    its (alpha, lambda).  Deterministic for a fixed seed: fold assignment,
    path order and the fit have no randomness.
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
    # a full block's cell weights, fit by fit; a shorter block takes a prefix
    block_pos, block_neg = (np.tile(a, (LAMBDA_BLOCK * n_alphas, 1)) for a in (pos, neg))
    for first in range(0, n_lambdas, LAMBDA_BLOCK):
        block = slice(first, first + LAMBDA_BLOCK)
        lam = np.repeat(lambdas[:, block].T, len(held), axis=1)  # lambda x fit
        size = len(lam)
        fit, done = _cd_fit(
            cells.X, block_pos[: lam.size], block_neg[: lam.size],
            (lam * (1.0 - alphas)).ravel(), (lam * alphas).ravel(), np.tile(w, (size, 1)),
        )
        coefs[block] = fit.reshape(size, *w.shape)
        converged[block] = done.reshape(size, len(w))
        w = coefs[block][-1]
    coefs = coefs.reshape(n_lambdas, n_alphas, len(held), -1)
    # fold r's held-out weight per cell; the full-data fits hold nothing out
    held_pos, held_neg = pos[0] - pos[1:], neg[0] - neg[1:]
    fold_side = coefs[:, :, 1:] @ cells.X.T > 0.0  # the tie rule of ``predictions``
    errors = np.einsum("lafc,fc->la", fold_side, held_neg)
    errors += np.einsum("lafc,fc->la", ~fold_side, held_pos)
    total = float(held_pos.sum() + held_neg.sum())
    cv_risks = (errors / total if total else np.full_like(errors, math.inf)).T.ravel()
    done = converged.reshape(coefs.shape[:3]).all(2).T.ravel()
    # models run alpha-major; each is the full-data fit of its alpha
    raw = coefs[:, :, 0].transpose(1, 0, 2).reshape(-1, X.shape[1])
    norms = _l1_norms(raw)
    units = raw / np.where(norms == 0.0, 1.0, norms)[:, None]  # zero rows stay zero
    side = units @ cells.X.T > 0.0
    return Pool(
        alphas=np.repeat(grid.alphas, n_lambdas),
        lambdas=lambdas.ravel(),
        coefficients=units,
        raw_coefficients=raw,
        mistakes=side @ cells.neg + ~side @ cells.pos,
        cv_risks=cv_risks,
        converged=done,
        n=n,
    )


def pool_baseline_index(pool: Pool) -> int:
    """Minimum 5-fold CV error; ties go to larger lambda, then larger alpha,
    then the earlier model."""
    return int(np.lexsort((-pool.alphas, -pool.lambdas, pool.cv_risks))[0])


def adhoc_measures(
    pool: Pool, dataset: Dataset, grid: EpsilonGrid, base_idx: Optional[int] = None
) -> MultiplicityProfile:
    """Pool-based ambiguity and discrepancy around the pool's CV baseline,
    model ``base_idx`` (``pool_baseline_index`` when not given).

    Level sets use exact mistake counts, so each is a prefix of the models
    sorted by them: ambiguity is the weight of a prefix OR of conflicts with
    the baseline, discrepancy a prefix max of conflict weights.  Every entry
    is marked uncertified: with only a pool in hand these are lower-bound
    estimates of the exact measures, not bracketing intervals.
    """
    if not pool:
        raise ValueError("pool must be nonempty")
    if base_idx is None:
        base_idx = pool_baseline_index(pool)
    base_risk = pool[base_idx].train_risk
    n = dataset.n
    if grid.n != n:
        raise ValueError("grid denominator does not match dataset weight")

    cells = dataset.cells
    side = pool.coefficients @ cells.X.T > 0.0  # the tie rule of ``predictions``
    order = np.argsort(pool.mistakes, kind="stable")
    conflicts = (side != side[base_idx])[order]
    weights = cells.pos + cells.neg
    ambiguity = np.logical_or.accumulate(conflicts) @ weights
    discrepancy = np.maximum.accumulate(conflicts @ weights)
    # the baseline is in every level set, so no prefix is empty
    budgets = grid.thresholds(base_risk.mistakes)
    ends = np.searchsorted(pool.mistakes[order], budgets, side="right") - 1

    def uncertified(counts):
        return Measures(counts[ends], counts[ends], np.zeros(len(ends), dtype=bool), n)

    return MultiplicityProfile(
        base_risk, grid, uncertified(discrepancy), uncertified(ambiguity)
    )
