import dataclasses
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import multiplicity.pool as pool_module
from multiplicity import cli
from multiplicity.core import (
    Dataset,
    Example,
    LinearClassifier,
    RiskReport,
    conflict_count,
    empirical_risk,
    predictions,
)
from multiplicity.datasets import ingest_csv
from multiplicity.pool import (
    N_FOLDS,
    PenaltyGrid,
    Pool,
    _fold_assignment,
    _lambda_max,
    adhoc_measures,
    fit_pool,
    pool_baseline_index,
)
from multiplicity.profiles import EpsilonGrid
from multiplicity.branch_bound import solve
from multiplicity.formulations import build_baseline_mip, classifier_from_solution
from multiplicity.profiles import (
    ClassifierBank,
    ambiguity_path,
    discrepancy_path,
    merge_profiles,
)
from conftest import random_binary_dataset


def blob_dataset(seed=0, n=40, spread=1.6):
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n):
        label = 1 if rng.random() < 0.5 else -1
        cx, cy = (1.0, 1.5) if label == 1 else (-1.0, -1.5)
        examples.append(
            Example(
                (1.0, float(cx + spread * rng.normal()), float(cy + spread * rng.normal())),
                label,
            )
        )
    return Dataset.build(examples)


def pool_of(classifiers, data, lambdas, alphas=None, cv_risks=None):
    """A converged ``Pool`` of ``classifiers``, their raw coefficients their
    unit ones, scored on ``data``; alpha 1 and CV risk 0.1 by default."""
    coefficients = [h.coefficients for h in classifiers]
    return Pool(
        alphas=alphas if alphas is not None else [1.0] * len(classifiers),
        lambdas=lambdas,
        coefficients=coefficients,
        raw_coefficients=coefficients,
        mistakes=[empirical_risk(h, data).mistakes for h in classifiers],
        cv_risks=cv_risks if cv_risks is not None else [0.1] * len(classifiers),
        converged=[True] * len(classifiers),
        n=data.n,
    )


def elastic_net_objective(w, X, targets, weights, alpha, lam):
    scores = X @ w
    # weighted logistic loss with 0/1 targets
    loss = np.logaddexp(0.0, scores) - targets * scores
    value = float(weights @ loss) / weights.sum()
    value += lam * (alpha * np.abs(w[1:]).sum() + 0.5 * (1 - alpha) * (w[1:] ** 2).sum())
    return value


def ista_oracle(X, targets, weights, alpha, lam, iters=200000):
    """From-scratch accelerated proximal gradient (test-only oracle)."""
    n_total = weights.sum()
    lip = 0.25 * float((weights @ (X * X)).sum()) / n_total + lam * (1 - alpha)
    step = 1.0 / lip
    thresh = step * lam * alpha

    def prox_step(v):
        mu = 1.0 / (1.0 + np.exp(-np.clip(X @ v, -30, 30)))
        grad = (weights * (mu - targets)) @ X / n_total
        grad[1:] += lam * (1 - alpha) * v[1:]
        z = v - step * grad
        z[1:] = np.sign(z[1:]) * np.maximum(np.abs(z[1:]) - thresh, 0.0)
        return z

    w = np.zeros(X.shape[1])
    momentum = w.copy()
    t = 1.0
    for _ in range(iters):
        z = prox_step(momentum)
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        momentum = z + ((t - 1.0) / t_next) * (z - w)
        if np.max(np.abs(z - w)) < 1e-12:
            return z
        w, t = z, t_next
    return w


def oracle_cv_risk(data, alpha, lam, seed):
    """CV error from oracle fits on each usable fold's training rows."""
    X, y = data.X, data.y
    targets = (y + 1) / 2.0
    weights = data.weights.astype(float)
    folds = _fold_assignment(len(data.examples), seed)
    errors = total = 0.0
    for f in range(N_FOLDS):
        held = folds == f
        train = ~held
        if not held.any() or len(set(y[train])) < 2:
            continue
        w = ista_oracle(X[train], targets[train], weights[train], alpha, lam)
        wrong = np.where(X[held] @ w > 0.0, 1, -1) != y[held]
        errors += weights[held][wrong].sum()
        total += weights[held].sum()
    return errors / total


class TestPenaltyGrid:
    def test_default_is_eleven_by_hundred(self):
        grid = PenaltyGrid()
        assert len(grid.alphas) == 11
        assert grid.size == 1100

    def test_lambda_path_geometric(self):
        grid = PenaltyGrid(alphas=(1.0,), lambdas_per_alpha=5)
        path = grid.lambda_path(2.0)
        assert path[0] == pytest.approx(2.0)
        assert path[-1] == pytest.approx(2.0e-4)
        ratios = path[1:] / path[:-1]
        assert np.allclose(ratios, ratios[0])


    @pytest.mark.parametrize(
        "ratio", [-1.0, 0.0, 2.0, 1.0 + 1e-12, math.nan, math.inf, -math.inf]
    )
    def test_lambda_min_ratio_outside_unit_interval_is_rejected(self, ratio):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="lambda_min_ratio"):
                PenaltyGrid(lambda_min_ratio=ratio)

    def test_ratio_one_is_a_flat_path(self):
        grid = PenaltyGrid(alphas=(1.0,), lambdas_per_alpha=3, lambda_min_ratio=1.0)
        assert grid.lambda_path(2.0).tolist() == [2.0, 2.0, 2.0]

    @pytest.mark.parametrize("alpha", [math.nan, -0.1, 1.1])
    def test_alpha_outside_unit_interval_is_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            PenaltyGrid(alphas=(0.5, alpha))


class TestPoolTable:
    def fitted(self):
        data = blob_dataset(seed=3, n=30)
        return fit_pool(data, PenaltyGrid(alphas=(0.0, 1.0), lambdas_per_alpha=4), seed=0), data

    def test_rows_read_the_columns(self):
        pool, data = self.fitted()
        assert len(pool) == len(list(pool)) == 8
        for i, m in enumerate(pool):
            assert m.classifier.coefficients == tuple(pool.coefficients[i].tolist())
            assert m.raw_coefficients == tuple(pool.raw_coefficients[i].tolist())
            assert (m.alpha, m.lam, m.cv_risk, m.converged) == (
                pool.alphas[i], pool.lambdas[i], pool.cv_risks[i], pool.converged[i]
            )
            assert m.train_risk == empirical_risk(m.classifier, data)
            assert type(m.train_risk.mistakes) is int and type(m.converged) is bool
        assert pool[-1] == pool[7]
        with pytest.raises(IndexError):
            pool[8]
        head = pool[2:5]
        assert isinstance(head, Pool) and list(head) == list(pool)[2:5]

    def test_columns_are_read_only_copies(self):
        pool, _ = self.fitted()
        with pytest.raises(ValueError):
            pool.mistakes[0] = 0
        mistakes = pool.mistakes.copy()
        copy = dataclasses.replace(pool, mistakes=mistakes)
        mistakes[0] += 1
        assert copy.mistakes[0] == pool.mistakes[0]

    @pytest.mark.parametrize(
        "change, build",
        [
            # the same conditions and messages as the objects' own checks
            ({"coefficients": [[0.5, 0.6, 0.0]]}, lambda: LinearClassifier((0.5, 0.6, 0.0))),
            ({"mistakes": [-1]}, lambda: RiskReport(mistakes=-1, n=30)),
            ({"mistakes": [31]}, lambda: RiskReport(mistakes=31, n=30)),
            ({"n": 0, "mistakes": [0]}, lambda: RiskReport(mistakes=0, n=0)),
        ],
    )
    def test_checks_match_the_row_objects(self, change, build):
        pool, _ = self.fitted()
        with pytest.raises(ValueError) as expected:
            build()
        row = {**{c: getattr(pool, c)[:1] for c in pool_module._COLUMNS}, "n": 30}
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            Pool(**{**row, **change})

    def test_zero_coefficients_pass_and_ragged_columns_fail(self):
        pool, _ = self.fitted()
        zero = dataclasses.replace(pool, coefficients=np.zeros_like(pool.coefficients))
        assert zero[0].classifier.coefficients == (0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="one entry per model"):
            dataclasses.replace(pool, cv_risks=pool.cv_risks[1:])

    def test_baseline_index_matches_the_tuple_key(self):
        rng = np.random.default_rng(4)
        pool, _ = self.fitted()
        for _ in range(200):
            k = int(rng.integers(1, 9))
            cv = rng.choice([0.0, 0.25, 0.5, math.inf], size=k)
            lam = rng.choice([0.1, 1.0, 2.0], size=k)
            alpha = rng.choice([0.0, 0.5, 1.0], size=k)
            tied = dataclasses.replace(pool[:k], cv_risks=cv, lambdas=lam, alphas=alpha)
            expected = min(range(k), key=lambda i: (cv[i], -lam[i], -alpha[i], i))
            assert pool_baseline_index(tied) == expected


class TestFitPool:
    def test_lambda_max_zeroes_coefficients(self):
        data = blob_dataset(seed=1)
        grid = PenaltyGrid(alphas=(0.5, 1.0), lambdas_per_alpha=4)
        models = fit_pool(data, grid, seed=0)
        for alpha_block in range(2):
            head = models[alpha_block * 4]
            assert head.raw_coefficients[1:] == (0.0, 0.0)

    def test_ridge_head_is_heavily_shrunk(self):
        data = blob_dataset(seed=1)
        models = fit_pool(data, PenaltyGrid(alphas=(0.0,), lambdas_per_alpha=2), seed=0)
        head = models[0]
        assert all(abs(v) < 5e-3 for v in head.raw_coefficients[1:])

    def test_training_risk_improves_along_path(self):
        data = blob_dataset(seed=2)
        grid = PenaltyGrid(alphas=(0.0,), lambdas_per_alpha=10)
        models = fit_pool(data, grid, seed=0)
        risks = [m.train_risk.mistakes for m in models]
        assert risks[-1] <= risks[0]

    def test_matches_full_gradient_oracle(self):
        # the pure ridge block and each path's tail (1e-4 of lambda_max) are
        # where the reduced quadratic and the step halving matter most
        data = blob_dataset(seed=3, n=30)
        X = data.X
        targets = (data.y + 1) / 2.0
        weights = data.weights.astype(float)
        grid = PenaltyGrid(alphas=(0.0, 0.3, 1.0), lambdas_per_alpha=5)
        models = fit_pool(data, grid, seed=0)
        checks = 0
        for k in (0, 2, 4, 5, 6, 7, 9, 11, 12, 14):
            m = models[k]
            w_ref = ista_oracle(X, targets, weights, m.alpha, m.lam)
            w_ours = np.array(m.raw_coefficients)
            assert np.max(np.abs(w_ref - w_ours)) < 1e-4, (m.alpha, m.lam)
            # objective sanity: neither side beats the other materially
            f_ours = elastic_net_objective(w_ours, X, targets, weights, m.alpha, m.lam)
            f_ref = elastic_net_objective(w_ref, X, targets, weights, m.alpha, m.lam)
            assert f_ours <= f_ref + 1e-9
            checks += 1
        assert checks == 10

    def test_cv_risk_matches_fold_oracle(self):
        # the last dataset's third feature is zero on every training row of
        # fold 0: under alpha 1.0 that fold's fit has no curvature and no
        # ridge on it, so its coefficient is inert while the others move
        blobs = blob_dataset(seed=12, n=30)
        folds = _fold_assignment(len(blobs.examples), 2)
        absent = Dataset.build(
            Example(ex.features + (ex.features[1] * (f == 0),), ex.label)
            for ex, f in zip(blobs.examples, folds)
        )
        grid = PenaltyGrid(alphas=(0.5, 1.0), lambdas_per_alpha=6, lambda_min_ratio=0.01)
        cases = [(0, blob_dataset(seed=10, n=30)), (1, blob_dataset(seed=11, n=30))]
        for seed, data in cases + [(2, absent)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                models = fit_pool(data, grid, seed=seed)
            for m in (models[1], models[3], models[5], models[8], models[11]):
                assert m.cv_risk == oracle_cv_risk(data, m.alpha, m.lam, seed)
        assert models[-1].raw_coefficients[3] != 0.0  # the full-data fit moves

    def test_separable_folds_flag_unconverged(self, tmp_path, monkeypatch):
        # four balanced training rows of weight 2: lambda_max floors at
        # 1e-12, so the full-data optimum is 0 while fold fits on separable
        # rows run toward infinity
        rows = "0,1 1,0 0,1 1,1 0,0 1,1 0,0 1,1 0,1 1,0".split()
        (tmp_path / "sep.csv").write_text("x1,label\n" + "\n".join(rows) + "\n")
        data = ingest_csv(tmp_path / "sep.csv", "label", split_seed=3).train
        calls = []

        def recording_fit(*args):
            coefs, converged = fit(*args)
            calls.append(converged)
            return coefs, converged

        fit = pool_module._cd_fit
        monkeypatch.setattr(pool_module, "_cd_fit", recording_fit)
        grid = PenaltyGrid(alphas=(0.0, 1.0), lambdas_per_alpha=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            models = fit_pool(data, grid, seed=0)
        # the blocks run lambda-major: per lambda each alpha's full-data
        # fit, then its folds
        fits = np.concatenate(calls).reshape(10, 2, -1)
        capped = 0
        for k, m in enumerate(models):
            a, li = divmod(k, 10)
            block = fits[li, a]
            assert max(abs(v) for v in m.raw_coefficients) < 1e-9
            assert block[0]  # the full-data fit
            assert m.converged == block.all()
            capped += not block.all()
        assert capped  # some fold fit hit the iteration cap

    def test_coefficient_norm_monotone_on_blobs(self):
        data = blob_dataset(seed=4)
        grid = PenaltyGrid(alphas=(1.0,), lambdas_per_alpha=12)
        models = fit_pool(data, grid, seed=0)
        norms = [sum(abs(v) for v in m.raw_coefficients[1:]) for m in models]
        assert all(b >= a - 1e-9 for a, b in zip(norms, norms[1:]))

    def test_deterministic_under_seed(self):
        data = blob_dataset(seed=5)
        grid = PenaltyGrid(alphas=(0.5,), lambdas_per_alpha=6)
        a = fit_pool(data, grid, seed=9)
        b = fit_pool(data, grid, seed=9)
        assert [m.raw_coefficients for m in a] == [m.raw_coefficients for m in b]
        assert [m.cv_risk for m in a] == [m.cv_risk for m in b]

    def test_zero_model_is_retained(self):
        # perfectly balanced single-cell data: lambda_max model is all zeros
        data = Dataset.build(
            [Example((1.0, 1.0), 1, weight=2), Example((1.0, 1.0), -1, weight=2)]
        )
        models = fit_pool(data, PenaltyGrid(alphas=(1.0,), lambdas_per_alpha=1), seed=0)
        assert models[0].classifier.coefficients == (0.0, 0.0)
        assert models[0].train_risk.mistakes == 2  # predicts -1 everywhere


class TestAdhocMeasures:
    def test_baseline_only_pool_reports_zero(self):
        data = blob_dataset(seed=6)
        models = fit_pool(data, PenaltyGrid(alphas=(0.5,), lambdas_per_alpha=1), seed=0)
        grid = EpsilonGrid.snapped([0, 0.1], data.n)
        profile = adhoc_measures(models, data, grid)
        for disc, amb in zip(profile.discrepancy, profile.ambiguity):
            assert disc.value == 0
            assert amb.value == 0
            assert not disc.certified

    def test_negated_pair_reaches_full_discrepancy(self):
        data = blob_dataset(seed=7, n=20)
        base_model = build_baseline_mip(data)
        res = solve(base_model)
        h = classifier_from_solution(base_model, res.incumbent)
        fake = pool_of([h, h.negated()], data, lambdas=[1.0, 0.5], cv_risks=[0.1, 0.5])
        grid = EpsilonGrid((1,), data.n)
        profile = adhoc_measures(fake, data, grid)
        assert profile.discrepancy[0].value == 1

    def test_baseline_tie_break_prefers_larger_lambda(self):
        data = blob_dataset(seed=8, n=16)
        h = classifier_from_solution(
            build_baseline_mip(data), solve(build_baseline_mip(data)).incumbent
        )
        models = pool_of(
            [h] * 3, data, lambdas=[0.1, 0.9, 0.9], alphas=[0.3, 0.1, 0.8],
            cv_risks=[0.25] * 3,
        )
        assert pool_baseline_index(models) == 2

    def test_pool_measures_never_exceed_exact(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            data = random_binary_dataset(rng)
            models = fit_pool(
                data,
                PenaltyGrid(
                    alphas=(0.0, 1.0), lambdas_per_alpha=6, lambda_min_ratio=0.01
                ),
                seed=0,
            )
            base = models[pool_baseline_index(models)]
            h0 = base.classifier
            from fractions import Fraction

            grid = EpsilonGrid(
                tuple(Fraction(k, data.n) for k in (0, 1, 2)), data.n
            )
            adhoc = adhoc_measures(models, data, grid)
            bank = ClassifierBank(data, h0)  # the witnesses warm-start flip solves
            disc, _ = discrepancy_path(bank, grid)
            amb, _, _ = ambiguity_path(bank, grid)
            exact = merge_profiles(disc, amb)
            for side in ("discrepancy", "ambiguity"):
                for got, truth in zip(getattr(adhoc, side), getattr(exact, side)):
                    assert truth.certified
                    assert got.value <= truth.value


def row_objective(X, targets, weights, n_total, ridge, l1, w):
    """Penalized weighted logistic loss of each row of ``w`` over the rows
    of ``X`` (test-only oracle)."""
    scores, beta = w @ X.T, w[:, 1:]
    loss = np.einsum("kn,kn->k", weights, np.logaddexp(0.0, scores) - targets * scores)
    return loss / n_total + 0.5 * ridge * (beta**2).sum(1) + l1 * np.abs(beta).sum(1)


def reference_cd_fit(X, targets, weights, ridge, l1, w_init):
    """Proximal Newton with plain coordinate descent on every quadratic
    model, the fit the support solve replaced (test-only oracle)."""
    w = w_init.copy()
    converged = np.zeros(len(w), dtype=bool)
    live = np.arange(len(w))
    n_total = weights.sum(axis=1)
    for _ in range(pool_module.MAX_ITER):
        wl, wt, nt, lam2, lam1 = (a[live] for a in (w, weights, n_total, ridge, l1))
        mu = pool_module._sigmoid(wl @ X.T)
        grad = (wt * (mu - targets)) @ X / nt[:, None]
        hess = np.einsum("kn,ni,nj->kij", wt * mu * (1.0 - mu) / nt[:, None], X, X)
        h00, h0r = hess[:, 0, 0], hess[:, 0, 1:]
        red_hess = hess[:, 1:, 1:] - h0r[:, :, None] * h0r[:, None, :] / h00[:, None, None]
        red_grad = grad[:, 1:] - h0r * (grad[:, :1] / h00[:, None])
        diag = np.einsum("kjj->kj", red_hess) + lam2[:, None]
        diag[diag <= 0.0] = np.inf
        beta = wl[:, 1:].copy()
        for _ in range(pool_module.MAX_ITER):
            before = beta.copy()
            for j in range(beta.shape[1]):
                raw = beta[:, j] - (red_grad[:, j] + lam2 * beta[:, j]) / diag[:, j]
                new = np.copysign(np.maximum(np.abs(raw) - lam1 / diag[:, j], 0.0), raw)
                red_grad += red_hess[:, :, j] * (new - beta[:, j])[:, None]
                beta[:, j] = new
            if np.abs(beta - before).max(initial=0.0) < pool_module.CD_TOL:
                break
        beta -= wl[:, 1:]
        step = np.column_stack([-(grad[:, 0] + np.einsum("kj,kj->k", h0r, beta)) / h00, beta])
        args = (X, targets, wt, nt, lam2, lam1)
        objective = row_objective
        start, reach, size = objective(*args, wl), np.abs(step).max(1), np.ones(len(live))
        while True:
            rise = objective(*args, wl + size[:, None] * step) > start
            rise &= size * reach >= pool_module.CD_TOL
            if not rise.any():
                break
            size[rise] *= 0.5
        w[live] = wl + size[:, None] * step
        done = size * reach < pool_module.CD_TOL
        converged[live[done]] = True
        live = live[~done]
        if not len(live):
            break
    return w, converged


def reference_fit_pool(dataset, grid, seed):
    """The pool fitted one lambda at a time over the rows, each fit
    warm-started from its path's fit at the previous lambda (test-only
    oracle).  Returns (alpha, lam, train_risk, cv_risk, converged, raw
    coefficients, tied) per model, alpha-major; ``tied`` is the share of
    the held-out weight that a fold fit scores within 1e-9 of 0, where
    rounding decides the prediction."""
    X, y = dataset.X, dataset.y
    targets = (y + 1) / 2.0
    weights = dataset.weights.astype(float)
    folds = _fold_assignment(len(y), seed)
    held = [np.zeros(len(y), dtype=bool)] + [
        folds == f
        for f in range(N_FOLDS)
        if (folds == f).any() and len(set(y[folds != f])) == 2
    ]
    fit_weights = np.array([weights * ~h for h in held])
    total = sum(weights[h].sum() for h in held)
    models = []
    for alpha in grid.alphas:
        w = np.zeros((len(held), X.shape[1]))
        w[:, 0] = [pool_module._null_intercept(targets, row) for row in fit_weights]
        for lam in grid.lambda_path(_lambda_max(X, targets, weights, alpha)):
            ridge = np.full(len(held), lam * (1.0 - alpha))
            l1 = np.full(len(held), lam * alpha)
            w, ok = reference_cd_fit(X, targets, fit_weights, ridge, l1, w)
            errors = sum(
                weights[h & ((X @ fit > 0.0) != (y > 0))].sum() for h, fit in zip(held, w)
            )
            tied = sum(weights[h & (np.abs(X @ fit) <= 1e-9)].sum() for h, fit in zip(held, w))
            clf = LinearClassifier.from_raw(w[0])
            models.append(
                (alpha, lam, empirical_risk(clf, dataset),
                 errors / total if total else math.inf, ok.all(), w[0],
                 tied / total if total else 0.0)
            )
    return models


def reference_adhoc_counts(models, dataset, grid):
    """Per-epsilon (discrepancy, ambiguity) counts by scanning every model
    for every threshold (test-only oracle)."""
    base = models[pool_baseline_index(models)]
    base_preds = predictions(base.classifier, dataset)
    pred_matrix = np.stack([predictions(m.classifier, dataset) for m in models])
    counts = []
    for threshold in grid.thresholds(base.train_risk.mistakes):
        in_set = [k for k, m in enumerate(models) if m.train_risk.mistakes <= threshold]
        conflicts = pred_matrix[in_set] != base_preds[None, :]
        ambiguity = int(dataset.weights[conflicts.any(axis=0)].sum())
        discrepancy = max(int(dataset.weights[row].sum()) for row in conflicts)
        counts.append((discrepancy, ambiguity))
    return counts


def collapse(X, targets, fit_weights):
    """The distinct rows of ``X`` (in sorted order) and each fit's positive
    and negative weight on each of them."""
    cells, index = np.unique(X, axis=0, return_inverse=True)
    pos, neg = (
        np.array([np.bincount(index.ravel(), row * side, len(cells)) for row in fit_weights])
        for side in (targets, 1.0 - targets)
    )
    return cells, pos, neg


class TestSupportSolve:
    def instance(self, seed):
        # rows: the full data, then two folds zeroed; the third feature is
        # nonzero only on the first fold's held-out rows, so it is inert in
        # that fold's fit whenever there is no ridge
        rng = np.random.default_rng(seed)
        n = 24
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        held = [np.arange(n) % 4 == f for f in (0, 1)]
        X[~held[0], 3] = 0.0
        truth = X @ np.array([0.3, 1.2, -0.9, 0.8])
        targets = (rng.random(n) < 1.0 / (1.0 + np.exp(-truth))).astype(float)
        targets[:2] = (0.0, 1.0)
        targets[4:6] = (0.0, 1.0)
        weights = rng.integers(1, 4, size=n).astype(float)
        fit_weights = np.array([weights, weights * ~held[0], weights * ~held[1]])
        return X, targets, fit_weights

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_plain_coordinate_descent(self, seed, monkeypatch):
        sweeps = []
        sweep = pool_module._cd_sweep

        def counting_sweep(*args):
            sweeps.append(len(args[0]))
            return sweep(*args)

        monkeypatch.setattr(pool_module, "_cd_sweep", counting_sweep)
        X, targets, fit_weights = self.instance(seed)
        # the fit runs on the distinct rows; the reference runs on every
        # row twice, at half weight, so that each cell holds two rows
        cells, pos, neg = collapse(X, targets, fit_weights)
        rows = (np.vstack([X, X]), np.concatenate([targets, targets]))
        row_weights = np.hstack([fit_weights, fit_weights]) / 2.0
        assert len(cells) * 2 == len(rows[0])
        for alpha in (0.0, 0.5, 1.0):
            lam_max = max(
                _lambda_max(X, targets, row, alpha) for row in fit_weights
            )
            start = np.zeros((len(fit_weights), X.shape[1]))
            start[:, 0] = [pool_module._null_intercept(targets, r) for r in fit_weights]
            ours, ref = start, start
            supports = set()
            for lam in lam_max * np.geomspace(1.0, 1e-3, 12):
                ridge = np.full(len(fit_weights), lam * (1.0 - alpha))
                l1 = np.full(len(fit_weights), lam * alpha)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    ours, ok = pool_module._cd_fit(cells, pos, neg, ridge, l1, ours)
                ref, ref_ok = reference_cd_fit(*rows, row_weights, ridge, l1, ref)
                assert np.max(np.abs(ours - ref)) < 1e-6, (alpha, lam)
                assert (ok == ref_ok).all()
                supports.add(int((ours[0, 1:] != 0.0).sum()))
            if alpha == 1.0:
                # the lasso path lets coordinates enter one by one, and the
                # inert coordinate never leaves zero in its fold's fit
                assert len(supports) >= 3
                assert (ours[1, 3], ref[1, 3]) == (0.0, 0.0)
        assert sweeps  # the coordinate-descent fallback ran


class TestBlockedPath:
    """The blocked fit over cells against the one-lambda-at-a-time fit over
    rows: the same models, to the solver's tolerance."""

    def check(self, data, grid, seed=0):
        """Checks every model; returns how many have a held-out row on
        which a fold fit's optimal score is 0."""
        models = fit_pool(data, grid, seed=seed)
        expected = reference_fit_pool(data, grid, seed)
        assert len(models) == len(expected) == grid.size
        ties = 0
        for m, (alpha, lam, risk, cv, ok, raw, tied) in zip(models, expected):
            assert (m.alpha, m.lam, m.train_risk, m.converged) == (alpha, lam, risk, ok)
            assert np.max(np.abs(np.array(m.raw_coefficients) - raw)) < 1e-6
            # a tied row's prediction is decided by rounding, in either fit
            assert m.cv_risk == cv if not tied else abs(m.cv_risk - cv) <= tied + 1e-12
            ties += tied > 0
        return ties

    @pytest.mark.parametrize("per_alpha", [23, 4])
    def test_blobs(self, per_alpha):
        # 23 lambdas leave a short last block; 4 fit in one block
        assert per_alpha % pool_module.LAMBDA_BLOCK
        grid = PenaltyGrid(alphas=(0.0, 0.5, 1.0), lambdas_per_alpha=per_alpha)
        # the l1 heads of alpha 0.5 and 1 are the null model, which scores 0
        # on a fold whose training rows are balanced
        assert self.check(blob_dataset(seed=17, n=40), grid, seed=3) == 2

    @pytest.mark.parametrize("per_alpha", [23, 4])
    def test_criterion_6_datasets(self, per_alpha):
        # the first five instances of acceptance criterion 6, with its seeds
        grid = PenaltyGrid(
            alphas=(0.0, 0.5, 1.0), lambdas_per_alpha=per_alpha, lambda_min_ratio=0.01
        )
        rng = np.random.default_rng(606)
        ties = []
        for checked in range(5):
            data = random_binary_dataset(rng)
            assert len(data.cells.X) < len(data.examples)  # cells hold several rows
            ties.append(self.check(data, grid, seed=checked))
        # instance 3 holds out its cell (1, 0, 0, 0), balanced in one fold's
        # training rows: that fold's optimal intercept, the score of the
        # cell, is 0 at every lambda
        assert [bool(t) for t in ties] == [False, False, False, True, False]


class TestMatrixScoring:
    def test_train_risk_matches_per_model_scoring(self):
        for seed in (13, 14):
            data = blob_dataset(seed=seed, n=60)
            grid = PenaltyGrid(alphas=(0.0, 0.5, 1.0), lambdas_per_alpha=15)
            models = fit_pool(data, grid, seed=seed)
            assert len(models) == 45
            for m in models:
                assert m.train_risk == empirical_risk(m.classifier, data)

    def test_classifiers_match_from_raw(self, tmp_path):
        config = cli.RunConfig(
            dataset=str(Path(__file__).parent / "data" / "compas_style.csv"),
            label_column="two_year_recid",
            group_column="race",
            outdir=str(tmp_path),
        )
        compas = fit_pool(cli.load_dataset(config)[0], seed=config.seed)
        rng = np.random.default_rng(9)
        wide = Dataset.build(
            [
                Example((1.0, *np.round(rng.normal(size=8), 3).tolist()), int(rng.choice([-1, 1])))
                for _ in range(40)
            ]
        )
        wide_models = fit_pool(wide, PenaltyGrid(alphas=(0.0, 0.5, 1.0), lambdas_per_alpha=10))
        assert len(compas) == 1100 and wide_models[0].classifier.dim == 9
        for models in (compas, wide_models):
            for m in models:
                expected = LinearClassifier.from_raw(m.raw_coefficients).coefficients
                assert m.classifier.coefficients == expected

    def check(self, models, data):
        k_max = min(data.n, max(m.train_risk.mistakes for m in models))
        grid = EpsilonGrid(tuple(Fraction(k, data.n) for k in range(k_max + 1)), data.n)
        profile = adhoc_measures(models, data, grid)
        assert profile.baseline == models[pool_baseline_index(models)].train_risk
        got = []
        for disc, amb in zip(profile.discrepancy, profile.ambiguity):
            assert not disc.certified and not amb.certified
            got.append((disc.value * data.n, amb.value * data.n))
        assert got == reference_adhoc_counts(models, data, grid)

    def test_adhoc_matches_per_epsilon_scan_on_fitted_pools(self):
        rng = np.random.default_rng(5)
        pools = [blob_dataset(seed=15, n=40)] + [random_binary_dataset(rng) for _ in range(3)]
        for data in pools:
            grid = PenaltyGrid(alphas=(0.0, 0.5, 1.0), lambdas_per_alpha=8)
            self.check(fit_pool(data, grid, seed=0), data)

    def test_adhoc_matches_per_epsilon_scan_with_tied_mistakes(self):
        rng = np.random.default_rng(6)
        data = blob_dataset(seed=16, n=14)
        classifiers, cv_risks = [], []
        for k in range(40):
            # the zero classifier predicts -1 everywhere by the tie rule
            classifiers.append(
                LinearClassifier.from_raw(rng.normal(size=3) if k else np.zeros(3))
            )
            cv_risks.append(float(rng.integers(0, 3)) if k else 5.0)
        models = pool_of(
            classifiers, data, lambdas=[1.0 / (k + 1) for k in range(40)], cv_risks=cv_risks
        )
        mistakes = [m.train_risk.mistakes for m in models]
        assert len(set(mistakes)) < len(mistakes)  # some level sets tie
        for pool in (models, models[:3]):  # the small pool does not saturate
            self.check(pool, data)

    def test_zero_scores_follow_the_tie_rule(self, monkeypatch):
        # the cell x1 = 0 carries both labels with unequal weight, and the
        # patched fits score it exactly 0 (or every cell, for the zero
        # vector), so a tie rule other than -1 changes every count below
        data = Dataset.build(
            [
                Example((1.0, 0.0), 1, weight=3),
                Example((1.0, 0.0), -1, weight=1),
                Example((1.0, 1.0), 1, weight=2),
                Example((1.0, -1.0), -1, weight=2),
                Example((1.0, 2.0), 1),
                Example((1.0, -2.0), -1),
            ]
        )
        path = [(0.0, 1.0), (-1.0, 4.0), (1.0, 4.0), (0.0, 0.0)]
        grid = PenaltyGrid(alphas=(0.5, 1.0), lambdas_per_alpha=4)
        targets, weights = (data.y + 1) / 2.0, data.weights.astype(float)
        step = {
            (alpha, lam): k
            for alpha in grid.alphas
            for k, lam in enumerate(
                grid.lambda_path(_lambda_max(data.X, targets, weights, alpha))
            )
        }

        def fake_fit(X, pos, neg, ridge, l1, w):
            # lam * (1 - alpha) + lam * alpha is exactly lam at alpha 0.5 and 1
            lam = ridge + l1
            coefs = np.array([path[step[a, v]] for a, v in zip(l1 / lam, lam)])
            return coefs, np.ones(len(w), dtype=bool)

        monkeypatch.setattr(pool_module, "_cd_fit", fake_fit)
        models = fit_pool(data, grid, seed=0)
        assert [m.raw_coefficients for m in models] == path * 2
        folds = _fold_assignment(len(data.examples), 0)
        held = [folds == f for f in range(N_FOLDS)]
        held = np.any(
            [h for h in held if h.any() and len(set(data.y[~h])) == 2], axis=0
        )
        assert held[:2].any()  # a tied row is held out in some usable fold
        for m in models:
            assert m.train_risk == empirical_risk(m.classifier, data)
            wrong = predictions(m.classifier, data) != data.y
            assert m.cv_risk == data.weights[held & wrong].sum() / data.weights[held].sum()

        grid = EpsilonGrid(tuple(Fraction(k, data.n) for k in range(data.n + 1)), data.n)
        profile = adhoc_measures(models, data, grid)
        base = models[pool_baseline_index(models)]
        for disc, amb, threshold in zip(
            profile.discrepancy, profile.ambiguity, grid.thresholds(base.train_risk.mistakes)
        ):
            in_set = [m for m in models if m.train_risk.mistakes <= threshold]
            conflicts = [conflict_count(m.classifier, base.classifier, data) for m in in_set]
            assert disc.value == max(conflicts, key=lambda r: r.mistakes).rate
            flipped = np.any(
                [predictions(m.classifier, data) != predictions(base.classifier, data)
                 for m in in_set],
                axis=0,
            )
            assert amb.value == Fraction(int(data.weights[flipped].sum()), data.n)
