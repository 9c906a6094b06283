from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from multiplicity.branch_bound import INT_TOL, check_feasible, solve
from multiplicity.core import (
    Dataset,
    Example,
    LinearClassifier,
    conflict_count,
    empirical_risk,
)
from multiplicity.datasets import generate_synthetic, ingest_csv
from multiplicity.formulations import (
    DEFAULT_GAMMA,
    GAMMA_FLOOR,
    assignment_from_classifier,
    build_baseline_mip,
    build_disc_mip,
    build_flip_mip,
    classifier_from_solution,
    compute_big_m,
    export_mps,
    margin_clearance,
    margin_floor,
)
from multiplicity.profiles import ClassifierBank
from multiplicity.simplex import LinearProgram, solve_lp
from conftest import assert_one_program, random_binary_dataset
from mps_reader import read_mps
from oracles import oracle_baseline, oracle_disc, oracle_flip, prediction_pattern


DATA = Path(__file__).parent / "data"
H_A = LinearClassifier((-0.2, 0.4, 0.4))  # optimal on XOR, errs on cell (1,1)


class TestBigM:
    def test_binary_features_value(self, xor):
        m = compute_big_m(xor, 1e-4)
        assert np.allclose(m, 1.0001)

    def test_larger_feature_scale(self):
        data = Dataset.build([Example((1.0, 3.0), 1), Example((1.0, 0.0), -1)])
        assert np.allclose(compute_big_m(data, 1e-4), [3.0001, 1.0001])
        model = build_baseline_mip(data)
        assert np.allclose(model.lp.row_coefs[:2, :2], np.diag([3.0001, 1.0001]))

    def test_holder_bound_over_random_classifiers(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            data = random_binary_dataset(rng)
            m = compute_big_m(data, 1e-4)
            for _ in range(20):
                raw = rng.uniform(-1, 1, size=data.d + 1)
                if np.abs(raw).sum() == 0:
                    continue
                h = LinearClassifier.from_raw(raw)
                scores = data.cells.X @ np.asarray(h.coefficients)
                assert np.all(np.abs(scores) + 1e-4 <= m + 1e-12)

    def test_scaled_feature_optima_match_oracle(self):
        # Scaling a feature by 3 gives the cells where it is 1 the Big-M
        # 3 + gamma and the others 1 + gamma; the achievable labelings, and
        # so every optimum, are those of the unscaled data.
        rng = np.random.default_rng(37)
        checked = 0
        for _ in range(12):
            data = random_binary_dataset(rng)
            varying = [j for j in range(1, data.d + 1) if len(set(data.X[:, j])) == 2]
            if not varying:
                continue
            scale = np.ones(data.d + 1)
            scale[varying[int(rng.integers(len(varying)))]] = 3.0
            scaled = Dataset.build(
                Example(tuple(data.X[i] * scale), ex.label, weight=ex.weight)
                for i, ex in enumerate(data.examples)
            )
            assert sorted(set(compute_big_m(scaled, 1e-4))) == [1.0001, 3.0001]
            base_model = build_baseline_mip(scaled)
            base = solve(base_model)
            assert base.status == "certified_optimal"
            assert base.upper_bound == oracle_baseline(data)
            h0 = classifier_from_solution(base_model, base.incumbent)
            pattern = prediction_pattern(
                LinearClassifier.from_raw(np.asarray(h0.coefficients) * scale), data
            )
            for k in (0, 1, 2):
                eps = Fraction(k, data.n)
                res = solve(build_disc_mip(scaled, h0, eps))
                assert res.status == "certified_optimal"
                assert data.n - res.upper_bound == oracle_disc(data, pattern, eps)
            for i in np.unique(scaled.cells.index, return_index=True)[1]:
                res = solve(build_flip_mip(scaled, h0, scaled.cells.index[i]))
                assert res.status == "certified_optimal"
                assert res.upper_bound == oracle_flip(data, pattern, int(i))
            checked += 1
        assert checked >= 6


class TestBaselineModel:
    def test_model_size_accounting(self, xor):
        model = build_baseline_mip(xor)
        n, nc = len(xor.examples), xor.d + 1
        assert model.lp.n_vars == n + 2 * nc
        assert len(model.binary_vars) == n

    def test_one_binary_per_cell(self):
        # 20 distinct (features, label, group) training rows on 6 cells
        train = ingest_csv(
            DATA / "compas_style.csv", "two_year_recid", "race"
        ).train
        h0 = LinearClassifier((-0.5, 0.5, 0.0, 0.0))
        assert len(train.examples) == 20
        assert len(train.cells.X) == 6
        for model in (
            build_baseline_mip(train),
            build_disc_mip(train, h0, 0),
            build_flip_mip(train, h0, 0),
        ):
            assert len(model.binary_vars) == len(train.cells.X)

    @pytest.mark.parametrize(
        "gamma", [0.0, -1e-4, float("inf"), float("nan"), 1e-9, 9.9e-6]
    )
    def test_gamma_must_be_positive_and_finite(self, xor, gamma):
        # below GAMMA_FLOOR the node LPs' row tolerance is a tenth of the
        # margin or more, so every builder refuses it
        for build in (
            lambda: build_baseline_mip(xor, gamma),
            lambda: build_disc_mip(xor, H_A, 0, gamma),
            lambda: build_flip_mip(xor, H_A, 0, gamma),
        ):
            with pytest.raises(ValueError, match="finite and at least 1e-05"):
                build()
        build_flip_mip(xor, H_A, 0, GAMMA_FLOOR)

    def test_gamma_sets_every_margin(self, xor):
        model = build_baseline_mip(xor, 0.01)
        assert model.metadata["gamma"] == 0.01
        m = len(xor.cells.X)
        assert np.all(model.lp.row_rhs[:m] == 0.01)
        assert np.array_equal(model.lp.row_coefs[:m, :m], np.diag(compute_big_m(xor, 0.01)))

    def test_separable_optimum_zero(self):
        data = Dataset.build(
            [
                Example((1.0, 0.0), -1),
                Example((1.0, 0.2), -1),
                Example((1.0, 0.8), 1),
                Example((1.0, 1.0), 1),
            ]
        )
        assert solve(build_baseline_mip(data)).upper_bound == 0.0

    def test_xor_optimum_25(self, xor):
        assert solve(build_baseline_mip(xor)).upper_bound == 25.0

    def test_conflict_pair_forces_one_even_in_relaxation(self):
        # the forced mistake of a mixed cell lives in the objective offset
        data = Dataset.build([Example((1.0, 2.0), 1), Example((1.0, 2.0), -1)])
        model = build_baseline_mip(data)
        relaxed = solve_lp(model.lp)
        assert relaxed.objective_value + model.objective_offset >= 1.0 - 1e-9
        assert solve(model).upper_bound == 1.0

    def test_decoded_risk_matches_objective_under_margin(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            data = random_binary_dataset(rng)
            model = build_baseline_mip(data)
            res = solve(model)
            h = classifier_from_solution(model, res.incumbent)
            _, clear = margin_clearance(h, data, model.metadata["gamma"])
            if clear:
                assert empirical_risk(h, data).mistakes == res.upper_bound


class TestDiscModel:
    def test_trivial_full_flip_at_eps_one(self, xor):
        model = build_disc_mip(xor, H_A, 1)
        res = solve(model)
        assert res.upper_bound == 0.0  # the negated baseline flips everything

    def test_xor_discrepancy_fifty(self, xor):
        res = solve(build_disc_mip(xor, H_A, 0))
        assert res.status == "certified_optimal"
        assert xor.n - res.upper_bound == 50

    def test_negative_epsilon_rejected(self, xor):
        with pytest.raises(ValueError):
            build_disc_mip(xor, H_A, -0.01)

    def test_random_optima_match_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            data = random_binary_dataset(rng)
            base_model = build_baseline_mip(data)
            base = solve(base_model)
            h0 = classifier_from_solution(base_model, base.incumbent)
            pattern = prediction_pattern(h0, data)
            for k in (0, 1, 2):
                eps = Fraction(k, data.n)
                res = solve(build_disc_mip(data, h0, eps))
                assert res.status == "certified_optimal"
                assert data.n - res.upper_bound == oracle_disc(data, pattern, eps)

    def test_semantics_bridge_decode_and_recompute(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            data = random_binary_dataset(rng)
            base_model = build_baseline_mip(data)
            base = solve(base_model)
            h0 = classifier_from_solution(base_model, base.incumbent)
            model = build_disc_mip(data, h0, Fraction(1, data.n))
            res = solve(model)
            h = classifier_from_solution(model, res.incumbent)
            _, clear = margin_clearance(h, data, model.metadata["gamma"])
            if not clear:
                continue
            agreements = res.upper_bound
            assert conflict_count(h, h0, data).mistakes == data.n - agreements
            # risk(h) = risk(h0) + sum_c h0(x_c) (P_c - N_c) (1 - u_c)
            cells = data.cells
            u = np.round(res.incumbent[: len(cells.X)])
            h0_cells = np.where(cells.X @ np.asarray(h0.coefficients) > 0, 1, -1)
            signed = h0_cells * (cells.pos - cells.neg)
            risk_from_identity = empirical_risk(h0, data).mistakes + int(
                (signed * (1 - u)).sum()
            )
            assert empirical_risk(h, data).mistakes == risk_from_identity


class TestFlipModel:
    def test_xor_flip_costs_25(self, xor):
        idx = next(
            i for i, ex in enumerate(xor.examples) if ex.features == (1.0, 1.0, 1.0)
        )
        res = solve(build_flip_mip(xor, H_A, idx))
        assert res.status == "certified_optimal"
        assert res.upper_bound == 25.0

    def test_incumbent_satisfies_flip_constraint(self, xor):
        from multiplicity.core import predictions

        base = predictions(H_A, xor)
        for i in range(len(xor.examples)):
            model = build_flip_mip(xor, H_A, i)
            res = solve(model)
            h = classifier_from_solution(model, res.incumbent)
            score = h.score(xor.examples[i].features)
            assert base[i] * score <= -model.metadata["gamma"] / 2

    def test_bad_index_rejected(self, xor):
        with pytest.raises(IndexError):
            build_flip_mip(xor, H_A, 99)

    def test_flip_row_is_the_one_row_added_to_the_baseline(self):
        data = random_binary_dataset(np.random.default_rng(4))  # 2 of 6 cells mixed
        base = build_baseline_mip(data).lp
        h0 = LinearClassifier((-0.5, 0.5, 0.0, 0.0))
        for c in range(len(data.cells.X)):
            model = build_flip_mip(data, h0, c)
            lp, at = model.lp, model.metadata["flip_row"]
            assert at == base.n_rows - 1
            keep = np.arange(lp.n_rows) != at
            assert np.array_equal(lp.row_coefs[keep], base.row_coefs)
            assert np.array_equal(lp.row_rhs[keep], base.row_rhs)
            assert np.array(lp.row_relations)[keep].tolist() == list(base.row_relations)

    def test_random_optima_match_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            data = random_binary_dataset(rng)
            base_model = build_baseline_mip(data)
            base = solve(base_model)
            h0 = classifier_from_solution(base_model, base.incumbent)
            pattern = prediction_pattern(h0, data)
            seen = set()
            for i, ex in enumerate(data.examples):
                if ex.features in seen:
                    continue
                seen.add(ex.features)
                res = solve(build_flip_mip(data, h0, data.cells.index[i]))
                assert res.status == "certified_optimal"
                assert res.upper_bound == oracle_flip(data, pattern, i)


class TestWarmStartEncoding:
    def test_round_trip_assignment_is_feasible(self, xor):
        model = build_baseline_mip(xor)
        values = assignment_from_classifier(model, xor, H_A)
        ok, report = check_feasible(model, values)
        assert ok, report
        assert float(model.lp.objective @ values) == 25.0

    def test_disc_assignment_counts_agreements(self, xor):
        model = build_disc_mip(xor, H_A, 0)
        values = assignment_from_classifier(model, xor, H_A)
        ok, report = check_feasible(model, values)
        assert ok, report
        assert float(model.lp.objective @ values) == 100.0


class TestMarginFloor:
    @pytest.mark.parametrize("gamma", [GAMMA_FLOOR, DEFAULT_GAMMA, 0.01])
    @pytest.mark.parametrize("slack, accepted", [(0.5, True), (2.0, False)])
    def test_every_check_reads_one_floor(self, gamma, slack, accepted):
        # cell 0, (1, 0), sits on its reference side at gamma less ``slack``
        # times the rows' tolerance; the other cells clear it by far
        score = gamma - slack * INT_TOL * (1 + gamma)
        assert (score >= margin_floor(gamma)) == accepted
        data = Dataset.build(
            [Example((1.0, 0.0), 1), Example((1.0, 1.0), 1), Example((1.0, -1.0), -1)]
        )
        h = LinearClassifier((score, 1.0 - score))
        model = build_baseline_mip(data, gamma)
        values = assignment_from_classifier(model, data, h)
        assert (values[0] == 0.0) == accepted  # the encoder puts cell 0 on its side
        values[0] = 0.0
        assert check_feasible(model, values)[0] == accepted
        assert margin_clearance(h, data, gamma) == (score, accepted)
        bank = ClassifierBank(data, LinearClassifier((-1.0, 0.0)), gamma)
        bank.add(h)
        assert (h in bank.flipping(0)) == accepted

    @pytest.mark.parametrize("source", ["compas_style", "random"])
    def test_every_program_pins_every_cell_from_both_sides(self, source):
        # 2m pinning rows in every program, pure cells as mixed ones: row c
        # holds M_c on u_c and s_c x_c on w+ and w- with rhs gamma, and row
        # m + c negates it with rhs gamma - M_c
        rng = np.random.default_rng(43)
        if source == "compas_style":
            # 20 training rows on 6 cells, 5 of them mixed
            path = DATA / "compas_style.csv"
            datasets = [ingest_csv(path, "two_year_recid", "race").train]
        else:
            datasets = [random_binary_dataset(rng) for _ in range(12)]
        pure = mixed = 0
        for train in datasets:
            cells, m = train.cells, len(train.cells.X)
            both = (cells.pos > 0) & (cells.neg > 0)
            pure, mixed = pure + int((~both).sum()), mixed + int(both.sum())
            h0 = LinearClassifier.from_raw(rng.uniform(-1, 1, train.d + 1))
            big_m = compute_big_m(train, DEFAULT_GAMMA)
            models = [build_baseline_mip(train), build_disc_mip(train, h0, 0)]
            models += [build_disc_mip(train, h0, Fraction(1, train.n))]
            models += [build_flip_mip(train, h0, c) for c in range(m)]
            for model in models:
                lp, reference = model.lp, model.metadata["reference"]
                extra = 1 if model.metadata["kind"] == "baseline" else 2
                assert lp.n_rows == 2 * m + extra
                rows = lp.dense(np.arange(2 * m))
                signed = cells.X * reference[:, None]
                assert np.array_equal(rows[:m, :m], np.diag(big_m))
                assert np.array_equal(rows[:m, m:], np.hstack([signed, signed]))
                assert np.array_equal(rows[m:], -rows[:m])
                assert np.array_equal(lp.row_rhs[:m], np.full(m, DEFAULT_GAMMA))
                assert np.array_equal(lp.row_rhs[m : 2 * m], DEFAULT_GAMMA - big_m)
                assert set(lp.row_relations[: 2 * m]) == {">="}
        assert pure and mixed


class TestMpsExport:
    def test_round_trip_preserves_optimum(self, tmp_path):
        rng = np.random.default_rng(37)
        for trial in range(6):
            data = random_binary_dataset(rng)
            model = build_baseline_mip(data)
            path = tmp_path / f"model_{trial}.mps"
            export_mps(model, path)
            reimported = read_mps(path)
            a = solve(model)
            b = solve(reimported)
            assert a.status == b.status == "certified_optimal"
            assert a.upper_bound == b.upper_bound

    def test_single_variable_golden_sections(self, tmp_path):
        lp = LinearProgram(
            objective=np.array([2.0]),
            row_coefs=np.array([[1.0]]),
            row_relations=(">=",),
            row_rhs=np.array([0.5]),
            var_lo=np.array([0.0]),
            var_hi=np.array([1.0]),
        )
        from multiplicity.branch_bound import MipModel

        model = MipModel(lp=lp, binary_vars=(), metadata={"kind": "tiny"})
        path = tmp_path / "tiny.mps"
        export_mps(model, path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("NAME")
        for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert any(line == section for line in lines), section
        order = [lines.index(s) for s in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA")]
        assert order == sorted(order)
        assert " N  OBJ" in lines
        assert " G  R0001" in lines

    def test_xor_model_reimports_to_25(self, tmp_path, xor):
        model = build_baseline_mip(xor)
        path = tmp_path / "xor.mps"
        export_mps(model, path)
        res = solve(read_mps(path))
        assert res.status == "certified_optimal"
        assert res.upper_bound == 25.0


def _cell_programs(data, h0, flips):
    """The baseline program of ``data``, its disc program at epsilon =
    1/n around ``h0`` and the flip program of each cell of ``flips``."""
    return [build_baseline_mip(data), build_disc_mip(data, h0, Fraction(1, data.n))] + [
        build_flip_mip(data, h0, c) for c in flips
    ]


def _line(m):
    """``m`` cells on a line, in runs of seven of one label."""
    return Dataset.build(
        [Example((1.0, i / m), 1 if (i // 7) % 2 else -1) for i in range(m)]
    )


class TestEntries:
    @pytest.mark.parametrize("source", ["xor", "tyranny", "compas_style", "line"])
    def test_a_cell_program_is_the_program_of_its_dense_rows(self, source):
        if source == "line":  # more rows than a leaf solves whole
            data, h0 = _line(150), LinearClassifier((-0.5, 0.5))
            models = _cell_programs(data, h0, [0, 75])
        else:
            if source == "compas_style":
                data = ingest_csv(DATA / "compas_style.csv", "two_year_recid", "race").train
            else:
                data = generate_synthetic(source)
            base = build_baseline_mip(data)
            h0 = classifier_from_solution(base, solve(base).incumbent)
            models = _cell_programs(data, h0, range(len(data.cells.X)))
        rng = np.random.default_rng(5)
        for model in models:
            lp = model.lp
            dense = LinearProgram(
                lp.objective, lp.row_coefs, lp.row_relations, lp.row_rhs, lp.var_lo, lp.var_hi
            )
            m = len(model.binary_vars)
            leaf = assignment_from_classifier(model, data, h0)[:m]
            fixings = [{}, dict(enumerate(leaf)), dict(enumerate(1.0 - leaf))]
            points = [assignment_from_classifier(model, data, h0)]
            points += list(lp.var_lo + (lp.var_hi - lp.var_lo) * rng.random((3, lp.n_vars)))
            assert_one_program(dense, lp, fixings, points)

    def test_no_array_of_a_large_program_is_quadratic_in_its_cells(self):
        # a pinning row holds 2(d+1) + 1 entries, so no array of a program
        # grows with the square of its cells
        data = _line(2000)
        m = len(data.cells.X)
        h0 = LinearClassifier((-0.5, 0.5))

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, dict):
                for item in value.values():
                    yield from arrays(item)
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)

        for model in (build_flip_mip(data, h0, 0), build_disc_mip(data, h0, 0)):
            held = list(arrays([vars(model.lp), model.metadata]))
            assert m == 2000 and len(held) >= 8
            assert max(a.size for a in held) < m * m
