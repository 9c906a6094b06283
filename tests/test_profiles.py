import csv
import json
import re
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiplicity import branch_bound, profiles
from multiplicity.branch_bound import SolveBudget, check_feasible, solve
from multiplicity.core import (
    Dataset,
    Example,
    InternalConsistencyError,
    LinearClassifier,
    MissingGroupError,
    RiskReport,
    conflict_count,
    empirical_risk,
    oversample_minority,
    predictions,
)
from multiplicity.datasets import generate_synthetic
from multiplicity.formulations import (
    DEFAULT_GAMMA,
    assignment_from_classifier,
    build_baseline_mip,
    build_flip_mip,
    classifier_from_solution,
    margin_clearance,
)
from multiplicity.profiles import (
    EpsilonGrid,
    MeasureValue,
    MultiplicityProfile,
    ClassifierBank,
    Measures,
    PathologicalPool,
    _flippable,
    _next_solve,
    ambiguity_path,
    burden_path,
    discrepancy_path,
    merge_profiles,
)
from multiplicity.reports import epsilon_labels, write_burden, write_profile
from multiplicity.simplex import basis_with_row
from conftest import random_binary_dataset, xor_dataset
from oracles import (
    oracle_ambiguity,
    oracle_disc,
    oracle_flip,
    prediction_pattern,
)

H_A = LinearClassifier((-0.2, 0.4, 0.4))


def fit_baseline(data):
    model = build_baseline_mip(data)
    res = solve(model)
    assert res.status == "certified_optimal"
    return classifier_from_solution(model, res.incumbent), res


class TestEpsilonGrid:
    def test_rejects_non_multiples(self):
        with pytest.raises(ValueError):
            EpsilonGrid(values=(Fraction(1, 3),), n=100)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            EpsilonGrid(values=(Fraction(1, 10), Fraction(1, 100)), n=100)

    def test_snapped_floors(self):
        grid = EpsilonGrid.snapped([0, 0.013, 0.25], 40)
        assert grid.values == (Fraction(0), Fraction(10, 40))

    def test_default_covers_bound_range(self):
        grid = EpsilonGrid.default(100, Fraction(1, 4))
        assert grid.values[0] == 0
        assert grid.values[-1] == Fraction(1, 10)
        assert Fraction(1, 100) in grid.values

    def test_default_with_zero_risk(self):
        grid = EpsilonGrid.default(50, Fraction(0))
        assert grid.values == (Fraction(0),)

    @pytest.mark.parametrize("value", [Fraction(-1, 100), Fraction(101, 100)])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            EpsilonGrid(values=(Fraction(0), value), n=100)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.fractions(min_value=-1, max_value=2, max_denominator=12), max_size=6
        ),
        n=st.integers(1, 24),
    )
    def test_errors_match_fraction_comparisons(self, values, n):
        # the checks run on integers; each error and its message is the one
        # that comparing the Fractions in turn gives
        if not values:
            expected = "epsilon grid must be nonempty"
        elif any(v < 0 or v > 1 for v in values):
            expected = "epsilon values must lie in [0, 1]"
        elif any(b <= a for a, b in zip(values, values[1:])):
            expected = "epsilon values must be strictly increasing"
        else:
            bad = [v for v in values if n % v.denominator]
            expected = f"epsilon {bad[0]} is not a multiple of 1/{n}" if bad else None
        if expected is None:
            assert EpsilonGrid(values=tuple(values), n=n).values == tuple(values)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                EpsilonGrid(values=tuple(values), n=n)

    def test_counts_and_thresholds(self):
        grid = EpsilonGrid(values=(Fraction(0), Fraction(1, 20), Fraction(1, 4)), n=40)
        assert grid.counts.tolist() == [0, 2, 10]
        assert grid.thresholds(3) == [3, 5, 13]


class TestMeasureValue:
    def test_orders_bounds(self):
        with pytest.raises(ValueError):
            MeasureValue(Fraction(1, 2), Fraction(1, 4), certified=False)

    def test_certified_needs_equality(self):
        with pytest.raises(ValueError):
            MeasureValue(Fraction(1, 4), Fraction(1, 2), certified=True)


class TestMeasures:
    def test_rejects_bad_tables(self):
        ok = dict(lower=[0, 1], upper=[1, 2], certified=[False, False], total=4)
        Measures(**ok)
        for bad in (
            dict(lower=[0]),  # ragged
            dict(lower=[-1, 1]),
            dict(lower=[2, 1]),  # lower above upper
            dict(upper=[1, 5]),  # upper above the total
            dict(certified=[True, False]),  # certified with an open interval
        ):
            with pytest.raises(ValueError):
                Measures(**{**ok, **bad})

    def test_columns_are_read_only_copies(self):
        lower = np.array([0, 1])
        table = Measures(lower, [1, 1], [False, True], 3)
        lower[0] = 1
        assert table.lower.tolist() == [0, 1]
        for column in (table.lower, table.upper, table.certified):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_rows_are_measure_values(self):
        table = Measures([0, 2, 3], [1, 2, 6], [False, True, False], 6)
        assert len(table) == 3
        for i, row in enumerate(table):
            assert row == MeasureValue(
                Fraction(int(table.lower[i]), 6),
                Fraction(int(table.upper[i]), 6),
                bool(table.certified[i]),
            )

    def test_profile_raises_on_a_broken_invariant(self):
        base = RiskReport(1, 10)
        grid = EpsilonGrid((Fraction(0), Fraction(1, 10)), 10)
        assert grid.caps(base.mistakes).tolist() == [2, 3]
        open_ = np.zeros(2, dtype=bool)
        MultiplicityProfile(base, grid, discrepancy=Measures([0, 0], [2, 3], open_, 10))
        for side in ("discrepancy", "ambiguity"):
            for lower, upper in (([1, 0], [2, 2]), ([0, 0], [2, 1])):
                table = Measures(lower, upper, open_, 10)
                with pytest.raises(InternalConsistencyError, match="not monotone"):
                    MultiplicityProfile(base, grid, **{side: table})
        with pytest.raises(InternalConsistencyError, match="bound violated at eps=1/10"):
            MultiplicityProfile(base, grid, discrepancy=Measures([0, 0], [2, 4], open_, 10))
        # the cap bounds discrepancy only
        MultiplicityProfile(base, grid, ambiguity=Measures([0, 0], [9, 10], open_, 10))
        # counts out of another total, one entry short, a grid of another n
        for table in (Measures([0, 0], [2, 3], open_, 11), Measures([0], [2], [False], 10)):
            with pytest.raises(ValueError):
                MultiplicityProfile(base, grid, ambiguity=table)
        with pytest.raises(ValueError):
            MultiplicityProfile(base, EpsilonGrid((Fraction(0),), 20))
        # a witness column one entry short
        with pytest.raises(ValueError, match="one entry per grid value"):
            MultiplicityProfile(base, grid, witnesses=[None])


class TestDiscrepancyPath:
    def test_xor_at_zero(self, xor):
        h0, _ = fit_baseline(xor)
        grid = EpsilonGrid((Fraction(0),), 100)
        profile, results = discrepancy_path(ClassifierBank(xor, h0), grid)
        entry = profile.discrepancy[0]
        assert entry.certified
        assert entry.value == Fraction(1, 2)
        assert all(r.status == "certified_optimal" for _, r in results)

    def test_full_flip_at_eps_one(self, xor):
        grid = EpsilonGrid((Fraction(1),), 100)
        profile, _ = discrepancy_path(ClassifierBank(xor, H_A), grid)
        assert profile.discrepancy[0].value == 1

    def test_witnesses_stay_in_level_set(self, xor):
        h0, _ = fit_baseline(xor)
        grid = EpsilonGrid(tuple(Fraction(k, 100) for k in (0, 5, 10)), 100)
        profile, _ = discrepancy_path(ClassifierBank(xor, h0), grid)
        base = profile.baseline.mistakes
        for eps, witness in zip(grid.values, profile.witnesses, strict=True):
            assert empirical_risk(witness, xor).mistakes <= base + eps * 100

    def test_objective_sequence_non_increasing(self):
        rng = np.random.default_rng(43)
        data = random_binary_dataset(rng)
        h0, _ = fit_baseline(data)
        grid = EpsilonGrid(tuple(Fraction(k, data.n) for k in range(4)), data.n)
        _, results = discrepancy_path(ClassifierBank(data, h0), grid)
        uppers = [r.upper_bound for _, r in sorted(results, key=lambda t: t[0])]
        assert uppers == sorted(uppers, reverse=True)

    def test_random_values_match_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(8):
            data = random_binary_dataset(rng)
            h0, _ = fit_baseline(data)
            pattern = prediction_pattern(h0, data)
            grid = EpsilonGrid(tuple(Fraction(k, data.n) for k in range(3)), data.n)
            profile, _ = discrepancy_path(ClassifierBank(data, h0), grid)
            for eps, disc in zip(profile.grid.values, profile.discrepancy):
                expect = Fraction(oracle_disc(data, pattern, eps), data.n)
                assert disc.certified
                assert disc.value == expect

    def test_dense_grid_fills_points_between_equal_values(self):
        rng = np.random.default_rng(71)
        points = solves = 0
        for _ in range(8):
            data = random_binary_dataset(rng)
            h0, _ = fit_baseline(data)
            pattern = prediction_pattern(h0, data)
            grid = EpsilonGrid(tuple(Fraction(k, data.n) for k in range(8)), data.n)
            profile, results = discrepancy_path(ClassifierBank(data, h0), grid)
            for eps, disc, witness in zip(
                profile.grid.values, profile.discrepancy, profile.witnesses
            ):
                expect = Fraction(oracle_disc(data, pattern, eps), data.n)
                assert disc.certified
                assert disc.value == expect
                disagree = conflict_count(witness, h0, data).mistakes
                assert Fraction(disagree, data.n) == expect
            assert [eps for eps, _ in results] == sorted({eps for eps, _ in results})
            assert len(results) <= len(grid.values)
            points += len(grid.values)
            solves += len(results)
        assert solves < points

    def test_node_limited_lower_bounds_follow_witnesses(self, tmp_path):
        rng = np.random.default_rng(73)
        uncertified = 0
        for k in range(6):
            data = random_binary_dataset(rng)
            h0, _ = fit_baseline(data)
            grid = EpsilonGrid(tuple(Fraction(j, data.n) for j in range(8)), data.n)
            runs = []
            for rerun in range(2):
                profile, _ = discrepancy_path(
                    ClassifierBank(data, h0), grid, budget=SolveBudget(node_limit=1)
                )
                outdir = tmp_path / f"{k}-{rerun}"
                outdir.mkdir()
                write_profile(outdir, profile, epsilon_labels(grid.values))
                runs.append((outdir / "profile.json").read_bytes())
            assert runs[0] == runs[1]
            payload = json.loads(runs[0])
            # the lower bound at eps is the best witness at or below eps
            best = 0
            for entry in payload["entries"]:
                disc = entry["discrepancy"]
                coefficients = payload["witnesses"].get(entry["epsilon_exact"])
                if coefficients is not None:
                    witness = LinearClassifier(tuple(coefficients))
                    best = max(best, conflict_count(witness, h0, data).mistakes)
                assert Fraction(disc["lower_exact"]) == Fraction(best, data.n)
                if disc["certified"]:
                    assert disc["lower_exact"] == disc["upper_exact"]
                uncertified += not disc["certified"]
        assert uncertified > 0

    @pytest.mark.parametrize("node_limit", [None, 1], ids=["certified", "node-limit-1"])
    def test_banked_witnesses_prove_their_lower_bounds(self, tmp_path, node_limit):
        # a banked classifier that clears the margin counts from the first
        # epsilon whose level set admits it, wherever it was found: each
        # reported witness must lie in its level set and conflict with h0 on
        # exactly the lower bound, and node-limited reruns repeat byte for byte
        rng = np.random.default_rng(79)
        budget = None if node_limit is None else SolveBudget(node_limit=node_limit)
        for k in range(6):
            data = random_binary_dataset(rng)
            h0, _ = fit_baseline(data)
            base, n = empirical_risk(h0, data).mistakes, data.n
            pattern = prediction_pattern(h0, data)
            grid = EpsilonGrid(tuple(Fraction(j, n) for j in range(n + 1)), n)
            runs = []
            for rerun in range(2):
                profile, _ = discrepancy_path(ClassifierBank(data, h0), grid, budget=budget)
                outdir = tmp_path / f"{k}-{rerun}"
                outdir.mkdir()
                write_profile(outdir, profile, epsilon_labels(grid.values))
                runs.append((outdir / "profile.json").read_bytes())
            assert runs[0] == runs[1]
            payload = json.loads(runs[0])
            for entry in payload["entries"]:
                eps, disc = Fraction(entry["epsilon_exact"]), entry["discrepancy"]
                coefficients = payload["witnesses"][entry["epsilon_exact"]]
                witness = LinearClassifier(tuple(coefficients))
                assert empirical_risk(witness, data).mistakes <= base + eps * n
                lower = Fraction(disc["lower_exact"])
                assert conflict_count(witness, h0, data).mistakes == n * lower
                if disc["certified"]:
                    assert lower == Fraction(oracle_disc(data, pattern, eps), n)

    def test_truncated_interval_contains_truth(self, xor):
        h0, _ = fit_baseline(xor)
        grid = EpsilonGrid((Fraction(0),), 100)
        exact, _ = discrepancy_path(ClassifierBank(xor, h0), grid)
        truth = exact.discrepancy[0].value
        truncated, _ = discrepancy_path(
            ClassifierBank(xor, h0), grid, budget=SolveBudget(node_limit=1)
        )
        entry = truncated.discrepancy[0]
        assert entry.lower <= truth <= entry.upper


class TestClassifierBank:
    def test_rows_match_the_core_counts_and_keep_every_feasible_flip(self):
        # a classifier left out of a cell's candidates is one its flip
        # program rejects, so the warm-start pick is that of a full scan
        rng = np.random.default_rng(83)
        feasible_pairs = 0
        for _ in range(12):
            data = random_binary_dataset(rng)
            h0, _ = fit_baseline(data)
            bank = ClassifierBank(data, h0)
            for _ in range(20):
                bank.add(LinearClassifier.from_raw(rng.normal(size=data.d + 1)))
            # the flip incumbents sit on the margin of their flip rows
            ambiguity_path(bank, EpsilonGrid((Fraction(0),), data.n))
            assert bank.classifiers[:2] == [h0, h0.negated()]
            assert bank.risk == empirical_risk(h0, data)
            for r, g in enumerate(bank.classifiers):
                assert bank.mistakes[r] == empirical_risk(g, data).mistakes
                assert bank.conflicts[r] == conflict_count(g, h0, data).mistakes
                assert bank.clears[r] == margin_clearance(g, data, DEFAULT_GAMMA)[1]
            ranked = sorted(range(len(bank.classifiers)), key=bank.mistakes.__getitem__)
            for c in range(len(data.cells.X)):
                model = build_flip_mip(data, h0, c)
                candidates = list(bank.flipping(c))
                for r in ranked:
                    g = bank.classifiers[r]
                    if check_feasible(model, assignment_from_classifier(model, data, g))[0]:
                        assert g in candidates
                        feasible_pairs += 1
                in_order = [bank.classifiers[r] for r in ranked]
                assert candidates == [g for g in in_order if g in candidates]
        assert feasible_pairs > 0


class TestAmbiguityPath:
    def test_xor_at_zero(self, xor):
        h0, res = fit_baseline(xor)
        grid = EpsilonGrid((Fraction(0),), 100)
        profile, pool, results = ambiguity_path(ClassifierBank(xor, h0), grid)
        entry = profile.ambiguity[0]
        assert entry.certified and entry.value == 1
        assert len(pool.classifiers) == len(xor.cells.X)
        sides = [x @ g.coefficients > 0.0 for x, g in zip(xor.cells.X, pool.classifiers)]
        assert (np.array(sides) != (xor.cells.X @ h0.coefficients > 0.0)).all()
        assert pool.certified.all()
        assert (pool.mistakes_lower == 25).all() and (pool.mistakes_upper == 25).all()
        assert not pool.mistakes_upper.flags.writeable

    def test_eps_one_is_total(self, xor):
        grid = EpsilonGrid((Fraction(1),), 100)
        profile, _, _ = ambiguity_path(ClassifierBank(xor, H_A), grid)
        assert profile.ambiguity[0].value == 1

    def test_pool_lower_bound_respects_baseline(self, xor):
        h0, _ = fit_baseline(xor)
        _, pool, _ = ambiguity_path(ClassifierBank(xor, h0), EpsilonGrid((Fraction(0),), 100))
        assert (pool.mistakes_lower >= pool.baseline_mistakes).all()

    def test_random_values_match_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            data = random_binary_dataset(rng)
            h0, _ = fit_baseline(data)
            pattern = prediction_pattern(h0, data)
            grid = EpsilonGrid(tuple(Fraction(k, data.n) for k in range(3)), data.n)
            profile, pool, _ = ambiguity_path(ClassifierBank(data, h0), grid)
            for i, cell in enumerate(data.cells.index):
                assert pool.mistakes_upper[cell] == oracle_flip(data, pattern, i)
            for eps, amb in zip(profile.grid.values, profile.ambiguity):
                assert amb.certified
                assert amb.value == oracle_ambiguity(data, pattern, eps)

    @pytest.mark.parametrize("seed", [50, 134, 257])
    def test_flip_intervals_hold_around_an_open_baseline(self, seed):
        # a baseline stopped at its root leaves h0 one mistake above the
        # optimum, so h0's count is no lower bound on a flip
        data = random_binary_dataset(np.random.default_rng(seed))
        model = build_baseline_mip(data)
        base = solve(model, budget=SolveBudget(node_limit=1))
        h0 = classifier_from_solution(model, base.incumbent)
        assert base.lower_bound < empirical_risk(h0, data).mistakes
        pattern = prediction_pattern(h0, data)
        grid = EpsilonGrid((Fraction(0),), data.n)
        for baseline in (None, base):
            _, pool, _ = ambiguity_path(ClassifierBank(data, h0), grid, baseline=baseline)
            for i, cell in enumerate(data.cells.index):
                truth = oracle_flip(data, pattern, i)
                assert pool.mistakes_lower[cell] <= truth <= pool.mistakes_upper[cell]

    def test_pool_rejects_inconsistent_bounds(self):
        # a lower bound above the upper one, or an open certified cell
        table = dict(
            classifiers=(None, None), certified=[False, True], baseline_mistakes=0,
        )
        PathologicalPool(mistakes_lower=[1, 2], mistakes_upper=[3, 2], **table)
        for lower in ([4, 2], [1, 1]):
            with pytest.raises(InternalConsistencyError):
                PathologicalPool(mistakes_lower=lower, mistakes_upper=[3, 2], **table)

    def test_past_deadline_lower_bounds_follow_baseline_certification(self):
        # every solve stops before its root LP, so its lower bound is the
        # baseline hint or nothing at all (four features: no labeling pass)
        data = random_binary_dataset(np.random.default_rng(0), d=4)
        h0, res = fit_baseline(data)
        grid = EpsilonGrid((Fraction(0),), data.n)
        budget = SolveBudget(deadline=time.monotonic() - 1)
        for baseline, floor in ((res, 6), (None, 0)):
            _, pool, results = ambiguity_path(
                ClassifierBank(data, h0), grid, budget=budget, baseline=baseline
            )
            assert [r.nodes_explored for r in results] == [0] * len(results)
            assert not pool.certified.any()
            assert pool.baseline_mistakes == 6
            assert (pool.mistakes_lower == floor).all()

    # four features, so every flip program goes to branch-and-bound.  xor
    # (with two zero features): the second cell's best warm start is the
    # first cell's flip; seed 8: two feasible classifiers tie, so the tie
    # order shows
    @pytest.mark.parametrize(
        "make_data",
        [
            lambda: Dataset.build(
                Example(ex.features + (0.0, 0.0), ex.label, weight=ex.weight)
                for ex in xor_dataset().examples
            ),
            lambda: random_binary_dataset(np.random.default_rng(8), d=4),
        ],
        ids=["xor", "random4-8"],
    )
    def test_each_flip_warm_starts_from_the_best_earlier_classifier(
        self, make_data, monkeypatch
    ):
        solves = []
        solve_flip = branch_bound.solve

        def spy(model, warm_start=None, **kwargs):
            solves.append((model, warm_start))
            return solve_flip(model, warm_start=warm_start, **kwargs)

        data = make_data()
        h0, _ = fit_baseline(data)
        seeds = [h0]  # ranks first but flips no cell, so it is never feasible
        candidates = ClassifierBank(data, h0)
        for g in seeds:
            candidates.add(g)
        monkeypatch.setattr(branch_bound, "solve", spy)
        _, pool, _ = ambiguity_path(candidates, EpsilonGrid((Fraction(0),), data.n))
        # the bank: h0 negated, the seeds, then each flip in cell order;
        # a stable sort keeps ties in that order
        bank = [h0.negated(), *seeds]
        sources = []
        for c, (model, warm) in enumerate(solves):
            ranked = sorted(
                range(len(bank)), key=lambda k: empirical_risk(bank[k], data).mistakes
            )
            encoded = [assignment_from_classifier(model, data, g) for g in bank]
            first = next(k for k in ranked if check_feasible(model, encoded[k])[0])
            assert np.array_equal(warm, encoded[first])
            sources.append(first)
            bank.append(pool.classifiers[c])
        assert len(solves) == len(data.cells.X)
        assert any(k >= 1 + len(seeds) for k in sources)  # an earlier flip

    def test_certified_flip_that_keeps_its_cell_raises(self, monkeypatch):
        # a certified flip solve whose classifier predicts like h0 on its
        # cell is a solver bug: here every flip incumbent decodes to h0
        # (no program is built at a gamma small enough to let one through);
        # four features: branch-and-bound
        data = random_binary_dataset(np.random.default_rng(0), d=4)
        model = build_baseline_mip(data)
        base = solve(model)
        h0 = classifier_from_solution(model, base.incumbent)
        monkeypatch.setattr(profiles, "classifier_from_solution", lambda model, values: h0)
        with pytest.raises(InternalConsistencyError, match="cell 0 does not flip it"):
            ambiguity_path(
                ClassifierBank(data, h0), EpsilonGrid((Fraction(0),), data.n), baseline=base
            )


class TestRootStarts:
    def test_every_root_but_the_first_starts_warm(self, node_lps):
        # four features, so every path program goes to branch-and-bound:
        # three disc solves on its default grid, eight flip solves
        data = random_binary_dataset(np.random.default_rng(0), d=4)
        model = build_baseline_mip(data)
        base = solve(model)
        assert node_lps[0][1] is None and base.root_basis is node_lps[0][2].basis
        h0 = classifier_from_solution(model, base.incumbent)
        grid = EpsilonGrid.default(data.n, empirical_risk(h0, data).rate)

        del node_lps[:]
        _, solves = discrepancy_path(ClassifierBank(data, h0), grid)
        roots = [(start, sol) for fixings, start, sol in node_lps if not fixings]
        assert len(roots) == len(solves) == 3
        assert roots[0][0] is None
        for (_, previous), (start, _) in zip(roots, roots[1:]):
            assert start is previous.basis

        del node_lps[:]
        _, _, results = ambiguity_path(ClassifierBank(data, h0), grid, baseline=base)
        roots = [start for fixings, start, _ in node_lps if not fixings]
        assert len(roots) == len(results) == len(data.cells.X)
        # the flip row sits just before the l1 row, the baseline's last
        grown = basis_with_row(base.root_basis, base.root_basis.columns.size - 1)
        for start in roots:
            assert np.array_equal(start.columns, grown.columns)
            assert np.array_equal(start.at_upper, grown.at_upper)


class TestMonotonicityAndBound:
    def test_merged_profile_monotone(self):
        rng = np.random.default_rng(61)
        for _ in range(6):
            data = random_binary_dataset(rng)
            h0, res = fit_baseline(data)
            grid = EpsilonGrid(
                tuple(Fraction(k, data.n) for k in range(0, 5)), data.n
            )
            bank = ClassifierBank(data, h0)  # the witnesses warm-start flip solves
            disc, _ = discrepancy_path(bank, grid)
            amb, _, _ = ambiguity_path(bank, grid)
            profile = merge_profiles(disc, amb)
            values_d = [m.value for m in profile.discrepancy]
            values_a = [m.value for m in profile.ambiguity]
            assert values_d == sorted(values_d)
            assert values_a == sorted(values_a)
            rate = profile.baseline.rate
            slacks = [
                2 * rate + eps - m.upper for eps, m in zip(grid.values, profile.discrepancy)
            ]
            assert all(s >= 0 for s in slacks)

    def test_integer_cap_checks_match_fraction_arithmetic(self):
        # random n, baseline mistakes, grids and monotone discrepancy uppers:
        # the profile's integer check against grid.caps raises exactly when
        # some upper exceeds min(1, 2 * rate + eps) in Fractions
        rng = np.random.default_rng(17)
        raised = 0
        for _ in range(300):
            n = int(rng.integers(1, 60))
            base = RiskReport(int(rng.integers(0, n + 1)), n)
            ks = np.unique(rng.integers(0, n + 1, int(rng.integers(1, 6))))
            grid = EpsilonGrid(tuple(Fraction(int(k), n) for k in ks), n)
            uppers = np.sort(rng.integers(0, n + 1, len(ks)))
            size = len(uppers)
            disc = Measures(np.zeros(size), uppers, np.zeros(size, dtype=bool), n)
            over = any(
                Fraction(int(u), n) > min(1, 2 * base.rate + eps)
                for u, eps in zip(uppers, grid.values)
            )
            if over:
                raised += 1
                with pytest.raises(InternalConsistencyError, match="bound violated"):
                    MultiplicityProfile(base, grid, discrepancy=disc)
                continue
            profile = MultiplicityProfile(base, grid, discrepancy=disc)
            assert [m.upper * n for m in profile.discrepancy] == uppers.tolist()
        assert 0 < raised < 300

    def test_merge_rejects_different_grids(self, xor):
        h0, _ = fit_baseline(xor)
        two = EpsilonGrid((Fraction(0), Fraction(1, 100)), 100)
        disc, _ = discrepancy_path(ClassifierBank(xor, h0), two)
        amb, _, _ = ambiguity_path(ClassifierBank(xor, h0), EpsilonGrid((Fraction(0),), 100))
        with pytest.raises(ValueError):
            merge_profiles(disc, amb)

    def test_xor_bound_tight(self, xor):
        h0, _ = fit_baseline(xor)
        grid = EpsilonGrid((Fraction(0),), 100)
        disc, _ = discrepancy_path(ClassifierBank(xor, h0), grid)
        slack = 2 * disc.baseline.rate + grid.values[0] - disc.discrepancy[0].upper
        assert slack == 0  # 0.5 == 2 * 0.25 + 0
        assert disc.discrepancy.upper.tolist() == grid.caps(disc.baseline.mistakes).tolist()

    def test_zero_risk_baseline_pins_discrepancy(self):
        data = Dataset.build(
            [
                Example((1.0, 0.0), -1, weight=5),
                Example((1.0, 1.0), 1, weight=5),
            ]
        )
        h0, res = fit_baseline(data)
        assert empirical_risk(h0, data).mistakes == 0
        grid = EpsilonGrid((Fraction(0),), data.n)
        disc, _ = discrepancy_path(ClassifierBank(data, h0), grid)
        assert disc.discrepancy[0].value == 0

    def test_witness_conflicts_are_ambiguous(self):
        # conditional cross-relation: alpha >= delta when the witness certifies
        rng = np.random.default_rng(67)
        for _ in range(6):
            data = random_binary_dataset(rng)
            h0, _ = fit_baseline(data)
            grid = EpsilonGrid((Fraction(0), Fraction(1, data.n)), data.n)
            bank = ClassifierBank(data, h0)  # the witnesses warm-start flip solves
            disc, _ = discrepancy_path(bank, grid)
            amb, pool, _ = ambiguity_path(bank, grid)
            profile = merge_profiles(disc, amb)
            base_preds = predictions(h0, data)
            for eps, disc, amb, witness in zip(
                profile.grid.values, profile.discrepancy, profile.ambiguity,
                profile.witnesses,
            ):
                if not disc.certified:
                    continue
                assert amb.lower >= disc.value
                witness_preds = predictions(witness, data)
                threshold = profile.baseline.mistakes + int(eps * data.n)
                for i in np.flatnonzero(witness_preds != base_preds):
                    assert pool.mistakes_upper[data.cells.index[i]] <= threshold


class TestCountBookkeeping:
    """The array bookkeeping of the paths against per-point loops."""

    def test_flippable_matches_per_example_loop(self):
        # random examples in random cells with random group tags, so that
        # one cell can carry weight from several groups
        rng = np.random.default_rng(23)
        shared = 0
        for _ in range(50):
            size = int(rng.integers(1, 12))
            width = int(rng.integers(1, size + 1))
            data = Dataset.build(
                Example(
                    (1.0, float(rng.integers(width))), int(rng.choice([-1, 1])),
                    f"g{rng.integers(3)}", int(rng.integers(1, 6)),
                )
                for _ in range(size)
            )
            cell, cells = data.cells.index, len(data.cells.X)
            lower = rng.integers(0, 20, cells)
            upper = lower + rng.integers(0, 5, cells)
            pool = SimpleNamespace(mistakes_upper=upper, mistakes_lower=lower)
            thresholds = rng.integers(-2, 28, 9)  # unsorted, some out of range
            tagged = np.array(list(data.group_weights.values())) > 0
            shared += int((tagged.sum(axis=0) > 1).sum())
            weights = {None: data.cells.pos + data.cells.neg, **data.group_weights}
            for group, cell_weights in weights.items():
                members = [i for i, g in enumerate(data.groups) if group in (None, g)]
                counts = _flippable(pool, cell_weights, thresholds)
                assert counts.total == sum(int(data.weights[i]) for i in members)
                assert list(counts.certified) == list(counts.lower == counts.upper)
                for t, got_low, got_up in zip(thresholds, counts.lower, counts.upper):
                    want_low = want_up = 0
                    for i in members:
                        want_low += int(data.weights[i]) * (upper[cell[i]] <= t)
                        want_up += int(data.weights[i]) * (lower[cell[i]] <= t)
                    assert (got_low, got_up) == (want_low, want_up)
        assert shared > 0

    def test_best_placed_and_next_solve_match_loops(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            size = int(rng.integers(1, 15))
            solved_at = rng.choice(size, int(rng.integers(0, size + 1)), replace=False)
            thresholds = np.cumsum(rng.integers(1, 4, size)).tolist()
            total = int(rng.integers(1, 8))
            bank = SimpleNamespace(
                classifiers=[f"classifier {r}" for r in range(total)],
                mistakes=rng.integers(0, thresholds[-1] + 3, total).tolist(),
                conflicts=rng.integers(0, 6, total).tolist(),
                clears=(rng.random(total) < 0.7).tolist(),
            )
            pinned = [
                (int(rng.integers(total)), int(rng.integers(size)), int(rng.integers(6)))
                for _ in range(int(rng.integers(0, 3)))
            ]
            places = [  # (count, grid index, row) of every placement
                (bank.conflicts[r], next(i for i, t in enumerate(thresholds) if m <= t), r)
                for r, m in enumerate(bank.mistakes)
                if bank.clears[r] and m <= thresholds[-1]
            ] + [(count, i, r) for r, i, count in pinned]
            best, counts = ClassifierBank.best_placed(bank, thresholds, pinned)
            for index in range(size):
                left = [p for p in places if p[1] <= index]
                want = max(left) if left else (0, None, -1)
                assert (counts[index], best[index]) == (want[0], want[2])

            lows = rng.integers(0, 4, size)
            ups = lows + (rng.random(size) < 0.5)
            solved = dict.fromkeys(int(i) for i in solved_at)
            last = size - 1
            if last not in solved and lows[last] < ups[last]:
                want = last
            else:
                run = []
                for i, (lo, up) in enumerate(zip(lows, ups)):
                    if i not in solved and lo < up:
                        run.append(i)
                    elif run:
                        break
                want = run[len(run) // 2] if run else None
            assert _next_solve(solved, lows, ups) == want


def burden_at(pool, data, eps):
    """Each group's burden at one epsilon: ``burden_path`` at one threshold."""
    threshold = pool.baseline_mistakes + int(eps * data.n)
    return {group: m for group, (m,) in burden_path(pool, data, [threshold]).items()}


class TestGroupBurden:
    def test_missing_tags_rejected(self, xor):
        h0, _ = fit_baseline(xor)
        _, pool, _ = ambiguity_path(ClassifierBank(xor, h0), EpsilonGrid((Fraction(0),), 100))
        with pytest.raises(MissingGroupError):
            burden_at(pool, xor, 0)

    def test_single_group_equals_overall(self):
        examples = [
            Example(ex.features, ex.label, group="only", weight=ex.weight)
            for ex in xor_dataset().examples
        ]
        data = Dataset.build(examples)
        h0, _ = fit_baseline(data)
        grid = EpsilonGrid((Fraction(0),), data.n)
        profile, pool, _ = ambiguity_path(ClassifierBank(data, h0), grid)
        rates = burden_at(pool, data, 0)
        assert rates["only"].value == profile.ambiguity[0].value

    def test_group_weighted_burden_sums_to_ambiguity(self):
        # sum_g weight_g * burden_g = n * ambiguity, on both bounds, also
        # when node-limited solves leave intervals open
        rng = np.random.default_rng(71)
        for _ in range(6):
            plain = random_binary_dataset(rng)
            data = Dataset.build(
                Example(ex.features, ex.label, f"g{rng.integers(3)}", ex.weight)
                for ex in plain.examples
            )
            h0, _ = fit_baseline(data)
            grid = EpsilonGrid(tuple(Fraction(k, data.n) for k in range(4)), data.n)
            groups = np.array(data.groups)
            for budget in (None, SolveBudget(node_limit=1)):
                bank = ClassifierBank(data, h0)
                profile, pool, _ = ambiguity_path(bank, grid, budget=budget)
                for eps, amb in zip(grid.values, profile.ambiguity):
                    burden = burden_at(pool, data, eps)
                    for side in ("lower", "upper"):
                        weighted = sum(
                            int(data.weights[groups == g].sum()) * getattr(m, side)
                            for g, m in burden.items()
                        )
                        assert weighted == data.n * getattr(amb, side)

    def test_engineered_two_group_split(self, tmp_path):
        # only group A's cell admits a free flip at eps = 0; A's name holds
        # a comma, which burden.csv must quote
        a = "Hispanic, other"
        examples = [
            Example((1.0, 0.0), 1, group=a, weight=2),
            Example((1.0, 0.0), -1, group=a, weight=2),
            Example((1.0, 1.0), 1, group="B", weight=4),
        ]
        data = Dataset.build(examples)
        h0, res = fit_baseline(data)
        assert res.upper_bound == 2.0  # the conflicted cell costs 2 either way
        grid = EpsilonGrid((Fraction(0),), data.n)
        _, pool, _ = ambiguity_path(ClassifierBank(data, h0), grid)
        rates = burden_at(pool, data, 0)
        assert rates[a].value == 1
        assert rates["B"].value == 0
        write_burden(tmp_path, pool, data, grid, epsilon_labels(grid.values))
        with open(tmp_path / "burden.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [
            ["B", "0", "0.0", "0.0", "true"],
            [a, "0", "1.0", "1.0", "true"],
        ]

    def test_tyranny_burden_oracle_values(self):
        # frozen from the arrangement oracle at oversample seed 0: the two
        # extra negative weights land in group B's (1,0) and (1,1) cells,
        # making those flips free and leaving B with the strictly larger
        # burden at eps = 0.
        full = generate_synthetic("tyranny")
        data = oversample_minority(full, seed=0)
        h0, res = fit_baseline(data)
        assert res.upper_bound == 602.0
        grid = EpsilonGrid((Fraction(0),), data.n)
        _, pool, _ = ambiguity_path(ClassifierBank(data, h0), grid)
        rates = burden_at(pool, data, 0)
        assert rates["A"].value == Fraction(1, 2)
        assert rates["B"].value == Fraction(151, 301)
        assert rates["B"].value > rates["A"].value
