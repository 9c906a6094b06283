import csv
import json
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from multiplicity import branch_bound, cli
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
    assignment_from_classifier,
    build_baseline_mip,
    classifier_from_solution,
)
from multiplicity.profiles import (
    EpsilonGrid,
    MeasureValue,
    MultiplicityProfile,
    PathologicalPool,
    ProfileEntry,
    _best_left,
    _flippable,
    _next_solve,
    ambiguity_path,
    check_discrepancy_bound,
    discrepancy_path,
    group_burden,
    merge_profiles,
)
from multiplicity.reports import write_burden, write_profile
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


class TestDiscrepancyPath:
    def test_xor_at_zero(self, xor):
        h0, _ = fit_baseline(xor)
        profile, results = discrepancy_path(xor, h0, EpsilonGrid((Fraction(0),), 100))
        entry = profile.entries[0].discrepancy
        assert entry.certified
        assert entry.value == Fraction(1, 2)
        assert all(r.status == "certified_optimal" for _, r in results)

    def test_full_flip_at_eps_one(self, xor):
        profile, _ = discrepancy_path(xor, H_A, EpsilonGrid((Fraction(1),), 100))
        assert profile.entries[0].discrepancy.value == 1

    def test_witnesses_stay_in_level_set(self, xor):
        h0, _ = fit_baseline(xor)
        grid = EpsilonGrid(tuple(Fraction(k, 100) for k in (0, 5, 10)), 100)
        profile, _ = discrepancy_path(xor, h0, grid)
        base = profile.baseline.mistakes
        for eps, witness in profile.witnesses.items():
            assert empirical_risk(witness, xor).mistakes <= base + eps * 100

    def test_objective_sequence_non_increasing(self):
        rng = np.random.default_rng(43)
        data = random_binary_dataset(rng)
        h0, _ = fit_baseline(data)
        grid = EpsilonGrid(tuple(Fraction(k, data.n) for k in range(4)), data.n)
        _, results = discrepancy_path(data, h0, grid)
        uppers = [r.upper_bound for _, r in sorted(results, key=lambda t: t[0])]
        assert uppers == sorted(uppers, reverse=True)

    def test_random_values_match_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(8):
            data = random_binary_dataset(rng)
            h0, _ = fit_baseline(data)
            pattern = prediction_pattern(h0, data)
            grid = EpsilonGrid(tuple(Fraction(k, data.n) for k in range(3)), data.n)
            profile, _ = discrepancy_path(data, h0, grid)
            for entry in profile.entries:
                expect = Fraction(oracle_disc(data, pattern, entry.epsilon), data.n)
                assert entry.discrepancy.certified
                assert entry.discrepancy.value == expect

    def test_dense_grid_fills_points_between_equal_values(self):
        rng = np.random.default_rng(71)
        points = solves = 0
        for _ in range(8):
            data = random_binary_dataset(rng)
            h0, _ = fit_baseline(data)
            pattern = prediction_pattern(h0, data)
            grid = EpsilonGrid(tuple(Fraction(k, data.n) for k in range(8)), data.n)
            profile, results = discrepancy_path(data, h0, grid)
            for entry in profile.entries:
                expect = Fraction(oracle_disc(data, pattern, entry.epsilon), data.n)
                assert entry.discrepancy.certified
                assert entry.discrepancy.value == expect
                witness = profile.witnesses[entry.epsilon]
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
                    data, h0, grid, budget=SolveBudget(node_limit=1)
                )
                outdir = tmp_path / f"{k}-{rerun}"
                outdir.mkdir()
                write_profile(outdir, profile)
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

    def test_truncated_interval_contains_truth(self, xor):
        h0, _ = fit_baseline(xor)
        grid = EpsilonGrid((Fraction(0),), 100)
        exact, _ = discrepancy_path(xor, h0, grid)
        truth = exact.entries[0].discrepancy.value
        truncated, _ = discrepancy_path(
            xor, h0, grid, budget=SolveBudget(node_limit=1)
        )
        entry = truncated.entries[0].discrepancy
        assert entry.lower <= truth <= entry.upper


class TestAmbiguityPath:
    def test_xor_at_zero(self, xor):
        h0, res = fit_baseline(xor)
        grid = EpsilonGrid((Fraction(0),), 100)
        profile, pool, results = ambiguity_path(xor, h0, grid)
        entry = profile.entries[0].ambiguity
        assert entry.certified and entry.value == 1
        assert len(pool.classifiers) == len(xor.cells.X)
        sides = [x @ g.coefficients > 0.0 for x, g in zip(xor.cells.X, pool.classifiers)]
        assert (np.array(sides) != (xor.cells.X @ h0.coefficients > 0.0)).all()
        assert pool.certified.all()
        assert (pool.mistakes_lower == 25).all() and (pool.mistakes_upper == 25).all()
        assert not pool.mistakes_upper.flags.writeable

    def test_eps_one_is_total(self, xor):
        profile, _, _ = ambiguity_path(xor, H_A, EpsilonGrid((Fraction(1),), 100))
        assert profile.entries[0].ambiguity.value == 1

    def test_pool_lower_bound_respects_baseline(self, xor):
        h0, _ = fit_baseline(xor)
        _, pool, _ = ambiguity_path(xor, h0, EpsilonGrid((Fraction(0),), 100))
        assert (pool.mistakes_lower >= pool.baseline_mistakes).all()

    def test_random_values_match_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            data = random_binary_dataset(rng)
            h0, _ = fit_baseline(data)
            pattern = prediction_pattern(h0, data)
            grid = EpsilonGrid(tuple(Fraction(k, data.n) for k in range(3)), data.n)
            profile, pool, _ = ambiguity_path(data, h0, grid)
            for i, cell in enumerate(data.cells.index):
                assert pool.mistakes_upper[cell] == oracle_flip(data, pattern, i)
            for entry in profile.entries:
                assert entry.ambiguity.certified
                assert entry.ambiguity.value == oracle_ambiguity(
                    data, pattern, entry.epsilon
                )

    @pytest.mark.parametrize("seed", [50, 55, 134])
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
        for hint in (None, base.lower_bound):
            _, pool, _ = ambiguity_path(data, h0, grid, lower_bound_hint=hint)
            for i, cell in enumerate(data.cells.index):
                truth = oracle_flip(data, pattern, i)
                assert pool.mistakes_lower[cell] <= truth <= pool.mistakes_upper[cell]

    def test_pool_rejects_inconsistent_bounds(self):
        # a lower bound above the upper one, or an open certified cell
        table = dict(
            classifiers=(None, None), certified=[False, True],
            baseline_mistakes=0, n=4,
        )
        PathologicalPool(mistakes_lower=[1, 2], mistakes_upper=[3, 2], **table)
        for lower in ([4, 2], [1, 1]):
            with pytest.raises(InternalConsistencyError):
                PathologicalPool(mistakes_lower=lower, mistakes_upper=[3, 2], **table)

    def test_past_deadline_lower_bounds_follow_baseline_certification(self, xor):
        # every solve stops before its root LP, so its lower bound is the
        # baseline hint or nothing at all
        h0, _ = fit_baseline(xor)
        grid = EpsilonGrid((Fraction(0),), 100)
        budget = SolveBudget(deadline=time.monotonic() - 1)
        for hint, floor in ((25.0, 25), (None, 0)):
            _, pool, results = ambiguity_path(
                xor, h0, grid, budget=budget, lower_bound_hint=hint
            )
            assert [r.nodes_explored for r in results] == [0] * len(results)
            assert not pool.certified.any()
            assert pool.baseline_mistakes == 25
            assert (pool.mistakes_lower == floor).all()

    # xor: the second cell's best warm start is the first cell's flip;
    # seed 72: two feasible classifiers tie, so the tie order shows
    @pytest.mark.parametrize(
        "make_data",
        [xor_dataset, lambda: random_binary_dataset(np.random.default_rng(72))],
        ids=["xor", "random-72"],
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
        monkeypatch.setattr(branch_bound, "solve", spy)
        _, pool, _ = ambiguity_path(
            data, h0, EpsilonGrid((Fraction(0),), data.n), seed_pool=seeds
        )
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

    def test_certified_flip_that_keeps_its_cell_raises(self):
        # at gamma 1e-9 the margin rows are below the LP's row tolerance,
        # and the certified flip classifier of cell 0 predicts like h0 there
        # (the CLI rejects such a gamma)
        data = cli.load_dataset(cli.RunConfig(dataset="tyranny"))[0]
        model = build_baseline_mip(data, 1e-9)
        base = solve(model)
        h0 = classifier_from_solution(model, base.incumbent)
        with pytest.raises(InternalConsistencyError, match="cell 0 does not flip it"):
            ambiguity_path(
                data, h0, EpsilonGrid((Fraction(0),), data.n), gamma=1e-9,
                lower_bound_hint=base.lower_bound, baseline_root=base.root_basis,
            )


class TestRootStarts:
    def test_every_root_but_the_first_starts_warm(self, node_lps):
        # tyranny: nine disc solves on its default grid, four flip solves
        data = cli.load_dataset(cli.RunConfig(dataset="tyranny"))[0]
        model = build_baseline_mip(data)
        base = solve(model)
        assert node_lps[0][1] is None and base.root_basis is node_lps[0][2].basis
        h0 = classifier_from_solution(model, base.incumbent)
        grid = EpsilonGrid.default(data.n, empirical_risk(h0, data).rate)

        del node_lps[:]
        _, solves = discrepancy_path(data, h0, grid)
        roots = [(start, sol) for fixings, start, sol in node_lps if not fixings]
        assert len(roots) == len(solves) > 2
        assert roots[0][0] is None
        for (_, previous), (start, _) in zip(roots, roots[1:]):
            assert start is previous.basis

        del node_lps[:]
        _, _, results = ambiguity_path(
            data, h0, grid, lower_bound_hint=base.lower_bound, baseline_root=base.root_basis
        )
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
            disc, _ = discrepancy_path(data, h0, grid)
            amb, _, _ = ambiguity_path(
                data, h0, grid, seed_pool=list(disc.witnesses.values())
            )
            profile = merge_profiles(disc, amb)
            values_d = [e.discrepancy.value for e in profile.entries]
            values_a = [e.ambiguity.value for e in profile.entries]
            assert values_d == sorted(values_d)
            assert values_a == sorted(values_a)
            report = check_discrepancy_bound(profile)
            assert all(s >= 0 for _, s in report.slacks)

    def test_integer_cap_checks_match_fraction_arithmetic(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            base = RiskReport(int(rng.integers(0, n + 1)), n)
            eps = Fraction(int(rng.integers(0, n + 1)), n)
            upper = Fraction(int(rng.integers(0, 3 * n)), int(rng.integers(1, 2 * n)))
            entry = ProfileEntry(eps, MeasureValue(0, upper, certified=False), None)
            if upper > min(1, 2 * base.rate + eps):
                with pytest.raises(InternalConsistencyError):
                    MultiplicityProfile(baseline=base, entries=(entry,), witnesses={})
                continue
            profile = MultiplicityProfile(baseline=base, entries=(entry,), witnesses={})
            report = check_discrepancy_bound(profile)
            assert report.slacks == ((eps, 2 * base.rate + eps - upper),)

    def test_merge_rejects_different_grids(self, xor):
        h0, _ = fit_baseline(xor)
        two = EpsilonGrid((Fraction(0), Fraction(1, 100)), 100)
        disc, _ = discrepancy_path(xor, h0, two)
        amb, _, _ = ambiguity_path(xor, h0, EpsilonGrid((Fraction(0),), 100))
        with pytest.raises(ValueError):
            merge_profiles(disc, amb)

    def test_xor_bound_tight(self, xor):
        h0, _ = fit_baseline(xor)
        grid = EpsilonGrid((Fraction(0),), 100)
        disc, _ = discrepancy_path(xor, h0, grid)
        report = check_discrepancy_bound(disc)
        assert report.slacks[0][1] == 0  # 0.5 == 2 * 0.25 + 0

    def test_zero_risk_baseline_pins_discrepancy(self):
        data = Dataset.build(
            [
                Example((1.0, 0.0), -1, weight=5),
                Example((1.0, 1.0), 1, weight=5),
            ]
        )
        h0, res = fit_baseline(data)
        assert empirical_risk(h0, data).mistakes == 0
        disc, _ = discrepancy_path(data, h0, EpsilonGrid((Fraction(0),), data.n))
        assert disc.entries[0].discrepancy.value == 0

    def test_witness_conflicts_are_ambiguous(self):
        # conditional cross-relation: alpha >= delta when the witness certifies
        rng = np.random.default_rng(67)
        for _ in range(6):
            data = random_binary_dataset(rng)
            h0, _ = fit_baseline(data)
            grid = EpsilonGrid((Fraction(0), Fraction(1, data.n)), data.n)
            disc, _ = discrepancy_path(data, h0, grid)
            amb, pool, _ = ambiguity_path(
                data, h0, grid, seed_pool=list(disc.witnesses.values())
            )
            profile = merge_profiles(disc, amb)
            base_preds = predictions(h0, data)
            for entry in profile.entries:
                if not entry.discrepancy.certified:
                    continue
                assert entry.ambiguity.lower >= entry.discrepancy.value
                witness = profile.witnesses[entry.epsilon]
                witness_preds = predictions(witness, data)
                threshold = profile.baseline.mistakes + int(
                    entry.epsilon * data.n
                )
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
                low, up, total = _flippable(pool, cell_weights, thresholds)
                assert total == sum(int(data.weights[i]) for i in members)
                for t, got_low, got_up in zip(thresholds, low, up):
                    want_low = want_up = 0
                    for i in members:
                        want_low += int(data.weights[i]) * (upper[cell[i]] <= t)
                        want_up += int(data.weights[i]) * (lower[cell[i]] <= t)
                    assert (got_low, got_up) == (want_low, want_up)
        assert shared > 0

    def test_best_left_and_next_solve_match_loops(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            size = int(rng.integers(1, 15))
            raw_low = rng.integers(0, 6, size)
            solved_at = rng.choice(size, int(rng.integers(0, size + 1)), replace=False)
            found = {int(i): f"witness {i}" for i in solved_at if rng.random() < 0.8}
            best = _best_left(found, raw_low)
            for index in range(size):
                left = [i for i in found if i <= index]
                want = max(left, key=lambda i: (raw_low[i], i)) if left else -1
                assert best[index] == want

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


class TestGroupBurden:
    def test_missing_tags_rejected(self, xor):
        h0, _ = fit_baseline(xor)
        _, pool, _ = ambiguity_path(xor, h0, EpsilonGrid((Fraction(0),), 100))
        with pytest.raises(MissingGroupError):
            group_burden(pool, xor, 0)

    def test_single_group_equals_overall(self):
        examples = [
            Example(ex.features, ex.label, group="only", weight=ex.weight)
            for ex in xor_dataset().examples
        ]
        data = Dataset.build(examples)
        h0, _ = fit_baseline(data)
        grid = EpsilonGrid((Fraction(0),), data.n)
        profile, pool, _ = ambiguity_path(data, h0, grid)
        rates = group_burden(pool, data, 0)
        assert rates["only"].value == profile.entries[0].ambiguity.value

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
                profile, pool, _ = ambiguity_path(data, h0, grid, budget=budget)
                for entry in profile.entries:
                    burden = group_burden(pool, data, entry.epsilon)
                    for side in ("lower", "upper"):
                        weighted = sum(
                            int(data.weights[groups == g].sum()) * getattr(m, side)
                            for g, m in burden.items()
                        )
                        assert weighted == data.n * getattr(entry.ambiguity, side)

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
        _, pool, _ = ambiguity_path(data, h0, grid)
        rates = group_burden(pool, data, 0)
        assert rates[a].value == 1
        assert rates["B"].value == 0
        write_burden(tmp_path, pool, data, grid)
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
        _, pool, _ = ambiguity_path(data, h0, grid)
        rates = group_burden(pool, data, 0)
        assert rates["A"].value == Fraction(1, 2)
        assert rates["B"].value == Fraction(151, 301)
        assert rates["B"].value > rates["A"].value
