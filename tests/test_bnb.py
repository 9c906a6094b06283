import math
from fractions import Fraction
import time
from pathlib import Path

import numpy as np
import pytest

from multiplicity import branch_bound, cli
from multiplicity.branch_bound import (
    MipModel,
    SolveBudget,
    check_feasible,
    solve,
)
from multiplicity.core import (
    Dataset,
    Example,
    InfeasibleWarmStartError,
    InternalConsistencyError,
)
from multiplicity.formulations import (
    build_baseline_mip,
    build_flip_mip,
    classifier_from_solution,
    assignment_from_classifier,
)
from multiplicity.profiles import ClassifierBank, EpsilonGrid, ambiguity_path
from multiplicity.simplex import LinearProgram, solve_lp
from conftest import random_binary_dataset, xor_dataset
from oracles import oracle_baseline


def knapsack_model(values, weights, capacity):
    """max v.x s.t. w.x <= cap  ->  min -v.x, handy tiny MIP."""
    n = len(values)
    lp = LinearProgram(
        objective=-np.asarray(values, float),
        row_coefs=np.asarray(weights, float).reshape(1, n),
        row_relations=("<=",),
        row_rhs=np.array([float(capacity)]),
        var_lo=np.zeros(n),
        var_hi=np.ones(n),
    )
    return MipModel(lp=lp, binary_vars=tuple(range(n)))


class TestSolve:
    def test_separable_data_reaches_zero(self):
        examples = [
            Example((1.0, 0.0, 0.0), -1),
            Example((1.0, 0.0, 1.0), -1),
            Example((1.0, 1.0, 0.0), 1),
            Example((1.0, 1.0, 1.0), 1),
            Example((1.0, 1.0, 0.0), 1),
            Example((1.0, 0.0, 0.0), -1),
        ]
        res = solve(build_baseline_mip(Dataset.build(examples)))
        assert res.status == "certified_optimal"
        assert res.upper_bound == 0.0

    def test_xor_baseline_is_25(self):
        res = solve(build_baseline_mip(xor_dataset()))
        assert res.status == "certified_optimal"
        assert res.upper_bound == 25.0
        assert res.lower_bound == 25.0

    def test_knapsack(self):
        res = solve(knapsack_model([6, 5, 4], [3, 2, 2], 4))
        assert res.status == "certified_optimal"
        assert res.upper_bound == -9.0  # items 2 and 3

    def test_metadata_is_opaque_to_the_engine(self):
        # the engine reads no layout: overlapping groups build and solve
        plain = knapsack_model([6, 5, 4], [3, 2, 2], 4)
        grouped = MipModel(
            lp=plain.lp,
            binary_vars=plain.binary_vars,
            metadata={"groups": {"a": (0, 1), "b": (1, 2)}},
        )
        expected, res = solve(plain), solve(grouped)
        assert (res.status, res.upper_bound, res.lower_bound) == (
            expected.status, expected.upper_bound, expected.lower_bound
        )
        assert np.array_equal(res.incumbent, expected.incumbent)
        assert res.nodes_explored == expected.nodes_explored

    def test_infeasible_root(self):
        lp = LinearProgram(
            objective=np.array([1.0]),
            row_coefs=np.array([[1.0]]),
            row_relations=(">=",),
            row_rhs=np.array([2.0]),
            var_lo=np.array([0.0]),
            var_hi=np.array([1.0]),
        )
        res = solve(MipModel(lp=lp, binary_vars=(0,)))
        assert res.status == "infeasible"

    def test_undecided_node_lp_raises(self, node_lps):
        # min x0 s.t. x0 + 1e-10 y >= 0.5: the root LP ends at x0 = 0.5, and
        # its floor child x0 = 0 is feasible only at y = 5e9, through an
        # entry below the pivot tolerance.  That LP stalls, and the node
        # must not be pruned as infeasible.
        lp = LinearProgram(
            objective=np.array([1.0, 0.0]),
            row_coefs=np.array([[1.0, 1e-10]]),
            row_relations=(">=",),
            row_rhs=np.array([0.5]),
            var_lo=np.zeros(2),
            var_hi=np.array([1.0, 2e10]),
        )
        with pytest.raises(InternalConsistencyError, match="stalled"):
            solve(MipModel(lp=lp, binary_vars=(0,)))
        assert [(fixings, sol.status) for fixings, _, sol in node_lps] == [
            ({}, "optimal"), ({0: 0.0}, "stalled")
        ]

    def test_random_baselines_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            data = random_binary_dataset(rng)
            res = solve(build_baseline_mip(data))
            assert res.status == "certified_optimal"
            assert res.upper_bound == oracle_baseline(data)

    def test_no_incumbent_keeps_valid_lower_bound(self):
        res = solve(
            build_baseline_mip(xor_dataset()), budget=SolveBudget(node_limit=1)
        )
        assert res.status in ("no_incumbent", "feasible_with_gap")
        assert res.lower_bound <= 25.0

    def test_past_deadline_stops_after_root(self):
        # A solve that starts past its deadline solves no LP, and an
        # unexplored root never reads as infeasible.
        data = xor_dataset()
        model = build_baseline_mip(data)
        past = SolveBudget(deadline=time.monotonic())
        res = solve(model, budget=past)
        assert res.nodes_explored == 0
        assert res.status == "no_incumbent"
        assert res.lower_bound <= 25.0
        from multiplicity.core import LinearClassifier

        warm = assignment_from_classifier(model, data, LinearClassifier((-0.2, 0.4, 0.4)))
        res = solve(model, budget=past, warm_start=warm)
        assert res.nodes_explored == 0
        assert res.status == "feasible_with_gap"
        assert res.upper_bound == 25.0
        assert res.root_basis is None

    def test_node_limit_is_deterministic(self):
        models = [build_baseline_mip(xor_dataset())] + [
            build_baseline_mip(random_binary_dataset(np.random.default_rng(seed)))
            for seed in range(3)
        ]
        for model in models:
            for limit in (5, 12):
                a = solve(model, budget=SolveBudget(node_limit=limit))
                b = solve(model, budget=SolveBudget(node_limit=limit))
                assert a.status == b.status
                assert a.nodes_explored == b.nodes_explored
                assert a.lower_bound == b.lower_bound
                assert a.upper_bound == b.upper_bound
                assert (a.incumbent is None) == (b.incumbent is None)
                if a.incumbent is not None:
                    assert np.array_equal(a.incumbent, b.incumbent)

    def test_children_start_from_the_parent_basis(self, node_lps):
        res = solve(build_baseline_mip(xor_dataset()))
        assert res.upper_bound == 25.0
        assert node_lps[0][1] is None and len(node_lps) > 1
        bases = {}
        for fixings, start, sol in node_lps:
            if fixings:
                parent = {j: v for j, v in fixings.items() if j != list(fixings)[-1]}
                assert start is bases[tuple(parent.items())]
            bases[tuple(fixings.items())] = sol.basis

    def test_root_starts_from_root_start(self, node_lps):
        # a new capacity moves only the rhs, so the first root's basis
        # starts the second root, which ends where a cold solve does
        first = solve(knapsack_model([6, 5, 4], [3, 2, 2], 4))
        assert node_lps[0][1] is None
        assert first.root_basis is node_lps[0][2].basis
        del node_lps[:]
        model = knapsack_model([6, 5, 4], [3, 2, 2], 5)
        res = solve(model, root_start=first.root_basis)
        fixings, start, root = node_lps[0]
        assert fixings == {} and start is first.root_basis
        assert res.root_basis is root.basis
        assert root.objective_value == pytest.approx(solve_lp(model.lp).objective_value)
        assert res.upper_bound == solve(model).upper_bound == -11.0  # items 1 and 2

    @pytest.mark.parametrize("source", ["compas_style", "tyranny"])
    def test_baseline_root_stays_cold(self, source, node_lps, tmp_path):
        if source == "tyranny":
            config = cli.RunConfig(dataset="tyranny", outdir=str(tmp_path))
        else:
            config = cli.RunConfig(
                dataset=str(Path(__file__).parent / "data" / "compas_style.csv"),
                label_column="two_year_recid",
                group_column="race",
                outdir=str(tmp_path),
            )
        model = build_baseline_mip(cli.load_dataset(config)[0], config.gamma)
        res = solve(model)
        cold = solve_lp(model.lp)
        fixings, start, root = node_lps[0]
        assert fixings == {} and start is None
        assert root.n_pivots == cold.n_pivots
        assert np.array_equal(root.values, cold.values)
        assert res.certified
        binaries = cold.values[list(model.binary_vars)]
        if np.all(np.abs(binaries - np.round(binaries)) <= 1e-6):
            expected = cold.values
        else:
            expected = model.metadata["incumbent_heuristic"](cold.values)
        assert np.array_equal(res.incumbent, expected)

class TestBounds:
    def test_anytime_bound_monotonicity(self):
        model = build_baseline_mip(xor_dataset())
        full = solve(model)
        assert full.status == "certified_optimal"
        opt = full.upper_bound
        lowers, uppers = [], []
        for limit in (1, 2, 4, 8, 16, 32, 64):
            res = solve(model, budget=SolveBudget(node_limit=limit))
            lower = res.lower_bound if res.lower_bound != -math.inf else 0.0
            upper = res.upper_bound if res.upper_bound is not None else math.inf
            assert lower <= opt <= upper
            lowers.append(lower)
            uppers.append(upper)
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers, reverse=True)

    def test_warm_start_dominance(self):
        data = xor_dataset()
        model = build_baseline_mip(data)
        from multiplicity.core import LinearClassifier

        h = LinearClassifier((-0.2, 0.4, 0.4))  # 25 mistakes, margin-clear
        warm = assignment_from_classifier(model, data, h)
        res = solve(model, warm_start=warm, budget=SolveBudget(node_limit=1))
        assert res.upper_bound is not None
        assert res.upper_bound <= 25.0

    def test_warm_start_must_be_feasible(self):
        data = xor_dataset()
        model = build_baseline_mip(data)
        bad = np.zeros(model.lp.n_vars)  # violates the l1 row
        with pytest.raises(InfeasibleWarmStartError):
            solve(model, warm_start=bad)

    def test_lower_bound_hint_certifies_early(self):
        data = xor_dataset()
        model = build_baseline_mip(data)
        from multiplicity.core import LinearClassifier

        h = LinearClassifier((-0.2, 0.4, 0.4))
        warm = assignment_from_classifier(model, data, h)
        res = solve(model, warm_start=warm, lower_bound_hint=25.0)
        assert res.status == "certified_optimal"
        assert res.nodes_explored <= 3

    def test_an_incumbent_below_the_hint_raises(self):
        # xor's baseline optimum is 25, so a hint of 30 is no lower bound:
        # the warm start that costs 25, or the incumbent a search finds,
        # contradicts it
        data = xor_dataset()
        model = build_baseline_mip(data)
        from multiplicity.core import LinearClassifier

        warm = assignment_from_classifier(model, data, LinearClassifier((-0.2, 0.4, 0.4)))
        assert model.count(warm) == 25
        for kwargs in ({"warm_start": warm}, {}):
            with pytest.raises(InternalConsistencyError, match="below its lower bound"):
                solve(model, lower_bound_hint=30.0, **kwargs)

    def test_integer_gap_certification(self):
        res = solve(build_baseline_mip(xor_dataset()))
        assert res.upper_bound - res.lower_bound < 1 - 1e-6
        assert res.status == "certified_optimal"


class TestCheckFeasible:
    def test_assignment_of_another_length_is_refused(self):
        model = knapsack_model([1, 2], [1, 1], 1)
        assert check_feasible(model, np.zeros(3)) == (
            False, ["assignment covers 3 of 2 variables"]
        )

    @pytest.mark.parametrize(
        "binaries, var_hi, message",
        [((2,), [1.0, 1.0], "index 2 out of range"), ((1,), [1.0, 2.0], "bounds \\[0, 1\\]")],
        ids=["index", "bounds"],
    )
    def test_malformed_binaries_are_refused(self, binaries, var_hi, message):
        lp = knapsack_model([1, 2], [1, 1], 1).lp
        lp = LinearProgram(
            lp.objective, lp.row_coefs, lp.row_relations, lp.row_rhs, lp.var_lo, var_hi
        )
        with pytest.raises(ValueError, match=message):
            MipModel(lp=lp, binary_vars=binaries)

    def test_incumbent_round_trip(self):
        model = build_baseline_mip(xor_dataset())
        res = solve(model)
        ok, report = check_feasible(model, res.incumbent)
        assert ok and report == []

    def test_perturbed_binary_flagged(self):
        model = build_baseline_mip(xor_dataset())
        res = solve(model)
        bad = res.incumbent.copy()
        bad[0] = 0.5
        ok, report = check_feasible(model, bad)
        assert not ok
        assert any("not integral" in line for line in report)

    def test_integrality_report_matches_the_loop(self):
        # the per-binary loop is the reference: same lines, same order,
        # also within and just past INT_TOL of an integer
        model = build_baseline_mip(random_binary_dataset(np.random.default_rng(4)))
        binaries = list(model.binary_vars)
        rng = np.random.default_rng(10)
        for _ in range(50):
            values = rng.uniform(model.lp.var_lo, model.lp.var_hi)
            near = rng.integers(0, 2, len(binaries)) + rng.choice(
                [0.0, 5e-7, -1e-6, 2e-6, 0.3], len(binaries)
            )
            take = rng.random(len(binaries)) < 0.7
            values[binaries] = np.where(take, near, values[binaries])
            expected = [
                f"binary variable {j} = {values[j]:.6g} not integral"
                for j in binaries
                if abs(values[j] - round(values[j])) > branch_bound.INT_TOL
            ]
            _, report = check_feasible(model, values)
            assert [line for line in report if "not integral" in line] == expected

    def test_big_m_violation_identified(self):
        data = xor_dataset()
        model = build_baseline_mip(data)
        res = solve(model)
        gamma = model.metadata["gamma"]
        values = res.incumbent.copy()
        # force a mistake indicator to zero on a row it must cover by 2*gamma
        h = classifier_from_solution(model, values)
        scores = data.X @ np.asarray(h.coefficients)
        signed = data.y * scores
        target = int(np.argmin(signed))  # most violated example
        assert signed[target] < gamma
        values[target] = 0.0
        ok, report = check_feasible(model, values)
        assert not ok
        assert any(f"row {target} " in line for line in report)


def _on_a_line(xs, labels, weights):
    return Dataset.build(
        [Example((1.0, x), y, weight=w) for x, y, w in zip(xs, labels, weights)]
    )


class TestIncumbentGate:
    # With a Big-M of 70, a binary 4.4e-7 off integral lets a pinning row
    # slip by 3e-5: a node LP whose binaries are integral within INT_TOL
    # gives an incumbent only when its rounded assignment is feasible.

    def test_a_near_integral_node_whose_rounding_fails_is_branched_on(self):
        # cells x = 70 (-), 70.012 (+), 0 (-, weight 2) and 140 (-, weight
        # 2).  Taken as given, the node LP solutions of the flips of cells 1
        # and 3 cost 2 and score x = 70 at -6.9e-5 on its pinned side
        data = _on_a_line([70, 70.012, 0, 140], [-1, 1, -1, -1], [1, 1, 2, 2])
        model = build_baseline_mip(data)
        base = solve(model)
        h0 = classifier_from_solution(model, base.incumbent)
        flips = [build_flip_mip(data, h0, c) for c in range(4)]
        results = [solve(flip) for flip in flips]
        assert all(r.certified for r in results)
        assert [r.upper_bound for r in results] == [3, 3, 3, 3]
        assert all(check_feasible(f, r.incumbent)[0] for f, r in zip(flips, results))
        _, _, paths = ambiguity_path(
            ClassifierBank(data, h0), EpsilonGrid((Fraction(0),), data.n), baseline=base
        )
        assert [r.upper_bound for r in paths] == [3, 3, 3, 3]

    def test_a_leaf_whose_rounding_fails_keeps_its_bound(self):
        # cells x = 70 (-), 70.014 (+), 0 (-, weight 2) and 140 (+, weight
        # 2): no unit-l1 classifier parts x = 70 from 70.014 with margin,
        # but a leaf LP that fixes every binary returns one fixed at 0 as
        # 4.05e-8, which meets the rows.  Rounded, it does not, so the leaf
        # keeps its bound 0 and the baseline is no longer certified at 0
        data = _on_a_line([70, 70.014, 0, 140], [-1, 1, -1, 1], [1, 1, 2, 2])
        result = solve(build_baseline_mip(data))
        assert result.status == "feasible_with_gap"
        assert (result.lower_bound, result.upper_bound) == (0, 1)
