"""The labeling pass: its superset of linear labelings, its bounds and
certificates against the brute-force labeling oracle and branch-and-bound,
and the ladder audit it settles without branch-and-bound."""

import json
import math
import time
import warnings
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from multiplicity import labelings, simplex
from multiplicity.branch_bound import SolveBudget, solve
from multiplicity.cli import RunConfig, main, run_audit
from multiplicity.datasets import ingest_csv
from multiplicity.core import (
    Dataset,
    Example,
    InternalConsistencyError,
    LinearClassifier,
    conflict_count,
    empirical_risk,
)
from multiplicity.formulations import (
    DEFAULT_GAMMA,
    assignment_from_classifier,
    build_baseline_mip,
    build_disc_mip,
    build_flip_mip,
    classifier_from_solution,
    margin_clearance,
)
from multiplicity.labelings import certify, labeling_bounds
from multiplicity.profiles import (
    ClassifierBank,
    EpsilonGrid,
    ambiguity_path,
    discrepancy_path,
)
from multiplicity.simplex import LpSolution
from conftest import random_binary_dataset, write_ladder_csv, xor_dataset
from oracles import labeling_optima, margin_reachable

DATA = Path(__file__).parent / "data"


def random_cell_dataset(rng, continuous):
    """At most 7 cells over d in {1, 2, 3} features, binary or on a 0.1
    grid, each cell pure or mixed, both classes present."""
    d = int(rng.integers(1, 4))
    if continuous:
        grid = np.unique(rng.integers(0, 10, size=(7, d)), axis=0) / 10
    else:
        grid = np.array(list(product((0.0, 1.0), repeat=d)))
    m = int(rng.integers(d + 1, min(len(grid), 7) + 1)) if len(grid) > d else len(grid)
    cells = grid[rng.choice(len(grid), size=m, replace=False)]
    examples = []
    for x in cells:
        kind = rng.integers(0, 3)  # pure negative, pure positive, mixed
        for label in (-1, 1):
            if kind == 2 or (kind == 1) == (label == 1):
                weight = int(rng.integers(1, 4))
                examples.append(Example((1.0, *x), label, weight=weight))
    if len({ex.label for ex in examples}) < 2:
        examples.append(Example((1.0, *cells[0]), -examples[0].label, weight=1))
    return Dataset.build(examples)


def fit_baseline(data):
    model = build_baseline_mip(data)
    result = solve(model)
    assert result.certified
    return classifier_from_solution(model, result.incumbent), result


class TestSuperset:
    @staticmethod
    def assert_enumerated(X, d):
        """Every labeling that some w puts 1e-6 off every cell is found;
        returns how many there are."""
        found = {tuple(row) for chunk in labelings._labelings(X, d) for row in chunk}
        checked = 0
        for signs in product((False, True), repeat=len(X)):
            rows = np.where(signs, 1.0, -1.0)[:, None] * X
            if margin_reachable(rows, 1e-6):
                assert signs in found
                checked += 1
        return checked

    @pytest.mark.parametrize("continuous", [False, True], ids=["binary", "grid"])
    def test_every_strict_linear_labeling_is_enumerated(self, continuous):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(6):
            data = random_cell_dataset(rng, continuous)
            if np.linalg.matrix_rank(data.cells.X) > data.d:
                checked += self.assert_enumerated(data.cells.X, data.d)
        assert checked > 0

    def test_collinear_cells_are_dropped_only_when_dependent(self):
        # three cells on one line (0.2 is exactly twice 0.1) and three more
        line = [(t, t, t) for t in (0.0, 0.1, 0.2)]
        X = np.array([(1.0, *x) for x in line + [(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
        assert labelings._dependent(X[:3, :])
        assert not labelings._dependent(X[[0, 1, 3]])
        assert self.assert_enumerated(X, 3) > 0

    def test_the_pass_does_not_apply(self):
        # four features, cells on one line, a line through more than
        # MAX_ON_PLANE cells, and more work than the budget
        four = random_binary_dataset(np.random.default_rng(0), d=4)
        line = Dataset.build(
            [Example((1.0, t, 2 * t), 1 if t > 1 else -1) for t in (0.0, 1.0, 2.0, 3.0)]
        )
        crowded = Dataset.build(
            [Example((1.0, t, 0.0), 1 if t % 2 else -1) for t in range(14)]
            + [Example((1.0, 0.0, 1.0), 1)]
        )
        for data in (four, line, crowded):
            side = np.arange(len(data.cells.X)) % 2 == 0
            assert labeling_bounds(data, side, [data.n]) is None
        data = xor_dataset()
        side = data.cells.X @ np.array([-0.2, 0.4, 0.4]) > 0
        assert labeling_bounds(data, side, [50]) is not None
        saved = labelings.WORK_BUDGET
        try:
            labelings.WORK_BUDGET = 23  # C(4, 2) * 4 = 24
            assert labeling_bounds(data, side, [50]) is None
        finally:
            labelings.WORK_BUDGET = saved


    @pytest.mark.parametrize("chunk", [1 << 6, 1 << 8, 1 << 10])
    def test_candidates_do_not_depend_on_the_chunk_size(self, chunk, monkeypatch):
        # chunks of 1, 2 and 10 subsets against one chunk of all 20: the
        # stores keep every tie at their CANDIDATES-th cost and break ties
        # by packed sides, so each program gets the same candidates
        train = ingest_csv(DATA / "compas_style.csv", "two_year_recid", "race").train
        h0, _ = fit_baseline(train)
        side = train.cells.X @ np.asarray(h0.coefficients) > 0
        thresholds = [empirical_risk(h0, train).mistakes + k for k in range(0, 12, 3)]

        def candidates():
            bounds = labeling_bounds(train, side, thresholds)
            programs = bounds.flips + bounds.disc
            return [(c.sides.tolist(), c.costs.tolist(), c.limit) for c in programs]

        whole = candidates()
        assert max(len(costs) for _, costs, _ in whole) == labelings.CANDIDATES
        monkeypatch.setattr(labelings, "CHUNK_CELLS", chunk)
        assert candidates() == whole


class TestCertificates:
    @pytest.mark.parametrize("continuous", [False, True], ids=["binary", "grid"])
    def test_certified_values_match_the_oracle_and_branch_and_bound(self, continuous):
        rng = np.random.default_rng(11 if continuous else 7)
        certified = programs = 0
        for _ in range(12):
            data = random_cell_dataset(rng, continuous)
            h0, _ = fit_baseline(data)
            bank = ClassifierBank(data, h0)
            base = bank.risk.mistakes
            thresholds = [base + k for k in range(3)]
            bounds = bank.labelings(thresholds)
            if bounds is None:
                continue
            flips, disc = labeling_optima(data, h0, thresholds, DEFAULT_GAMMA)
            models = [build_flip_mip(data, h0, c) for c in range(len(data.cells.X))]
            truths = [flips[tuple(x)] for x in data.cells.X]
            candidates = list(bounds.flips)
            for k in range(3):
                models.append(build_disc_mip(data, h0, Fraction(k, data.n)))
                truths.append(disc[k])
                candidates.append(bounds.disc[k])
            for model, truth, cands in zip(models, truths, candidates):
                exact = solve(model)
                assert exact.certified and exact.upper_bound == truth
                bound, found = certify(model, cands)
                assert bound <= truth
                programs += 1
                if found is not None:
                    warm = assignment_from_classifier(model, data, found)
                    result = solve(model, warm_start=warm, lower_bound_hint=bound)
                    assert result.certified and result.nodes_explored == 0
                    assert result.upper_bound == result.lower_bound == truth
                    certified += 1
        assert certified >= 0.9 * programs > 0

    @pytest.mark.parametrize("continuous", [False, True], ids=["binary", "grid"])
    def test_values_certified_without_a_solve_follow_from_their_classifiers(
        self, continuous
    ):
        rng = np.random.default_rng(13)
        passed = 0
        for _ in range(8):
            data = random_cell_dataset(rng, continuous)
            h0, base = fit_baseline(data)
            n, mistakes = data.n, empirical_risk(h0, data).mistakes
            grid = EpsilonGrid(tuple(Fraction(k, n) for k in range(4)), n)
            bank = ClassifierBank(data, h0)
            _, disc = discrepancy_path(bank, grid)
            _, pool, flips = ambiguity_path(bank, grid, baseline=base)
            for eps, result in disc:
                if result.nodes_explored or not result.certified:
                    continue
                model = build_disc_mip(data, h0, eps)
                g = classifier_from_solution(model, result.incumbent)
                assert empirical_risk(g, data).mistakes <= mistakes + eps * n
                assert conflict_count(g, h0, data).mistakes == n - result.upper_bound
                passed += 1
            sides = data.cells.X @ np.asarray(h0.coefficients) > 0
            for c, result in enumerate(flips):
                if result.nodes_explored or not result.certified:
                    continue
                model = build_flip_mip(data, h0, c)
                g = classifier_from_solution(model, result.incumbent)
                assert empirical_risk(g, data).mistakes == result.upper_bound
                assert (data.cells.X[c] @ np.asarray(g.coefficients) > 0) != sides[c]
                assert pool.classifiers[c] == g
                passed += 1
        assert passed > 0

    def test_a_bound_raised_past_the_last_candidate_certifies_the_warm_start(self):
        # cells x = 0 (-), 1e-5 (+) and 1 (+); h0 splits at 0.5 and gets
        # 1e-5 wrong.  The cheapest labeling of that cell's flip program,
        # cost 0, separates the first two cells, which no classifier does
        # with margin gamma.  Kept alone, with every cheaper labeling
        # (limit 1), its failed check raises the bound to 1 after the loop,
        # where the warm start w = (1, 0), which errs on x = 0, costs 1
        data = Dataset.build(
            [Example((1.0, 0.0), -1), Example((1.0, 1e-5), 1), Example((1.0, 1.0), 1)]
        )
        h0 = LinearClassifier((-0.5 / 1.5, 1 / 1.5))
        bank = ClassifierBank(data, h0)
        full = bank.labelings([1]).flips[1]
        assert full.costs[:2].tolist() == [0, 1]
        model = build_flip_mip(data, h0, 1)
        warm = assignment_from_classifier(model, data, LinearClassifier((1.0, 0.0)))
        assert model.count(warm) == 1
        one = labelings.Candidates(full.sides[:1], full.costs[:1], 1)
        bound, found = certify(model, one, model.count(warm))
        assert bound == 1 and found is None
        result = solve(model, warm_start=warm, lower_bound_hint=bound)
        assert result.certified and result.upper_bound == 1
        assert result.nodes_explored == 0 and np.array_equal(result.incumbent, warm)

    def test_a_labeling_within_the_rows_tolerance_of_gamma_is_realized(self):
        # cells x = 0 (-), 2e-4 (+), 4e-4 (-, weight 2) and 2 (+, weight 2);
        # h0 splits near x = 1.  A unit-l1 classifier that parts x = 0 from
        # 2e-4 has a margin of at most 1/10001, 1e-8 short of gamma: within
        # the rows' tolerance, and within ``margin_floor``.  That labeling,
        # cost 2, is the cheapest flip of both x = 2e-4 and 4e-4.  Its leaves
        # are feasible, and the path and plain branch-and-bound both find it
        data = Dataset.build(
            [Example((1.0, 0.0), -1), Example((1.0, 2e-4), 1),
             Example((1.0, 4e-4), -1, weight=2), Example((1.0, 2.0), 1, weight=2)]
        )
        h0, base = fit_baseline(data)
        parted = np.array([False, True, True, True])
        for c in (1, 2):
            leaf = labelings._leaf(build_flip_mip(data, h0, c), parted)
            assert leaf is not None and margin_clearance(leaf, data, DEFAULT_GAMMA)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, _, results = ambiguity_path(
                ClassifierBank(data, h0), EpsilonGrid((Fraction(0),), data.n),
                baseline=base,
            )
        assert all(r.certified for r in results)
        assert [r.upper_bound for r in results] == [
            solve(build_flip_mip(data, h0, c)).upper_bound for c in range(4)
        ] == [3, 2, 2, 3]

    def test_a_refused_proposal_leaves_the_program_to_branch_and_bound(
        self, xor, monkeypatch
    ):
        # every leaf proposes h0, which keeps each flip cell on its side, so
        # no flip program accepts it: a flip solve whose banked warm start
        # misses the pass's bound searches from it with that bound as its
        # hint, and reports the leaf's time with its own.  (Later cells
        # start from an earlier flip at the bound and run no check.)
        h0, _ = fit_baseline(xor)
        grid = EpsilonGrid((Fraction(0),), 100)
        bank = ClassifierBank(xor, h0)
        bounds = bank.labelings(grid.thresholds(bank.risk.mistakes))

        def propose_h0(*_):
            time.sleep(0.01)
            return h0

        monkeypatch.setattr(labelings, "_leaf", propose_h0)
        _, _, results = ambiguity_path(bank, grid)
        searched = [r for r in results if r.nodes_explored]
        assert searched and all(r.wall_time >= 0.01 for r in searched)
        for c, result in enumerate(results):
            plain = solve(build_flip_mip(xor, h0, c))
            assert (result.status, result.upper_bound, result.lower_bound) == (
                plain.status, plain.upper_bound, plain.lower_bound
            )
            assert result.lower_bound >= bounds.flips[c].costs[0]

    def test_a_settled_solve_reports_the_time_of_its_check_lps(self, xor, monkeypatch):
        # a flip that branch-and-bound certifies at 0 nodes from the pass's
        # proposal reports the time of the leaf LPs that found it
        original, calls = labelings.solve_lp_with_fixings, []

        def slow(lp, fixings):
            time.sleep(0.01)
            calls.append(fixings)
            return original(lp, fixings)

        monkeypatch.setattr(labelings, "solve_lp_with_fixings", slow)
        h0, _ = fit_baseline(xor)
        _, _, results = ambiguity_path(
            ClassifierBank(xor, h0), EpsilonGrid((Fraction(0),), 100)
        )
        assert calls
        assert all(r.certified and r.nodes_explored == 0 for r in results)
        assert sum(r.wall_time for r in results) >= 0.01 * len(calls)

    def test_the_pass_stops_after_its_first_chunk_past_the_deadline(self, monkeypatch):
        # one subset per chunk: xor's C(4, 2) = 6 subsets make six chunks,
        # and past the deadline only the first is built
        data = xor_dataset()
        side = data.cells.X @ np.array([-0.2, 0.4, 0.4]) > 0
        monkeypatch.setattr(labelings, "CHUNK_CELLS", 1)
        built = []
        original = labelings._expand
        monkeypatch.setattr(
            labelings, "_expand", lambda signs: built.append(signs) or original(signs)
        )
        assert labeling_bounds(data, side, [50]) is not None
        assert len(built) == 6
        built.clear()
        past = SolveBudget(deadline=time.monotonic() - 1)
        assert labeling_bounds(data, side, [50], past) is None
        assert len(built) == 1
        # the bank keeps no pass that a deadline may have cut short
        h0 = LinearClassifier((-0.2, 0.4, 0.4))
        bank = ClassifierBank(data, h0)
        assert bank.labelings([50], past) is None
        assert bank.labelings([50]) is not None

    def test_past_the_deadline_no_lp_runs_and_the_bound_stays(self, xor, monkeypatch):
        # without the baseline's hint, every flip still reports the pass's
        # bound, 25, and no leaf LP runs
        lps = []
        original = labelings.solve_lp_with_fixings
        monkeypatch.setattr(
            labelings, "solve_lp_with_fixings",
            lambda lp, fixings: lps.append(lp) or original(lp, fixings),
        )
        h0, _ = fit_baseline(xor)
        budget = SolveBudget(deadline=time.monotonic() - 1)
        _, pool, results = ambiguity_path(
            ClassifierBank(xor, h0), EpsilonGrid((Fraction(0),), 100), budget=budget
        )
        assert lps == []
        assert [r.nodes_explored for r in results] == [0] * 4
        assert (pool.mistakes_lower == 25).all() and not pool.certified.any()
        ambiguity_path(ClassifierBank(xor, h0), EpsilonGrid((Fraction(0),), 100))
        assert lps

    def test_a_stalled_check_lp_raises(self, xor, monkeypatch):
        # a leaf LP that stops undecided is a solver failure, as a node LP
        # that does is; read as infeasible, it would raise the flip bounds
        # above their optima
        monkeypatch.setattr(
            labelings, "solve_lp_with_fixings",
            lambda lp, fixings: LpSolution("stalled", None, math.nan),
        )
        h0, _ = fit_baseline(xor)
        with pytest.raises(InternalConsistencyError, match="stalled"):
            ambiguity_path(ClassifierBank(xor, h0), EpsilonGrid((Fraction(0),), 100))


# Recorded once with branch-and-bound alone (every solve certified; about
# five minutes on 2 CPUs): the default grid of a 40-row ladder.
LADDER_PROFILE = """\
epsilon,disc_lower,disc_upper,disc_certified,amb_lower,amb_upper,amb_certified
0,0.17857142857142858,0.17857142857142858,true,0.17857142857142858,0.17857142857142858,true
0.017857142857142856,0.19642857142857142,0.19642857142857142,true,0.2857142857142857,0.2857142857142857,true
0.03571428571428571,0.21428571428571427,0.21428571428571427,true,0.39285714285714285,0.39285714285714285,true
0.05357142857142857,0.23214285714285715,0.23214285714285715,true,0.5535714285714286,0.5535714285714286,true
0.07142857142857142,0.25,0.25,true,0.6964285714285714,0.6964285714285714,true
0.08928571428571429,0.26785714285714285,0.26785714285714285,true,0.7678571428571429,0.7678571428571429,true
"""


def test_ladder_audit_is_settled_by_the_labeling_pass(tmp_path):
    # three continuous features on a 0.001 grid, 40 training rows, every
    # row its own cell: every path program closes with 0 nodes
    write_ladder_csv(tmp_path / "ladder.csv", 50, 40)
    config = RunConfig(
        dataset=str(tmp_path / "ladder.csv"), group_column="group",
        outdir=str(tmp_path / "out"),
    )
    manifest = run_audit(config)
    assert (tmp_path / "out" / "profile.csv").read_text() == LADDER_PROFILE
    stages = manifest["stages"]
    solves = stages["discrepancy"]["solves"] + stages["ambiguity"]["solves"]
    assert len(solves) == 46
    assert all(s["status"] == "certified_optimal" and s["nodes"] == 0 for s in solves)
    baseline = json.loads((tmp_path / "out" / "baseline.json").read_text())
    assert baseline["train"]["mistakes"] == 8 and baseline["certified"]
    h0 = LinearClassifier(tuple(baseline["coefficients"]))
    assert h0.dim == 4


@pytest.mark.parametrize("source", ["xor", "tyranny", "compas_style"])
def test_leaves_solved_over_working_sets_give_the_same_audit(tmp_path, monkeypatch, source):
    # these programs' leaves are solved whole (at most WHOLE_ROWS rows);
    # solved over working sets of their rows instead, every report and
    # every solve reads the same
    starts, built = [], simplex._Tableau.__init__

    def spy(state, cost, coefs, *rest):
        starts.append(coefs.shape[0] == 0)  # the first round of a working set
        built(state, cost, coefs, *rest)

    monkeypatch.setattr(simplex._Tableau, "__init__", spy)

    def audit(out):
        config = RunConfig(dataset=source, outdir=str(out))
        if source == "compas_style":
            config = RunConfig(
                dataset=str(DATA / "compas_style.csv"), label_column="two_year_recid",
                group_column="race", outdir=str(out),
            )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stages = run_audit(config)["stages"]
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        solves = [
            stages["baseline"], *stages["discrepancy"]["solves"],
            *stages["ambiguity"]["solves"],
        ]
        return [(s["status"], s["lower_bound"], s["upper_bound"], s["nodes"]) for s in solves]

    whole = audit(tmp_path / "whole")
    assert not any(starts)
    monkeypatch.setattr(simplex, "WHOLE_ROWS", 0)
    assert audit(tmp_path / "rounds") == whole and any(starts)
    reports = [
        name for name in ("profile.csv", "burden.csv", "baseline.json")
        if (tmp_path / "whole" / name).exists()
    ]
    assert "profile.csv" in reports and (source == "xor") == ("burden.csv" not in reports)
    for name in reports:
        assert (tmp_path / "rounds" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


def write_sweep_csv(path, rng) -> None:
    """15 to 45 rows over 1 to 3 features, binary, on a 0.001 grid or
    integers 0 to 70, with a noisy linear label and an A/B group."""
    d, rows = int(rng.integers(1, 4)), int(rng.integers(15, 46))
    X = (
        rng.integers(0, 2, (rows, d)),
        np.round(rng.random((rows, d)), 3),
        rng.integers(0, 71, (rows, d)),
    )[int(rng.integers(0, 3))]
    group = rng.random(rows) < 0.5
    score = (
        X / X.max(initial=1) @ rng.normal(size=d)
        + np.where(group, 0.1, -0.1)
        + rng.normal(0.0, 0.3, rows)
    )
    label = (score > np.median(score)).astype(int)
    label[0] = 1 - label[0] if label.min() == label.max() else label[0]
    lines = [",".join([f"x{j + 1}" for j in range(d)] + ["label", "group"])]
    for x, y, a in zip(X.tolist(), label.tolist(), group.tolist()):
        lines.append(",".join([str(v) for v in x] + [str(y), "A" if a else "B"]))
    path.write_text("\n".join(lines) + "\n")


def test_random_small_audits_certify_or_stop_at_the_node_limit(tmp_path):
    # audits of data with at most three features, where the labeling pass
    # runs: each exits 0 without a margin warning, and every solve
    # certifies or spends its node limit.  The 24th CSV of this seed has
    # integer features, on which a check LP of the pass cycled before the
    # dual simplex fell back on Bland's rule
    rng = np.random.default_rng(3)
    for k in range(24):
        path, out = tmp_path / f"sweep{k}.csv", tmp_path / f"out{k}"
        write_sweep_csv(path, rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["audit", "--dataset", str(path), "--group-column", "group",
                 "--node-limit", "20", "--outdir", str(out)]
            )
        assert code == 0, path.read_text()
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        stages = json.loads((out / "run_manifest.json").read_text())["stages"]
        solves = [
            stages["baseline"], *stages["discrepancy"]["solves"],
            *stages["ambiguity"]["solves"],
        ]
        assert all(s["status"] == "certified_optimal" or s["nodes"] >= 20 for s in solves)
