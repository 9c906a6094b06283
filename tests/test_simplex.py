import numpy as np
import pytest

from multiplicity import simplex
from multiplicity.formulations import margin_floor
from multiplicity.simplex import (
    FEASIBILITY_TOL,
    OPTIMALITY_TOL,
    ROW_TOL,
    LinearProgram,
    basis_with_row,
    solve_lp,
    solve_lp_with_fixings,
    violated_rows,
)
from conftest import assert_one_program, random_box_lp
from oracles import reference_simplex


def box_lp(c, A, rels, b, lo, hi):
    return LinearProgram(
        objective=np.asarray(c, float),
        row_coefs=np.asarray(A, float).reshape(len(rels), -1) if rels else np.zeros((0, len(c))),
        row_relations=tuple(rels),
        row_rhs=np.asarray(b, float),
        var_lo=np.asarray(lo, float),
        var_hi=np.asarray(hi, float),
    )


class TestBasics:
    def test_single_variable_cap(self):
        lp = box_lp([-1.0], [[1.0]], ["<="], [0.5], [0.0], [1.0])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.values[0] == pytest.approx(0.5, abs=1e-9)
        assert sol.objective_value == pytest.approx(-0.5, abs=1e-9)

    def test_covering_pair(self):
        lp = box_lp([1.0, 1.0], [[1.0, 1.0]], [">="], [1.0], [0, 0], [1, 1])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_no_rows_prefers_bounds(self):
        lp = box_lp([1.0, -2.0], [], [], [], [-1, -1], [2, 3])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert tuple(sol.values) == (-1.0, 3.0)

    def test_infeasible_by_rows(self):
        lp = box_lp(
            [0.0],
            [[1.0], [1.0]],
            [">=", "<="],
            [0.8, 0.2],
            [0.0],
            [1.0],
        )
        assert solve_lp(lp).status == "infeasible"

    @pytest.mark.parametrize("gap, status", [(5e-7, "optimal"), (2e-6, "infeasible")])
    def test_a_row_out_of_reach_by_less_than_the_rule_is_met(self, gap, status):
        # x + y >= 2 + gap over x, y in [0, 1]: the row's slack box is empty
        # by gap, so x = y = 1 is the best a point can do
        lp = box_lp([1.0, -1.0], [[1, 1]], [">="], [2 + gap], [0, 0], [1, 1])
        sol = solve_lp(lp)
        assert sol.status == status
        if status == "optimal":
            assert violated_rows(lp, sol.values).size == 0

    def test_equality_row(self):
        lp = box_lp([1.0, 0.0], [[1.0, 1.0]], ["="], [1.2], [0, 0], [1, 1])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(0.2, abs=1e-9)

    def test_tolerances_exposed(self):
        assert ROW_TOL == 1e-6
        assert FEASIBILITY_TOL == 1e-7
        assert OPTIMALITY_TOL == 1e-7

    def test_violated_rows_per_relation(self):
        lp = box_lp(
            [0.0, 0.0],
            [[1, 0], [1, 0], [1, 0], [0, 1], [1, 0], [100, 0]],
            ["<=", "<=", ">=", "=", ">=", "<="],
            [0.5, 0.499998, 0.5, 0.0, 0.6, 50.0],
            [-1, -1],
            [1, 1],
        )
        # row 0 exceeds its rhs by 5e-7, within ROW_TOL; row 1 exceeds its
        # rhs by 2.5e-6, and row 5 by 5e-5: the tolerance is absolute,
        # whatever the rhs
        values = np.array([0.5 + 5e-7, 1e-3])
        assert violated_rows(lp, values).tolist() == [1, 3, 4, 5]
        assert violated_rows(lp, values, 1e-4).tolist() == [3, 4]


def _good_lp():
    """Arguments of a valid program: 2 variables, 1 row."""
    return dict(
        objective=[1.0, 0.0], row_coefs=[[1.0, 1.0]], row_relations=(">=",),
        row_rhs=[1.0], var_lo=[0.0, 0.0], var_hi=[1.0, 1.0],
    )


@pytest.mark.parametrize(
    "change, message",
    [
        ({"row_coefs": [[1.0, 1.0, 1.0]]}, "width must match"),
        ({"row_rhs": [1.0, 2.0]}, "row count mismatch"),
        ({"row_relations": (">=", "<=")}, "row count mismatch"),
        ({"var_hi": [1.0]}, "bound vectors"),
        ({"row_relations": ("==",)}, "unknown relation '=='"),
        ({"var_hi": [1.0, np.inf]}, "must be finite"),
        ({"var_lo": [0.0, 2.0]}, "lo > hi"),
    ],
    ids=["width", "rhs", "relations", "bounds", "relation", "infinite", "crossed"],
)
def test_malformed_programs_are_refused(change, message):
    LinearProgram(**_good_lp())
    with pytest.raises(ValueError, match=message):
        LinearProgram(**{**_good_lp(), **change})


class TestFixings:
    def test_fix_to_optimum_matches(self):
        lp = box_lp([-1.0], [[1.0]], ["<="], [0.5], [0.0], [1.0])
        free = solve_lp(lp)
        fixed = solve_lp_with_fixings(lp, {0: 0.5})
        assert fixed.status == "optimal"
        assert fixed.objective_value == pytest.approx(free.objective_value, abs=1e-9)

    def test_contradictory_fixing_infeasible(self):
        lp = box_lp([0.0, 0.0], [[1.0, 0.0]], ["<="], [0.0], [0, 0], [1, 1])
        assert solve_lp_with_fixings(lp, {0: 1.0}).status == "infeasible"

    def test_fixing_outside_bounds_infeasible(self):
        lp = box_lp([0.0], [], [], [], [0.0], [1.0])
        assert solve_lp_with_fixings(lp, {0: 2.0}).status == "infeasible"

    def test_random_fixings_match_collapsed_program(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 25:
            lp, _ = random_box_lp(rng)
            fix_mask = rng.random(lp.n_vars) < 0.2
            fixings = {}
            for j in np.flatnonzero(fix_mask):
                fixings[int(j)] = float(
                    lp.var_lo[j] + (lp.var_hi[j] - lp.var_lo[j]) * rng.random()
                )
            lo = lp.var_lo.copy()
            hi = lp.var_hi.copy()
            for j, v in fixings.items():
                lo[j] = hi[j] = v
            collapsed = LinearProgram(
                objective=lp.objective,
                row_coefs=lp.row_coefs,
                row_relations=lp.row_relations,
                row_rhs=lp.row_rhs,
                var_lo=lo,
                var_hi=hi,
            )
            via_fixings = solve_lp_with_fixings(lp, fixings)
            direct = solve_lp(collapsed)
            assert via_fixings.status == direct.status
            if direct.status == "optimal":
                assert via_fixings.objective_value == pytest.approx(
                    direct.objective_value, abs=1e-7
                )
            checked += 1


class TestAgainstOracle:
    def test_random_programs_match_reference(self):
        rng = np.random.default_rng(2024)
        statuses = {"optimal": 0, "infeasible": 0}
        for _ in range(120):
            lp, feasible_point = random_box_lp(rng)
            mine = solve_lp(lp)
            ref_status, ref_obj = reference_simplex(
                lp.objective, lp.row_coefs, lp.row_relations, lp.row_rhs,
                lp.var_lo, lp.var_hi,
            )
            assert mine.status == ref_status, (mine.status, ref_status)
            statuses[mine.status] += 1
            if ref_status == "optimal":
                assert mine.objective_value == pytest.approx(ref_obj, abs=1e-6)
            if feasible_point is not None:
                assert mine.status == "optimal"
                # weak bound: the optimum cannot beat any feasible point
                assert mine.objective_value <= lp.objective @ feasible_point + 1e-7
        assert statuses["optimal"] > 40
        assert statuses["infeasible"] > 5

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lp, _ = random_box_lp(rng)
            a = solve_lp(lp)
            b = solve_lp(lp)
            assert a.status == b.status
            assert a.n_pivots == b.n_pivots
            if a.status == "optimal":
                assert np.array_equal(a.values, b.values)
                assert a.objective_value == b.objective_value

    def test_tiny_pivot_does_not_break_rows(self):
        # Cut down from a flip-model node LP on 125 rows of Gaussian
        # features with four decimals, by deleting rows and columns while
        # the fault persisted.  A solve that pivoted on -1.08e-5 here
        # returned a vertex that violated row 5 by 2.6e-5.  The cold dual
        # solve must keep every row within FEASIBILITY_TOL and match the
        # oracle's optimum.
        cells = np.diag([1.0001, 1.7353, 1.0001, 1.0657, 1.0001, 1.0001])
        weights = [
            (0, [-1.0, -0.4773, 0.1308, -0.9822]),
            (1, [-1.0, 0.4997, -1.7352, -0.5747]),
            (2, [1.0, 0.766, -0.4411, -0.4204]),
            (None, [1.0, 0.2648, -1.0831, -2.0775]),
            (3, [-1.0, 0.6051, -1.0656, -0.1264]),
            (None, [1.0, 2.1118, -0.8092, 0.3886]),
            (4, [-1.0, 0.9566, -0.3264, -0.3363]),
            (None, [-1.0, -0.1359, 1.0895, 0.4921]),
            (None, [1.0, 0.3166, 0.54, 0.7992]),
            (5, [-1.0, -0.7062, 0.1268, -0.9178]),
            (None, [1.0, -0.5746, 1.4487, 1.4243]),
        ]
        rows = [
            np.concatenate([np.zeros(6) if c is None else cells[c], w])
            for c, w in weights
        ]
        lp = box_lp(
            [1.0] * 6 + [0.0] * 4,
            rows,
            [">="] * len(rows),
            [1e-4] * len(rows),
            [0.0] * 9 + [-1.0],
            [1.0] * 9 + [0.0],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert violated_rows(lp, sol.values, FEASIBILITY_TOL).size == 0
        ref_status, ref_obj = reference_simplex(
            lp.objective, lp.row_coefs, lp.row_relations, lp.row_rhs,
            lp.var_lo, lp.var_hi,
        )
        assert ref_status == "optimal"
        assert sol.objective_value == pytest.approx(ref_obj, abs=1e-8)

    def test_degenerate_covering_does_not_cycle(self):
        # many redundant rows through one vertex
        n = 6
        A = np.vstack([np.eye(n), np.ones((4, n))])
        rels = ["<="] * n + [">="] * 4
        b = np.concatenate([np.zeros(n), np.zeros(4)])
        lp = box_lp(np.ones(n), A, rels, b, np.zeros(n), np.ones(n))
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(0.0, abs=1e-9)

    def test_dual_degenerate_cycle_is_broken_by_blands_rule(self):
        # max t s.t. rows . (w+ - w-) >= t, sum(w+ + w-) <= 1, w+- in [0, 1],
        # |t| <= 59 + margin_floor(1e-4): a max-margin LP over 8 cells of a
        # 28-row CSV with integer features.  Without the anti-cycling rule
        # the dual's basis repeats after 76 pivots, with period 54, until
        # the pivot limit; the optimum is t = 25 at w = -e_2
        rows = np.array(
            [[-1, -55, -47, -6], [-1, -39, -52, -10], [-1, -40, -40, -6],
             [-1, -6, -25, -39], [-1, -17, -25, -19], [-1, -2, -59, -34],
             [-1, -20, -37, -6], [-1, -6, -42, -21]], dtype=float,
        )
        k, nc = rows.shape
        reach = 59.0 + margin_floor(1e-4)
        lp = box_lp(
            np.concatenate([np.zeros(2 * nc), [-1.0]]),
            np.vstack(
                [np.hstack([rows, -rows, -np.ones((k, 1))]),
                 np.concatenate([np.ones(2 * nc), [0.0]])]
            ),
            [">="] * k + ["<="],
            np.concatenate([np.zeros(k), [1.0]]),
            np.concatenate([np.zeros(2 * nc), [-reach]]),
            np.concatenate([np.ones(2 * nc), [reach]]),
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-25.0, abs=1e-9)
        assert sol.n_pivots < 100

    @pytest.mark.parametrize("g, status", [(1e-4, "optimal"), (1.002e-4, "infeasible")])
    def test_a_miss_within_the_rows_tolerance_proves_nothing(self, g, status):
        # 10 p >= 10 g, 10 (2e-4 q - p) >= 10 g and 10 (p + q) <= 10 over p,
        # q in [0, 1]: the rows meet exactly only for g <= 1/10001, so at
        # g = 1e-4 the l1 row's tableau row misses by 1e-3.  Scaled by
        # 1/1.0001 that point misses each row by 1e-7, within ROW_TOL.  Past
        # g = 1/10001 the least miss grows ten times as fast as g, so at
        # g = 1.002e-4 it is 2.1e-6, past ROW_TOL.  The unwidened proof read
        # g = 1e-4 as infeasible
        lp = _margin_lp(g)
        sol = solve_lp(lp)
        assert sol.status == status
        if status == "optimal":
            assert violated_rows(lp, sol.values).size == 0


def _margin_lp(g):
    """The program of test_a_miss_within_the_rows_tolerance_proves_nothing."""
    return box_lp([0.0, 0.0], [[10, 0], [-10, 2e-3], [10, 10]], [">=", ">=", "<="],
                  [10 * g, 10 * g, 10.0], [0, 0], [1, 1])


class TestLeastObjective:
    def test_a_row_that_binds_lowers_it_by_its_dual(self):
        # min 2x s.t. x >= 0.5: the row's dual is 2, and x = 0.5 - 1e-6
        # meets the row within ROW_TOL
        sol = solve_lp(box_lp([2.0], [[1.0]], [">="], [0.5], [0], [1]))
        assert sol.objective_value == 1.0
        assert sol.least_objective == pytest.approx(1.0 - 2 * ROW_TOL, abs=1e-15)

    def test_it_bounds_the_program_with_every_row_widened(self):
        # the optimum is convex in the rhs and the row duals y are a
        # subgradient, so widening every row by w lowers it by at most
        # w * sum|y| for every w: here 0.1, solved by the reference
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(200):
            lp, _ = random_box_lp(rng)
            sol = solve_lp(lp)
            if sol.status != "optimal":
                continue
            size = (sol.objective_value - sol.least_objective) / ROW_TOL
            coefs, rels, rhs = [], [], []
            for row, rel, b in zip(lp.row_coefs, lp.row_relations, lp.row_rhs):
                for side, shift in (("<=", 0.1), (">=", -0.1)):
                    if rel in (side, "="):
                        coefs.append(row)
                        rels.append(side)
                        rhs.append(b + shift)
            status, value = reference_simplex(
                lp.objective, np.reshape(coefs, (-1, lp.n_vars)), rels, rhs,
                lp.var_lo, lp.var_hi,
            )
            assert status == "optimal"
            assert value >= sol.objective_value - 0.1 * size - 1e-6
            checked += size > 0
        assert checked > 50


class TestByRows:
    @pytest.fixture(autouse=True)
    def _by_rows_always(self, monkeypatch):
        monkeypatch.setattr(simplex, "WHOLE_ROWS", 0)

    def test_random_fixings_match_the_whole_program(self):
        rng = np.random.default_rng(11)
        statuses = {"optimal": 0, "infeasible": 0}
        for _ in range(120):
            lp, _ = random_box_lp(rng)
            fixings = {
                int(j): float(lp.var_lo[j] + (lp.var_hi[j] - lp.var_lo[j]) * rng.random())
                for j in np.flatnonzero(rng.random(lp.n_vars) < 0.3)
            }
            rows = solve_lp_with_fixings(lp, fixings)
            _matches(rows, _reference(lp, fixings))
            statuses[rows.status] += 1
            if rows.status == "optimal":
                assert violated_rows(lp, rows.values, 1e-6).size == 0
                assert all(rows.values[j] == v for j, v in fixings.items())
        assert statuses["optimal"] > 40 and statuses["infeasible"] > 5

    @pytest.mark.parametrize("g, status", [(1e-4, "optimal"), (1.002e-4, "infeasible")])
    def test_rows_added_to_a_tableau_keep_their_tolerance(self, g, status):
        # the program of test_a_miss_within_the_rows_tolerance_proves_nothing
        # with a third column in every row, fixed at 0: the leaf, solved
        # over a working set of its rows, decides alike
        margin = _margin_lp(g)
        lp = box_lp(
            [0.0, 0.0, 0.0], np.hstack([margin.row_coefs, np.ones((3, 1))]),
            margin.row_relations, margin.row_rhs, [0, 0, 0], [1, 1, 1],
        )
        sol = solve_lp_with_fixings(lp, {2: 0.0})
        assert sol.status == status
        if status == "optimal":
            assert violated_rows(lp, sol.values).size == 0

    def test_a_leaf_of_many_rows_solves_a_few(self, monkeypatch):
        # min x + 0.3 y over 400 tangents of the unit disc around (1, 1),
        # each row also over a column of its own, fixed at 0: each round
        # solves a tableau of the working set, at most one row per free
        # variable joins it per round, and a few rounds settle it
        angles = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
        lp = box_lp(
            np.concatenate([np.zeros(400), [1.0, 0.3]]),
            np.hstack([np.eye(400), normals]),
            [">="] * 400,
            normals @ [1.0, 1.0] - 1.0,
            np.zeros(402), np.concatenate([np.ones(400), [3.0, 3.0]]),
        )
        sizes, original = [], simplex._Tableau.__init__

        def spy(state, cost, coefs, *rest):
            sizes.append(coefs.shape[0])
            original(state, cost, coefs, *rest)

        monkeypatch.setattr(simplex._Tableau, "__init__", spy)
        sol = solve_lp_with_fixings(lp, {j: 0.0 for j in range(400)})
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.3 - 1.09**0.5, abs=1e-3)
        assert violated_rows(lp, sol.values, FEASIBILITY_TOL).size == 0
        added = np.diff(sizes)
        assert sizes[0] == 0 and len(added) > 2
        assert added.min() >= 1 and added.max() <= 2 and sizes[-1] <= 20


def _walk_chains(rng, count, check):
    """Run ``check(lp, fixings, parent, basic)`` down random parent -> child
    -> grandchild chains below the cold roots of ``count`` random LPs.

    Each level fixes one more structural variable, basic (``basic``) or
    nonbasic in the parent's final basis, to one of its bounds or to a
    point inside its box; ``check`` returns the child, and a chain stops
    below a child that is not optimal.
    """
    for _ in range(count):
        lp, _ = random_box_lp(rng)
        parent, fixings = solve_lp(lp), {}
        for _ in range(2):
            free = [j for j in range(lp.n_vars) if j not in fixings]
            if parent.status != "optimal" or not free:
                break
            j = int(rng.choice(free))
            lo, hi = lp.var_lo[j], lp.var_hi[j]
            value = (lo, hi, lo + (hi - lo) * rng.random())[int(rng.integers(0, 3))]
            fixings = {**fixings, j: float(value)}
            parent = check(lp, fixings, parent, j in parent.basis.columns)


class _OnePivot(simplex._Tableau):
    """A tableau whose solve may take one pivot."""

    def __init__(self, *args):
        super().__init__(*args)
        self.iteration_limit = 1


def _solve_with_one_pivot(lp, fixings, start):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "_Tableau", _OnePivot)
        return solve_lp_with_fixings(lp, fixings, start=start)


def _reference(lp, fixings):
    """(status, objective) of ``lp`` under ``fixings`` by the tableau oracle."""
    lo, hi = lp.var_lo.copy(), lp.var_hi.copy()
    for j, value in fixings.items():
        lo[j] = hi[j] = value
    return reference_simplex(
        lp.objective, lp.row_coefs, lp.row_relations, lp.row_rhs, lo, hi
    )


def _matches(sol, reference):
    status, objective = reference
    assert sol.status == status
    if status == "optimal":
        assert sol.objective_value == pytest.approx(objective, abs=1e-6)


class TestWarmStart:
    def test_chains_match_cold_and_repeat(self):
        seen = {"basic": 0, "nonbasic": 0, "infeasible": 0, "grandchild": 0}

        def check(lp, fixings, parent, basic):
            child = solve_lp_with_fixings(lp, fixings, start=parent.basis)
            cold = solve_lp_with_fixings(lp, fixings)
            assert child.status == cold.status
            _matches(child, _reference(lp, fixings))
            if cold.status == "optimal":
                assert child.objective_value == pytest.approx(cold.objective_value, abs=1e-7)
                assert violated_rows(lp, child.values, 1e-6).size == 0
            again = solve_lp_with_fixings(lp, fixings, start=parent.basis)
            assert again.n_pivots == child.n_pivots
            if child.status == "optimal":
                assert np.array_equal(again.values, child.values)
                assert np.array_equal(again.basis.columns, child.basis.columns)
            seen["basic" if basic else "nonbasic"] += 1
            seen["infeasible"] += child.status == "infeasible"
            seen["grandchild"] += len(fixings) == 2
            return child

        _walk_chains(np.random.default_rng(31), 150, check)
        assert min(seen.values()) >= 10, seen

    def test_spent_pivot_limit_is_stalled(self):
        stalled = []

        def check(lp, fixings, parent, basic):
            child = _solve_with_one_pivot(lp, fixings, parent.basis)
            if child.status == "stalled":
                stalled.append(1)
                assert child.n_pivots == 1 and child.values is None
            else:
                _matches(child, _reference(lp, fixings))
            return child

        _walk_chains(np.random.default_rng(5), 150, check)
        assert len(stalled) >= 5, len(stalled)

    def test_dual_ratio_test_prefers_the_larger_pivot(self):
        # Fixing x0 = 0 leaves the row short by 1.  Column 1 is free to
        # enter (ratio 0) but through a pivot of 1e-4; column 2 costs 1e-4,
        # within the optimality tolerance of that ratio once divided by its
        # pivot of 1, so it enters instead and one pivot ends the repair.
        lp = box_lp([-1.0, 0.0, 1e-4], [[1.0, 1e-4, 1.0]], [">="], [1.0], [0, 0, 0], [1, 1, 1])
        warm = solve_lp_with_fixings(lp, {0: 0.0}, start=solve_lp(lp).basis)
        cold = solve_lp_with_fixings(lp, {0: 0.0})
        assert warm.n_pivots == 1 and warm.basis.columns.tolist() == [2]
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-7)

    def test_unproven_infeasibility_is_stalled(self):
        # Fixing x0 = 0 leaves the row short by 1.  Its only other entry,
        # 1e-10, is below the pivot tolerance, yet over y's box of width
        # 2e10 it closes the gap at y = 1e10: the program is feasible, and
        # the dual has neither a pivot nor a proof of infeasibility.
        lp = box_lp([-1.0, 0.0], [[1.0, 1e-10]], [">="], [1.0], [0, 0], [1, 2e10])
        for start in (None, solve_lp(lp).basis):
            sol = solve_lp_with_fixings(lp, {0: 0.0}, start=start)
            assert sol.status == "stalled" and sol.values is None

    def test_mismatched_start_rejected(self):
        lp = box_lp([1.0, 1.0], [[1.0, 1.0]], [">="], [1.0], [0, 0], [1, 1])
        other = box_lp([1.0], [[1.0]], [">="], [0.5], [0], [1])
        with pytest.raises(ValueError):
            solve_lp_with_fixings(lp, {0: 1.0}, start=solve_lp(other).basis)


def _related_programs(rng, count):
    """(program, optimal basis of a related program, kind) for ``count``
    random LPs with an optimal cold solve: the same LP with new right-hand
    sides (``rhs``), or with one random row inserted and the basis extended
    by its slack (``row``)."""
    out = []
    while len(out) < count:
        lp, _ = random_box_lp(rng)
        parent = solve_lp(lp)
        if parent.status != "optimal" or lp.n_rows == 0:
            continue
        kind = ("rhs", "row")[len(out) % 2]
        A, rels, rhs = lp.row_coefs, list(lp.row_relations), lp.row_rhs
        if kind == "rhs":
            rhs = rhs + np.round(rng.normal(scale=0.5, size=rhs.size), 3)
            start = parent.basis
        else:
            at = int(rng.integers(0, lp.n_rows + 1))
            row = np.round(rng.uniform(-2.0, 2.0, size=lp.n_vars), 3)
            rel = ("<=", "=", ">=")[int(rng.integers(0, 3))]
            A = np.insert(A, at, row, axis=0)
            rels.insert(at, rel)
            rhs = np.insert(rhs, at, round(float(row @ parent.values) + rng.normal(), 3))
            start = basis_with_row(parent.basis, at)
        related = box_lp(lp.objective, A, rels, rhs, lp.var_lo, lp.var_hi)
        out.append((related, start, kind))
    return out


class TestWarmRoot:
    def test_basis_with_row_shifts_slacks(self):
        # 2 structurals, 2 rows: columns [x0 x1 | s0 s1]
        basis = simplex.Basis(np.array([3, 1]), np.array([1, 0, 1, 0], dtype=bool))
        grown = basis_with_row(basis, 1)
        # [x0 x1 | s0 new s1]: s1 3 -> 4, new slack 3
        assert grown.columns.tolist() == [4, 3, 1]
        assert grown.at_upper.tolist() == [1, 0, 1, 0, 0]

    def test_related_programs_match_cold_and_repeat(self):
        seen = {"rhs": 0, "row": 0, "infeasible": 0}
        for lp, start, kind in _related_programs(np.random.default_rng(47), 200):
            warm = solve_lp_with_fixings(lp, {}, start=start)
            cold = solve_lp(lp)
            assert warm.status == cold.status
            _matches(warm, _reference(lp, {}))
            if cold.status == "optimal":
                assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-7)
                assert violated_rows(lp, warm.values, 1e-6).size == 0
            again = solve_lp_with_fixings(lp, {}, start=start)
            assert again.n_pivots == warm.n_pivots
            if warm.status == "optimal":
                assert np.array_equal(again.values, warm.values)
                assert np.array_equal(again.basis.columns, warm.basis.columns)
            seen[kind] += 1
            seen["infeasible"] += warm.status == "infeasible"
        assert min(seen.values()) >= 10, seen

    def test_spent_pivot_limit_on_a_related_program_is_stalled(self):
        stalled = {"rhs": 0, "row": 0}
        for lp, start, kind in _related_programs(np.random.default_rng(8), 100):
            warm = _solve_with_one_pivot(lp, {}, start)
            if warm.status == "stalled":
                stalled[kind] += 1
                assert warm.n_pivots == 1 and warm.values is None
            else:
                _matches(warm, _reference(lp, {}))
        assert min(stalled.values()) >= 5, stalled


class _CountingFlips(simplex._Tableau):
    """A tableau that records the columns each bound-flip pass moves."""

    moved = []

    def _flip_to_preferred_bounds(self):
        flips = super()._flip_to_preferred_bounds()
        self.moved.append(flips)
        return flips


def _reduced_costs(lp, basis):
    """Reduced costs over [structurals | slacks] of ``basis`` for ``lp``."""
    A = np.hstack([lp.row_coefs, np.eye(lp.n_rows)])
    cost = np.concatenate([lp.objective, np.zeros(lp.n_rows)])
    duals = np.linalg.solve(A[:, basis.columns].T, cost[basis.columns])
    return cost - A.T @ duals


class TestBoundFlipRepair:
    def test_start_off_its_preferred_bounds_recovers(self):
        # Moving half of an optimal basis's free nonbasic structurals to
        # their other bound leaves a start that is not dual feasible: the
        # dual repairs its rows, then the flips restore its reduced costs.
        rng = np.random.default_rng(61)
        recovered = repaired = 0
        while recovered < 150:
            lp, _ = random_box_lp(rng)
            cold = solve_lp(lp)
            if cold.status != "optimal":
                continue
            free = np.setdiff1d(np.arange(lp.n_vars), cold.basis.columns)
            off = rng.choice(free, size=(free.size + 1) // 2, replace=False)
            at_upper = cold.basis.at_upper.copy()
            at_upper[off] = ~at_upper[off]
            start = simplex.Basis(cold.basis.columns, at_upper)
            z = _reduced_costs(lp, start)[off]
            if not np.any(np.where(at_upper[off], z > OPTIMALITY_TOL, z < -OPTIMALITY_TOL)):
                continue  # every moved column was dual degenerate
            _CountingFlips.moved = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(simplex, "_Tableau", _CountingFlips)
                warm = solve_lp_with_fixings(lp, {}, start=start)
            assert warm.status == "optimal"
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
            assert violated_rows(lp, warm.values, FEASIBILITY_TOL).size == 0
            assert _CountingFlips.moved[-1] == 0
            recovered += 1
            repaired += sum(_CountingFlips.moved) > 0
        # the dual alone repairs the few starts whose wrong-bound columns
        # all enter the basis
        assert repaired >= 0.9 * recovered


class TestRefactorization:
    def test_refactorization_after_every_pivot(self):
        # The dual refactorizes B^-1 A every REFACTOR_INTERVAL pivots, which
        # small programs never reach; at an interval of 1 it refactorizes
        # after every pivot.  A cold start factors nothing, so each of its
        # refactorizations is one inside the dual loop.
        refactors = []
        original = simplex._Tableau._refactor

        def counted(self):
            refactors.append(1)
            original(self)

        def check(lp, fixings, parent, basic):
            child = solve_lp_with_fixings(lp, fixings, start=parent.basis)
            _matches(child, _reference(lp, fixings))
            if child.status == "optimal":
                assert violated_rows(lp, child.values, FEASIBILITY_TOL).size == 0
            return child

        optimal = 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simplex, "REFACTOR_INTERVAL", 1)
            patch.setattr(simplex._Tableau, "_refactor", counted)
            rng = np.random.default_rng(62)
            for _ in range(200):
                lp, _ = random_box_lp(rng)
                sol = solve_lp(lp)
                _matches(sol, _reference(lp, {}))
                if sol.status == "optimal":
                    optimal += 1
                    assert violated_rows(lp, sol.values, FEASIBILITY_TOL).size == 0
            cold_refactors = len(refactors)
            _walk_chains(np.random.default_rng(63), 100, check)
        assert optimal >= 80 and cold_refactors >= 200


class TestEntries:
    @pytest.mark.parametrize("seed", range(40))
    def test_a_program_built_from_its_entries_is_the_dense_one(self, seed):
        # the entries are listed cell by cell, zeros included, which the
        # program drops
        rng = np.random.default_rng(seed)
        dense, _ = random_box_lp(rng)
        A = dense.row_coefs
        rows, cols = np.indices(A.shape).reshape(2, -1)
        entries = LinearProgram.from_entries(
            dense.objective, (rows, cols, A.ravel()),
            dense.row_relations, dense.row_rhs, dense.var_lo, dense.var_hi,
        )
        assert entries.entries[2].size == np.count_nonzero(A)
        points = dense.var_lo + (dense.var_hi - dense.var_lo) * rng.random((5, dense.n_vars))
        fixings = [{}, {0: float(dense.var_lo[0])}, {0: float(dense.var_hi[0])}]
        assert_one_program(dense, entries, fixings, points)

    def test_entries_out_of_row_order_are_refused(self):
        args = ([1.0, 0.0], ((0, 1), (0, 1), (1.0, 1.0)), (">=", ">="), [1.0, 1.0],
                [0.0, 0.0], [1.0, 1.0])
        LinearProgram.from_entries(*args)
        with pytest.raises(ValueError, match="in row order"):
            LinearProgram.from_entries(args[0], ((1, 0), (0, 1), (1.0, 1.0)), *args[2:])

    def test_dense_rows_and_activity_read_the_entries(self):
        rng = np.random.default_rng(3)
        lp, _ = random_box_lp(rng)
        while lp.n_rows < 3:
            lp, _ = random_box_lp(rng)
        rows = [2, 0]
        assert np.array_equal(lp.dense(rows), lp.row_coefs[rows])
        assert lp.dense([]).shape == (0, lp.n_vars)
        point = rng.random(lp.n_vars)
        assert np.allclose(lp.activity(point), lp.row_coefs @ point, rtol=0, atol=1e-12)
