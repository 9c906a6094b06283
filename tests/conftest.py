import csv
import random
from itertools import product
from typing import Optional

import numpy as np
import pytest

from multiplicity.core import Dataset, Example


def xor_dataset(scale: int = 1) -> Dataset:
    cells = [
        ((1.0, 0.0, 0.0), -1),
        ((1.0, 0.0, 1.0), 1),
        ((1.0, 1.0, 0.0), 1),
        ((1.0, 1.0, 1.0), -1),
    ]
    return Dataset.build(
        [Example(f, lab, weight=25 * scale) for f, lab in cells]
    )


@pytest.fixture
def xor():
    return xor_dataset()


@pytest.fixture
def node_lps(monkeypatch):
    """(fixings, start, solution) of every node LP that ``solve`` runs."""
    from multiplicity import branch_bound

    calls = []
    solve_node = branch_bound.solve_lp_with_fixings

    def spy(lp, fixings, start=None):
        sol = solve_node(lp, fixings, start=start)
        calls.append((dict(fixings), start, sol))
        return sol

    monkeypatch.setattr(branch_bound, "solve_lp_with_fixings", spy)
    return calls


def random_binary_dataset(
    rng: np.random.Generator, max_weight: int = 3, d: Optional[int] = None
) -> Dataset:
    """Weighted dataset over binary feature cells, both classes present.

    d <= 3 unless given and total weight <= 24, the regime the arrangement
    oracle covers.
    """
    if d is None:
        d = int(rng.integers(1, 4))
    cells = list(product((0.0, 1.0), repeat=d))
    k = int(rng.integers(2, len(cells) + 1))
    chosen = [cells[i] for i in rng.choice(len(cells), size=k, replace=False)]
    examples = []
    budget = 24
    for cell in chosen:
        for label in (-1, 1):
            if rng.random() < 0.6 and budget > 0:
                w = int(min(rng.integers(1, max_weight + 1), budget))
                examples.append(Example((1.0,) + cell, label, weight=w))
                budget -= w
    labels = {ex.label for ex in examples}
    if len(labels) < 2:
        examples.append(Example((1.0,) + chosen[0], 1, weight=1))
        examples.append(Example((1.0,) + chosen[-1], -1, weight=1))
    total = sum(ex.weight for ex in examples)
    if total < 8:  # keep epsilon grids k/n meaningful
        examples.append(Example((1.0,) + chosen[0], -1, weight=8 - total))
    return Dataset.build(examples)


def write_ladder_csv(path, rows: int, seed: int) -> None:
    """``rows`` noisy linearly-labelled points with three continuous
    features on a 0.001 grid and two groups: every row its own cell."""
    rng = random.Random(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x3", "label", "group"])
        for _ in range(rows):
            x = [round(rng.random(), 3) for _ in range(3)]
            group = "A" if rng.random() < 0.5 else "B"
            score = x[0] - 0.7 * x[1] + 0.4 * x[2] + (0.1 if group == "A" else -0.1)
            label = 1 if score + rng.gauss(0.0, 0.3) > 0.25 else 0
            writer.writerow([repr(v) for v in x] + [label, group])


def write_binary_csv(path, rows: int, seed: int, features: int = 4) -> None:
    """``rows`` noisy linearly-labelled points with binary features and two
    groups.  With four features the labeling pass does not apply, so every
    path program is solved by branch-and-bound."""
    rng = random.Random(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(features)] + ["label", "group"])
        for _ in range(rows):
            x = [int(rng.random() < 0.5) for _ in range(features)]
            group = "A" if rng.random() < 0.5 else "B"
            score = sum(x[j] * (-1) ** j / (j + 1) for j in range(features))
            label = 1 if score + rng.gauss(0.0, 0.5) > 0.2 else 0
            writer.writerow(x + [label, group])


def random_box_lp(rng: np.random.Generator):
    """Random bounded LP; roughly half are built around a feasible point."""
    from multiplicity.simplex import LinearProgram

    n = int(rng.integers(1, 11))
    m = int(rng.integers(0, 9))
    lo = np.round(rng.uniform(-2.0, 0.0, size=n), 3)
    hi = lo + np.round(rng.uniform(0.1, 2.0, size=n), 3)
    c = np.round(rng.uniform(-2.0, 2.0, size=n), 3)
    A = np.round(rng.uniform(-2.0, 2.0, size=(m, n)), 3)
    A[rng.random(size=A.shape) < 0.3] = 0.0
    rels = [("<=", "=", ">=")[int(rng.integers(0, 3))] for _ in range(m)]
    if rng.random() < 0.5 and m:
        x0 = lo + (hi - lo) * rng.random(size=n)
        act = A @ x0
        rhs = np.empty(m)
        for k, rel in enumerate(rels):
            slack = abs(rng.normal()) * 0.5
            rhs[k] = act[k] + slack if rel == "<=" else act[k] - slack if rel == ">=" else act[k]
        feasible_point = x0
    else:
        rhs = np.round(rng.uniform(-2.0, 2.0, size=m), 3)
        feasible_point = None
    lp = LinearProgram(
        objective=c,
        row_coefs=A if m else np.zeros((0, n)),
        row_relations=tuple(rels),
        row_rhs=rhs,
        var_lo=lo,
        var_hi=hi,
    )
    return lp, feasible_point


def assert_one_program(dense, entries, fixings_list, points):
    """``dense`` and ``entries``, one program built from its dense matrix and
    from its entries, give the same rows, the same violated rows at each
    of ``points``, and the same status, objective and pivot count under
    each fixings of ``fixings_list``, a leaf solved in one tableau (at the
    default WHOLE_ROWS) and over a working set of its rows (at 0)."""
    from multiplicity import simplex
    from multiplicity.simplex import solve_lp_with_fixings, violated_rows

    assert np.array_equal(dense.row_coefs, entries.row_coefs)
    for point in points:
        for tol in (0.0, 1e-7):
            assert np.array_equal(
                violated_rows(dense, point, tol), violated_rows(entries, point, tol)
            )
    for fixings in fixings_list:
        for whole_rows in (simplex.WHOLE_ROWS, 0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(simplex, "WHOLE_ROWS", whole_rows)
                a, b = (solve_lp_with_fixings(lp, fixings) for lp in (dense, entries))
            assert (a.status, a.n_pivots) == (b.status, b.n_pivots)
            assert np.array_equal(a.objective_value, b.objective_value, equal_nan=True)
