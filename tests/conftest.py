from itertools import product

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


def random_binary_dataset(rng: np.random.Generator, max_weight: int = 3) -> Dataset:
    """Weighted dataset over binary feature cells, both classes present.

    d <= 3 and total weight <= 24, the regime the arrangement oracle covers.
    """
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
