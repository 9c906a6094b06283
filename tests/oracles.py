"""Independent brute-force oracles used to verify the solver stack.

Nothing here touches the package's simplex or branch-and-bound code paths.

* Pattern enumeration: for binary features with d <= 3 there are at most
  2^d distinct hypercube cells, so every achievable strict sign pattern of
  a linear classifier is the restriction of an achievable pattern on the
  full cube.  Achievability of "sigma_c (w . x_c) >= 1 for all cells c" is
  decided by exact integer Fourier-Motzkin elimination.  With the intercept
  slot fixed at 1, tie-rule patterns and strictly achievable patterns
  coincide (shift the intercept down by a tiny amount to break zeros), so
  enumerating strict patterns enumerates every realizable labeling.

* reference_simplex: a from-scratch textbook two-phase full-tableau simplex
  on an explicit standard-form transformation (shifted variables, explicit
  upper-bound rows, artificial basis, Bland's rule throughout).

* Labeling enumeration: the optimum of every flip and disc program, for
  binary or continuous features, from all 2^m labelings of the m cells.  A
  labeling counts for a program when some w with ||w||_1 <= 1 scores each
  cell the program pins at least ``formulations.margin_floor(gamma)`` on
  the labeling's side, which reference_simplex decides.

* Report references: the profile reports as nested dicts and rows built
  one grid point at a time from each entry's ``MeasureValue`` of exact
  fractions, for ``json.dumps`` and ``csv.writer`` to encode.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

import numpy as np

from multiplicity.formulations import margin_floor


# ---------------------------------------------------------------------------
# achievable sign patterns on binary feature cells
# ---------------------------------------------------------------------------


def _normalize_row(row):
    g = 0
    for v in row:
        g = gcd(g, abs(v))
    if g > 1:
        row = tuple(v // g for v in row)
    return tuple(row)


def _fm_feasible(rows):
    """Exact feasibility of {a . w >= b} via Fourier-Motzkin, integers only.

    Each row is (a_0, ..., a_{m-1}, b) meaning sum a_k w_k >= b.
    """
    rows = {_normalize_row(r) for r in rows}
    n_vars = len(next(iter(rows))) - 1 if rows else 0
    for var in range(n_vars - 1, -1, -1):
        pos, neg, rest = [], [], []
        for r in rows:
            if r[var] > 0:
                pos.append(r)
            elif r[var] < 0:
                neg.append(r)
            else:
                rest.append(r)
        new_rows = set()
        for rp in pos:
            for rn in neg:
                # eliminate w_var: |a_n| * rp + a_p * rn
                ap, an = rp[var], -rn[var]
                combo = tuple(an * p + ap * q for p, q in zip(rp, rn))
                new_rows.add(_normalize_row(combo))
        for r in rest:
            new_rows.add(r)
        rows = set()
        for r in new_rows:
            if any(r[:var]):
                rows.add(r)
            elif r[-1] > 0:
                return False  # 0 >= positive constant
        # rows with only zero coefficients and b <= 0 are dropped
    return True


@lru_cache(maxsize=None)
def cube_patterns(d):
    """All strictly achievable sign patterns on the full {0,1}^d cube.

    Returns a tuple of dicts mapping each cell (1, b_1, ..., b_d) to +-1.
    Counts match the classic threshold-function numbers: 4, 14, 104 for
    d = 1, 2, 3.
    """
    cells = [(1,) + bits for bits in product((0, 1), repeat=d)]
    achievable = []
    for signs in product((-1, 1), repeat=len(cells)):
        rows = [
            tuple(s * c for c in cell) + (1,) for s, cell in zip(signs, cells)
        ]
        if _fm_feasible(rows):
            achievable.append(dict(zip(cells, signs)))
    return tuple(achievable)


def dataset_patterns(dataset):
    """Distinct achievable prediction patterns restricted to the dataset.

    Returns (cells, patterns): the dataset's distinct feature tuples and a
    list of sign dicts over exactly those tuples.
    """
    cells = sorted({tuple(int(round(v)) for v in ex.features) for ex in dataset.examples})
    d = len(cells[0]) - 1
    seen = set()
    patterns = []
    for pat in cube_patterns(d):
        restricted = tuple(pat[c] for c in cells)
        if restricted not in seen:
            seen.add(restricted)
            patterns.append(dict(zip(cells, restricted)))
    return cells, patterns


def _cell_of(example):
    return tuple(int(round(v)) for v in example.features)


def pattern_mistakes(pattern, dataset):
    return sum(
        ex.weight for ex in dataset.examples if pattern[_cell_of(ex)] != ex.label
    )


def pattern_conflicts(pattern, base_pattern, dataset):
    return sum(
        ex.weight
        for ex in dataset.examples
        if pattern[_cell_of(ex)] != base_pattern[_cell_of(ex)]
    )


def prediction_pattern(h, dataset):
    """Tie-rule prediction pattern of a classifier, keyed by feature cell."""
    pattern = {}
    for ex in dataset.examples:
        score = float(np.dot(h.coefficients, ex.features))
        pattern[_cell_of(ex)] = 1 if score > 0 else -1
    return pattern


def oracle_baseline(dataset):
    """Minimum weighted 0-1 error over all linear labelings."""
    _, patterns = dataset_patterns(dataset)
    return min(pattern_mistakes(p, dataset) for p in patterns)


def oracle_flip(dataset, base_pattern, index):
    """Minimum weighted error among labelings disagreeing with the baseline
    on the cell of example ``index``."""
    cell = _cell_of(dataset.examples[index])
    _, patterns = dataset_patterns(dataset)
    return min(
        pattern_mistakes(p, dataset)
        for p in patterns
        if p[cell] != base_pattern[cell]
    )


def oracle_disc(dataset, base_pattern, epsilon):
    """(max conflicts, min agreements) over the epsilon-level set."""
    _, patterns = dataset_patterns(dataset)
    base_mistakes = pattern_mistakes(base_pattern, dataset)
    budget = base_mistakes + int(epsilon * dataset.n)
    best = max(
        pattern_conflicts(p, base_pattern, dataset)
        for p in patterns
        if pattern_mistakes(p, dataset) <= budget
    )
    return best


def oracle_ambiguity(dataset, base_pattern, epsilon):
    """Weighted fraction of points flippable within the epsilon-level set."""
    base_mistakes = pattern_mistakes(base_pattern, dataset)
    budget = base_mistakes + int(epsilon * dataset.n)
    flippable = 0
    for i, ex in enumerate(dataset.examples):
        if oracle_flip(dataset, base_pattern, i) <= budget:
            flippable += ex.weight
    return Fraction(flippable, dataset.n)


# ---------------------------------------------------------------------------
# textbook standard-form two-phase tableau simplex (independent LP oracle)
# ---------------------------------------------------------------------------


def reference_simplex(objective, row_coefs, row_relations, row_rhs, var_lo, var_hi):
    """Solve min c.x s.t. rows, lo <= x <= hi with a plain full tableau.

    Returns (status, objective_value).  Shifted variables u = x - lo >= 0,
    explicit rows u_j <= hi_j - lo_j, artificial basis, phase 1 then phase 2,
    Bland's rule everywhere.  Deliberately naive; only used as an oracle.
    """
    c = np.asarray(objective, float)
    A = np.asarray(row_coefs, float).reshape(-1, c.size)
    b = np.asarray(row_rhs, float).copy()
    lo = np.asarray(var_lo, float)
    hi = np.asarray(var_hi, float)
    n = c.size

    rows = [A[k].copy() for k in range(A.shape[0])]
    rels = list(row_relations)
    rhs = list(b - A @ lo) if A.size else list(b)
    for j in range(n):
        r = np.zeros(n)
        r[j] = 1.0
        rows.append(r)
        rels.append("<=")
        rhs.append(hi[j] - lo[j])

    # flip rows to nonnegative rhs
    m = len(rows)
    for k in range(m):
        if rhs[k] < 0:
            rows[k] = -rows[k]
            rhs[k] = -rhs[k]
            rels[k] = {"<=": ">=", ">=": "<=", "=": "="}[rels[k]]

    # columns: structurals, slacks/surplus, artificials
    slack_cols = []
    art_cols = []
    for k, rel in enumerate(rels):
        if rel == "<=":
            slack_cols.append((k, 1.0))
        elif rel == ">=":
            slack_cols.append((k, -1.0))
            art_cols.append(k)
        else:
            art_cols.append(k)
    n_slack = len(slack_cols)
    n_art = len(art_cols)
    width = n + n_slack + n_art
    T = np.zeros((m, width + 1))
    for k in range(m):
        T[k, :n] = rows[k]
        T[k, -1] = rhs[k]
    for idx, (k, sign) in enumerate(slack_cols):
        T[k, n + idx] = sign
    basis = [-1] * m
    for idx, k in enumerate(art_cols):
        T[k, n + n_slack + idx] = 1.0
        basis[k] = n + n_slack + idx
    for idx, (k, sign) in enumerate(slack_cols):
        if basis[k] == -1 and sign > 0:
            basis[k] = n + idx
    assert all(v >= 0 for v in basis)

    def run_phase(cost):
        while True:
            cb = cost[basis]
            z = cost[:width] - cb @ T[:, :width]
            enter = -1
            for j in range(width):  # Bland: first improving column
                if j not in basis and z[j] < -1e-9:
                    enter = j
                    break
            if enter < 0:
                return True
            col = T[:, enter]
            best_k, best_ratio = -1, np.inf
            for k in range(m):
                if col[k] > 1e-9:
                    ratio = T[k, -1] / col[k]
                    if ratio < best_ratio - 1e-12 or (
                        abs(ratio - best_ratio) <= 1e-12
                        and (best_k == -1 or basis[k] < basis[best_k])
                    ):
                        best_k, best_ratio = k, ratio
            if best_k < 0:
                return False  # unbounded
            piv = T[best_k, enter]
            T[best_k] /= piv
            for k in range(m):
                if k != best_k and abs(T[k, enter]) > 1e-12:
                    T[k] -= T[k, enter] * T[best_k]
            basis[best_k] = enter

    phase1 = np.zeros(width)
    phase1[n + n_slack :] = 1.0
    if n_art and not run_phase(phase1):
        return "unbounded", np.nan
    if n_art:
        infeas = sum(
            T[k, -1] for k in range(m) if basis[k] >= n + n_slack
        )
        if infeas > 1e-7:
            return "infeasible", np.nan
    phase2 = np.zeros(width)
    phase2[:n] = c
    # keep artificials pinned at zero by a huge cost
    phase2[n + n_slack :] = 1e9
    if not run_phase(phase2):
        return "unbounded", np.nan
    x = np.array(lo, float)
    for k in range(m):
        if basis[k] < n:
            x[basis[k]] = lo[basis[k]] + T[k, -1]
    return "optimal", float(c @ x)


# ---------------------------------------------------------------------------
# path-program optima from every labeling of the cells
# ---------------------------------------------------------------------------


def margin_reachable(rows, threshold):
    """Whether some w with ||w||_1 <= 1 has rows . w >= threshold, for rows
    that are cells times their required sign: max t s.t. rows . (w+ - w-)
    >= t, sum(w+ + w-) <= 1, by reference_simplex."""
    rows = np.asarray(rows, float)
    k, nc = rows.shape
    reach = float(np.abs(rows).max()) + abs(threshold)
    coefs = np.vstack(
        [
            np.hstack([rows, -rows, -np.ones((k, 1))]),
            np.concatenate([np.ones(2 * nc), [0.0]]),
        ]
    )
    status, value = reference_simplex(
        np.concatenate([np.zeros(2 * nc), [-1.0]]),
        coefs,
        [">="] * k + ["<="],
        np.concatenate([np.zeros(k), [1.0]]),
        np.concatenate([np.zeros(2 * nc), [-reach]]),
        np.concatenate([np.ones(2 * nc), [reach]]),
    )
    return status == "optimal" and -value >= threshold


def labeling_optima(dataset, h0, thresholds, gamma):
    """Exact optima of the path programs around ``h0``: the fewest mistakes
    of a classifier that flips each cell (a dict keyed by the cell's
    features), and the fewest agreements with h0 within each mistake
    threshold (a list).

    A labeling L of the cells costs mistakes sum_c (neg_c if L_c = +1 else
    pos_c) and agreements sum of the weight of the cells where L_c is h0's
    side.  A labeling is reachable when some classifier scores every cell
    at least ``margin_floor(gamma)`` on its side, the margin that the
    programs accept: every program pins every cell.
    """
    counts = {}
    for ex in dataset.examples:
        pos, neg = counts.get(ex.features, (0, 0))
        counts[ex.features] = (pos + ex.weight, neg) if ex.label == 1 else (pos, neg + ex.weight)
    cells = list(counts)
    X = np.array(cells, float)
    pos = np.array([counts[c][0] for c in cells])
    neg = np.array([counts[c][1] for c in cells])
    base = np.where(X @ np.asarray(h0.coefficients) > 0.0, 1, -1)
    reachable = {}

    def clears(labels):
        key = tuple(labels.tolist())
        if key not in reachable:
            reachable[key] = margin_reachable(labels[:, None] * X, margin_floor(gamma))
        return reachable[key]

    flips = {c: None for c in cells}
    disc = [None] * len(thresholds)
    for signs in product((-1, 1), repeat=len(cells)):
        labels = np.array(signs)
        mistakes = int(np.where(labels > 0, neg, pos).sum())
        agreements = int((pos + neg)[labels == base].sum())
        for k, t in enumerate(thresholds):
            if mistakes <= t and (disc[k] is None or agreements < disc[k]):
                if clears(labels):
                    disc[k] = agreements
        for f, cell in enumerate(cells):
            best = flips[cell]
            if labels[f] == base[f] or (best is not None and best <= mistakes):
                continue
            if clears(labels):
                flips[cell] = mistakes
    return flips, disc


# ---------------------------------------------------------------------------
# report references: one MeasureValue per grid point, encoded by json / csv
# ---------------------------------------------------------------------------


def reference_decimal(value):
    """Shortest exact decimal when the denominator is 2^a 5^b, float repr
    otherwise, by Fraction arithmetic."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    d = frac.denominator
    while d % 2 == 0:
        d //= 2
    while d % 5 == 0:
        d //= 5
    if d != 1:
        return repr(float(frac))
    shift = 0
    scaled = frac
    while scaled.denominator != 1:
        scaled *= 10
        shift += 1
    digits = str(abs(scaled.numerator)).rjust(shift + 1, "0")
    sign = "-" if frac < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def risk_dict(risk):
    return {
        "mistakes": risk.mistakes,
        "n": risk.n,
        "rate": float(risk.rate),
        "rate_exact": str(risk.rate),
    }


def measure_dict(m):
    if m is None:
        return None
    return {
        "lower": float(m.lower),
        "upper": float(m.upper),
        "lower_exact": str(m.lower),
        "upper_exact": str(m.upper),
        "certified": m.certified,
    }


def measure_cells(m):
    """CSV cells lower, upper, certified; empty when the measure is absent."""
    if m is None:
        return ["", "", ""]
    return [repr(float(m.lower)), repr(float(m.upper)), "true" if m.certified else "false"]


def _entries(measures, size):
    """Each grid point's ``MeasureValue`` of a table, or None ``size`` times."""
    return [None] * size if measures is None else [measures[i] for i in range(size)]


def profile_json(profile):
    """``profile.json``'s payload, one dict per grid point."""
    values = profile.grid.values
    size = len(values)
    disc, amb = (_entries(m, size) for m in (profile.discrepancy, profile.ambiguity))
    return {
        "baseline": risk_dict(profile.baseline),
        "entries": [
            {
                "epsilon": reference_decimal(eps),
                "epsilon_exact": str(eps),
                "discrepancy": measure_dict(d),
                "ambiguity": measure_dict(a),
            }
            for eps, d, a in zip(values, disc, amb)
        ],
        "witnesses": {
            str(eps): list(w.coefficients)
            for eps, w in zip(values, profile.witnesses)
            if w is not None
        },
    }


def profile_csv_rows(profile):
    """``profile.csv``'s rows, header first."""
    values = profile.grid.values
    size = len(values)
    disc, amb = (_entries(m, size) for m in (profile.discrepancy, profile.ambiguity))
    rows = [["epsilon", "disc_lower", "disc_upper", "disc_certified",
             "amb_lower", "amb_upper", "amb_certified"]]
    rows += [
        [reference_decimal(eps)] + measure_cells(d) + measure_cells(a)
        for eps, d, a in zip(values, disc, amb)
    ]
    return rows


def burden_rows(burden, grid):
    """``burden.csv``'s rows, header first, from each group's ``Measures``
    over ``grid``."""
    rows = [["group", "epsilon", "amb_lower", "amb_upper", "certified"]]
    for i, eps in enumerate(grid.values):
        rows += [
            [group, reference_decimal(eps)] + measure_cells(m[i])
            for group, m in burden.items()
        ]
    return rows


def pool_json(pool, profile, base_idx):
    """``pool.json``'s payload, one dict per model."""
    def finite(value):
        return value if np.isfinite(value) else None

    models = [pool[i] for i in range(len(pool))]
    base = models[base_idx]
    return {
        "n_models": len(models),
        "baseline_index": base_idx,
        "baseline_alpha": base.alpha,
        "baseline_lambda": base.lam,
        "baseline_cv_risk": finite(base.cv_risk),
        "models": [
            {
                "alpha": m.alpha,
                "lambda": m.lam,
                "train_mistakes": m.train_risk.mistakes,
                "cv_risk": finite(m.cv_risk),
                "converged": m.converged,
            }
            for m in models
        ],
        "profile": profile_json(profile),
    }
