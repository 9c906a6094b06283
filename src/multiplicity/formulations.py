"""Builders that translate a dataset into the three integer programs.

Every measure depends on a classifier only through its prediction on each
distinct feature vector, so the programs carry one binary per cell of
``Dataset.cells``.  Variable layout shared by all three models, for m cells
and d+1 coefficient slots:

    [0, m)                 cell indicators u_c
    [m, m+d+1)             positive coefficient parts  w+_j in [0, 1]
    [m+d+1, m+2(d+1))      negative coefficient parts  w-_j in [-1, 0]

The effective coefficient w_j = w+_j + w-_j is substituted directly into
every row rather than materialized, and the l1 normalization row fixes
sum_j (w+_j - w-_j) = 1.

A model does not store this layout: ``_layout`` derives m from its binaries
and d+1 from its column count, which is all that decoding a solution and
naming MPS columns need.  ``metadata`` keeps ``kind``, ``gamma`` and
``reference`` (the labels s_c below), ``flip_row`` on flip programs, and
the ``incumbent_heuristic`` that branch-and-bound offers node LP solutions.

Each cell c has a reference label s_c, and every program pins every cell
from both sides: u_c = 0 requires the classifier to predict s_c with
margin gamma, and u_c = 1 to predict -s_c with margin gamma:

    M_c u_c + s_c w.x_c >= gamma
    -s_c w.x_c - M_c u_c >= gamma - M_c     (u_c = 1 needs a clear -s_c)

with the cell's own Big-M, M_c = gamma + ||x_c||_inf (``compute_big_m``).
The program keeps each such row as its 2(d+1) + 1 entries.  Each margin
row (either pinning row, the flip row) accepts a signed score down to
``margin_floor(gamma)``, and every check of a score against the margin
reads that floor.  So every feasible point of every program, and every
classifier decoded from one, scores every training point at least that
far from 0.  No program is built with gamma below ``GAMMA_FLOOR``,
where the floor's slack is a tenth of gamma or more.

The error-minimizing models (baseline, flip) take the cell's majority label
as s_c, so u_c marks the cell's majority as mistaken.  The objective is
sum_c |P_c - N_c| u_c plus the integer ``objective_offset``
sum_c min(P_c, N_c), the mistakes no classifier avoids.  The flip model
adds one row that forces the classifier off h0's prediction on one cell,
named by its index in ``Dataset.cells``.  The disc model takes
s_c = -h0(x_c), so u_c is the agreement indicator.  Objectives carry
integer weights, so optimal values are exact weighted counts.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .branch_bound import MipModel
from .core import Dataset, LinearClassifier
from .simplex import EQUAL, GREATER_EQUAL, ROW_TOL, LinearProgram

DEFAULT_GAMMA = 1e-4
GAMMA_FLOOR = 1e-5  # the smallest margin a program is built with

BASELINE = "baseline"
DISC = "disc"
FLIP = "flip"


def margin_floor(gamma: float) -> float:
    """The smallest signed score that a margin row accepts: a point meets
    a row within ROW_TOL of its right-hand side, whatever that is, so a
    pinning row asks gamma less ROW_TOL of its cell's score on either
    side, and so does the flip row.  Node LPs, leaf LPs, incumbents and
    warm starts all decide a row by that rule."""
    return gamma - ROW_TOL


def compute_big_m(dataset: Dataset, gamma: float) -> np.ndarray:
    """Per-cell Big-M vector: M_c = gamma + ||x_c||_inf.

    Valid because the l1 normalization fixes ||w||_1 = 1, so
    |w.x_c| <= ||x_c||_inf by Holder's inequality and M_c bounds every
    Big-M row activation of cell c.
    """
    return gamma + np.abs(dataset.cells.X).max(axis=1)


def _cell_model(
    kind: str,
    dataset: Dataset,
    gamma: float,
    reference: np.ndarray,
    objective: np.ndarray,
    extra_rows=(),
    offset: int = 0,
) -> MipModel:
    """Assemble a cell program: the two pinning rows of every cell, then
    ``extra_rows`` as (coefficients over all variables, rhs) pairs of >=
    rows, then the l1 row.  The pinning rows' margin is ``gamma``; each
    cell's Big-M follows from it (``compute_big_m``)."""
    if not GAMMA_FLOOR <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and at least {GAMMA_FLOOR:g}")
    cells = dataset.cells
    m, nc = len(cells.X), dataset.d + 1
    n, width, k = m + 2 * nc, 1 + 2 * nc, 2 * m
    big_m = compute_big_m(dataset, gamma)

    # The rows as entries: a first pinning row holds its cell's Big-M on
    # u_c and its signed features on w+ and w-, a second row negates its
    # cell's first, and the few other rows are read off their dense form.
    pin = np.empty((k, width))
    pin[:m, 0] = big_m
    pin[:m, 1 : 1 + nc] = pin[:m, 1 + nc :] = cells.X * reference[:, None]
    pin[m:] = -pin[:m]
    cols = np.empty((k, width), dtype=np.intp)
    cols[:, 0], cols[:, 1:] = np.tile(np.arange(m), 2), np.arange(m, n)
    extra = np.zeros((len(extra_rows) + 1, n))
    for i, (row, _) in enumerate(extra_rows):
        extra[i] = row
    extra[-1, m : m + nc], extra[-1, m + nc :] = 1.0, -1.0  # the l1 row
    r, c = np.nonzero(extra)
    entries = (
        np.concatenate([np.arange(k).repeat(width), k + r]),
        np.concatenate([cols.ravel(), c]),
        np.concatenate([pin.ravel(), extra[r, c]]),
    )
    rhs = np.full(k + len(extra), gamma)
    rhs[m:k] -= big_m
    rhs[k:] = [b for _, b in extra_rows] + [1.0]
    costs, lo, hi = np.zeros((3, n))
    costs[:m], lo[m + nc :], hi[: m + nc] = objective, -1.0, 1.0
    lp = LinearProgram.from_entries(
        objective=costs,
        entries=entries,
        row_relations=(GREATER_EQUAL,) * (k + len(extra_rows)) + (EQUAL,),
        row_rhs=rhs,
        var_lo=lo,
        var_hi=hi,
    )
    model = MipModel(
        lp=lp,
        binary_vars=tuple(range(m)),
        objective_offset=offset,
        metadata={"kind": kind, "gamma": gamma, "reference": reference},
    )

    def heuristic(values):
        # Decode a node LP's coefficient split and re-encode the indicator
        # values it forces: a candidate incumbent whenever that assignment
        # is feasible (for the level-set model it can fail, and is then
        # simply discarded).
        h = classifier_from_solution(model, values)
        return assignment_from_classifier(model, dataset, h)

    model.metadata["incumbent_heuristic"] = heuristic
    return model


def _mistake_model(kind, dataset, gamma, extra_rows=()) -> MipModel:
    """Error-minimizing cell program: majority reference labels (ties go
    to +1), cost |P_c - N_c| for a mistaken majority, sum_c min(P_c, N_c) as
    the objective offset."""
    cells = dataset.cells
    surplus = cells.pos - cells.neg
    return _cell_model(
        kind,
        dataset,
        gamma,
        reference=np.where(surplus >= 0, 1, -1),
        objective=np.abs(surplus),
        extra_rows=extra_rows,
        offset=int(np.minimum(cells.pos, cells.neg).sum()),
    )


def build_baseline_mip(dataset: Dataset, gamma: float = DEFAULT_GAMMA) -> MipModel:
    """Error-minimizing training model."""
    return _mistake_model(BASELINE, dataset, gamma)


def build_disc_mip(
    dataset: Dataset,
    h0: LinearClassifier,
    epsilon,
    gamma: float = DEFAULT_GAMMA,
) -> MipModel:
    """Agreement-minimizing model over the epsilon-level set around ``h0``.

    As in every program, the indicators are pinned from both sides, so
    that u_c equals 1[h(x_c) = h0(x_c)] exactly for every feasible
    assignment:

        M_c u_c - h0(x_c) w.x_c >= gamma        (u_c = 0 needs a clear flip)
        h0(x_c) w.x_c - M_c u_c >= gamma - M_c  (u_c = 1 needs clear agreement)

    One-sided indicators would let the solver hide risk-increasing flips
    behind u_c = 1 and overstate discrepancy.  The level-set row uses the
    exact identity risk(h) = risk(h0) + (1/n) sum_c g_c (1 - u_c) with
    g_c = h0(x_c) (P_c - N_c): flipping a cell trades its h0-correct weight
    for its h0-wrong weight.
    """
    eps = Fraction(epsilon) if not isinstance(epsilon, Fraction) else epsilon
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    cells = dataset.cells
    base_preds = _cell_predictions(h0, dataset)
    nc = dataset.d + 1

    # Level set:  sum_c g_c u_c >= sum_c g_c - n*eps
    signed_weights = base_preds * (cells.pos - cells.neg)
    level_row = np.concatenate([signed_weights, np.zeros(2 * nc)])
    level_rhs = float(int(signed_weights.sum()) - eps * dataset.n)
    return _cell_model(
        DISC,
        dataset,
        gamma,
        reference=-base_preds,
        objective=cells.pos + cells.neg,
        extra_rows=[(level_row, level_rhs)],
    )


def build_flip_mip(
    dataset: Dataset,
    h0: LinearClassifier,
    cell: int,
    gamma: float = DEFAULT_GAMMA,
) -> MipModel:
    """Error-minimizing model forced to disagree with ``h0`` on cell ``cell``
    of ``dataset.cells`` (every example with that feature vector): the
    baseline program with the flip row inserted before its last row, the l1
    row, at index ``metadata["flip_row"]``."""
    X = dataset.cells.X
    m = len(X)
    if not 0 <= cell < m:
        raise IndexError(f"cell index {cell} out of range [0, {m})")
    # Flip row:  -h0(x_c) sum_j w_j x_cj >= gamma
    flip_coefs = -float(_cell_predictions(h0, dataset)[cell]) * X[cell]
    flip_row = np.concatenate([np.zeros(m), flip_coefs, flip_coefs])
    model = _mistake_model(FLIP, dataset, gamma, extra_rows=[(flip_row, gamma)])
    model.metadata["flip_row"] = model.lp.n_rows - 2
    return model


def _cell_predictions(h: LinearClassifier, dataset: Dataset) -> np.ndarray:
    """h's +-1 prediction on every cell, with the tie rule of ``predictions``."""
    return np.where(dataset.cells.X @ np.asarray(h.coefficients) > 0.0, 1, -1)


# -- solution encoding / decoding ---------------------------------------


def _layout(model: MipModel) -> tuple:
    """(m, nc): the cell and coefficient-slot counts of a cell program."""
    m = len(model.binary_vars)
    return m, (model.lp.n_vars - m) // 2


def classifier_from_solution(model: MipModel, values) -> LinearClassifier:
    """Decode the coefficient split of a solved model into a classifier.

    The l1 row fixes sum(w+ - w-) = 1 but allows overlapping splits whose
    combined coefficients have smaller norm, so the decoded vector is
    rescaled to unit l1 norm (predictions are scale-invariant).  An all-zero
    decode is replaced by the equivalent always-negative classifier (-1, 0,
    ..., 0).
    """
    m, nc = _layout(model)
    values = np.asarray(values, dtype=float)
    w = values[m : m + nc] + values[m + nc :]
    norm = float(np.abs(w).sum())
    if norm < 1e-9:
        coefs = np.zeros_like(w)
        coefs[0] = -1.0
        return LinearClassifier(tuple(coefs))
    return LinearClassifier(tuple(w / norm))


def assignment_from_classifier(
    model: MipModel, dataset: Dataset, h: LinearClassifier
) -> np.ndarray:
    """Build the minimal feasible-looking assignment that encodes ``h``.

    Indicators are set to the values the Big-M rows force for h's scores
    (``margin_floor``); the result still has to pass ``check_feasible`` (it
    can fail when a score sits inside the margin band or, for disc models,
    when h lies outside the level set).
    """
    floor = margin_floor(model.metadata["gamma"])
    reference = model.metadata["reference"]
    w = np.asarray(h.coefficients, dtype=float)
    signed = reference * (dataset.cells.X @ w)
    if model.metadata["kind"] == DISC:
        indicators = -signed >= floor
    else:
        indicators = signed < floor
    return np.concatenate(
        [indicators.astype(float), np.maximum(w, 0.0), np.minimum(w, 0.0)]
    )


def margin_clearance(h: LinearClassifier, dataset: Dataset, gamma: float) -> tuple:
    """Smallest |w.x_i| over the dataset and whether it clears the margin
    (``margin_floor``).

    Every classifier decoded from a feasible point of a program clears it;
    one given from outside, such as a pool model taken as h0, may not, and
    then lies in no level set.
    """
    scores = dataset.X @ np.asarray(h.coefficients)
    min_abs = float(np.abs(scores).min())
    return min_abs, min_abs >= margin_floor(gamma)


# -- MPS export ----------------------------------------------------------


def _column_names(model: MipModel) -> list:
    if model.metadata.get("kind") not in (BASELINE, DISC, FLIP):
        return [f"X{j:04d}" for j in range(model.lp.n_vars)]
    m, nc = _layout(model)
    return (
        [f"CELL{c + 1:04d}" for c in range(m)]
        + [f"WP{j:02d}" for j in range(nc)]
        + [f"WN{j:02d}" for j in range(nc)]
    )


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def export_mps(model: MipModel, path) -> None:
    """Write the model in fixed-format MPS with deterministic naming; the
    objective offset goes in as the objective row's RHS."""
    lp = model.lp
    cols = _column_names(model)
    row_names = [f"R{k + 1:04d}" for k in range(lp.n_rows)]
    rel_tag = {"<=": "L", ">=": "G", "=": "E"}
    binaries = set(model.binary_vars)
    marker = "    MARKER                 'MARKER'                 '{}'"
    # the entries column by column, each column's in row order
    at_row, at_col, value = lp.entries
    by_column = np.argsort(at_col, kind="stable")
    starts = np.searchsorted(at_col[by_column], np.arange(lp.n_vars + 1))

    def field_line(f1, f2, f3="", f4="", f5="", f6=""):
        line = f" {f1:<2} {f2:<8} {f3:<8} {f4:<12} {f5:<8} {f6:<12}"
        return line.rstrip()

    kind = model.metadata.get("kind", "MODEL").upper()
    lines = [f"NAME          {kind}", "ROWS", " N  OBJ"]
    lines += [f" {rel_tag[rel]}  {row_names[k]}" for k, rel in enumerate(lp.row_relations)]
    lines.append("COLUMNS")
    integral = False
    for j in range(lp.n_vars):
        if (j in binaries) != integral:
            integral = not integral
            lines.append(marker.format("INTORG" if integral else "INTEND"))
        column = by_column[starts[j] : starts[j + 1]]
        entries = [("OBJ", lp.objective[j])] if lp.objective[j] != 0.0 else []
        entries += [(row_names[k], v) for k, v in zip(at_row[column], value[column])]
        entries = entries or [("OBJ", 0.0)]
        for a in range(0, len(entries), 2):
            fields = [f for name, v in entries[a : a + 2] for f in (name, _fmt(v))]
            lines.append(field_line("", cols[j], *fields))
    if integral:
        lines.append(marker.format("INTEND"))
    lines.append("RHS")
    if model.objective_offset:
        # MPS reads an objective-row RHS as minus the objective constant.
        lines.append(field_line("", "RHS", "OBJ", _fmt(-model.objective_offset)))
    for k in np.flatnonzero(lp.row_rhs):
        lines.append(field_line("", "RHS", row_names[k], _fmt(lp.row_rhs[k])))
    lines.append("BOUNDS")
    for j in range(lp.n_vars):
        lines.append(field_line("LO", "BND", cols[j], _fmt(lp.var_lo[j])))
        lines.append(field_line("UP", "BND", cols[j], _fmt(lp.var_hi[j])))
    lines.append("ENDATA")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def mps_filename(dataset_name: str, formulation: str, gamma: float = DEFAULT_GAMMA) -> str:
    import hashlib  # here, not at the top: it maps OpenSSL into the process

    digest = hashlib.sha256(f"{gamma}".encode()).hexdigest()[:8]
    return f"{dataset_name}_{formulation}_{digest}.mps"
