#!/usr/bin/env python3
"""Exact measurement vs the penalized-regression pool on a CSV dataset.

Both sides share the pool's cross-validated baseline so the pool values
are provable lower bounds on the exact ones.  Defaults to the bundled
recidivism-style sample; pass a CSV path and label column to use other
data.
"""

import sys
from pathlib import Path

from multiplicity import (
    ClassifierBank,
    EpsilonGrid,
    PenaltyGrid,
    adhoc_measures,
    ambiguity_path,
    discrepancy_path,
    fit_pool,
)
from multiplicity.datasets import ingest_csv
from multiplicity.pool import pool_baseline_index
from multiplicity.profiles import merge_profiles

DEFAULT_CSV = Path(__file__).resolve().parent.parent / "tests" / "data" / "compas_style.csv"


def main(argv):
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_CSV
    label = argv[2] if len(argv) > 2 else "two_year_recid"
    result = ingest_csv(path, label_column=label, group_column="race")
    train = result.train
    print(f"train: {train.n} points, {len(train.examples)} distinct rows")

    models = fit_pool(
        train,
        PenaltyGrid(alphas=(0.0, 0.25, 0.5, 0.75, 1.0), lambdas_per_alpha=20),
        seed=0,
    )
    h0 = models[pool_baseline_index(models)].classifier
    grid = EpsilonGrid.snapped([0, 0.01, 0.02, 0.05], train.n)

    adhoc = adhoc_measures(models, train, grid)
    bank = ClassifierBank(train, h0)  # the witnesses warm-start flip solves
    disc, _ = discrepancy_path(bank, grid)
    amb, _, _ = ambiguity_path(bank, grid)
    exact = merge_profiles(disc, amb)

    print(f"pool: {len(models)} models, baseline train risk "
          f"{float(adhoc.baseline.rate):.4f}")
    print("\n eps        exact disc  pool disc   exact amb   pool amb")
    rows = zip(
        grid.values, exact.discrepancy, adhoc.discrepancy, exact.ambiguity, adhoc.ambiguity
    )
    for eps, exact_disc, pool_disc, exact_amb, pool_amb in rows:
        print(
            f" {str(eps):9}  "
            f"{float(exact_disc.value):10.4f}  "
            f"{float(pool_disc.value):9.4f}  "
            f"{float(exact_amb.value):10.4f}  "
            f"{float(pool_amb.value):8.4f}"
        )


if __name__ == "__main__":
    main(sys.argv)
