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
    disc, _ = discrepancy_path(train, h0, grid)
    amb, _, _ = ambiguity_path(
        train, h0, grid, seed_pool=list(disc.witnesses.values()),
    )
    exact = merge_profiles(disc, amb)

    print(f"pool: {len(models)} models, baseline train risk "
          f"{float(adhoc.baseline.rate):.4f}")
    print("\n eps        exact disc  pool disc   exact amb   pool amb")
    for got, truth in zip(adhoc.entries, exact.entries):
        print(
            f" {str(truth.epsilon):9}  "
            f"{float(truth.discrepancy.value):10.4f}  "
            f"{float(got.discrepancy.value):9.4f}  "
            f"{float(truth.ambiguity.value):10.4f}  "
            f"{float(got.ambiguity.value):8.4f}"
        )


if __name__ == "__main__":
    main(sys.argv)
