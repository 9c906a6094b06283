#!/usr/bin/env python3
"""Two-group burden experiment on the outvoted-minority toy dataset.

The pooled optimum matches group A's per-group optimum; after minority
oversampling, which cells become freely flippable depends on where the
extra weight lands, and group burdens diverge.  Sweeps a few oversampling
seeds to show the effect.
"""

from fractions import Fraction

from multiplicity import (
    ClassifierBank,
    EpsilonGrid,
    ambiguity_path,
    build_baseline_mip,
    classifier_from_solution,
    oversample_minority,
    solve,
)
from multiplicity.datasets import generate_synthetic
from multiplicity.profiles import burden_path


def main():
    full = generate_synthetic("tyranny")
    print(f"dataset: {full.n} points, groups A/B, "
          f"{int(full.weights[full.y == 1].sum())} positive")
    for seed in range(4):
        data = oversample_minority(full, seed=seed)
        model = build_baseline_mip(data)
        result = solve(model)
        h0 = classifier_from_solution(model, result.incumbent)
        bank = ClassifierBank(data, h0)
        base = bank.risk
        grid = EpsilonGrid((Fraction(0), Fraction(4, data.n)), data.n)
        _, pool, _ = ambiguity_path(bank, grid, baseline=result)
        print(f"\nseed {seed}: baseline {base.mistakes}/{base.n}")
        burden = burden_path(pool, data, grid.thresholds(base.mistakes))
        for k, eps in enumerate(grid.values):
            line = "  ".join(
                f"{g}: {float(m[k].value):.3f}" for g, m in sorted(burden.items())
            )
            print(f"  eps={str(eps):9} burden  {line}")


if __name__ == "__main__":
    main()
