#!/usr/bin/env python3
"""Toy ground-truth demo: audit the four-cell parity dataset.

Expected output: baseline risk 1/4, discrepancy 1/2 and ambiguity 1 at
eps = 0, all certified, with the bound 2*risk + eps met with zero slack.
"""

from fractions import Fraction

from multiplicity import (
    ClassifierBank,
    EpsilonGrid,
    ambiguity_path,
    build_baseline_mip,
    classifier_from_solution,
    discrepancy_path,
    solve,
)
from multiplicity.datasets import generate_synthetic
from multiplicity.profiles import merge_profiles


def main():
    data = generate_synthetic("xor")
    model = build_baseline_mip(data)
    result = solve(model)
    h0 = classifier_from_solution(model, result.incumbent)
    bank = ClassifierBank(data, h0)  # the witnesses warm-start flip solves
    base = bank.risk
    print(f"baseline: {base.mistakes}/{base.n} mistakes "
          f"({result.status}, {result.nodes_explored} nodes)")
    print(f"coefficients: {tuple(round(c, 4) for c in h0.coefficients)}")

    grid = EpsilonGrid((Fraction(0), Fraction(5, 100), Fraction(10, 100)), data.n)
    disc, _ = discrepancy_path(bank, grid)
    amb, _, _ = ambiguity_path(bank, grid, baseline=result)
    profile = merge_profiles(disc, amb)
    print("\n eps      discrepancy  ambiguity")
    for eps, disc, amb in zip(grid.values, profile.discrepancy, profile.ambiguity):
        print(f" {str(eps):7}  {str(disc.value):11}  {str(amb.value)}")
    # Proposition 1: discrepancy <= 2 * risk + eps
    slacks = [
        (str(eps), str(2 * profile.baseline.rate + eps - disc.upper))
        for eps, disc in zip(grid.values, profile.discrepancy)
    ]
    print("\nbound slack per eps:", slacks)


if __name__ == "__main__":
    main()
