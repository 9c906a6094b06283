"""Report files of an audit and their formats.

All files go under the run's output directory:

* ``profile.json``   full multiplicity profile with exact bounds
* ``profile.csv``    plot-ready rows: epsilon, disc/amb lower, upper, certified
* ``baseline.json``  baseline coefficients plus train/test risk
* ``pool.json``      penalized-regression pool summary (when --adhoc is set)
* ``burden.csv``     per-group ambiguity (when the data carries group tags)
* ``run_manifest.json``  config echo, seeds, versions, wall times, node counts

Timing lives only in the manifest, so node-limited runs with the same
config produce byte-identical profile files.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .pool import pool_baseline_index
from .profiles import MultiplicityProfile, group_burden


def exact_decimal(value: Fraction) -> str:
    """Shortest exact decimal when the denominator is 2^a 5^b, float repr
    otherwise."""
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


def write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def risk_json(risk) -> dict:
    return {
        "mistakes": risk.mistakes,
        "n": risk.n,
        "rate": float(risk.rate),
        "rate_exact": str(risk.rate),
    }


def solve_json(result) -> dict:
    """Manifest summary of one branch-and-bound solve."""
    return {
        "status": result.status,
        "upper_bound": result.upper_bound,
        "lower_bound": None
        if result.lower_bound in (float("inf"), float("-inf"))
        else result.lower_bound,
        "nodes": result.nodes_explored,
        "wall_time": result.wall_time,
    }


def _measure_json(m) -> Optional[dict]:
    if m is None:
        return None
    return {
        "lower": float(m.lower),
        "upper": float(m.upper),
        "lower_exact": str(m.lower),
        "upper_exact": str(m.upper),
        "certified": m.certified,
    }


def _measure_cells(m) -> list:
    """CSV cells lower, upper, certified; empty when the measure is absent."""
    if m is None:
        return ["", "", ""]
    return [repr(float(m.lower)), repr(float(m.upper)), "true" if m.certified else "false"]


def profile_json(profile: MultiplicityProfile) -> dict:
    return {
        "baseline": risk_json(profile.baseline),
        "entries": [
            {
                "epsilon": exact_decimal(e.epsilon),
                "epsilon_exact": str(e.epsilon),
                "discrepancy": _measure_json(e.discrepancy),
                "ambiguity": _measure_json(e.ambiguity),
            }
            for e in profile.entries
        ],
        "witnesses": {
            str(eps): list(w.coefficients)
            for eps, w in sorted(profile.witnesses.items())
        },
    }


def profile_csv_lines(profile: MultiplicityProfile) -> list:
    lines = [
        "epsilon,disc_lower,disc_upper,disc_certified,amb_lower,amb_upper,amb_certified"
    ]
    for e in profile.entries:
        cells = [exact_decimal(e.epsilon)]
        cells += _measure_cells(e.discrepancy) + _measure_cells(e.ambiguity)
        lines.append(",".join(cells))
    return lines


def write_profile(outdir: Path, profile: MultiplicityProfile) -> None:
    write_json(outdir / "profile.json", profile_json(profile))
    (outdir / "profile.csv").write_text(
        "\n".join(profile_csv_lines(profile)) + "\n", encoding="utf-8"
    )


def write_pool(outdir: Path, models, adhoc_profile: MultiplicityProfile) -> None:
    base_idx = pool_baseline_index(models)
    write_json(
        outdir / "pool.json",
        {
            "n_models": len(models),
            "baseline_index": base_idx,
            "baseline_alpha": models[base_idx].alpha,
            "baseline_lambda": models[base_idx].lam,
            "baseline_cv_risk": models[base_idx].cv_risk,
            "profile": profile_json(adhoc_profile),
            "models": [
                {
                    "alpha": m.alpha,
                    "lambda": m.lam,
                    "train_mistakes": m.train_risk.mistakes,
                    "cv_risk": m.cv_risk,
                    "converged": m.converged,
                }
                for m in models
            ],
        },
    )


def write_burden(outdir: Path, flip_pool, dataset, grid) -> None:
    rows = [["group", "epsilon", "amb_lower", "amb_upper", "certified"]]
    for eps in grid.values:
        for group, measure in group_burden(flip_pool, dataset, eps).items():
            rows.append([group, exact_decimal(eps)] + _measure_cells(measure))
    with open(outdir / "burden.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
