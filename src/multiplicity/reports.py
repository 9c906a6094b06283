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

Each report is written once per run.  The epsilon column of
``profile.*``, ``pool.json`` and ``burden.csv`` takes one label per grid
value (``epsilon_labels``), made once and passed to every writer.  Entries
of one step of a profile share their ``MeasureValue``, and each measure's
fields are formatted once per report, however many entries repeat it.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .pool import pool_baseline_index
from .profiles import MultiplicityProfile, burden_path


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


def epsilon_labels(values) -> list:
    """The ``exact_decimal`` label of each epsilon, in order."""
    return [exact_decimal(v) for v in values]


def _once_per_value(fn):
    """``fn`` over measures, evaluated once per distinct measure object.

    Keys are object ids, so the cache must not outlive the measures: make
    one per report.
    """
    done = {}

    def get(m):
        key = id(m)
        if key not in done:
            done[key] = fn(m)
        return done[key]

    return get


def write_json(path: Path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


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


def profile_json(profile: MultiplicityProfile, labels) -> dict:
    """``labels``: the epsilon label of each entry (``epsilon_labels``)."""
    measure = _once_per_value(_measure_json)
    return {
        "baseline": risk_json(profile.baseline),
        "entries": [
            {
                "epsilon": label,
                "epsilon_exact": str(e.epsilon),
                "discrepancy": measure(e.discrepancy),
                "ambiguity": measure(e.ambiguity),
            }
            for e, label in zip(profile.entries, labels, strict=True)
        ],
        "witnesses": {
            str(eps): list(w.coefficients)
            for eps, w in sorted(profile.witnesses.items())
        },
    }


def profile_csv_lines(profile: MultiplicityProfile, labels) -> list:
    """``labels``: the epsilon label of each entry (``epsilon_labels``)."""
    cells = _once_per_value(lambda m: ",".join(_measure_cells(m)))
    lines = [
        "epsilon,disc_lower,disc_upper,disc_certified,amb_lower,amb_upper,amb_certified"
    ]
    for e, label in zip(profile.entries, labels, strict=True):
        lines.append(f"{label},{cells(e.discrepancy)},{cells(e.ambiguity)}")
    return lines


def write_profile(outdir: Path, profile: MultiplicityProfile, labels=None) -> None:
    """``labels``: the epsilon label of each entry, made here when omitted."""
    if labels is None:
        labels = epsilon_labels(e.epsilon for e in profile.entries)
    write_json(outdir / "profile.json", profile_json(profile, labels))
    (outdir / "profile.csv").write_text(
        "\n".join(profile_csv_lines(profile, labels)) + "\n", encoding="utf-8"
    )


def _finite(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None  # JSON has no inf or NaN


def write_pool(outdir: Path, models, adhoc_profile: MultiplicityProfile, labels) -> None:
    """``labels``: the epsilon label of each entry of ``adhoc_profile``."""
    base_idx = pool_baseline_index(models)
    write_json(
        outdir / "pool.json",
        {
            "n_models": len(models),
            "baseline_index": base_idx,
            "baseline_alpha": models[base_idx].alpha,
            "baseline_lambda": models[base_idx].lam,
            "baseline_cv_risk": _finite(models[base_idx].cv_risk),
            "profile": profile_json(adhoc_profile, labels),
            "models": [
                {
                    "alpha": m.alpha,
                    "lambda": m.lam,
                    "train_mistakes": m.train_risk.mistakes,
                    "cv_risk": _finite(m.cv_risk),
                    "converged": m.converged,
                }
                for m in models
            ],
        },
    )


def write_burden(outdir: Path, flip_pool, dataset, grid, labels=None) -> None:
    """``labels``: the epsilon label of each grid value, made here when omitted."""
    if labels is None:
        labels = epsilon_labels(grid.values)
    thresholds = grid.thresholds(flip_pool.baseline_mistakes)
    burden = burden_path(flip_pool, dataset, thresholds)
    cells = _once_per_value(_measure_cells)
    columns = [[cells(m) for m in measures] for measures in burden.values()]
    rows = [["group", "epsilon", "amb_lower", "amb_upper", "certified"]]
    for label, row in zip(labels, zip(*columns), strict=True):
        rows.extend([group, label] + c for group, c in zip(burden, row))
    with open(outdir / "burden.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
