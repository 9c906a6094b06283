"""Correctness checks on one audit's output directory.

Each check returns a list of problems; an empty list means the audit's
output is correct. References live in ``reference/<workload>/`` and were
recorded by ``record_references.py``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from multiplicity.core import LinearClassifier, conflict_count, empirical_risk

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CERTIFIED = "certified_optimal"
MEASURES = ("discrepancy", "ambiguity")


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _interval(measure: dict) -> tuple:
    return Fraction(measure["lower_exact"]), Fraction(measure["upper_exact"])


def open_points(profile: dict) -> int:
    """Sum over entries and both measures of n * (upper - lower)."""
    n = profile["baseline"]["n"]
    total = Fraction(0)
    for entry in profile["entries"]:
        for side in MEASURES:
            lower, upper = _interval(entry[side])
            total += n * (upper - lower)
    if total.denominator != 1:
        raise ValueError(f"open points {total} are not a whole number")
    return int(total)


def check_manifest(manifest: dict, node_limit) -> list:
    """No stage failed, and every solve certified or stopped at the node
    limit; a solve ended by a time limit makes the run invalid."""
    if manifest.get("failure") is not None:
        return [f"stage failure: {manifest['failure']}"]
    stages = manifest["stages"]
    solves = [("baseline", stages["baseline"])]
    for stage in ("discrepancy", "ambiguity"):
        solves += [(stage, s) for s in stages[stage]["solves"]]
    problems = []
    for stage, solve in solves:
        if solve["status"] == CERTIFIED:
            continue
        if node_limit is None or solve["nodes"] < node_limit:
            problems.append(
                f"{stage} solve stopped uncertified ({solve['status']}) after "
                f"{solve['nodes']} nodes, before any node limit: a time limit "
                "ended it"
            )
    return problems


def check_reference_files(workload: str, outdir: Path, names) -> list:
    problems = []
    for name in names:
        expected = (REFERENCE_DIR / workload / name).read_bytes()
        produced = outdir / name
        if not produced.exists():
            problems.append(f"{name} missing")
        elif produced.read_bytes() != expected:
            problems.append(f"{name} differs from reference/{workload}/{name}")
    return problems


def check_pool_below_exact(outdir: Path) -> list:
    """Every pool value is at or below the exact value."""
    exact = _load_json(outdir / "profile.json")["entries"]
    pool = _load_json(outdir / "pool.json")["profile"]["entries"]
    problems = []
    for got, truth in zip(pool, exact, strict=True):
        for side in MEASURES:
            if _interval(got[side])[0] > _interval(truth[side])[1]:
                problems.append(
                    f"pool {side} at eps={got['epsilon']} exceeds the exact value"
                )
    return problems


def check_open_intervals(workload: str, outdir: Path, train) -> list:
    """Intervals are well-formed and meet the reference; discrepancy lower
    bounds follow from the witnesses, which lie in their level sets."""
    profile = _load_json(outdir / "profile.json")
    reference = _load_json(REFERENCE_DIR / workload / "profile.json")
    problems = []
    for got, ref in zip(profile["entries"], reference["entries"], strict=True):
        if got["epsilon_exact"] != ref["epsilon_exact"]:
            return [f"epsilon grid differs from reference at {got['epsilon']}"]
        for side in MEASURES:
            lower, upper = _interval(got[side])
            ref_lower, ref_upper = _interval(ref[side])
            if not 0 <= lower <= upper <= 1:
                problems.append(f"{side} at eps={got['epsilon']} is ill-formed")
            if got[side]["certified"] and lower != upper:
                problems.append(f"certified {side} at eps={got['epsilon']} is open")
            if upper < ref_lower or ref_upper < lower:
                problems.append(
                    f"{side} at eps={got['epsilon']} misses the reference interval"
                )

    baseline = _load_json(outdir / "baseline.json")
    h0 = LinearClassifier(tuple(baseline["coefficients"]))
    base_mistakes = empirical_risk(h0, train).mistakes
    if base_mistakes != baseline["train"]["mistakes"]:
        problems.append("baseline.json train mistakes do not match its coefficients")
    n = train.n
    # discrepancy_path carries the largest lower bound forward over nested
    # level sets, so the bound at eps is the best witness at or below eps.
    best = Fraction(0)
    for entry in profile["entries"]:
        coefficients = profile["witnesses"].get(entry["epsilon_exact"])
        eps = Fraction(entry["epsilon_exact"])
        if coefficients is not None:
            witness = LinearClassifier(tuple(coefficients))
            best = max(best, Fraction(conflict_count(witness, h0, train).mistakes, n))
            if empirical_risk(witness, train).mistakes > base_mistakes + eps * n:
                problems.append(f"witness at eps={entry['epsilon']} is outside its level set")
        if _interval(entry["discrepancy"])[0] != best:
            problems.append(
                f"discrepancy lower bound at eps={entry['epsilon']} does not follow "
                "from the witnesses"
            )
    return problems


def check_audit(workload: str, outdir: Path, config, train) -> list:
    """All checks that apply to ``workload``."""
    manifest_path = outdir / "run_manifest.json"
    if not manifest_path.exists():
        return ["run_manifest.json missing"]
    problems = check_manifest(_load_json(manifest_path), config.node_limit)
    if problems:
        return problems
    if workload == "ladder-100":
        return check_open_intervals(workload, outdir, train)
    problems = check_reference_files(workload, outdir, ("profile.csv", "burden.csv"))
    if config.adhoc:
        problems += check_pool_below_exact(outdir)
    return problems
