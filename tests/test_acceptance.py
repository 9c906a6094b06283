"""Acceptance gate: every criterion as one test with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The random-instance corpus is shared across criteria so the
certified solves feed the bound, monotonicity and truncation checks.
"""

import json
import math
import shutil
import subprocess
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from multiplicity.branch_bound import SolveBudget, solve
from multiplicity.cli import RunConfig, run_audit
from multiplicity.formulations import (
    build_baseline_mip,
    build_disc_mip,
    build_flip_mip,
    classifier_from_solution,
    export_mps,
)
from multiplicity.pool import PenaltyGrid, adhoc_measures, fit_pool, pool_baseline_index
from multiplicity.profiles import (
    ClassifierBank,
    EpsilonGrid,
    ambiguity_path,
    discrepancy_path,
    merge_profiles,
)
from multiplicity.simplex import solve_lp, solve_lp_with_fixings
from conftest import random_binary_dataset, random_box_lp
from mps_reader import read_mps
from oracles import (
    oracle_baseline,
    oracle_disc,
    oracle_flip,
    prediction_pattern,
    reference_simplex,
)

DATA = Path(__file__).parent / "data"
N_CORPUS = 200
N_PROFILES = 100
N_ADHOC = 50
N_LPS = 500


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} failed: {name} {suffix}"


@pytest.fixture(scope="module")
def corpus():
    """Certified solves over the random-instance corpus (criterion 2 input)."""
    rng = np.random.default_rng(20240801)
    instances = []
    for _ in range(N_CORPUS):
        data = random_binary_dataset(rng)
        base_model = build_baseline_mip(data)
        base = solve(base_model)
        h0 = classifier_from_solution(base_model, base.incumbent)
        instances.append({"data": data, "model": base_model, "base": base, "h0": h0})
    return instances


@pytest.fixture(scope="module")
def random_profiles():
    rng = np.random.default_rng(9090)
    profiles = []
    for _ in range(N_PROFILES):
        data = random_binary_dataset(rng)
        base_model = build_baseline_mip(data)
        base = solve(base_model)
        h0 = classifier_from_solution(base_model, base.incumbent)
        ks = sorted({0, 1, 2, min(3, data.n)})
        grid = EpsilonGrid(tuple(Fraction(k, data.n) for k in ks), data.n)
        bank = ClassifierBank(data, h0)  # the witnesses warm-start flip solves
        disc, disc_results = discrepancy_path(bank, grid)
        amb, pool, _ = ambiguity_path(bank, grid, baseline=base)
        profiles.append(
            {
                "data": data,
                "h0": h0,
                "profile": merge_profiles(disc, amb),
                "disc_results": disc_results,
                "pool": pool,
            }
        )
    return profiles


class TestAcceptance:
    def test_criterion_1_xor_ground_truth(self, tmp_path):
        started = time.monotonic()
        config = RunConfig(dataset="xor", epsilons="0", outdir=str(tmp_path / "xor"))
        run_audit(config)
        payload = json.loads((tmp_path / "xor" / "profile.json").read_text())
        elapsed = time.monotonic() - started
        entry = payload["entries"][0]
        ok = (
            payload["baseline"]["rate_exact"] == "1/4"
            and entry["discrepancy"]["lower_exact"] == "1/2"
            and entry["discrepancy"]["upper_exact"] == "1/2"
            and entry["discrepancy"]["certified"]
            and entry["ambiguity"]["lower_exact"] == "1"
            and entry["ambiguity"]["certified"]
            and elapsed < 10.0
        )
        report(1, "XOR ground truth (0.25 / 0.50 / 1.00 exact)", ok, f"{elapsed:.1f}s")

    def test_criterion_2_oracle_equivalence(self, corpus):
        started = time.monotonic()
        checked = 0
        for inst in corpus:
            data, base, h0 = inst["data"], inst["base"], inst["h0"]
            assert base.status == "certified_optimal"
            if base.upper_bound != oracle_baseline(data):
                report(2, "oracle equivalence", False, "baseline mismatch")
            pattern = prediction_pattern(h0, data)
            seen = set()
            for i, ex in enumerate(data.examples):
                if ex.features in seen:
                    continue
                seen.add(ex.features)
                res = solve(
                    build_flip_mip(data, h0, data.cells.index[i]),
                    lower_bound_hint=float(base.upper_bound),
                )
                assert res.status == "certified_optimal"
                if res.upper_bound != oracle_flip(data, pattern, i):
                    report(2, "oracle equivalence", False, f"flip mismatch at {i}")
            for k in (0, 1, 2):
                eps = Fraction(k, data.n)
                res = solve(build_disc_mip(data, h0, eps))
                assert res.status == "certified_optimal"
                if data.n - res.upper_bound != oracle_disc(data, pattern, eps):
                    report(2, "oracle equivalence", False, f"disc mismatch at {eps}")
            checked += 1
        elapsed = time.monotonic() - started
        report(
            2,
            "brute-force oracle equivalence",
            checked == N_CORPUS and elapsed < 600.0,
            f"{checked} datasets, {elapsed:.0f}s",
        )

    def test_criterion_3_bound_never_violated(self, corpus, random_profiles):
        violations = 0
        checked = 0
        # profiles from the random corpus instances at eps in {0, 1/n, 2/n}
        for inst in corpus:
            data, base, h0 = inst["data"], inst["base"], inst["h0"]
            base_rate = Fraction(int(base.upper_bound), data.n)
            for k in (0, 1, 2):
                eps = Fraction(k, data.n)
                res = solve(build_disc_mip(data, h0, eps))
                delta = Fraction(data.n - int(res.upper_bound), data.n)
                checked += 1
                if delta > 2 * base_rate + eps:
                    violations += 1
        # 2 * rate + eps - upper for every discrepancy entry of the profiles
        for entry in random_profiles:
            profile = entry["profile"]
            rate = profile.baseline.rate
            slacks = [
                2 * rate + eps - m.upper
                for eps, m in zip(profile.grid.values, profile.discrepancy)
            ]
            checked += len(slacks)
            violations += sum(1 for s in slacks if s < 0)
        report(
            3,
            "Proposition-1 bound never violated",
            violations == 0,
            f"{checked} checks",
        )

    def test_criterion_4_monotonicity_suite(self, random_profiles):
        ok = True
        for entry in random_profiles:
            profile = entry["profile"]
            disc_vals = list(profile.discrepancy)
            amb_vals = list(profile.ambiguity)
            for a, b in zip(disc_vals, disc_vals[1:]):
                ok &= a.lower <= b.lower and a.upper <= b.upper
            for a, b in zip(amb_vals, amb_vals[1:]):
                ok &= a.lower <= b.lower and a.upper <= b.upper
            for disc, amb in zip(disc_vals, amb_vals):
                if disc.certified:
                    ok &= amb.lower >= disc.value
        report(4, "monotonicity and conditional alpha >= delta", ok)

    def test_criterion_5_bound_semantics_under_truncation(self, corpus):
        ok = True
        details = []
        for inst in corpus[:12]:
            data, base = inst["data"], inst["base"]
            optimum = float(base.upper_bound)
            lowers, uppers = [], []
            for limit in (1, 2, 4, 8, 16, 32, 64, 128):
                res = solve(inst["model"], budget=SolveBudget(node_limit=limit))
                lower = res.lower_bound if math.isfinite(res.lower_bound) else 0.0
                upper = res.upper_bound if res.upper_bound is not None else math.inf
                if not lower - 1e-9 <= optimum <= upper + 1e-9:
                    ok = False
                    details.append(f"containment broke at limit {limit}")
                lowers.append(lower)
                uppers.append(upper)
            if lowers != sorted(lowers) or uppers != sorted(uppers, reverse=True):
                ok = False
                details.append("interval endpoints not monotone in node budget")
        report(
            5,
            "truncated intervals contain the certified value and shrink",
            ok,
            "; ".join(details[:3]),
        )

    def test_criterion_6_adhoc_is_lower_bound(self):
        rng = np.random.default_rng(606)
        started = time.monotonic()
        checked = 0
        ok = True
        grid_spec = PenaltyGrid(
            alphas=(0.0, 0.5, 1.0), lambdas_per_alpha=4, lambda_min_ratio=0.01
        )
        while checked < N_ADHOC:
            data = random_binary_dataset(rng)
            models = fit_pool(data, grid_spec, seed=checked)
            h0 = models[pool_baseline_index(models)].classifier
            grid = EpsilonGrid(tuple(Fraction(k, data.n) for k in (0, 1, 2)), data.n)
            adhoc = adhoc_measures(models, data, grid)
            bank = ClassifierBank(data, h0)  # the witnesses warm-start flip solves
            disc, _ = discrepancy_path(bank, grid)
            amb, _, _ = ambiguity_path(bank, grid)
            exact = merge_profiles(disc, amb)
            for side in ("discrepancy", "ambiguity"):
                for got, truth in zip(getattr(adhoc, side), getattr(exact, side)):
                    if not truth.certified:
                        ok = False
                    if got.value > truth.value:
                        ok = False
            checked += 1
        elapsed = time.monotonic() - started
        report(
            6,
            "pool estimates never exceed exact measures (shared baseline)",
            ok,
            f"{checked} instances, {elapsed:.0f}s",
        )

    def test_criterion_7_determinism(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            config = RunConfig(
                dataset=str(DATA / "compas_style.csv"),
                label_column="two_year_recid",
                group_column="race",
                epsilons="0,0.01",
                node_limit=40,
                outdir=str(out),
            )
            run_audit(config)
            outputs.append(out)
        same_csv = (outputs[0] / "profile.csv").read_bytes() == (
            outputs[1] / "profile.csv"
        ).read_bytes()
        same_json = (outputs[0] / "profile.json").read_bytes() == (
            outputs[1] / "profile.json"
        ).read_bytes()
        report(7, "node-limited audits byte-identical", same_csv and same_json)

    def test_criterion_8_lp_kernel(self):
        rng = np.random.default_rng(808)
        fixing_rng = np.random.default_rng(809)  # leaves the 500 LPs as they were
        mismatches = 0
        stalled = 0
        warm_mismatches = 0
        warm_checked = 0

        def differs(mine, ref_status, ref_obj) -> bool:
            if mine.status != ref_status:
                return True
            return ref_status == "optimal" and abs(
                mine.objective_value - ref_obj
            ) > 1e-6 * (1 + abs(ref_obj))

        for _ in range(N_LPS):
            lp, _ = random_box_lp(rng)
            mine = solve_lp(lp)
            if mine.status == "stalled":
                stalled += 1
                continue
            ref = reference_simplex(
                lp.objective, lp.row_coefs, lp.row_relations, lp.row_rhs,
                lp.var_lo, lp.var_hi,
            )
            mismatches += differs(mine, *ref)
            if mine.status != "optimal":
                continue
            # one random fixing, re-solved warm from the LP's own basis and
            # checked against the oracle on the collapsed program
            j = int(fixing_rng.integers(0, lp.n_vars))
            value = lp.var_lo[j] + (lp.var_hi[j] - lp.var_lo[j]) * fixing_rng.random()
            lo, hi = lp.var_lo.copy(), lp.var_hi.copy()
            lo[j] = hi[j] = value
            warm = solve_lp_with_fixings(lp, {j: float(value)}, start=mine.basis)
            if warm.status == "stalled":
                stalled += 1
                continue
            warm_checked += 1
            warm_mismatches += differs(
                warm,
                *reference_simplex(
                    lp.objective, lp.row_coefs, lp.row_relations, lp.row_rhs, lo, hi
                ),
            )
        report(
            8,
            "LP kernel matches tableau oracle on 500 random LPs, cold and warm",
            mismatches == 0 and warm_mismatches == 0 and stalled == 0,
            f"mismatches={mismatches}, warm mismatches={warm_mismatches} "
            f"of {warm_checked}, stalled={stalled}",
        )

    def test_criterion_9_mps_round_trip(self, corpus, tmp_path):
        ok = True
        for idx, inst in enumerate(corpus[:20]):
            data, h0 = inst["data"], inst["h0"]
            kind = idx % 3
            if kind == 0:
                model = inst["model"]
            elif kind == 1:
                model = build_disc_mip(data, h0, Fraction(1, data.n))
            else:
                model = build_flip_mip(data, h0, 0)
            path = tmp_path / f"model_{idx}.mps"
            export_mps(model, path)
            direct = solve(model)
            round_trip = solve(read_mps(path))
            if not (
                direct.status == round_trip.status == "certified_optimal"
                and direct.upper_bound == round_trip.upper_bound
            ):
                ok = False
        report(9, "MPS export/import preserves certified optima", ok, "20 models")


EXTERNAL_SOLVERS = [
    ("cbc", ["cbc", "{path}", "solve", "solu", "{sol}"]),
    ("glpsol", ["glpsol", "--freemps", "{path}", "-o", "{sol}"]),
]


@pytest.mark.skipif(
    not any(shutil.which(name) for name, _ in EXTERNAL_SOLVERS),
    reason="no external MIP solver on PATH (optional, non-CI criterion)",
)
def test_criterion_9_external_solver_cross_check(tmp_path):
    """Optional: the exported XOR baseline model solves to 25 externally."""
    from conftest import xor_dataset

    model = build_baseline_mip(xor_dataset())
    path = tmp_path / "xor_baseline.mps"
    export_mps(model, path)
    name, template = next(
        (n, t) for n, t in EXTERNAL_SOLVERS if shutil.which(n)
    )
    sol_path = tmp_path / "external.sol"
    cmd = [part.format(path=path, sol=sol_path) for part in template]
    completed = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    text = sol_path.read_text() if sol_path.exists() else completed.stdout
    assert "25" in text
