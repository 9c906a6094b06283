import csv
import dataclasses
import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from multiplicity.cli import (
    RunConfig,
    _build_config,
    _parse_config_file,
    build_parser,
    load_dataset,
    main,
    run_audit,
    run_export_mps,
)
from multiplicity.profiles import MeasureValue
from multiplicity.reports import exact_decimal
from multiplicity.core import (
    InternalConsistencyError,
    LinearClassifier,
    conflict_count,
    empirical_risk,
)
from multiplicity.datasets import (
    InputError,
    generate_synthetic,
    ingest_csv,
    merge_duplicates,
    write_csv,
)
from fractions import Fraction

DATA = Path(__file__).parent / "data"


class TestGenerators:
    def test_xor_counts(self):
        data = generate_synthetic("xor", 1)
        assert data.n == 100
        assert int(data.weights[data.y == 1].sum()) == 50

    def test_xor_scaled(self):
        data = generate_synthetic("xor", 2)
        assert data.n == 200
        assert all(ex.weight == 50 for ex in data.examples)

    def test_tyranny_total(self):
        data = generate_synthetic("tyranny", 1)
        assert data.n == 1204
        groups = {ex.group for ex in data.examples}
        assert groups == {"A", "B"}

    def test_unknown_name(self):
        with pytest.raises(InputError):
            generate_synthetic("spiral")


class TestIngest:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_missing_cell_dropped_with_row_number(self, tmp_path):
        path = self.write(
            tmp_path,
            "a,b,label\n"
            "1,0,1\n"
            "0,1,0\n"
            "1,1,1\n"
            "1,,0\n"
            "0,0,1\n"
            "0,1,0\n",
        )
        result = ingest_csv(path, "label", split_fraction=0.5, oversample=False)
        total = sum(ex.weight for ex in result.train.examples)
        total += sum(ex.weight for ex in result.test.examples)
        assert total == 5
        assert result.dropped.rows == (4,)

    def test_non_numeric_dropped(self, tmp_path):
        path = self.write(tmp_path, "a,label\n1,1\nx,0\n2,1\n0,0\n")
        result = ingest_csv(path, "label", split_fraction=0.5, oversample=False)
        assert result.dropped.rows == (2,)

    def test_zero_one_labels_mapped_and_balanced(self, tmp_path):
        lines = ["f,label"]
        lines += [f"{i},1" for i in range(8)]
        lines += [f"{100 + i},0" for i in range(4)]
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        result = ingest_csv(path, "label", split_fraction=0.75, oversample=True)
        train = result.train
        pos = int(train.weights[train.y == 1].sum())
        neg = int(train.weights[train.y == -1].sum())
        assert pos == neg
        assert set(train.y) == {1, -1}

    def test_bad_label_value_reports_row(self, tmp_path):
        path = self.write(tmp_path, "a,label\n1,1\n2,3\n")
        with pytest.raises(InputError, match="row 2"):
            ingest_csv(path, "label")

    def test_missing_label_column(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(InputError, match="label"):
            ingest_csv(path, "label")

    def test_split_deterministic_across_runs(self, tmp_path):
        lines = ["f,label"] + [f"{i},{i % 2}" for i in range(10)]
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        a = ingest_csv(path, "label", split_seed=5, oversample=False)
        b = ingest_csv(path, "label", split_seed=5, oversample=False)
        key = lambda ds: [(ex.features, ex.label, ex.weight) for ex in ds.examples]
        assert key(a.train) == key(b.train)
        assert key(a.test) == key(b.test)

    def test_merge_duplicates_preserves_totals(self):
        data = generate_synthetic("xor")
        expanded = []
        for ex in data.examples:
            from multiplicity.core import Example

            expanded.extend(
                Example(ex.features, ex.label) for _ in range(ex.weight)
            )
        merged = merge_duplicates(expanded)
        assert len(merged) == 4
        assert sum(ex.weight for ex in merged) == 100

    def test_intercept_prepended(self, tmp_path):
        path = self.write(tmp_path, "a,label\n3,1\n4,0\n5,1\n6,0\n")
        result = ingest_csv(path, "label", split_fraction=0.5, oversample=False)
        for ex in result.train.examples:
            assert ex.features[0] == 1.0


class TestGenerateRoundTrip:
    def test_write_then_ingest(self, tmp_path):
        out = tmp_path / "xor.csv"
        write_csv(generate_synthetic("xor"), out)
        result = ingest_csv(out, "label", split_fraction=0.8, oversample=False)
        n = sum(ex.weight for ex in result.train.examples)
        n += sum(ex.weight for ex in result.test.examples)
        assert n == 100

    def test_cli_generate_verb(self, tmp_path):
        out = tmp_path / "tyranny.csv"
        code = main(["generate", "tyranny", "--out", str(out)])
        assert code == 0
        assert out.read_text().count("\n") == 1205  # header + 1204 rows


class TestExactDecimal:
    @pytest.mark.parametrize(
        "frac,text",
        [
            (Fraction(0), "0"),
            (Fraction(1, 2), "0.5"),
            (Fraction(1, 100), "0.01"),
            (Fraction(1, 80), "0.0125"),
            (Fraction(3, 1), "3"),
            (Fraction(1, 128), "0.0078125"),
        ],
    )
    def test_terminating(self, frac, text):
        assert exact_decimal(frac) == text

    def test_non_terminating_falls_back(self):
        assert exact_decimal(Fraction(1, 3)) == repr(1 / 3)


class TestAudit:
    def test_xor_profile_row(self, tmp_path):
        config = RunConfig(
            dataset="xor", epsilons="0", outdir=str(tmp_path / "out")
        )
        run_audit(config)
        lines = (tmp_path / "out" / "profile.csv").read_text().splitlines()
        assert lines[1] == "0,0.5,0.5,true,1.0,1.0,true"

    def test_separable_profile_pinned_at_zero(self, tmp_path):
        csv_path = tmp_path / "sep.csv"
        rows = ["f,label"] + [f"{i},1" for i in range(6)] + [f"{-1 - i},0" for i in range(6)]
        csv_path.write_text("\n".join(rows) + "\n")
        config = RunConfig(
            dataset=str(csv_path), epsilons="0", outdir=str(tmp_path / "out")
        )
        run_audit(config)
        payload = json.loads((tmp_path / "out" / "profile.json").read_text())
        assert payload["baseline"]["mistakes"] == 0
        entry = payload["entries"][0]
        assert entry["discrepancy"]["upper"] == 0.0

    @pytest.mark.parametrize("source", ["tyranny", "compas_style"])
    def test_witnesses_lie_in_their_level_sets(self, tmp_path, source):
        # other optimal witnesses may be found, but each lies in its level
        # set and conflicts with h0 on exactly n times its lower bound
        config = RunConfig(dataset="tyranny", outdir=str(tmp_path))
        if source == "compas_style":
            config = RunConfig(
                dataset=str(DATA / "compas_style.csv"), label_column="two_year_recid",
                group_column="race", outdir=str(tmp_path),
            )
        run_audit(config)
        train = load_dataset(config)[0]
        profile = json.loads((tmp_path / "profile.json").read_text())
        baseline = json.loads((tmp_path / "baseline.json").read_text())
        h0 = LinearClassifier(tuple(baseline["coefficients"]))
        base, n = empirical_risk(h0, train).mistakes, train.n
        assert len(profile["witnesses"]) == len(profile["entries"]) > 1
        for entry in profile["entries"]:
            eps = Fraction(entry["epsilon_exact"])
            witness = LinearClassifier(tuple(profile["witnesses"][entry["epsilon_exact"]]))
            assert empirical_risk(witness, train).mistakes <= base + eps * n
            lower = Fraction(entry["discrepancy"]["lower_exact"])
            assert conflict_count(witness, h0, train).mistakes == n * lower

    def test_node_limited_runs_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            config = RunConfig(
                dataset=str(DATA / "compas_style.csv"),
                label_column="two_year_recid",
                group_column="race",
                epsilons="0,0.01",
                node_limit=40,
                outdir=str(out),
            )
            run_audit(config)
        for name in ("profile.csv", "profile.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_worker_count_has_no_effect(self, tmp_path):
        # --workers is still accepted; the flip solves run in sequence
        for workers in ("1", "4"):
            code = main([
                "audit", "--dataset", str(DATA / "compas_style.csv"),
                "--label-column", "two_year_recid", "--group-column", "race",
                "--node-limit", "2", "--workers", workers,
                "--outdir", str(tmp_path / workers),
            ])
            assert code == 0
        for name in ("profile.csv", "profile.json", "burden.csv", "baseline.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "4" / name).read_bytes()

    def test_golden_compas_style_profile(self, tmp_path):
        config = RunConfig(
            dataset=str(DATA / "compas_style.csv"),
            label_column="two_year_recid",
            group_column="race",
            epsilons="0,0.01,0.02,0.05",
            outdir=str(tmp_path / "out"),
        )
        run_audit(config)
        got = (tmp_path / "out" / "profile.csv").read_text()
        assert got == (DATA / "golden_profile.csv").read_text()
        burden = (tmp_path / "out" / "burden.csv").read_text()
        assert burden == (DATA / "golden_burden.csv").read_text()

    def test_tyranny_matches_benchmark_reference(self, tmp_path):
        # the default 121-point grid holds three distinct discrepancy values,
        # so nine solves settle it and the other points are filled in
        code = main(["audit", "--dataset", "tyranny", "--outdir", str(tmp_path)])
        assert code == 0
        reference = DATA.parent.parent / "perfbench" / "reference" / "tyranny-grid"
        for name in ("profile.csv", "burden.csv"):
            assert (tmp_path / name).read_bytes() == (reference / name).read_bytes()
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        solves = manifest["stages"]["discrepancy"]["solves"]
        assert len(solves) == 9
        assert [Fraction(s["epsilon"]) for s in solves] == sorted(
            Fraction(s["epsilon"]) for s in solves
        )

    def test_audit_with_adhoc_pool(self, tmp_path):
        config = RunConfig(
            dataset=str(DATA / "compas_style.csv"),
            label_column="two_year_recid",
            group_column="race",
            epsilons="0",
            adhoc=True,
            pool_alphas=3,
            pool_lambdas=20,
            outdir=str(tmp_path / "out"),
        )
        manifest = run_audit(config)
        assert "adhoc" in manifest["stages"]
        got = (tmp_path / "out" / "pool.json").read_bytes()
        assert got == (DATA / "golden_pool.json").read_bytes()
        payload = json.loads(got)
        assert payload["n_models"] == 60
        exact = json.loads((tmp_path / "out" / "profile.json").read_text())
        # the pool measures around its own baseline stay below the exact
        # profile values whenever the pool baseline is itself optimal
        pool_entry = payload["profile"]["entries"][0]
        assert pool_entry["discrepancy"]["certified"] is False

    def test_default_grid_pool_is_pinned(self, tmp_path):
        # the golden file covers a 3 x 20 grid; the benchmark fits the
        # default 11 x 100 grid, whose pool.json is pinned by its digest
        config = RunConfig(
            dataset=str(DATA / "compas_style.csv"),
            label_column="two_year_recid",
            group_column="race",
            adhoc=True,
            outdir=str(tmp_path / "out"),
        )
        run_audit(config)
        got = (tmp_path / "out" / "pool.json").read_bytes()
        assert hashlib.sha256(got).hexdigest() == (
            "60628e09792be70a11ef325629639e08fc7539def8e66c505e9ba5ba90ce06f4"
        )
        assert json.loads(got)["n_models"] == 1100

    def test_pool_json_is_strict_when_no_fold_is_usable(self, tmp_path):
        # two distinct training rows: every fold's training part has one
        # class, so no model has a CV risk and pool.json must say null
        rows = ["0,0"] * 10 + ["1,1"] * 10
        (tmp_path / "two.csv").write_text("x1,label\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        code = main(
            ["audit", "--dataset", str(tmp_path / "two.csv"), "--adhoc",
             "--epsilons", "0", "--outdir", str(out)]
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads((out / "pool.json").read_text(), parse_constant=reject)
        assert payload["baseline_cv_risk"] is None
        assert {m["cv_risk"] for m in payload["models"]} == {None}
        for name in ("profile.json", "baseline.json", "run_manifest.json"):
            json.loads((out / name).read_text(), parse_constant=reject)

    def test_manifest_records_stages_and_versions(self, tmp_path):
        config = RunConfig(dataset="xor", epsilons="0", outdir=str(tmp_path / "out"))
        manifest = run_audit(config)
        assert manifest["failure"] is None
        for stage in ("ingest", "baseline", "discrepancy", "ambiguity", "bound_check"):
            assert stage in manifest["stages"]
        assert "multiplicity" in manifest["versions"]

    def test_test_risk_uses_untouched_split(self, tmp_path):
        # imbalanced data: train gets oversampled, test must not
        csv_path = tmp_path / "imb.csv"
        rows = ["f,label"]
        rows += [f"{i},1" for i in range(12)]
        rows += [f"{100 + i},0" for i in range(4)]
        csv_path.write_text("\n".join(rows) + "\n")
        config = RunConfig(
            dataset=str(csv_path), epsilons="0", outdir=str(tmp_path / "out"),
            split_fraction=0.75, split_seed=1,
        )
        run_audit(config)
        payload = json.loads((tmp_path / "out" / "baseline.json").read_text())
        assert payload["test"]["n"] == 4  # untouched 25% split

    def test_stage_time_limit_bounds_the_stage(self, tmp_path):
        # Every solve of a stage shares the stage's deadline. Under a limit
        # that has passed before the first solve starts, no solve explores
        # a node: each returns its warm start or no incumbent.
        config = RunConfig(
            dataset=str(DATA / "compas_style.csv"),
            label_column="two_year_recid",
            group_column="race",
            epsilons="0,0.01,0.02,0.05,0.1",
            time_limit_disc=1e-6,
            time_limit_flip=1e-6,
            outdir=str(tmp_path / "out"),
        )
        manifest = run_audit(config)
        for stage in ("discrepancy", "ambiguity"):
            solves = manifest["stages"][stage]["solves"]
            assert solves and all(s["nodes"] == 0 for s in solves)
            assert all(s["status"] != "infeasible" for s in solves)
            assert manifest["stages"][stage]["wall_time"] < 0.5

    def test_stage_failure_marks_manifest(self, tmp_path, monkeypatch):
        import multiplicity.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod, "discrepancy_path", boom)
        config = RunConfig(dataset="xor", epsilons="0", outdir=str(tmp_path / "out"))
        with pytest.raises(cli_mod.StageFailure):
            run_audit(config)
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["failure"]["stage"] == "discrepancy"
        assert (tmp_path / "out" / "baseline.json").exists()

    def test_ambiguity_failure_keeps_discrepancy_profile(self, tmp_path, monkeypatch):
        import multiplicity.cli as cli_mod

        code = main(["discrepancy", "--dataset", "xor", "--outdir", str(tmp_path / "disc")])
        assert code == 0

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod, "ambiguity_path", boom)
        config = RunConfig(dataset="xor", outdir=str(tmp_path / "out"))
        with pytest.raises(cli_mod.StageFailure):
            run_audit(config)
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["failure"]["stage"] == "ambiguity"
        rows = [
            line.split(",")
            for line in (tmp_path / "out" / "profile.csv").read_text().splitlines()
        ]
        expected = [
            line.split(",")
            for line in (tmp_path / "disc" / "profile.csv").read_text().splitlines()
        ]
        assert len(rows) == len(expected) > 2  # the default grid, not one point
        for row, want in zip(rows[1:], expected[1:]):
            assert row[:4] == want[:4]  # epsilon and the discrepancy columns
            assert row[4:] == ["", "", ""]

    @pytest.mark.parametrize("verb", ["audit", "discrepancy", "ambiguity"])
    def test_profile_written_once(self, tmp_path, monkeypatch, verb):
        import multiplicity.cli as cli_mod

        calls = []
        original = cli_mod.write_profile

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "write_profile", counting)
        assert main([verb, "--dataset", "xor", "--outdir", str(tmp_path)]) == 0
        assert calls == [tmp_path]
        if verb == "audit":
            run_audit(RunConfig(dataset="xor", outdir=str(tmp_path / "again")))
            assert calls == [tmp_path, tmp_path / "again"]

    def test_dense_grid_counts_match_recount(self, tmp_path):
        from multiplicity.cli import AUDIT_STAGES, run_stages

        run = run_stages(
            RunConfig(dataset="tyranny:5", outdir=str(tmp_path)), AUDIT_STAGES
        )
        train, grid, flip_pool = run["train"], run["grid"], run["flip_pool"]
        assert len(grid.values) == 604
        base, n = run["base_risk"], train.n
        weights = [int(w) for w in train.weights]
        groups = train.groups

        cell = train.cells.index.tolist()
        uppers = flip_pool.mistakes_upper.tolist()
        lowers = flip_pool.mistakes_lower.tolist()

        def recount(members, threshold):
            low = up = 0
            for i in range(len(weights)):
                if members(i):
                    low += weights[i] * (uppers[cell[i]] <= threshold)
                    up += weights[i] * (lowers[cell[i]] <= threshold)
            return low, up

        burden = list(csv.reader((tmp_path / "burden.csv").open()))[1:]
        group_names = sorted(set(groups))
        totals = {
            g: sum(w for w, h in zip(weights, groups) if h == g) for g in group_names
        }
        assert len(burden) == len(grid.values) * len(group_names)
        rows = iter(burden)
        for entry in run["profile"].entries:
            threshold = base.mistakes + int(entry.epsilon * n)
            low, up = recount(lambda i: True, threshold)
            assert entry.ambiguity == MeasureValue(
                Fraction(low, n), Fraction(up, n), certified=low == up
            )
            cap = min(Fraction(1), 2 * base.rate + entry.epsilon)
            assert entry.discrepancy.upper <= cap
            for g in group_names:
                low, up = recount(lambda i: groups[i] == g, threshold)
                total = totals[g]
                assert next(rows) == [
                    g,
                    exact_decimal(entry.epsilon),
                    repr(float(Fraction(low, total))),
                    repr(float(Fraction(up, total))),
                    "true" if low == up else "false",
                ]


class TestOtherVerbs:
    def test_baseline_verb(self, tmp_path):
        code = main(
            ["baseline", "--dataset", "xor", "--outdir", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "baseline.json").read_text())
        assert payload["train"]["mistakes"] == 25

    def test_discrepancy_verb(self, tmp_path):
        code = main(
            [
                "discrepancy", "--dataset", "xor", "--epsilons", "0",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "profile.json").read_text())
        assert payload["entries"][0]["discrepancy"]["lower_exact"] == "1/2"
        assert payload["entries"][0]["ambiguity"] is None

    def test_ambiguity_verb(self, tmp_path):
        code = main(
            [
                "ambiguity", "--dataset", "xor", "--epsilons", "0",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "profile.json").read_text())
        assert payload["entries"][0]["ambiguity"]["lower_exact"] == "1"

    def test_adhoc_verb(self, tmp_path):
        flags = [
            "--dataset", str(DATA / "compas_style.csv"),
            "--label-column", "two_year_recid", "--group-column", "race",
            "--epsilons", "0,0.05", "--pool-alphas", "2", "--pool-lambdas", "4",
        ]
        code = main(["adhoc", *flags, "--outdir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "pool.json").read_text())
        assert payload["n_models"] == 8
        for entry in payload["profile"]["entries"]:
            assert entry["discrepancy"]["certified"] is False
        # the verb runs the audit's pool stage: same baseline, grid and file
        code = main(["audit", "--adhoc", *flags, "--outdir", str(tmp_path / "audit")])
        assert code == 0
        audit_pool = (tmp_path / "audit" / "pool.json").read_bytes()
        assert (tmp_path / "pool.json").read_bytes() == audit_pool

    @pytest.mark.parametrize(
        "verb", ["baseline", "discrepancy", "ambiguity", "adhoc", "export-mps"]
    )
    def test_every_verb_writes_manifest_and_node_log(self, tmp_path, verb):
        log_path = tmp_path / "nodes.log"
        argv = [
            verb, "--dataset", "xor", "--epsilons", "0",
            "--outdir", str(tmp_path / "out"), "--node-log", str(log_path),
        ]
        if verb == "adhoc":
            argv += ["--pool-alphas", "2", "--pool-lambdas", "2"]
        if verb == "export-mps":
            argv += ["--formulation", "disc"]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["failure"] is None
        assert {"ingest", "baseline"} <= set(manifest["stages"])
        lines = log_path.read_text().splitlines()
        assert lines, "expected at least one incumbent improvement line"
        assert all(line.split(",")[0] in ("baseline", "disc", "flip") for line in lines)

    def test_node_log_stream(self, tmp_path):
        log_path = tmp_path / "nodes.log"
        config = RunConfig(
            dataset="xor", epsilons="0", outdir=str(tmp_path / "out"),
            node_log=str(log_path),
        )
        run_audit(config)
        lines = log_path.read_text().splitlines()
        assert lines, "expected at least one incumbent improvement line"
        for line in lines:
            tag, wall, nodes, upper, lower = line.split(",")
            assert tag in ("baseline", "disc", "flip")
            float(wall), int(nodes), float(upper)


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        code = main(
            ["audit", "--dataset", "xor", "--epsilons", "0", "--outdir", str(tmp_path)]
        )
        assert code == 0

    def test_input_error_is_two(self, tmp_path):
        code = main(
            ["audit", "--dataset", str(tmp_path / "missing.csv"), "--outdir", str(tmp_path)]
        )
        assert code == 2

    def test_stage_failure_is_three(self, tmp_path, monkeypatch):
        import multiplicity.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod, "discrepancy_path", boom)
        code = main(
            ["audit", "--dataset", "xor", "--epsilons", "0", "--outdir", str(tmp_path)]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "args",
        [
            ["baseline", "--node-log", "nodir/x.log"],
            ["export-mps", "--formulation", "disc", "--epsilon", "abc"],
            ["export-mps", "--formulation", "disc", "--epsilon", "1.5"],
            ["export-mps", "--formulation", "flip", "--flip-index", "99"],
            ["baseline", "--gamma", "0"],
            ["baseline", "--gamma", "inf"],
            ["baseline", "--gamma", "1e-9"],
            ["discrepancy", "--time-limit-disc", "nan"],
            ["baseline", "--node-limit", "-1"],
            ["baseline", "--node-limit", "0"],
            ["baseline", "--workers", "-3"],
            ["adhoc", "--pool-alphas", "0"],
            ["adhoc", "--pool-lambdas", "0"],
            ["baseline", "--dataset", "xor:abc"],
            ["baseline", "--config", "missing.cfg"],
            ["baseline", "--dataset", "one_class.csv"],
            ["audit", "--no-oversample", "--adhoc", "--dataset", "one_class.csv"],
        ],
        ids=[
            "node-log-dir", "epsilon-abc", "epsilon-1.5", "flip-index-99",
            "gamma-0", "gamma-inf", "gamma-1e-9", "time-limit-nan", "node-limit--1",
            "node-limit-0",
            "workers--3", "pool-alphas-0", "pool-lambdas-0", "dataset-scale-abc",
            "config-missing", "one-class-split", "one-class-adhoc",
        ],
    )
    def test_bad_cli_input_is_two(self, tmp_path, args):
        # five positive rows: the training split holds a single class
        (tmp_path / "one_class.csv").write_text("x1,label\n" + "0,1\n" * 5)
        if args[-2] in ("--node-log", "--config") or args[-1].endswith(".csv"):
            args = args[:-1] + [str(tmp_path / args[-1])]
        verb, flags = args[0], args[1:]
        code = main([verb, "--dataset", "xor", "--outdir", str(tmp_path)] + flags)
        assert code == 2

    @pytest.mark.parametrize("epsilons", ["1.5", "abc"])
    def test_bad_epsilons_is_two(self, tmp_path, epsilons):
        code = main(
            ["audit", "--dataset", "xor", "--epsilons", epsilons, "--outdir", str(tmp_path)]
        )
        assert code == 2

    def test_invariant_violation_is_four(self, tmp_path, monkeypatch):
        import multiplicity.cli as cli_mod

        def boom(profile):
            raise InternalConsistencyError("synthetic breach")

        monkeypatch.setattr(cli_mod, "check_discrepancy_bound", boom)
        code = main(
            ["audit", "--dataset", "xor", "--epsilons", "0", "--outdir", str(tmp_path)]
        )
        assert code == 4


class TestConfigFile:
    def test_file_values_and_flag_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# run configuration\n"
            "dataset = xor\n"
            "epsilons = 0\n"
            "workers = 2\n"
            "oversample = false\n"
        )
        parser = build_parser()
        args = parser.parse_args(
            ["audit", "--config", str(cfg), "--workers", "3", "--outdir", str(tmp_path)]
        )
        from multiplicity.cli import _build_config

        config = _build_config(args)
        assert config.dataset == "xor"
        assert config.workers == 3  # flag overrides file
        assert config.oversample is False

    def test_malformed_values_rejected(self, tmp_path):
        from multiplicity.cli import _build_config

        cfg = tmp_path / "run.cfg"
        parser = build_parser()
        # "none" is only for optional fields; bad numbers and bools are input
        # errors, not tracebacks or silent defaults
        for line in ("time_limit_disc = none", "workers = abc", "oversample = flase"):
            cfg.write_text(line + "\n")
            with pytest.raises(InputError):
                _build_config(parser.parse_args(["audit", "--config", str(cfg)]))
        cfg.write_text("node_limit = none\n")
        assert _build_config(parser.parse_args(["audit", "--config", str(cfg)])).node_limit is None

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("speed = ludicrous\n")
        parser = build_parser()
        args = parser.parse_args(["audit", "--config", str(cfg)])
        from multiplicity.cli import _build_config

        with pytest.raises(InputError):
            _build_config(args)


# Raw values per RunConfig field, each given once as a flag and once as a
# config line: valid ones, ``none`` and malformed or out-of-range ones. A
# bool field's flag is a switch, so it takes the one value that switches it.
FIELD_VALUES = {
    "dataset": ["tyranny:2"],
    "label_column": ["y"],
    "group_column": ["race", "none"],
    "split_fraction": ["0.75", "1.5", "abc"],
    "split_seed": ["4", "4.5"],
    "oversample": ["false"],
    "gamma": ["0.001", "0", "none"],
    "epsilons": ["0,0.05", "none", "2"],
    "time_limit_baseline": ["12.5", "none"],
    "time_limit_disc": ["30", "-1"],
    "time_limit_flip": ["40", "nan"],
    "node_limit": ["5", "none", "abc", "0"],
    "workers": ["2", "abc"],
    "outdir": ["elsewhere"],
    "adhoc": ["true"],
    "pool_alphas": ["3", "0"],
    "pool_lambdas": ["7", "x"],
    "seed": ["5", "1e3"],
    "node_log": ["nodes.log", "none"],
}


def _config_or_error(argv):
    try:
        return _build_config(build_parser().parse_args(argv))
    except InputError as exc:
        return f"input error: {exc}"


class TestGeneratedFlags:
    def test_every_field_has_values(self):
        assert list(FIELD_VALUES) == [f.name for f in dataclasses.fields(RunConfig)]

    @pytest.mark.parametrize(
        "name,raw",
        [(name, raw) for name, values in FIELD_VALUES.items() for raw in values],
        ids=[f"{name}={raw}" for name, values in FIELD_VALUES.items() for raw in values],
    )
    def test_flag_matches_config_line(self, tmp_path, name, raw):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {raw}\n")
        flag = "--" + name.replace("_", "-")
        default = getattr(RunConfig(), name)
        if isinstance(default, bool):
            assert raw == str(not default).lower()
            argv = ["--no-" + flag[2:]] if default else [flag]
        else:
            argv = [flag, raw]
        from_file = _config_or_error(["audit", "--config", str(cfg)])
        assert _config_or_error(["audit"] + argv) == from_file
        if isinstance(from_file, RunConfig) and raw != "none":
            assert from_file != RunConfig()

    def test_flag_lifts_file_node_limit(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("node_limit = 5\n")
        assert _config_or_error(["audit", "--config", str(cfg)]).node_limit == 5
        lifted = _config_or_error(["audit", "--config", str(cfg), "--node-limit", "none"])
        assert lifted.node_limit is None

    def test_bad_flag_value_gives_config_message(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("node_limit = abc\n")
        message = _config_or_error(["audit", "--config", str(cfg)])
        assert message == "input error: node_limit: expected int, got 'abc'"
        code = main(
            ["baseline", "--dataset", "xor", "--outdir", str(tmp_path), "--node-limit", "abc"]
        )
        assert code == 2
        assert capsys.readouterr().err == message + "\n"


def _readme_blocks(language):
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{language}\n(.*?)```", text, re.DOTALL)


def _readme_commands():
    """Every ``multiplicity`` command in README.md's shell blocks, with its
    backslash continuations joined."""
    commands = []
    for block in _readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["multiplicity"]:
                commands.append(words[1:])
    return commands


class TestReadme:
    def test_commands_parse(self):
        commands = _readme_commands()
        assert len(commands) >= 9
        assert ["--time-limit-flip", "21600"] in [argv[-2:] for argv in commands]
        parser = build_parser()
        for argv in commands:
            try:
                args = parser.parse_args(argv)
            except SystemExit:  # argparse's exit on a flag it lacks
                pytest.fail("README command does not parse: multiplicity " + " ".join(argv))
            if args.command != "generate":
                assert isinstance(_build_config(args), RunConfig)

    def test_stage_table_matches_the_runner(self, monkeypatch):
        import multiplicity.cli as cli_mod

        text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        rows = text.split("| verb | stages |")[1].split("\n\n")[0]
        table = {
            verb: tuple(re.sub(r" \([^)]*\)", "", stages).split(", "))
            for verb, stages in re.findall(r"^\| `([\w-]+)` \| (.*) \|$", rows, re.M)
        }
        runs = []

        def record(config, stages, **inputs):
            runs.append(tuple(stages))
            return {"manifest": {"stages": {"export": {"path": "model.mps"}}}}

        monkeypatch.setattr(cli_mod, "run_stages", record)
        run_export_mps(RunConfig(), "flip", None, 0)
        assert table == {**cli_mod.VERB_STAGES, "export-mps": runs[0]}

    def test_config_example_parses(self, tmp_path):
        (block,) = _readme_blocks("ini")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(block)
        values = _parse_config_file(str(cfg))
        assert RunConfig(**values).group_column == "race"


# SHA-256 of the flip programs that ``--flip-index`` exports for the 20
# compas_style training examples: letter k of FLIP_BY_EXAMPLE names the
# digest of example k, so examples with one feature vector share a program.
FLIP_MPS = {
    "a": "b84265d622f670ecaa95c5971289a009c7c00c2142da3cdcf265037cf1328d88",
    "b": "711cc369dd6a24f48287c7b329f5f25eeb43761cb920a05575dab2a1e4916cf3",
    "c": "f8dd8675a81fe99bb480e3fb90f473878ab7e2b38136ded52705b2f1d2d12884",
    "d": "2f4d08fbc1e6ba5bee26cdf4ddec46f367939fd23af144bc244994f5456fd1e7",
    "e": "73d4040df21b59d6e2221ef4201d293f698ca528486360945204a95b7ab2180d",
    "f": "d7a452d5d851a6e9afe2954adb3919b32d3293d1ea83e7e36d8c6ee5418043e1",
}
FLIP_BY_EXAMPLE = "abcdcdbedeffccbabaaf"


class TestTracing:
    def test_tracer_sees_every_layer(self, tmp_path, monkeypatch):
        # perfbench's tracer rebinds module globals by name: an audit that
        # bypasses one of them drops out of its per-layer metrics
        import multiplicity.cli as cli_mod

        monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
        from tracing import _SPANS, DETERMINISTIC_COUNTS, Tracer

        config = RunConfig(
            dataset=str(DATA / "compas_style.csv"), label_column="two_year_recid",
            group_column="race", adhoc=True, pool_alphas=2, pool_lambdas=3,
            outdir=str(tmp_path),
        )
        tracer = Tracer()
        tracer.install()
        try:
            cli_mod.run_audit(config)
        finally:
            tracer.uninstall()
        for layer in {layer for _, _, layer in _SPANS} | {"formulations.heuristic"}:
            assert tracer.calls[layer] > 0, layer
        assert tracer.calls["formulations.build"] == tracer.calls["branch_bound.solve"] == 13
        metrics = tracer.metrics()
        assert [metrics[key] for key in DETERMINISTIC_COUNTS] == [82, 82, 147]


class TestExportMps:
    def test_flip_index_counts_training_examples(self, tmp_path):
        config = RunConfig(
            dataset=str(DATA / "compas_style.csv"), label_column="two_year_recid",
            group_column="race", outdir=str(tmp_path),
        )
        for i, name in enumerate(FLIP_BY_EXAMPLE):
            path = run_export_mps(config, "flip", None, i)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == FLIP_MPS[name], i

    def test_baseline_export(self, tmp_path):
        config = RunConfig(dataset="xor", outdir=str(tmp_path))
        path = run_export_mps(config, "baseline", None, None)
        text = path.read_text()
        assert text.startswith("NAME")
        assert "ENDATA" in text
        from mps_reader import read_mps
        from multiplicity.branch_bound import solve

        res = solve(read_mps(path))
        assert res.upper_bound == 25.0

    def test_cli_verb(self, tmp_path):
        code = main(
            [
                "export-mps",
                "--dataset",
                "xor",
                "--outdir",
                str(tmp_path),
                "--formulation",
                "flip",
                "--flip-index",
                "2",
            ]
        )
        assert code == 0
        files = list(Path(tmp_path).glob("*.mps"))
        assert len(files) == 1
