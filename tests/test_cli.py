import json
from pathlib import Path

import numpy as np
import pytest

from multiplicity.cli import (
    RunConfig,
    build_parser,
    main,
    run_audit,
    run_export_mps,
)
from multiplicity.reports import exact_decimal
from multiplicity.core import InternalConsistencyError
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

    def test_audit_with_adhoc_pool(self, tmp_path):
        config = RunConfig(
            dataset=str(DATA / "compas_style.csv"),
            label_column="two_year_recid",
            group_column="race",
            epsilons="0",
            adhoc=True,
            pool_alphas=2,
            pool_lambdas=3,
            outdir=str(tmp_path / "out"),
        )
        manifest = run_audit(config)
        assert "adhoc" in manifest["stages"]
        payload = json.loads((tmp_path / "out" / "pool.json").read_text())
        assert payload["n_models"] == 6
        exact = json.loads((tmp_path / "out" / "profile.json").read_text())
        # the pool measures around its own baseline stay below the exact
        # profile values whenever the pool baseline is itself optimal
        pool_entry = payload["profile"]["entries"][0]
        assert pool_entry["discrepancy"]["certified"] is False

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
        ],
        ids=["node-log-dir", "epsilon-abc", "epsilon-1.5", "flip-index-99"],
    )
    def test_bad_cli_input_is_two(self, tmp_path, args):
        if "--node-log" in args:
            args = args[:-1] + [str(tmp_path / args[-1])]
        code = main(args + ["--dataset", "xor", "--outdir", str(tmp_path)])
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


class TestExportMps:
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
