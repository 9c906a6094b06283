import csv
import dataclasses
import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import warnings
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
from multiplicity.profiles import MeasureValue, merge_profiles
from multiplicity.reports import epsilon_labels, exact_decimal, write_profile
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

from conftest import write_binary_csv

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

    def test_non_finite_cells_count_as_missing(self, tmp_path):
        # each bad row lands before a clean one, so the clean rows keep
        # their order and the split seed shuffles them alike
        clean = (DATA / "compas_style.csv").read_text().splitlines()
        bad = ["nan,0,0,1,A", "0,NaN,1,0,B", "1,inf,0,1,C", "0,0,-inf,0,A", "1,0,0,nan,B"]
        lines = clean[:1]
        for k, row in enumerate(clean[1:]):
            if k % 20 == 3 and bad:
                lines.append(bad.pop(0))
            lines.append(row)
        assert not bad
        dirty = self.write(tmp_path, "\n".join(lines) + "\n")
        kwargs = dict(label_column="two_year_recid", group_column="race")
        got = ingest_csv(dirty, **kwargs)
        want = ingest_csv(DATA / "compas_style.csv", **kwargs)
        assert got.dropped.rows == (4, 25, 46, 67, 88)
        assert got.train == want.train and got.test == want.test
        code = main([
            "baseline", "--dataset", str(dirty), "--label-column", "two_year_recid",
            "--group-column", "race", "--outdir", str(tmp_path / "out"),
        ])
        assert code == 0

    def test_unreadable_dataset_is_an_input_error(self, tmp_path):
        # a directory, and Latin-1 text that is not UTF-8
        folder = tmp_path / "folder.csv"
        folder.mkdir()
        latin = tmp_path / "latin.csv"
        latin.write_bytes("x1,label,group\n1,1,Andr\xe9\n0,0,B\n".encode("latin-1"))
        for path in (folder, latin):
            with pytest.raises(InputError, match=re.escape(repr(str(path)))):
                ingest_csv(path, "label")
            argv = ["baseline", "--dataset", str(path), "--outdir", str(tmp_path / "out")]
            assert main(argv) == 2

    def test_text_feature_column_is_named(self, tmp_path, capsys):
        # without --group-column the race letters are read as a feature,
        # and every row is dropped; the error names that column
        argv = [
            "baseline", "--dataset", str(DATA / "compas_style.csv"),
            "--label-column", "two_year_recid", "--outdir", str(tmp_path),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'race'" in err and "--group-column" in err
        assert "'age_lt_25'" not in err
        # a column that holds a number in some row is not named
        path = self.write(tmp_path, "x,y,label\nA,1,1\n2,B,0\n")
        with pytest.raises(InputError, match="no usable rows") as caught:
            ingest_csv(path, "label")
        assert "column" not in str(caught.value)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # the label as first column, so a kept BOM would hide its name
        with open(DATA / "compas_style.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        text = "".join(f"{row[3]},{','.join(row[:3])},{row[4]}\n" for row in rows)
        plain = self.write(tmp_path, text)
        marked = tmp_path / "bom.csv"
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        kwargs = dict(label_column="two_year_recid", group_column="race")
        got, want = ingest_csv(marked, **kwargs), ingest_csv(plain, **kwargs)
        assert got.train == want.train and got.test == want.test
        assert got.feature_names == want.feature_names

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

    # tyranny's path programs are certified by the labeling pass, those of
    # four binary features by branch-and-bound
    @pytest.mark.parametrize("source, rows", [("tyranny", 6), ("binary4", 23)])
    def test_every_classifier_is_scored_once(self, tmp_path, monkeypatch, source, rows):
        # the bank scores each classifier once, and no stage scores one again
        from multiplicity import profiles
        from multiplicity.cli import AUDIT_STAGES, run_stages

        audited = []
        clearance = profiles.margin_clearance

        def counted(h, data, gamma):
            audited.append(h)
            return clearance(h, data, gamma)

        monkeypatch.setattr(profiles, "margin_clearance", counted)
        config = RunConfig(dataset="tyranny", outdir=str(tmp_path))
        if source == "binary4":
            write_binary_csv(tmp_path / "binary4.csv", 100, 3)
            config = RunConfig(
                dataset=str(tmp_path / "binary4.csv"), group_column="group",
                outdir=str(tmp_path),
            )
        run = run_stages(config, AUDIT_STAGES)
        assert len(run["bank"].classifiers) == rows
        assert audited == run["bank"].classifiers

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
        # the default 121-point grid holds three distinct discrepancy values;
        # the negated baseline fits every level set from eps = 1/603 on,
        # where it proves discrepancy 1, so two solves settle the rest
        code = main(["audit", "--dataset", "tyranny", "--outdir", str(tmp_path)])
        assert code == 0
        reference = DATA.parent.parent / "perfbench" / "reference" / "tyranny-grid"
        for name in ("profile.csv", "burden.csv"):
            assert (tmp_path / name).read_bytes() == (reference / name).read_bytes()
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        solves = manifest["stages"]["discrepancy"]["solves"]
        assert len(solves) == 2
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

    # SHA-256 of each report of the default compas_style --adhoc audit
    # (whose pool.json the test above pins) and of the default tyranny audit.
    # profile.json holds the witnesses' coefficients, which move with the
    # point a leaf LP of the labeling pass returns; the counts do not.
    PINNED_REPORTS = {
        "compas_style-adhoc": {
            "profile.json": "f036f3afea2b9df218319f1b56f6cf4bd03359c3e2cd2abbe8dbc2f2671c6e79",
            "profile.csv": "daa6690d4a89468a75e0e94c9fde1357df9d6415b825849fa30c0bd3c374e767",
            "baseline.json": "316a2c9b60d10a3539074cd258ed503740c16821b92f7b53d213bc2da8896c17",
            "burden.csv": "aee5cc440f24c1e24c1aa1951ecaddd34ca89a7a255fbf8eac76f98e42644513",
        },
        "tyranny": {
            "profile.json": "a962bf3df090b0a397de26c3e5b61315a4c9b0cb2aad2e92802492b3ab30cd88",
            "profile.csv": "45c69dd055c612e081b5640c4ace0bd5c45b115db57f9a6ca1a1204a26b4a51f",
            "baseline.json": "dab179511a24e10b1e6b8acb75a696d9c1223af0d0043daada127954c3015726",
            "burden.csv": "ebafb2d7c541f4fb032c249b11c5d1567126a8185d0aac1a37556a7a398dd22c",
        },
    }

    @pytest.mark.parametrize("source", sorted(PINNED_REPORTS))
    def test_default_reports_are_pinned(self, tmp_path, source):
        if source == "tyranny":
            config = RunConfig(dataset="tyranny", outdir=str(tmp_path))
        else:
            config = RunConfig(
                dataset=str(DATA / "compas_style.csv"), label_column="two_year_recid",
                group_column="race", adhoc=True, outdir=str(tmp_path),
            )
        run_audit(config)
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.PINNED_REPORTS[source]
        }
        assert got == self.PINNED_REPORTS[source]

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
        for stage in ("ingest", "baseline", "discrepancy", "ambiguity"):
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
        base, n = run["bank"].risk, train.n
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
        profile = run["profile"]
        for eps, disc, amb in zip(grid.values, profile.discrepancy, profile.ambiguity):
            threshold = base.mistakes + int(eps * n)
            low, up = recount(lambda i: True, threshold)
            assert amb == MeasureValue(Fraction(low, n), Fraction(up, n), certified=low == up)
            cap = min(Fraction(1), 2 * base.rate + eps)
            assert disc.upper <= cap
            for g in group_names:
                low, up = recount(lambda i: groups[i] == g, threshold)
                total = totals[g]
                assert next(rows) == [
                    g,
                    exact_decimal(eps),
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

    def test_a_baseline_search_out_of_time_is_a_stage_failure(self, tmp_path, capsys):
        # the deadline passes before the root LP, so the search ends with no
        # classifier: the run stops at its budget, which is no solver bug
        code = main(
            ["baseline", "--dataset", "xor", "--time-limit-baseline", "1e-9",
             "--outdir", str(tmp_path)]
        )
        assert code == 3
        assert "within --time-limit-baseline 1e-09 s" in capsys.readouterr().err

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
            ["baseline", "--outdir", "one_class.csv"],
            ["baseline", "--outdir", "one_class.csv/out"],
        ],
        ids=[
            "node-log-dir", "epsilon-abc", "epsilon-1.5", "flip-index-99",
            "gamma-0", "gamma-inf", "gamma-1e-9", "time-limit-nan", "node-limit--1",
            "node-limit-0",
            "workers--3", "pool-alphas-0", "pool-lambdas-0", "dataset-scale-abc",
            "config-missing", "one-class-split", "one-class-adhoc", "outdir-is-file",
            "outdir-under-file",
        ],
    )
    def test_bad_cli_input_is_two(self, tmp_path, args):
        # five positive rows: the training split holds a single class
        (tmp_path / "one_class.csv").write_text("x1,label\n" + "0,1\n" * 5)
        if args[-2] in ("--node-log", "--config", "--outdir") or args[-1].endswith(".csv"):
            args = args[:-1] + [str(tmp_path / args[-1])]
        verb, flags = args[0], args[1:]
        code = main([verb, "--dataset", "xor", "--outdir", str(tmp_path)] + flags)
        assert code == 2

    def test_generate_to_missing_directory_is_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["generate", "xor", "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("epsilons", ["1.5", "abc"])
    def test_bad_epsilons_is_two(self, tmp_path, epsilons):
        code = main(
            ["audit", "--dataset", "xor", "--epsilons", epsilons, "--outdir", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize("verb", ["audit", "baseline"])
    def test_infeasible_baseline_program_is_two(self, tmp_path, capsys, verb):
        # no unit-l1 classifier scores a binary cell above 1, so above
        # gamma = 1 the compas cells that carry both labels cannot be placed
        code = main(
            [verb, "--dataset", str(DATA / "compas_style.csv"),
             "--label-column", "two_year_recid", "--group-column", "race",
             "--gamma", "1.0001",
             "--outdir", str(tmp_path)]
        )
        assert code == 2
        assert "gamma=1.0001" in capsys.readouterr().err

    def test_baseline_program_without_mixed_cells_is_infeasible_past_every_cell(
        self, tmp_path, capsys
    ):
        # xor has no mixed cell, but its baseline program pins every cell
        # from both sides, and no unit-l1 classifier scores a binary cell
        # above 1: at gamma = 100 the program is infeasible, an input error
        for verb in ("audit", "baseline"):
            code = main(
                [verb, "--dataset", "xor", "--gamma", "100", "--outdir", str(tmp_path)]
            )
            assert code == 2
            assert "gamma=100" in capsys.readouterr().err

    def test_a_seeded_sweep_of_random_audits_keeps_h0_at_margin(self, tmp_path, capsys):
        # every program pins every cell from both sides, so a certified h0
        # places every training point at margin gamma and lies in every
        # level set: each audit exits 0, its h0 clears gamma, and nothing
        # warns.  The first CSV, at gamma = 0.05, has classifiers of fewer
        # mistakes that score a training point inside the margin (at
        # 0.0038): none of them may be h0
        rows = [
            "0.559,0,B", "0.846,0,A", "0.49,0,B", "0.402,0,A", "0.558,0,A",
            "0.337,1,A", "0.408,1,A", "0.093,0,B", "0.075,0,B",
        ]
        audits = [("x0,label,group\n" + "\n".join(rows) + "\n", "0.05")]
        for seed in range(60):
            rng = random.Random(seed)
            d, size = rng.randint(1, 3), rng.randint(9, 20)
            lines = [",".join([f"x{j}" for j in range(d)] + ["label", "group"])]
            for i in range(size):
                x = [f"{rng.randint(0, 1000) / 1000:g}" for _ in range(d)]
                label = i if i < 2 else rng.randint(0, 1)
                lines.append(",".join(x + [str(label), rng.choice("AB")]))
            audits.append(("\n".join(lines) + "\n", f"{rng.uniform(0.005, 0.05):.4f}"))
        for k, (text, gamma) in enumerate(audits):
            (tmp_path / f"{k}.csv").write_text(text)
            out = tmp_path / f"out{k}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([
                    "audit", "--dataset", str(tmp_path / f"{k}.csv"),
                    "--group-column", "group", "--gamma", gamma,
                    "--epsilons", "0,0.05,0.1", "--outdir", str(out),
                ])
            assert code == 0, (k, capsys.readouterr().err)
            baseline = json.loads((out / "baseline.json").read_text())
            assert baseline["certified"] and baseline["margin_clearance"]["clears_gamma"], k
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], k

    def test_invariant_violation_is_four(self, tmp_path, monkeypatch):
        import multiplicity.cli as cli_mod

        def boom(*args, **kwargs):
            raise InternalConsistencyError("synthetic breach")

        monkeypatch.setattr(cli_mod, "discrepancy_path", boom)
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

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfdataset = tyranny\nepsilons = 0\n")
        from multiplicity.cli import _build_config

        config = _build_config(build_parser().parse_args(["audit", "--config", str(cfg)]))
        assert config.dataset == "tyranny"
        code = main(["baseline", "--config", str(cfg), "--outdir", str(tmp_path / "out")])
        assert code == 0

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


    def test_library_example_runs(self):
        (block,) = _readme_blocks("python")
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["result"].upper_bound == 25
        assert namespace["amb_profile"].grid.values == namespace["disc_profile"].grid.values

    def test_library_example_writes_the_audit_profile(self, tmp_path):
        # one bank shared by both paths and the baseline solve handed to the
        # flip stage: the sequence the audit runs
        (block,) = _readme_blocks("python")
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        profile = merge_profiles(namespace["disc_profile"], namespace["amb_profile"])
        write_profile(tmp_path, profile, epsilon_labels(namespace["grid"].values))
        outdir = tmp_path / "audit"
        argv = ["audit", "--dataset", "xor", "--epsilons", "0,0.01", "--outdir", str(outdir)]
        assert main(argv) == 0
        library = (tmp_path / "profile.json").read_bytes()
        assert library == (outdir / "profile.json").read_bytes()

# SHA-256 of the flip programs that ``--flip-index`` exports for the 20
# compas_style training examples: letter k of FLIP_BY_EXAMPLE names the
# digest of example k, so examples with one feature vector share a program.
# Each program pins all 6 cells from both sides: 13 G rows with its flip row.
FLIP_MPS = {
    "a": "424a10f44be0ee4a49d7ffe2bb2284215020502c62be915747a7ad8c8ca40438",
    "b": "d78f6be1af2ec218160c753f7c8bdb970be0a772da7e79dcf01ee95f611f1e6a",
    "c": "c6a4f7cd340e269044d8e6c8d6502e18fb3cba1751b39f615f18911f8af302c0",
    "d": "665500bdc53a2477b8f63826f1cf946cd4d25d60364b2ae19eb9f04223240830",
    "e": "97df8f5ab9f4cc690cd9bb67726b50483a037f8a23ddfc87772e3b78dae793bd",
    "f": "19f4f92ef524cb163903120175dfdbdab31aa18632a52588b764ab40316bd6af",
}
FLIP_BY_EXAMPLE = "abcdcdbedeffccbabaaf"


class TestTracing:
    def test_tracer_sees_every_layer(self, tmp_path, monkeypatch):
        # perfbench's tracer rebinds module globals by name: an audit that
        # bypasses one of them drops out of its per-layer metrics
        import multiplicity.cli as cli_mod

        monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
        from tracing import _SPANS, DETERMINISTIC_COUNTS, Tracer

        # four binary features: every path program goes to branch-and-bound
        write_binary_csv(tmp_path / "binary4.csv", 100, 3)
        config = RunConfig(
            dataset=str(tmp_path / "binary4.csv"), group_column="group", adhoc=True,
            pool_alphas=2, pool_lambdas=3, outdir=str(tmp_path),
        )
        tracer = Tracer()
        tracer.install()
        try:
            cli_mod.run_audit(config)
        finally:
            tracer.uninstall()
        for layer in {layer for _, _, layer in _SPANS} | {"formulations.heuristic"}:
            assert tracer.calls[layer] > 0, layer
        assert tracer.calls["formulations.build"] == tracer.calls["branch_bound.solve"] == 25
        metrics = tracer.metrics()
        assert [metrics[key] for key in DETERMINISTIC_COUNTS] == [537, 537, 1725]


class TestExportMps:
    def test_only_an_mps_name_loads_hashlib(self, tmp_path):
        # hashlib maps OpenSSL into the process: about 3.7 MB of an audit's
        # peak RSS, for the digest of an MPS file name alone
        script = f"""
import sys
from multiplicity.cli import RunConfig, run_audit, run_export_mps
out = {str(tmp_path)!r}
run_audit(RunConfig(dataset="tyranny", outdir=out + "/tyranny"))
run_audit(RunConfig(
    dataset={str(DATA / "compas_style.csv")!r}, label_column="two_year_recid",
    group_column="race", adhoc=True, pool_alphas=2, pool_lambdas=3,
    outdir=out + "/compas",
))
print([name for name in ("hashlib", "_hashlib", "_blake2") if name in sys.modules])
print(run_export_mps(RunConfig(dataset="xor", outdir=out), "disc", "0.01", None).name)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\nxor_disc0.01_e539aeba.mps\n"

    def test_flip_index_counts_training_examples(self, tmp_path):
        config = RunConfig(
            dataset=str(DATA / "compas_style.csv"), label_column="two_year_recid",
            group_column="race", outdir=str(tmp_path),
        )
        for i, name in enumerate(FLIP_BY_EXAMPLE):
            path = run_export_mps(config, "flip", None, i)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == FLIP_MPS[name], i
            rows = [line for line in path.read_text().splitlines() if line.startswith(" G ")]
            assert len(rows) == 13

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

    def test_programs_keep_their_own_files(self, tmp_path):
        config = RunConfig(dataset="xor", outdir=str(tmp_path))
        paths = [run_export_mps(config, "flip", None, i) for i in (0, 3)]
        paths += [run_export_mps(config, "disc", eps, None) for eps in ("0", "0.01")]
        names = sorted(path.name for path in tmp_path.glob("*.mps"))
        assert names == sorted(path.name for path in paths)
        prefixes = sorted(name.rsplit("_", 1)[0] for name in names)
        assert prefixes == ["xor_disc0", "xor_disc0.01", "xor_flip0", "xor_flip3"]

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
