"""Batch front-end: configuration, the stage runner and the verbs.

Every verb runs a subset of the audit's stages through one runner
(``VERB_STAGES``); ``export-mps`` adds an export stage. Each solving stage
has one time limit that all of its solves share.

Report files and their formats are described in ``reports``; every verb
writes ``run_manifest.json``.

Node-log format (``--node-log FILE``): one CSV line per incumbent
improvement, ``solve_tag,wall_seconds,nodes,upper_bound,lower_bound``.

Exit codes: 0 success, 2 input error, 3 stage failure, 4 invariant
violation (a certified bound check failed).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import platform
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from . import branch_bound as bnb
from .core import (
    Dataset,
    InternalConsistencyError,
    SingleClassError,
    empirical_risk,
    oversample_minority,
)
from .datasets import InputError, generate_synthetic, ingest_csv, write_csv
from .formulations import (
    DEFAULT_GAMMA,
    GAMMA_FLOOR,
    build_baseline_mip,
    build_disc_mip,
    build_flip_mip,
    classifier_from_solution,
    export_mps,
    mps_filename,
)
from .pool import PenaltyGrid, adhoc_measures, fit_pool, pool_baseline_index
from .profiles import (
    ClassifierBank,
    EpsilonGrid,
    ambiguity_path,
    discrepancy_path,
    merge_profiles,
)
from .reports import (
    epsilon_labels,
    exact_decimal,
    risk_json,
    solve_json,
    write_burden,
    write_json,
    write_pool,
    write_profile,
)

# The RunConfig field that bounds the wall time of each solving stage.
_STAGE_LIMITS = {
    "baseline": "time_limit_baseline",
    "discrepancy": "time_limit_disc",
    "ambiguity": "time_limit_flip",
}


class StageFailure(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    dataset: str = "xor"
    label_column: str = "label"
    group_column: Optional[str] = None
    split_fraction: float = 0.8
    split_seed: int = 0
    oversample: bool = True
    gamma: float = DEFAULT_GAMMA
    epsilons: Optional[str] = None  # comma list; None -> default grid
    time_limit_baseline: float = 60.0
    time_limit_disc: float = 300.0  # whole discrepancy path
    time_limit_flip: float = 300.0  # whole flip batch
    node_limit: Optional[int] = None
    workers: int = 1  # accepted and checked, no effect: flips run in sequence
    outdir: str = "audit_out"
    adhoc: bool = False
    pool_alphas: int = 11
    pool_lambdas: int = 100
    seed: int = 0
    node_log: Optional[str] = None

    def __post_init__(self):
        if not 0.0 < self.split_fraction < 1.0:
            raise InputError("split fraction must lie in (0, 1)")
        if not GAMMA_FLOOR <= self.gamma < math.inf:
            raise InputError(
                f"gamma must be finite and at least {GAMMA_FLOOR:g}: a point meets "
                "a row within 1e-6 of its rhs, so a smaller margin is no margin"
            )
        for name in _STAGE_LIMITS.values():
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive")
        for name in ("node_limit", "workers", "pool_alphas", "pool_lambdas"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise InputError(f"{name} must be at least 1")
        if self.epsilons:
            _epsilon_values(self.epsilons)


# -- data loading ----------------------------------------------------------


def load_dataset(config: RunConfig):
    """Resolve the dataset spec to (train, test, ingest_info).

    Synthetic specs ("xor", "tyranny", optionally ":scale") audit the whole
    generated dataset; CSV paths go through the split protocol.
    """
    spec = config.dataset
    name, _, scale_txt = spec.partition(":")
    if name in ("xor", "tyranny"):
        try:
            scale = int(scale_txt) if scale_txt else 1
        except ValueError:
            raise InputError(f"dataset scale {scale_txt!r} is not an integer") from None
        full = generate_synthetic(name, scale)
        if config.oversample:
            full = oversample_minority(full, seed=config.split_seed)
        return full, None, {"source": name, "scale": scale, "dropped_rows": []}
    path = Path(spec)
    if not path.exists():
        raise InputError(f"dataset {spec!r} is neither a known generator nor a file")
    result = ingest_csv(
        path,
        label_column=config.label_column,
        group_column=config.group_column,
        split_fraction=config.split_fraction,
        split_seed=config.split_seed,
        oversample=config.oversample,
    )
    info = {
        "source": str(path),
        "dropped_rows": list(result.dropped.rows),
        "feature_names": list(result.feature_names),
    }
    return result.train, result.test, info


def _epsilon_values(text: str) -> list:
    try:
        values = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise InputError(f"epsilons {text!r} are not a comma list of numbers") from None
    if not all(0 <= v <= 1 for v in values):
        raise InputError(f"epsilons {text!r} must lie in [0, 1]")
    return values


def resolve_grid(config: RunConfig, train: Dataset, baseline_rate) -> EpsilonGrid:
    if config.epsilons:
        return EpsilonGrid.snapped(_epsilon_values(config.epsilons), train.n)
    return EpsilonGrid.default(train.n, baseline_rate)


# -- stage runner -------------------------------------------------------------

# Every verb runs a subset of the audit's stages, in this order.
AUDIT_STAGES = ("ingest", "baseline", "discrepancy", "ambiguity", "adhoc", "burden")
VERB_STAGES = {
    "audit": AUDIT_STAGES,
    "baseline": ("ingest", "baseline"),
    "discrepancy": ("ingest", "baseline", "discrepancy"),
    "ambiguity": ("ingest", "baseline", "ambiguity"),
    "adhoc": ("ingest", "baseline", "adhoc"),  # run with adhoc set
}


def _node_logger(handle, tag: str):
    if handle is None:
        return None

    def log(wall, nodes, upper, lower):
        handle.write(f"{tag},{wall:.3f},{nodes},{upper},{lower}\n")

    return log


def _stage_budget(config: RunConfig, stage: str) -> Optional[bnb.SolveBudget]:
    """The node limit, or one deadline that every solve of the stage shares."""
    if stage not in _STAGE_LIMITS:
        return None
    if config.node_limit is not None:
        return bnb.SolveBudget(node_limit=config.node_limit)
    limit = getattr(config, _STAGE_LIMITS[stage])
    return bnb.SolveBudget(deadline=time.monotonic() + limit)


def run_stages(config: RunConfig, stages, **inputs) -> dict:
    """Run the named stages in order and return the run state: the data,
    the baseline, the profiles and the ``manifest``.

    Report files go into ``config.outdir``. Each stage records its wall
    time and summary in the manifest; a stage that does not apply to the
    run (the pool without ``adhoc``, the burden without group tags) returns
    None and is left out. ``profile.*`` and the manifest are written once,
    when the run ends or a stage fails. A failing stage still leaves the
    earlier stages' outputs on disk, with the manifest naming the failure
    point.
    """
    outdir = Path(config.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot use output directory {config.outdir!r}: {exc}") from None
    manifest = {
        "config": dataclasses.asdict(config),
        "versions": {
            "multiplicity": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "stages": {},
        "failure": None,
    }
    run = dict(inputs, config=config, outdir=outdir, manifest=manifest)
    node_log = contextlib.nullcontext()
    if config.node_log:
        try:
            node_log = open(config.node_log, "a", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot open node log {config.node_log!r}: {exc}") from None
    with node_log as handle:
        run["node_log"] = handle
        for name in stages:
            started = time.monotonic()
            try:
                summary = _STAGES[name](run, _stage_budget(config, name))
            except Exception as exc:  # noqa: BLE001 - boundary reporting
                manifest["failure"] = {"stage": name, "error": str(exc)}
                _write_run_reports(run)
                raise StageFailure(name, exc) from exc
            if summary is not None:
                manifest["stages"][name] = {
                    "wall_time": time.monotonic() - started,
                    **summary,
                }
    _write_run_reports(run)
    return run


def _write_run_reports(run: dict) -> None:
    """The reports kept up to date across stages: ``profile.*`` when a path
    stage has run, then the manifest."""
    if "profile" in run:
        write_profile(run["outdir"], run["profile"], run["labels"])
    write_json(run["outdir"] / "run_manifest.json", run["manifest"])


def run_audit(config: RunConfig) -> dict:
    """Full pipeline: baseline -> discrepancy path -> ambiguity path ->
    optional ad-hoc pool -> group burden. Returns the manifest."""
    return run_stages(config, AUDIT_STAGES)["manifest"]


def run_export_mps(config: RunConfig, formulation: str, epsilon, flip_index) -> Path:
    """Write one formulation in MPS format; disc and flip models are built
    around the solved baseline. Returns the file path."""
    stages = ("ingest", "export") if formulation == "baseline" else (
        "ingest", "baseline", "export"
    )
    run = run_stages(
        config, stages, formulation=formulation, epsilon=epsilon, flip_index=flip_index
    )
    return Path(run["manifest"]["stages"]["export"]["path"])


# -- stages: each takes the run state and its budget, returns its summary ----


def _ingest(run: dict, budget) -> dict:
    train, test, info = load_dataset(run["config"])
    run["train"], run["test"] = train, test
    return {**info, "n_train": train.n, "n_examples": len(train.examples)}


def _baseline(run: dict, budget) -> dict:
    config, train, test = run["config"], run["train"], run["test"]
    model = build_baseline_mip(train, config.gamma)
    result = bnb.solve(
        model, budget=budget, node_log=_node_logger(run["node_log"], "baseline")
    )
    if result.status == bnb.STATUS_INFEASIBLE:
        # the program pins every feature cell at margin gamma, on one side
        raise InputError(
            f"no classifier places every feature cell at margin gamma="
            f"{config.gamma}; use a smaller --gamma"
        )
    if result.incumbent is None:  # only a spent budget leaves no classifier
        limit = (
            f"--time-limit-baseline {config.time_limit_baseline:g} s"
            if config.node_limit is None else f"--node-limit {config.node_limit}"
        )
        raise RuntimeError(f"baseline training found no classifier within {limit}")
    h0 = classifier_from_solution(model, result.incumbent)
    bank = run["bank"] = ClassifierBank(train, h0, config.gamma)
    payload = {
        "coefficients": list(h0.coefficients),
        "train": risk_json(bank.risk),
        "certified": result.certified,
        "margin_clearance": {
            "min_abs_score": bank.margins[0], "clears_gamma": bank.clears[0]
        },
    }
    if test is not None:
        payload["test"] = risk_json(empirical_risk(h0, test))
    write_json(run["outdir"] / "baseline.json", payload)
    run["baseline"] = result
    run["grid"] = resolve_grid(config, train, bank.risk.rate)
    run["labels"] = epsilon_labels(run["grid"].values)
    return solve_json(result)


def _discrepancy(run: dict, budget) -> dict:
    run["disc_profile"], results = discrepancy_path(
        run["bank"], run["grid"], budget=budget,
        node_log=_node_logger(run["node_log"], "disc"),
    )
    _update_profile(run)
    return {"solves": [{"epsilon": str(eps), **solve_json(r)} for eps, r in results]}


def _ambiguity(run: dict, budget) -> dict:
    # The baseline stage's bank holds the negated baseline and every
    # discrepancy witness; each flip solve warm-starts from the fewest-mistake
    # one that flips its cell, and its own classifier joins the bank.  The
    # baseline solve bounds every flip solve and starts every flip root LP.
    run["amb_profile"], run["flip_pool"], results = ambiguity_path(
        run["bank"], run["grid"], budget=budget,
        node_log=_node_logger(run["node_log"], "flip"), baseline=run["baseline"],
    )
    _update_profile(run)
    return {"solves": [solve_json(r) for r in results]}


def _update_profile(run: dict) -> None:
    """Merge the measures of the path stages run so far into
    ``run["profile"]``; ``run_stages`` writes it once, at the end."""
    disc, amb = run.get("disc_profile"), run.get("amb_profile")
    if disc is not None and amb is not None:
        run["profile"] = merge_profiles(disc, amb)
    else:
        run["profile"] = disc if disc is not None else amb


def _adhoc(run: dict, budget) -> Optional[dict]:
    config, train = run["config"], run["train"]
    if not config.adhoc:
        return None
    alphas = tuple(
        round(k / max(config.pool_alphas - 1, 1), 6) for k in range(config.pool_alphas)
    )
    penalty_grid = PenaltyGrid(alphas=alphas, lambdas_per_alpha=config.pool_lambdas)
    try:
        models = fit_pool(train, penalty_grid, seed=config.seed)
    except SingleClassError as exc:
        raise InputError(f"training split: {exc}") from None
    base_idx = pool_baseline_index(models)
    adhoc_profile = adhoc_measures(models, train, run["grid"], base_idx)
    write_pool(run["outdir"], models, adhoc_profile, run["labels"], base_idx)
    return {"n_models": len(models)}


def _burden(run: dict, budget) -> Optional[dict]:
    train = run["train"]
    if any(ex.group is None for ex in train.examples):
        return None
    write_burden(run["outdir"], run["flip_pool"], train, run["grid"], run["labels"])
    return {}


def _export(run: dict, budget) -> dict:
    train, gamma, formulation = run["train"], run["config"].gamma, run["formulation"]
    label = ""  # tells apart the programs of one formulation in a file name
    if formulation == "baseline":
        model = build_baseline_mip(train, gamma)
    elif formulation == "disc":
        eps = _epsilon_values(str(run["epsilon"] or 0))
        if len(eps) != 1:
            raise InputError(f"--epsilon takes one value, got {run['epsilon']!r}")
        model = build_disc_mip(train, run["bank"].h0, eps[0], gamma)
        label = exact_decimal(eps[0])
    elif formulation == "flip":
        index = run["flip_index"] or 0
        if not 0 <= index < len(train.examples):
            raise InputError(
                f"--flip-index {index} is outside the {len(train.examples)} "
                "training examples"
            )
        model = build_flip_mip(train, run["bank"].h0, int(train.cells.index[index]), gamma)
        label = str(index)
    else:
        raise InputError(f"unknown formulation {formulation!r}")
    dataset_tag = Path(run["config"].dataset).stem.replace(":", "x")
    path = run["outdir"] / mps_filename(dataset_tag, formulation + label, gamma)
    export_mps(model, path)
    return {"path": str(path)}


# Stage functions look up the solvers and loaders as module globals when
# they run, so code that rebinds ``cli.discrepancy_path`` and the like sees
# every call.
_STAGES = {
    "ingest": _ingest,
    "baseline": _baseline,
    "discrepancy": _discrepancy,
    "ambiguity": _ambiguity,
    "adhoc": _adhoc,
    "burden": _burden,
    "export": _export,
}


# -- argparse front-end ------------------------------------------------------

# Field -> type of every RunConfig field, resolved from its annotations.
_FIELD_TYPES = get_type_hints(RunConfig)
_BOOLS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _parse_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read config file {path!r}: {exc}") from None
    values = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FIELD_TYPES:
            raise InputError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = _coerce_field(key, value)
    return values


def _coerce_field(key: str, raw: str):
    """Parse a config value or flag for the RunConfig field ``key``."""
    kind, raw = _FIELD_TYPES[key], raw.strip()
    if get_origin(kind) is Union:  # Optional[T]
        if raw.lower() in ("none", ""):
            return None
        kind = get_args(kind)[0]
    if kind is bool:
        if raw.lower() not in _BOOLS:
            raise InputError(f"{key}: expected true or false, got {raw!r}")
        return _BOOLS[raw.lower()]
    try:
        return kind(raw)
    except ValueError:
        raise InputError(f"{key}: expected {kind.__name__}, got {raw!r}") from None


# Help texts of the flags that have one; every RunConfig field is a flag.
_FLAG_HELP = {
    "dataset": "CSV path or generator name (xor, tyranny[:scale])",
    "epsilons": "comma-separated error tolerances",
    "node_log": "incumbent log file",
    "workers": "accepted for old configs; no effect (flip solves run in sequence)",
}


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    """``--config`` and one flag per RunConfig field, kept as the raw text
    that ``_build_config`` parses like the field's config value. A bool
    field's flag switches it away from its default: ``--no-name`` when that
    is true, ``--name`` when it is false."""
    p.add_argument("--config", help="key = value config file; flags override it")
    for f in dataclasses.fields(RunConfig):
        flag = f.name.replace("_", "-")
        kwargs = {"dest": f.name, "help": _FLAG_HELP.get(f.name)}
        if _FIELD_TYPES[f.name] is bool:
            flag = "no-" + flag if f.default else flag
            kwargs.update(action="store_const", const=str(not f.default))
        p.add_argument("--" + flag, **kwargs)


def _build_config(args: argparse.Namespace) -> RunConfig:
    values = _parse_config_file(args.config) if args.config else {}
    for name in _FIELD_TYPES:
        raw = getattr(args, name)
        if raw is not None:
            values[name] = _coerce_field(name, raw)
    return RunConfig(**values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiplicity",
        description="Exact predictive-multiplicity audits for linear classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for verb, help_text in (
        ("audit", "full pipeline: baseline, discrepancy, ambiguity, reports"),
        ("baseline", "fit and report the error-minimizing classifier"),
        ("discrepancy", "baseline plus the discrepancy path"),
        ("ambiguity", "baseline plus the ambiguity path"),
        ("adhoc", "baseline plus the penalized logistic pool measures"),
    ):
        _add_common_flags(sub.add_parser(verb, help=help_text))

    g = sub.add_parser("generate", help="write a synthetic dataset as CSV")
    g.add_argument("name", choices=["xor", "tyranny"])
    g.add_argument("--scale", type=int, default=1)
    g.add_argument("--out", required=True)

    e = sub.add_parser("export-mps", help="write a formulation in fixed MPS format")
    _add_common_flags(e)
    e.add_argument(
        "--formulation", choices=["baseline", "disc", "flip"], default="baseline"
    )
    e.add_argument("--epsilon", help="level-set tolerance for disc")
    e.add_argument(
        "--flip-index", dest="flip_index", type=int,
        help="training example whose feature vector the flip program flips",
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            dataset = generate_synthetic(args.name, args.scale)
            try:
                write_csv(dataset, args.out)
            except OSError as exc:
                raise InputError(f"cannot write {args.out!r}: {exc}") from None
            print(f"wrote {args.out} ({dataset.n} points)")
            return 0
        config = _build_config(args)
        if args.command == "export-mps":
            path = run_export_mps(config, args.formulation, args.epsilon, args.flip_index)
            print(f"wrote {path}")
            return 0
        if args.command == "adhoc":
            config = dataclasses.replace(config, adhoc=True)
        run = run_stages(config, VERB_STAGES[args.command])
        if args.command == "baseline":
            certified = run["baseline"].certified
            print(
                f"baseline risk {float(run['bank'].risk.rate):.4f} "
                f"({'certified' if certified else 'not certified'})"
            )
        print(f"{args.command} complete; reports in {config.outdir}")
        return 0
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except StageFailure as exc:
        if isinstance(exc.cause, InputError):
            code = 2
        elif isinstance(exc.cause, InternalConsistencyError):
            code = 4
        else:
            code = 3
        print(f"{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
