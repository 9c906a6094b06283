"""Audit benchmark: end-to-end and per-layer metrics of ``multiplicity audit``.

From the root of a source checkout (the package is imported from ``src/``):

    for w in compas-adhoc tyranny-grid; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

``ladder-100`` runs the same way but is not a workload of ``BENCHMARK.json``
(see ``workloads.py``).

Closed loop: one audit at a time from a single worker process, which
repeats the audit until the next one would end past ``--seconds``.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``, both
times at reference host speed (below):

* ``audit_s``: the median over the run's audits of the wall time of one
  ``cli.run_audit`` call, imports done;
* ``setup_s``: the median over 16 pairs of fresh processes of the set-up
  time the package adds to a fresh Python that imports numpy. One process
  of a pair is timed from its start until ``import multiplicity`` and the
  workload's ``load_dataset`` finish, the other (``calibrate.py`` run as a
  script) until ``import numpy`` finishes, and the second time is
  subtracted from the first;
* ``peak_rss_mb``: ``ru_maxrss`` of the process that ran the audits;
* ``settled_points``: sum over profile entries and both measures of
  n * (1 - (upper - lower)); the total minus ``open_points``.

Every run also prints ``open_points`` (sum of n * (upper - lower), 0 when
every entry is certified), ``failed_share`` (failed / attempted audits) and
``rows_per_cell`` (training rows per distinct feature vector). The first two
are 0 on two workloads, where a bound relative to the median cannot work, so
``settled_points`` and the result's ``failed`` count gate them instead.

Reference host speed. The shared 2-CPU machine the benchmark was tuned on
runs the same code at two speeds about 1.6 times apart, switching every few
seconds and drifting for minutes, so wall times of one build differed by up
to 45 % between two sets of ten runs. Each measured time is therefore
multiplied by ``calibrate.REFERENCE_S`` over the typical wall time (a
trimmed mean) of ``calibrate.kernel``, fixed work that uses nothing of the
package, taken in the same process over the same window: every 0.1 s during
an audit, and in a burst of 20 right after a set-up or baseline process got
where it is timed to. Over 128 back-to-back ``tyranny-grid`` audits the
wall time and the kernel time correlated 0.90; the interquartile spread of
single audits was 0.29 of their median for wall time and 0.05 at reference
speed. The baseline is subtracted from set-up because the time a fresh
Python takes to import numpy once fell by 65 ms for minutes while the kernel
and the package's own share of set-up stayed put. The notes print the wall
times and kernel time as measured.

``--trace 1`` runs untraced audits, then traced ones (``tracing.py``), and
reports the per-layer metrics and the tracing overhead (``audit_s`` of the
traced audits minus that of the untraced ones). It fails when node, LP-call
or pivot counts differ between two traced audits. With two flip workers
(``ladder-100``) per-layer seconds are busy time summed over both threads.

Each audit's output is checked (``checks.py``). A failed check, a raised
audit or a solve ended by a time limit counts as a failed audit. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it give every metric with its
unit and sample count, then the Python, numpy and BLAS versions, BLAS
threads, CPU count, commit and seed. The benchmark does not set BLAS threads.

The inputs are fixed (see ``workloads.py``): ``--seed`` is recorded but
changes no input, so every run measures the same work.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
# A run must end within 180 s; leave room for checks and clean-up.
RUN_LIMIT_S = 165.0
SETUP_PAIRS = 16
# Reported on every run; per-layer metrics of BENCHMARK.json in traced runs.
SHARED_UNITS = {"open_points": "points", "failed_share": "ratio", "rows_per_cell": "rows/cell"}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def _declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _run(cmd, deadline: float, what: str, **kwargs) -> str:
    """Run ``cmd`` with the package importable; returns its standard output."""
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with subprocess.Popen(cmd, env=env, text=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{what} ran past the run time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise BenchmarkError(f"{what} exited with code {proc.returncode}")
    return out


def _spawn(workload, mode, work: Path, seconds: float, deadline: float, tag: str):
    """Run one worker; returns (monotonic spawn time, its result)."""
    result_path = work / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--mode", mode, "--root", str(ROOT),
        "--work", str(work), "--seconds", repr(seconds), "--result", str(result_path),
    ]
    spawned = time.monotonic()
    _run(cmd, deadline, f"{mode} worker", stdout=sys.stderr)
    if not result_path.exists():
        raise BenchmarkError(f"{mode} worker wrote no result")
    return spawned, json.loads(result_path.read_text(encoding="utf-8"))


def _baseline(deadline: float) -> tuple:
    """(seconds, kernel seconds) of a fresh Python that imports only numpy."""
    spawned = time.monotonic()
    out = _run([sys.executable, str(HERE / "calibrate.py")], deadline, "baseline",
               stdout=subprocess.PIPE)
    reached, kernel = (float(v) for v in out.split())
    return reached - spawned, kernel


def _time_setups(workload, work: Path, deadline: float, pairs: range) -> list:
    """((seconds, kernel seconds) of a set-up, the same of a baseline) for
    pairs of fresh processes whose order alternates."""
    times = []
    for k in pairs:
        if k % 2:
            base = _baseline(deadline)
        spawned, out = _spawn(workload, "setup", work, 0.0, deadline, f"setup-{k}")
        if not k % 2:
            base = _baseline(deadline)
        times.append(((out["setup_done"] - spawned, out["kernel_s"]), base))
    return times


def _at_reference(seconds: float, kernel_s: float) -> float:
    """``seconds`` on a host where the calibration kernel takes its reference time."""
    return seconds * calibrate.REFERENCE_S / kernel_s


def _audit_s(audits) -> float:
    return _median([_at_reference(a["seconds"], a["kernel_s"]) for a in audits])


def _blas() -> dict:
    import numpy as np

    info = {"blas": "unknown", "blas_threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


def _commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30, check=False,
    )
    return done.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _environment(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


def _check_audits(workload, audits, config, train) -> tuple:
    """Returns (failed count, open points of each audit that passed)."""
    import checks

    failed, points = 0, []
    for audit in audits:
        outdir = Path(audit["outdir"])
        problems = [audit["error"]] if audit["error"] else checks.check_audit(
            workload, outdir, config, train
        )
        if problems:
            failed += 1
            print(f"FAILED {outdir.name}: " + "; ".join(problems), file=sys.stderr)
            continue
        profile = json.loads((outdir / "profile.json").read_text(encoding="utf-8"))
        points.append(
            (checks.open_points(profile), 2 * len(profile["entries"]) * profile["baseline"]["n"])
        )
    return failed, points


def _median(values):
    """Median, or 0 when no audit passed (the run is then not correct)."""
    return statistics.median(values) if values else 0.0


@dataclass
class Outcome:
    metrics: dict  # name -> (value, note)
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _measure(args, work: Path, deadline: float) -> Outcome:
    from multiplicity import cli

    kwargs = workloads.config_kwargs(args.workload, ROOT, work)
    config = cli.RunConfig(**kwargs)
    train = cli.load_dataset(config)[0]
    rows_per_cell = len(train.examples) / len({ex.features for ex in train.examples})
    if args.workload == "ladder-100" and rows_per_cell != 1.0:
        raise BenchmarkError(f"ladder has {rows_per_cell} training rows per feature cell, not 1")

    # Half of the set-ups run before the audits and half after, so that the
    # samples span the whole run rather than one slow stretch of it.
    half = SETUP_PAIRS // 2
    setup = [] if args.trace else _time_setups(args.workload, work, deadline, range(half))
    mode = "trace" if args.trace else "audit"
    _, out = _spawn(args.workload, mode, work, args.seconds, deadline, mode)
    if not args.trace:
        setup += _time_setups(args.workload, work, deadline, range(half, SETUP_PAIRS))
    audits = out["audits"]
    failed, points = _check_audits(args.workload, audits, config, train)
    outcome = Outcome({}, attempted=len(audits), failed=failed)
    shared = {
        "open_points": (_median([p for p, _ in points]), f"median of {len(points)} passed audits"),
        "failed_share": (failed / len(audits), f"{failed} of {len(audits)} audits"),
        "rows_per_cell": (rows_per_cell, f"{len(train.examples)} training rows"),
    }

    if not args.trace:
        passed = [a for a in audits if not a["error"]]
        wall = _median([a["seconds"] for a in passed])
        kernel_ms = 1e3 * _median([a["kernel_s"] for a in passed])
        setup_wall = statistics.median(s - b for (s, _), (b, _) in setup)
        outcome.metrics = {
            "audit_s": (
                _audit_s(passed),
                f"median of {len(passed)} audits; wall time {wall:.4f} s, kernel {kernel_ms:.4f} ms"
            ),
            "setup_s": (
                statistics.median(_at_reference(*s) - _at_reference(*b) for s, b in setup),
                f"median of {len(setup)} set-up minus baseline pairs; wall time {setup_wall:.4f} s",
            ),
            "peak_rss_mb": (out["maxrss_kb"] / 1024.0, "1 process"),
            "settled_points": (
                _median([total - p for p, total in points]),
                "complement of open_points",
            ),
        }
        outcome.metrics.update(shared)
        return outcome

    from tracing import DETERMINISTIC_COUNTS

    untraced = [a for a in audits if a["layers"] is None and not a["error"]]
    traced = [a for a in audits if a["layers"] is not None and not a["error"]]
    if len(traced) < 2:
        outcome.problems.append("fewer than two traced audits completed")
    for name in DETERMINISTIC_COUNTS:
        seen = sorted({a["layers"][name] for a in traced})
        if len(seen) > 1:
            outcome.problems.append(f"{name} differs between traced audits: {seen}")
    for name in traced[0]["layers"] if traced else ():
        values = [a["layers"][name] for a in traced]
        outcome.metrics[name] = (_median(values), f"median of {len(values)} traced audits")
    outcome.metrics["trace.overhead_s"] = (
        _audit_s(traced) - _audit_s(untraced),
        f"audit_s of {len(traced)} traced minus {len(untraced)} untraced audits",
    )
    outcome.metrics.update(shared)
    if config.workers > 1:
        outcome.notes.append(
            f"per-layer seconds are busy time summed over {config.workers} flip threads"
        )
    return outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    # Turn SIGTERM into SystemExit so the worker is killed and the work
    # directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "multiplicity" / "__init__.py").exists():
        print(f"error: no multiplicity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = _declared_metrics(bool(args.trace))

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = _measure(args, work, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run is using it

    missing = set(declared) - set(outcome.metrics)
    if missing:
        print(f"error: BENCHMARK.json metrics {sorted(missing)} not measured", file=sys.stderr)
        return 1
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    print(f"workload {args.workload}, trace {args.trace}")
    for name, (value, note) in outcome.metrics.items():
        unit = declared.get(name) or SHARED_UNITS[name]
        gate = "" if name in declared else ", not in the result"
        print(f"  {name:34s} {value:14.6g} {unit:11s} {note}{gate}")
    for note in outcome.notes:
        print(f"  note: {note}")
    print("env " + json.dumps(_environment(args), sort_keys=True))
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": declared[name]}
            for name, (value, _) in outcome.metrics.items()
            if name in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
