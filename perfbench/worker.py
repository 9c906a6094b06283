"""Child process of the benchmark: set up one workload, then run audits.

``--mode setup`` stops after ``import multiplicity`` and the workload's
``load_dataset`` and reports when it got there, so the parent can time a
fresh process start, and then the typical time of a kernel burst
(``calibrate.py``). ``--mode audit`` then runs untraced audits until the
next one would end past ``--seconds`` (at least one). ``--mode trace``
spends half of ``--seconds`` on untraced audits (at least one) and half on
traced ones (at least two). Every audit samples the kernel while it runs.
The result is written as JSON to ``--result``.

Run by ``run.py``; see there for the command line users type.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from multiplicity import cli  # imports the whole package: part of set-up

import calibrate
import workloads


def _run_audits(config_kwargs, outdir: Path, budget: float, minimum: int, tracer):
    """Run audits until the next would end past ``budget`` seconds."""
    records = []
    started = time.perf_counter()
    while True:
        target = outdir / f"audit-{len(records) + 1:03d}"
        config = cli.RunConfig(**config_kwargs, outdir=str(target))
        error = None
        if tracer is not None:
            tracer.reset()
            tracer.install()
        with calibrate.Sampler() as speed:
            t0 = time.perf_counter()
            try:
                cli.run_audit(config)
            except Exception:  # noqa: BLE001 - every failure is counted and reported
                error = traceback.format_exc(limit=4)
            finally:
                seconds = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
        records.append(
            {
                "outdir": str(target),
                "seconds": seconds,
                "kernel_s": speed.typical(),
                "error": error,
                "layers": None if tracer is None else tracer.metrics(),
            }
        )
        elapsed = time.perf_counter() - started
        typical = sorted(r["seconds"] for r in records)[len(records) // 2]
        if len(records) >= minimum and elapsed + typical > budget:
            return records


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--mode", required=True, choices=("setup", "audit", "trace"))
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args()

    config_kwargs = workloads.config_kwargs(args.workload, args.root, args.work)
    cli.load_dataset(cli.RunConfig(**config_kwargs))
    result = {"setup_done": time.monotonic()}

    if args.mode == "setup":
        result["kernel_s"] = calibrate.burst()
    elif args.mode == "audit":
        result["audits"] = _run_audits(config_kwargs, args.work, args.seconds, 1, None)
    elif args.mode == "trace":
        from tracing import Tracer

        half = args.seconds / 2
        untraced = _run_audits(config_kwargs, args.work / "untraced", half, 1, None)
        traced = _run_audits(config_kwargs, args.work / "traced", half, 2, Tracer())
        result["audits"] = untraced + traced
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
