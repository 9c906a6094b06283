"""Record the reference outputs that ``checks.py`` compares audits against.

    PYTHONPATH=src python3 perfbench/record_references.py [workload ...]

Runs one audit of each named workload (all by default) from the root of a
source checkout and copies the files the checks read into
``perfbench/reference/<workload>/``. Re-record only when a workload's input
or configuration changes, never to make a failing check pass.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from multiplicity import cli

import workloads
from checks import REFERENCE_DIR

REFERENCE_FILES = {
    "compas-adhoc": ("profile.csv", "burden.csv"),
    "tyranny-grid": ("profile.csv", "burden.csv"),
    "ladder-100": ("profile.json",),
}


def main(names) -> int:
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        work = Path(tmp)
        for workload in names or workloads.WORKLOADS:
            kwargs = workloads.config_kwargs(workload, root, work)
            outdir = work / workload
            cli.run_audit(cli.RunConfig(**kwargs, outdir=str(outdir)))
            target = REFERENCE_DIR / workload
            target.mkdir(parents=True, exist_ok=True)
            for name in REFERENCE_FILES[workload]:
                shutil.copyfile(outdir / name, target / name)
            print(f"recorded {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
