"""The benchmark's three audit workloads and the synthetic ladder input.

Every workload is a fixed input: the bundled compas-style CSV, the built-in
``tyranny`` generator, and a ladder CSV generated here from ``LADDER_SEED``.
Fixed inputs keep the reference outputs valid and make every run of a
workload measure the same work, whatever ``--seed`` the runner is given.

Why each workload was chosen:

* ``compas-adhoc`` is the only workload that fits the penalized-regression
  pool (about three quarters of its audit time), and its discrepancy path
  branches over 3.3 training rows per feature cell.
* ``tyranny-grid`` makes 126 small certified solves on its default 121-point
  epsilon grid, so per-solve overhead and the number of epsilon solves
  dominate; 4 rows per cell.
* ``ladder-100`` gives every training row its own feature cell, runs two
  flip workers and stops every solve at a node limit, so it is the only
  workload whose output keeps open ``[lower, upper]`` intervals and the one
  dominated by node-LP pivots. A traced audit on 2 CPUs: node LPs are 99 %
  of branch-and-bound time, at 192 pivots and 237 us per pivot each, and the
  flip stage is 86 % of the audit's wall time. It bypasses the pool and
  gains nothing from cell compression. It is not gated in
  ``BENCHMARK.json``: its kernel samples (``calibrate.py``) are slowed by
  the audit's own flip and BLAS threads, so its time at reference speed
  spread 0.11 of its median over ten runs and 0.18 over five more, against
  0.04 to 0.06 on the other two workloads.

The ladder's 400-row rung (``write_ladder_csv(path, rows=500)``, same
settings) is left out. On 2 CPUs its baseline and three discrepancy solves
took 213 s (20 node LPs of about 1,700 pivots, 4.3 ms per pivot), and its
400 flip solves of five node LPs each, at about 3 s per LP on two threads,
would add about 50 minutes: far more than one benchmark run may take. It
can join as its own benchmark change once node LPs warm-start.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

LADDER_SEED = 100
LADDER_ROWS = 125  # 100 training rows after the 80/20 split


def write_ladder_csv(path: Path, seed: int = LADDER_SEED, rows: int = LADDER_ROWS) -> None:
    """Write ``rows`` noisy linearly-labelled points with three continuous
    features on a 0.001 grid and two groups."""
    rng = random.Random(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x3", "label", "group"])
        for _ in range(rows):
            x = [round(rng.random(), 3) for _ in range(3)]
            group = "A" if rng.random() < 0.5 else "B"
            score = x[0] - 0.7 * x[1] + 0.4 * x[2] + (0.1 if group == "A" else -0.1)
            label = 1 if score + rng.gauss(0.0, 0.3) > 0.25 else 0
            writer.writerow([repr(v) for v in x] + [label, group])


def config_kwargs(workload: str, root: Path, data_dir: Path) -> dict:
    """``RunConfig`` fields of ``workload`` apart from ``outdir``.

    ``data_dir`` receives the generated ladder CSV when it is missing.
    """
    if workload == "compas-adhoc":
        return {
            "dataset": str(root / "tests" / "data" / "compas_style.csv"),
            "label_column": "two_year_recid",
            "group_column": "race",
            "adhoc": True,
        }
    if workload == "tyranny-grid":
        return {"dataset": "tyranny"}
    if workload == "ladder-100":
        path = data_dir / f"ladder-{LADDER_SEED}.csv"
        if not path.exists():
            write_ladder_csv(path)
        return {
            "dataset": str(path),
            "label_column": "label",
            "group_column": "group",
            "epsilons": "0,0.02,0.05",
            "node_limit": 4,
            "workers": 2,
        }
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("compas-adhoc", "tyranny-grid", "ladder-100")
