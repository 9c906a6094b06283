"""Subprocess tests: every example script runs against the package in
``src/``, and importing the package loads no thread pool."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Group burdens at oversampling seeds 0-3; seed 0 at eps 0 is the frozen
# oracle value of test_profiles.py (A 1/2, B 151/301).
TYRANNY_BURDEN_STDOUT = """\
dataset: 1204 points, groups A/B, 603 positive

seed 0: baseline 602/1206
  eps=0         burden  A: 0.500  B: 0.502
  eps=2/603     burden  A: 1.000  B: 1.000

seed 1: baseline 602/1206
  eps=0         burden  A: 0.502  B: 0.500
  eps=2/603     burden  A: 1.000  B: 1.000

seed 2: baseline 601/1206
  eps=0         burden  A: 0.251  B: 0.250
  eps=2/603     burden  A: 1.000  B: 1.000

seed 3: baseline 601/1206
  eps=0         burden  A: 0.000  B: 0.000
  eps=2/603     burden  A: 1.000  B: 1.000
"""

# A 5 x 20 pool on the bundled compas-style sample against the exact
# measures around the pool's baseline.
EXACT_VS_ADHOC_STDOUT = """\
train: 128 points, 20 distinct rows
pool: 100 models, baseline train risk 0.2031

 eps        exact disc  pool disc   exact amb   pool amb
 0              0.1875     0.1875      0.1875    0.1875
 1/128          0.1875     0.1875      0.1875    0.1875
 1/64           0.1875     0.1875      0.1875    0.1875
 3/64           0.1875     0.1875      0.1875    0.1875
"""


@pytest.mark.parametrize(
    "script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name
)
def test_script_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    if script.name == "run_xor_profile.py":
        # eps 0: discrepancy 1/2 and ambiguity 1
        assert re.search(r"^ 0\s+1/2\s+1$", done.stdout, re.MULTILINE), done.stdout
    if script.name == "run_tyranny_burden.py":
        assert done.stdout == TYRANNY_BURDEN_STDOUT
    if script.name == "run_exact_vs_adhoc.py":
        assert done.stdout == EXACT_VS_ADHOC_STDOUT


def test_import_loads_no_thread_pool():
    # concurrent.futures (and the logging it pulls in) is set-up cost that
    # a sequential package does not need
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, multiplicity; print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
