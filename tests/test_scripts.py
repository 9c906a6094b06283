"""Smoke test: every example script runs against the package in ``src/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
